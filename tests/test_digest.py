"""``tools/digest.py`` on a few ops: the digest of a seed is a SHA-256
that does not depend on the directory the workload ran in, and differs
between seeds; several workloads print one line per workload and seed,
in the order given; and the digests of every workload at seeds 1 and 777
over 24 ops are pinned."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digest  # noqa: E402


@pytest.mark.parametrize("workload", ["replay-bodies", "slosh-half-cyl48"])
def test_digest_repeats_and_depends_on_the_seed(workload, capsys):
    first = digest.seed_digest(workload, 1, 3)
    assert len(first) == 64 and int(first, 16) >= 0
    assert digest.seed_digest(workload, 1, 3) == first
    assert digest.main(["--workload", workload, "--seeds", "1", "2", "--ops", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{workload} seed 1 ops 3: {first}"
    assert lines[1].startswith(f"{workload} seed 2 ops 3: ") and lines[1][-64:] != first


def test_digest_prints_one_line_per_workload_and_seed(capsys):
    workloads = ["slosh-half-cyl48", "tilt-ico4"]
    assert digest.main(["--workload", *workloads, "--seeds", "1", "2", "--ops", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{workload} seed {seed} ops 2" for workload in workloads for seed in (1, 2)]
    assert lines == [f"{workload} seed {seed} ops 2: {digest.seed_digest(workload, seed, 2)}"
                     for workload in workloads for seed in (1, 2)]


# The digests of every benchmark workload at seeds 1 and 777 over 24 ops,
# as this checkout computes them with the numpy and BLAS build of the
# machine that recorded them (numpy 2.4.6 with OpenBLAS 0.3.31 on a 2-core
# x86-64 VM with AVX-512, one BLAS thread as ``tools/digest.py`` sets).
# The pins hold the bits of that machine's kernels, in two places:
# OpenBLAS picks its kernel for ``@`` by CPU (SkylakeX there;
# ``OPENBLAS_CORETYPE`` overrides it), and another kernel rounds the
# projections of every workload differently; numpy dispatches
# ``np.arctan2`` to an AVX-512 loop whose bits differ from its AVX2 loop,
# which moves ``thread-engage``.  A change that moves a trace or an
# exported body updates these values and says why in CHANGES.md.
PINNED_DIGESTS = {
    ("slosh-half-cyl48", 1): "ea0754644d5fcc5124c8c862ef89a8fbd6baaafb1f907056b97a442f49cb16f9",
    ("slosh-half-cyl48", 777): "6477b33ba8f1af372a29b971ad16753f9a7049482de5b9cc7a242609e325e5fe",
    ("tilt-ico4", 1): "df42dcee9260982aa872b558e3b8090f2fbf1bc1d1453cfe54f6edd2628196de",
    ("tilt-ico4", 777): "989bcb734f519f66e0a7d91660252100adece9c0d10e4015c927c748b0246d33",
    ("replay-bodies", 1): "c461a0648be8842a2cc280cba74e0a8af181d22cb050b0ef60bcbae010c24056",
    ("replay-bodies", 777): "c90378d632c17a35a55a22f93b0807c43f41d2045ce0ccf1651bc1abf72a3264",
    ("thread-engage", 1): "5ddb36ead1e73f2b696796bc8d66f6f87dfd1c5bb353d451e6a23661e7fda540",
    ("thread-engage", 777): "49ff8441060ae9790101477341c3e78be8d9415bd11800eed1a381a615a1694b",
}


def platform() -> str:
    """numpy's version, the CPU features its dispatch uses on this host and
    the OpenBLAS kernel override: what a pin depends on besides the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    dispatched = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return (f"numpy {np.__version__}, dispatched CPU features {dispatched}, "
            f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', '(unset)')}")


@pytest.mark.parametrize("workload, seed", sorted(PINNED_DIGESTS))
def test_digest_is_pinned(workload, seed):
    got = digest.seed_digest(workload, seed, 24)
    assert got == PINNED_DIGESTS[workload, seed], (
        f"digest {got} is not the pin; on a host other than the one that recorded "
        f"the pins this can be a platform difference, not a fault ({platform()})")
