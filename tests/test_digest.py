"""``tools/digest.py`` on a few ops: the digest of a seed is a SHA-256
that does not depend on the directory the workload ran in, and differs
between seeds; several workloads print one line per workload and seed,
in the order given."""

import sys
from pathlib import Path

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
