#!/usr/bin/env python3
"""SHA-256 of benchmark workloads' outputs, one per workload and seed.

    python3 tools/digest.py --workload slosh-half-cyl48 tilt-ico4 replay-bodies \
        --seeds 1 777 --ops 24

Builds each workload of ``perfbench/workloads.py`` (imported as it is,
with labmech from this checkout's ``src/``) in a fresh temporary directory
per seed, runs ops 0 .. ops-1 untraced, checks each with the workload's
own gate and hashes the ops' ``digest`` bytes in order.  Two checkouts
whose digests match produced byte-identical outputs on those ops: for
``replay-bodies``, every exported body file.  Prints one line per workload
and seed, workloads in the order given; exits 1 if an op fails or its gate
rejects it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_workloads():
    """perfbench's workloads and its no-op recorder, with labmech from ``src/``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import tracing
    import workloads

    return workloads.WORKLOADS, tracing.NullRecorder()


def seed_digest(workload: str, seed: int, ops: int) -> str:
    """Hex SHA-256 over the digests of ops 0 .. ops-1 at ``seed``."""
    workloads, rec = _import_workloads()
    wl = workloads[workload]
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        fx = wl.setup(seed, Path(tmp))
        for i in range(ops):
            inp = wl.make_input(fx, i)
            out = wl.run(fx, inp, rec)
            error = wl.check(fx, inp, out)
            if error:
                raise RuntimeError(f"{workload} seed {seed} op {i}: {error}")
            h.update(wl.digest(fx, out))
    return h.hexdigest()


def main(argv=None) -> int:
    workloads, _ = _import_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads), nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--ops", type=int, default=24, help="ops per seed")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    for workload in args.workload:
        for seed in args.seeds:
            try:
                digest = seed_digest(workload, seed, args.ops)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            print(f"{workload} seed {seed} ops {args.ops}: {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
