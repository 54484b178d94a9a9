#!/usr/bin/env python3
"""Benchmark of labmech: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload slosh-half-cyl48 --seed 1 --seconds 25 --trace 0

Run from the repository root; labmech is imported from ``src/`` next to
this directory.  A run makes two passes over the same ops.  The first pass
runs ops 0, 1, ... through their correctness gates for half of
``--seconds`` (and for at least 100 ops with ``--trace 0``); the second
re-runs those ops in the same order and requires bit-identical output.
After every op the run times a fixed slice of host-speed reference work
(``reference.py``), and scales the op's wall time to a host of nominal
speed, so that a host that runs slow for minutes does not decide the
result.  An op's latency is the faster of its two scaled runs, which also
drops most stalls shorter than a pass.  Set-up times are scaled the same
way.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces the
second pass, prints the per-layer table, reports the
per-layer metrics and writes the spans to ``perfbench/_run/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# one client and no extra threads: BLAS must not start a pool (numpy reads
# these when it is first imported, by the modules below)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import metrics  # noqa: E402
import tracing  # noqa: E402
from reference import Slice  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUN_DIR = HERE / "_run"

PASSES = 2
#: Fewest ops in an untraced run, so that p90 has ten samples beyond it.
MIN_OPS = 100
#: Set-up runs at least this often, and for at least SETUP_SECONDS (but
#: at most MAX_SETUP_REPEATS times), before the first pass and again after
#: the last; each set-up is scaled by the SETUP_SLICES slices just before it.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
MAX_SETUP_REPEATS = 50
SETUP_SLICES = 9
#: The first pass stops here even short of MIN_OPS, so that a run ends
#: within three minutes.
FIRST_PASS_DEADLINE_S = 35.0


@dataclass
class Run:
    """Wall seconds of every op in every pass, of the reference slice timed
    after each of them, and each op's steps."""

    seconds: list
    slices: list
    reference: Slice
    steps: list = field(default_factory=list)

    def scaled(self, p: int) -> list:
        """Op seconds of pass ``p`` at nominal host speed."""
        scale = self.reference.local_scale(self.slices[p])
        return [t * k for t, k in zip(self.seconds[p], scale)]

    def fastest(self, passes=slice(None), wall=False) -> list:
        """Each op's latency: the fastest of its runs in ``passes``, at
        nominal host speed (or as wall time)."""
        per_pass = self.seconds if wall else [self.scaled(p) for p in range(len(self.seconds))]
        return [min(runs) for runs in zip(*per_pass[passes])]

    def median_slice(self) -> float:
        """Median wall seconds of a reference slice, over the whole run."""
        return statistics.median(t for s in self.slices for t in s)


def attempt(wl, fx, i, rec, error_type):
    """Run op ``i`` once: its input, wall seconds, output, and error or None."""
    inp = wl.make_input(fx, i)
    rec.op = i
    t0 = time.perf_counter()
    try:
        out = wl.run(fx, inp, rec)
    except error_type as exc:
        return inp, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return inp, time.perf_counter() - t0, out, None


def gate(wl, fx, inp, out, error_type):
    """The workload's correctness check: an error message or None."""
    try:
        return wl.check(fx, inp, out)
    except error_type as exc:
        return f"gate: {type(exc).__name__}: {exc}"


def measure(wl, fx, seconds, min_ops, tally, recorders, error_type) -> Run:
    """Closed loop, one pass per recorder: op ``i + 1`` starts once op ``i``,
    its check and one of the workload's reference slices are done.  Pass 1
    gates every op;
    later passes require the same output bytes as pass 1 (the determinism
    contract), or gate again an op that failed in pass 1."""
    run = Run([[] for _ in recorders], [[] for _ in recorders], wl.reference)
    digests = []
    start = time.perf_counter()
    with recorders[0].active():
        while len(digests) < min_ops or time.perf_counter() - start < seconds / len(recorders):
            if time.perf_counter() - start >= FIRST_PASS_DEADLINE_S:
                break
            i = len(digests)
            inp, op_s, out, error = attempt(wl, fx, i, recorders[0], error_type)
            if error is None:
                error = gate(wl, fx, inp, out, error_type)
            tally.add(i, error)
            run.seconds[0].append(op_s)
            run.steps.append(wl.steps(inp))
            digests.append(None if error else wl.digest(fx, out))
            run.slices[0].append(wl.reference.timed())
    for p, rec in enumerate(recorders[1:], start=1):
        with rec.active():
            for i, digest in enumerate(digests):
                inp, op_s, out, error = attempt(wl, fx, i, rec, error_type)
                if error is None and digest is None:
                    error = gate(wl, fx, inp, out, error_type)
                elif error is None and wl.digest(fx, out) != digest:
                    error = f"pass {p + 1} output is not bit-identical to pass 1"
                tally.add(i, error)
                run.seconds[p].append(op_s)
                run.slices[p].append(wl.reference.timed())
    return run


def print_table(workload, rows, rec, run: Run, overhead) -> None:
    print(f"per-layer table: workload={workload}")
    print(f"  {'metric':38s} {'value':>13s}  {'unit':11s} base")
    for name, value, unit, basis in rows:
        print(f"  {name:38s} {value:13.6g}  {unit:11s} {basis}")
    histogram = metrics.iteration_histogram(rec.solve_iters)
    print(f"  height_search iterations per solve {{iterations: solves}}: {histogram}")
    for label, passes in (("untraced", slice(0, None, 2)), ("traced", slice(1, None, 2))):
        fastest = run.fastest(passes)
        print(f"  {label:9s} step_us={1e6 * sum(fastest) / sum(run.steps):.6g} "
              f"op_ms_p50={1e3 * metrics.hd_quantile(fastest, 0.5):.6g} "
              f"(n={len(fastest)} ops, {PASSES // 2} run(s) each)")
    print(f"  tracing overhead: {100.0 * overhead:+.2f}% op time")


def load_labmech() -> bool:
    """Import labmech from this checkout's ``src/``; False when it is absent."""
    if not (SRC / "labmech" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import labmech

    return Path(labmech.__file__).resolve().parent == (SRC / "labmech").resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_labmech():
        print(f"labmech sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads
    from labmech.errors import LabmechError

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = RUN_DIR / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)

    def timed_setups():
        """Set-up wall seconds and the same at nominal host speed, repeated
        at least SETUP_REPEATS times and for at least SETUP_SECONDS."""
        walls, scaled, fixture = [], [], None
        while len(walls) < SETUP_REPEATS or (
                sum(walls) < SETUP_SECONDS and len(walls) < MAX_SETUP_REPEATS):
            host = [wl.reference.timed() for _ in range(SETUP_SLICES)]
            t0 = time.perf_counter()
            fixture = wl.setup(args.seed, workdir)
            walls.append(time.perf_counter() - t0)
            scaled.append(walls[-1] * wl.reference.scale(host))
        return walls, scaled, fixture

    before_wall, before, fx = timed_setups()
    tally = metrics.Tally()
    if not args.trace:
        recorders = [tracing.NullRecorder()] * PASSES
        run = measure(wl, fx, args.seconds, MIN_OPS, tally, recorders, LabmechError)
    else:
        rec = tracing.Recorder()
        recorders = [tracing.NullRecorder(), rec] * (PASSES // 2)
        run = measure(wl, fx, args.seconds, 1, tally, recorders, LabmechError)
    after_wall, after, _ = timed_setups()
    setup_wall_s = statistics.median(before_wall + after_wall)
    setup_s = statistics.median(before + after)
    shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        result = metrics.end_to_end(run.fastest(), run.steps, setup_s, tally)
        wall = run.fastest(wall=True)
        print(f"{args.workload} seed={args.seed}: {len(run.steps)} ops x {PASSES} passes, "
              f"{sum(run.steps)} steps per pass, fail_ratio={tally.fail_ratio:.6g} "
              f"({tally.failed}/{tally.attempted})")
        print(f"  host: reference slice {1e6 * run.median_slice():.6g} us "
              f"(nominal {1e6 * wl.reference.nominal_s:.6g} us); as wall time "
              f"op_ms_p50={1e3 * metrics.hd_quantile(wall, 0.5):.6g} "
              f"step_us={1e6 * sum(wall) / sum(run.steps):.6g} setup_s={setup_wall_s:.6g}")
    else:
        overhead = (sum(run.fastest(slice(1, None, 2)))
                    / sum(run.fastest(slice(0, None, 2))) - 1.0)
        rows = metrics.layer_metrics(rec, sum(run.steps) * (PASSES // 2), overhead)
        slices = sum(len(s) for s in run.slices)
        rows.append(("host.reference_us", 1e6 * run.median_slice(), "us",
                     f"median of {slices} slices"))
        print_table(args.workload, rows, rec, run, overhead)
        path = tracing.write_spans(rec, RUN_DIR / f"spans-{args.workload}-{args.seed}.json",
                                   workload=args.workload, seed=args.seed)
        print(f"  {len(rec.spans)} spans written to {path.relative_to(HERE.parent)}")
        print(f"  fail_ratio={tally.fail_ratio:.6g} ({tally.failed}/{tally.attempted})")
        result = {name: (value, unit) for name, value, unit, _ in rows}
    for error in tally.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    if not args.trace:
        for name, (value, unit) in result.items():
            print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
