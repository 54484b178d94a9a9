#!/usr/bin/env python3
"""Record benchmark runs into ``BENCH_<n>.json`` at the repository root.

    python3 tools/bench_record.py --number 6 --workloads replay-bodies \\
        --baseline ../labmech-parent --pairs 10 --seed 1

Runs ``perfbench/run.py`` of this checkout (side ``change``) and, with
``--baseline``, of another checkout (side ``parent``), in closed pairs that
alternate which side runs first.  A pair is one untraced run per side;
after the pairs, one traced run per side gives the per-layer metrics.  Each
run's record is the last line of its standard output, one JSON object.

Per workload and seed the file keeps a list of series, one per call, each
appended to those already there.  A series names the commit of each side
(marked when the checkout has uncommitted changes) and keeps every run,
and per side the quartiles (q1, median, q3) of each metric over its runs:
the untraced runs give the end-to-end metrics, the traced run the
per-layer ones.  With a baseline it also keeps, per end-to-end metric, how
many pairs the change won (ties count for neither side) and whether that
is a gain: at least ten pairs, at least nine in ten of them won, medians
further apart than the parent's quartile spread, and no larger share of
failed operations than the parent's.  Run length and directions come from
``BENCHMARK.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: A run covers set-up, two passes of at most 35 s each and set-up again.
RUN_TIMEOUT_S = 600
#: Fewer pairs than this never count as a gain.
MIN_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``: its last JSON line, with the
    metric values unwrapped from their units."""
    argv = [sys.executable, "perfbench/run.py", f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={trace}"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    record["metrics"] = {k: v["value"] for k, v in record["metrics"].items()}
    return record


def describe(checkout: Path):
    """The checkout's short commit id, with ``+uncommitted`` when its
    tracked files differ from that commit; None outside git."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "--short", "HEAD")
    if commit is None:
        return None
    return commit + ("+uncommitted" if git("status", "--porcelain", "--untracked-files=no")
                     else "")


def failed_share(runs: list, side: str) -> float:
    """Failed operations over attempted ones, across the side's untraced runs."""
    untraced = [run for run in runs if run["side"] == side and run["trace"] == 0]
    return sum(run["failed"] for run in untraced) / sum(run["attempted"] for run in untraced)


def quartiles(values: list) -> list:
    """[q1, median, q3] of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(runs: list, sides: list) -> dict:
    """Per side and metric, the quartiles over the side's runs (a metric
    comes from either the untraced or the traced runs, never both)."""
    summary = {}
    for side in sides:
        values: dict[str, list] = {}
        for run in runs:
            if run["side"] == side:
                for name, value in run["metrics"].items():
                    values.setdefault(name, []).append(value)
        summary[side] = {name: quartiles(v) for name, v in sorted(values.items())}
    return summary


def compare(runs: list, end_to_end: list, summary: dict) -> dict:
    """Per end-to-end metric: pairs won by the change and whether the gain
    rule holds."""
    no_more_failures = failed_share(runs, "change") <= failed_share(runs, "parent")
    pairs: dict[int, dict] = {}
    for run in runs:
        if run["trace"] == 0:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        wins = total = 0
        for pair in pairs.values():
            if name not in pair.get("parent", {}) or name not in pair.get("change", {}):
                continue
            total += 1
            parent, change = pair["parent"][name], pair["change"][name]
            wins += (change < parent) if lower else (change > parent)
        if not total:
            continue
        q1, parent_median, q3 = summary["parent"][name]
        change_median = summary["change"][name][1]
        better_by = (parent_median - change_median) if lower else (change_median - parent_median)
        out[name] = {
            "wins": f"{wins}/{total}",
            "gain": (total >= MIN_PAIRS and wins >= 0.9 * total and better_by > q3 - q1
                     and no_more_failures),
        }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=1, help="untraced runs per side")
    parser.add_argument("--baseline", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"change": ROOT}
    if args.baseline:
        sides = {"parent": args.baseline.resolve(), "change": ROOT}
    path = ROOT / f"BENCH_{args.number}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    doc["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                   "python": platform.python_version()}
    for workload in args.workloads:
        runs = []
        schedule = [(pair, 0, side) for pair in range(args.pairs)
                    for side in (list(sides) if pair % 2 == 0 else list(sides)[::-1])]
        schedule += [(args.pairs, 1, side) for side in sides]
        for pair, trace, side in schedule:
            record = run_once(sides[side], workload, args.seed, bench["run_seconds"], trace)
            runs.append({"side": side, "pair": pair, "trace": trace, **record})
            print(f"{workload} {side:6s} pair={pair} trace={trace} correct={record['correct']} "
                  f"step_us={record['metrics'].get('step_us', float('nan')):.6g}", flush=True)
        entry = {"seconds": bench["run_seconds"], "pairs": args.pairs,
                 "checkouts": {side: describe(checkout) for side, checkout in sides.items()},
                 "summary": summarize(runs, list(sides)), "runs": runs}
        if args.baseline:
            entry["compare"] = compare(runs, bench["end_to_end"], entry["summary"])
            for name, result in entry["compare"].items():
                medians = [f"{entry['summary'][side][name][1]:.6g}" for side in sides]
                print(f"  {name:10s} median {' -> '.join(medians)}, "
                      f"change won {result['wins']}, gain {result['gain']}")
        doc["workloads"].setdefault(workload, {}).setdefault(f"seed {args.seed}", []).append(entry)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
