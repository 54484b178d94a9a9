"""End-to-end and per-layer metrics of a benchmark run."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from tracing import END, NAME, START, self_times

#: Iteration budget that the height solver documents for a solve.
ITERATION_BUDGET = 20


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.  With n >= 100 samples, p90
    leaves at least ten samples above it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis quantile: the mean of the order statistics weighted by
    a Beta((n+1)q, (n+1)(1-q)) density taken at their rank midpoints.

    Op latencies of the scene workloads cluster at multiples of one slow
    height solve; a single order statistic jumps between clusters from
    run to run, while this weighted mean moves smoothly."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    logs = [(a - 1.0) * math.log((i + 0.5) / n) + (b - 1.0) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


@dataclass
class Tally:
    """Op runs attempted and failed.  A run fails on a LabmechError, a
    non-zero CLI exit, a failed correctness gate, or output that differs
    from the op's first run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, op: int, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"op {op}: {error}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def end_to_end(latencies, steps, setup_s: float, tally: Tally) -> dict:
    """``{name: (value, unit)}`` from per-op latencies (seconds) and steps.
    Failed runs count in the latencies and the busy time; throughput counts
    only the share of runs that passed."""
    busy = sum(latencies)
    ok_ratio = 1.0 - tally.fail_ratio
    return {
        "op_ms_p50": (1e3 * hd_quantile(latencies, 0.5), "ms"),
        "op_ms_p90": (1e3 * hd_quantile(latencies, 0.9), "ms"),
        "ops_per_s": (ok_ratio * len(latencies) / busy, "1/s"),
        "step_us": (1e6 * busy / sum(steps), "us"),
        "ok_ratio": (ok_ratio, "ratio"),
        "setup_s": (setup_s, "s"),
    }


def _per(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec, steps: int, overhead: float) -> list[tuple]:
    """Rows ``(name, value, unit, base)`` of a traced run that simulated or
    replayed ``steps`` liquid steps.  A layer the workload does not reach
    reads 0."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for span, mine in zip(rec.spans, self_times(rec.spans)):
        calls[span[NAME]] += 1
        total[span[NAME]] += span[END] - span[START]
        own[span[NAME]] += mine

    def mean(name, unit, of=total):
        scale = {"ns": 1.0, "us": 1e-3, "ms": 1e-6}[unit]
        return _per(of[name] * scale, calls[name]), unit, f"{calls[name]} calls"

    def per_step(name):
        return _per(calls[name], steps), "calls/step", f"{calls[name]} calls / {steps} steps"

    iters = rec.solve_iters
    solves = len(iters)
    over = sum(1 for n in iters if n > ITERATION_BUDGET)
    points, sdf_calls = rec.sdf_points, calls["helix.sdf_thread"]
    rows = {
        "harness.self_us_per_step": (
            _per(own["harness.run_liquid_scene"] * 1e-3, steps), "us", f"{steps} steps"),
        "pendulum.step_pendulum.us": mean("pendulum.step_pendulum", "us"),
        "mesh.height_search.calls": (solves, "count", "solves"),
        "mesh.height_search.self_us": mean("mesh.height_search", "us", own),
        "mesh.height_search.iters_p50": (
            percentile(iters, 50) if iters else 0, "count", f"{solves} solves"),
        "mesh.height_search.iters_max": (max(iters, default=0), "count", f"{solves} solves"),
        "mesh.height_search.over_budget_ratio": (
            _per(over, solves), "ratio",
            f"{over}/{solves} solves over {ITERATION_BUDGET} iterations"),
        "mesh.clip_volume.calls_per_step": per_step("mesh.clip_volume"),
        "mesh.clip_volume.wasted_ratio": (
            _per(rec.wasted_clip_calls, rec.solve_clip_calls), "ratio",
            f"{rec.wasted_clip_calls}/{rec.solve_clip_calls} solve clip calls "
            "after the residual met tol_rel x capacity"),
        "mesh.clip_volume.us": mean("mesh.clip_volume", "us"),
        "mesh.mesh_volume.calls_per_step": per_step("mesh.mesh_volume"),
        "mesh.mesh_volume.us": mean("mesh.mesh_volume", "us"),
        "mesh.liquid_geometry.us": mean("mesh.liquid_geometry", "us"),
        "mesh.load_mesh.us": mean("mesh.load_mesh", "us"),
        "mesh.save_mesh.us": mean("mesh.save_mesh", "us"),
        "trace.read_trace.us": mean("trace.read_trace", "us"),
        "cli.replay.self_ms": mean("cli.replay", "ms", own),
        "helix.thread_engagement.self_us": mean("helix.thread_engagement", "us", own),
        "helix.sdf_thread.calls": (sdf_calls, "count", "calls"),
        "helix.sdf_thread.points_per_call": (
            _per(points, sdf_calls), "points/call", f"{points} points / {sdf_calls} calls"),
        "helix.sdf_thread.ns_per_point": (
            _per(total["helix.sdf_thread"], points), "ns", f"{points} points"),
        "helix.sdf_gradient.us": mean("helix.sdf_gradient", "us"),
        "tracing.overhead_ratio": (overhead, "ratio", "traced / untraced op time - 1"),
    }
    return [(name, *row) for name, row in rows.items()]


def iteration_histogram(iters) -> dict[int, int]:
    """Exact count of solves per iteration count, in ascending order."""
    return dict(sorted(Counter(iters).items()))
