"""Tests of the benchmark's own helpers; they need neither labmech nor a
timed run.  Run with ``python3 -m pytest perfbench/tests -q``."""

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rules


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    # ten samples lie above p90 at n = 100
    assert sum(v > metrics.percentile(values, 90) for v in values) == 10
    assert metrics.percentile([7.0], 90) == 7.0
    assert metrics.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_hd_quantile_is_a_smooth_weighted_order_statistic():
    assert metrics.hd_quantile([4.0] * 50, 0.9) == pytest.approx(4.0)
    # symmetric samples: the median is the centre
    assert metrics.hd_quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    uniform = [i / 999 for i in range(1000)]
    assert metrics.hd_quantile(uniform, 0.9) == pytest.approx(0.9, abs=2e-3)
    # two clusters with a gap at the median: a nearest-rank median jumps by
    # the whole gap when one sample moves across, the weighted one by little
    low, high = [1.0] * 50, [2.0] * 50
    moved = [1.0] * 49 + [2.0] * 51
    assert metrics.percentile(low + high, 50) != metrics.percentile(moved, 50)
    assert abs(metrics.hd_quantile(low + high, 0.5) - metrics.hd_quantile(moved, 0.5)) < 0.1
    with pytest.raises(ValueError):
        metrics.hd_quantile([], 0.5)


# ---------------------------------------------------------------------------
# failure counting


def test_tally_counts_failed_against_attempted():
    tally = metrics.Tally()
    for op, error in enumerate([None, "gate", None, None]):
        tally.add(op, error)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.fail_ratio == 0.25
    assert tally.errors == ["op 1: gate"]


@dataclass
class FakeWorkload:
    """Each run of an op returns the next of ``outputs``; "raise" raises and
    None fails the gate."""

    outputs: list
    reference = reference.INTERPRETER

    def make_input(self, fx, i):
        return i

    def run(self, fx, i, rec):
        out = self.outputs.pop(0)
        if out == "raise":
            raise KeyError("op failed")
        return out

    def check(self, fx, i, out):
        return None if out is not None else "bad output"

    def digest(self, fx, out):
        return repr(out).encode()

    def steps(self, i):
        return 2


def test_measure_counts_raised_and_gated_failures_and_keeps_going():
    # pass 1 raises on op 1 and fails the gate on op 2; pass 2 repeats it
    wl = FakeWorkload(["a", "raise", None, "d"] * 2)
    tally = metrics.Tally()
    null = tracing.NullRecorder()
    result = run.measure(wl, None, 0.0, 4, tally, [null, null], KeyError)
    assert sum(result.steps) == 8
    assert [len(s) for s in result.seconds[:2]] == [4, 4]
    assert [len(s) for s in result.slices] == [4, 4]
    # a failed op fails again in pass 2: by its raise or by its gate
    assert (tally.attempted, tally.failed) == (8, 4)
    assert len(result.fastest()) == 4


def test_later_pass_must_repeat_pass_one_bit_for_bit():
    wl = FakeWorkload(["a", "b", "a", "c"])
    tally = metrics.Tally()
    null = tracing.NullRecorder()
    run.measure(wl, None, 0.0, 2, tally, [null, null], KeyError)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.errors == ["op 1: pass 2 output is not bit-identical to pass 1"]


# ---------------------------------------------------------------------------
# host-speed scaling


def test_local_scale_follows_the_median_slice_around_each_op():
    ref = reference.INTERPRETER
    slow = [2.0 * ref.nominal_s] * 40
    # one stalled slice in a slow stretch does not move its neighbours
    slow[30] = 50.0 * ref.nominal_s
    scale = ref.local_scale([ref.nominal_s] * 40 + slow)
    assert scale[0] == pytest.approx(1.0)
    assert scale[79] == pytest.approx(0.5)
    assert scale[70] == pytest.approx(0.5)
    assert len(scale) == 80


def test_fastest_compares_passes_at_nominal_host_speed():
    ref = reference.DISPATCH
    # pass 1 ran on a host at half speed, pass 2 at full speed
    result = run.Run(seconds=[[2.0, 4.0], [1.5, 2.5]],
                     slices=[[2.0 * ref.nominal_s] * 2, [ref.nominal_s] * 2], reference=ref)
    assert result.fastest() == pytest.approx([1.0, 2.0])
    assert result.fastest(wall=True) == [1.5, 2.5]
    assert result.fastest(slice(1, None)) == pytest.approx([1.5, 2.5])
    assert result.median_slice() == pytest.approx(1.5 * ref.nominal_s)


def test_end_to_end_metrics_count_failures_in_throughput_only():
    tally = metrics.Tally(attempted=16, failed=4)
    out = metrics.end_to_end([0.1, 0.1, 0.1, 0.1], [2, 2, 2, 2], 0.5, tally)
    assert out["ops_per_s"] == (pytest.approx(7.5), "1/s")
    assert out["step_us"] == (pytest.approx(5e4), "us")
    assert out["ok_ratio"] == (0.75, "ratio")
    assert out["op_ms_p50"][0] == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# span self time


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0, 100, -1),
        span("child", 10, 40, 0),
        span("grandchild", 15, 35, 1),
        span("child", 50, 60, 0),
    ]
    assert tracing.self_times(spans) == [100 - 30 - 10, 30 - 20, 20, 10]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 50, 0),
        span("b", 30, 70, 0),     # overlaps a by 20
        span("c", 90, 120, 0),    # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == 100 - 60 - 10


def test_recorder_nests_spans_and_tags_ops():
    rec = tracing.Recorder()
    rec.op = 7
    inner = rec.wrap("inner", lambda x: x + 1)
    with rec.span("outer"):
        assert inner(1) == 2
    (outer, child) = rec.spans
    assert outer[tracing.PARENT] == -1 and child[tracing.PARENT] == 0
    assert outer[tracing.OP] == child[tracing.OP] == 7
    assert outer[tracing.START] <= child[tracing.START] <= child[tracing.END] <= outer[tracing.END]


@dataclass
class Clip:
    volume: float


@dataclass
class Found:
    iterations: int


def test_solver_counters_mark_clip_calls_after_tolerance_as_wasted():
    rec = tracing.Recorder()
    volumes = iter([0.2, 0.5 + 1e-12, 0.5, 0.5])

    def clip_volume(mesh, plane):
        return Clip(next(volumes))

    def height_search(mesh, normal, target_volume, h_prev=None, tol_rel=1e-9):
        for _ in range(4):
            traced_clip(mesh, None)
        return Found(iterations=4)

    traced_search, traced_clip = tracing._solver_wrappers(
        rec, height_search, clip_volume, mesh_volume=lambda mesh: 1.0
    )
    assert traced_search("mesh", (0, 0, 1), 0.5).iterations == 4
    assert rec.solve_iters == [4]
    assert (rec.solve_clip_calls, rec.wasted_clip_calls) == (4, 2)
    rows = dict((r[0], r[1]) for r in metrics.layer_metrics(rec, steps=1, overhead=0.0))
    assert rows["mesh.clip_volume.wasted_ratio"] == 0.5
    assert rows["mesh.height_search.over_budget_ratio"] == 0.0
    assert rows["mesh.clip_volume.calls_per_step"] == 4.0
