"""The gain rule of ``tools/bench_record.py`` on synthetic runs: a change
gains on a metric only with at least ten pairs, nine in ten of them won,
medians further apart than the parent's quartile spread and no larger share
of failed operations."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "step_us", "better": "lower"},
    {"name": "ops_per_s", "better": "higher"},
]


def make_runs(parent, change, failed=(0, 0), attempted=100):
    """One untraced run per side and pair with the given (step_us,
    ops_per_s) values, then one traced run per side, which the rule
    ignores."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, (step_us, ops_per_s), bad in (("parent", p, failed[0]), ("change", c, failed[1])):
            runs.append({"side": side, "pair": pair, "trace": 0, "failed": bad,
                         "attempted": attempted,
                         "metrics": {"step_us": step_us, "ops_per_s": ops_per_s}})
    for side in ("parent", "change"):
        runs.append({"side": side, "pair": len(parent), "trace": 1, "failed": 0,
                     "attempted": attempted, "metrics": {"clip_us": 1.0}})
    return runs


def judge(runs):
    summary = bench_record.summarize(runs, ["parent", "change"])
    return bench_record.compare(runs, END_TO_END, summary)


def spread(center, n):
    """``n`` values around ``center``, one unit apart."""
    return [center + i - n // 2 for i in range(n)]


def test_clear_win_is_a_gain():
    parent = list(zip(spread(1000, 10), spread(200, 10)))
    change = list(zip(spread(800, 10), spread(250, 10)))
    result = judge(make_runs(parent, change))
    assert result == {"step_us": {"wins": "10/10", "gain": True},
                      "ops_per_s": {"wins": "10/10", "gain": True}}


def test_ties_count_for_neither_side():
    values = list(zip(spread(1000, 10), spread(200, 10)))
    assert judge(make_runs(values, values))["step_us"] == {"wins": "0/10", "gain": False}
    # nine wins and a tie: the tie is no loss, so nine in ten still gain
    change = [(v - 50, o + 50) for v, o in values[:9]] + values[9:]
    assert judge(make_runs(values, change))["step_us"] == {"wins": "9/10", "gain": True}
    # eight wins and two ties fall short of nine in ten
    change = [(v - 50, o + 50) for v, o in values[:8]] + values[8:]
    assert judge(make_runs(values, change))["step_us"] == {"wins": "8/10", "gain": False}


@pytest.mark.parametrize("pairs", [1, 3, 9])
def test_fewer_than_ten_pairs_are_never_a_gain(pairs):
    parent = list(zip(spread(1000, pairs), spread(200, pairs)))
    change = list(zip(spread(500, pairs), spread(400, pairs)))
    result = judge(make_runs(parent, change))
    assert result["step_us"] == {"wins": f"{pairs}/{pairs}", "gain": False}
    assert result["ops_per_s"] == {"wins": f"{pairs}/{pairs}", "gain": False}


def test_larger_failed_share_blocks_a_gain():
    parent = list(zip(spread(1000, 10), spread(200, 10)))
    change = list(zip(spread(800, 10), spread(250, 10)))
    assert judge(make_runs(parent, change, failed=(1, 1)))["step_us"]["gain"] is True
    blocked = judge(make_runs(parent, change, failed=(1, 2)))
    assert blocked["step_us"] == {"wins": "10/10", "gain": False}
    assert blocked["ops_per_s"] == {"wins": "10/10", "gain": False}


def test_ops_per_s_is_higher_is_better():
    parent = list(zip(spread(1000, 10), spread(200, 10)))
    # the same step_us, but more operations per second: a gain on ops_per_s
    result = judge(make_runs(parent, [(s, o + 100) for s, o in parent]))
    assert result["ops_per_s"] == {"wins": "10/10", "gain": True}
    # fewer operations per second is a loss, not a win
    result = judge(make_runs(parent, [(s, o - 100) for s, o in parent]))
    assert result["ops_per_s"] == {"wins": "0/10", "gain": False}


def test_medians_within_the_parent_spread_are_no_gain():
    # every pair is won by a hair; the parent's quartiles are 4.5 apart
    parent = list(zip(spread(1000, 10), spread(200, 10)))
    change = [(s - 1, o + 1) for s, o in parent]
    result = judge(make_runs(parent, change))
    assert result["step_us"] == {"wins": "10/10", "gain": False}


def test_quartiles_and_failed_share():
    assert bench_record.quartiles([7.0]) == [7.0, 7.0, 7.0]
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    runs = make_runs([(1, 1)] * 2, [(1, 1)] * 2, failed=(1, 3), attempted=10)
    runs[-1]["failed"] = 10  # a traced run does not count
    assert bench_record.failed_share(runs, "parent") == pytest.approx(0.1)
    assert bench_record.failed_share(runs, "change") == pytest.approx(0.3)
