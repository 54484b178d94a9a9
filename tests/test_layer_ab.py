"""The summary arithmetic of ``tools/layer_ab.py`` on synthetic series:
each side's minimum and inclusive quartiles per input, the ratio of the
change's median to the parent's, and the quartiles of the per-round
ratio."""

import sys
from pathlib import Path

import pytest

# the tool imports its quartiles from tools/bench_record.py, next to it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import layer_ab  # noqa: E402


def test_stats_are_the_minimum_and_inclusive_quartiles():
    # inclusive quartiles of 1..9 interpolate at positions 2 and 6 (0-based)
    assert layer_ab.stats([9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]) == {
        "min": 1.0, "q1": 3.0, "median": 5.0, "q3": 7.0,
    }
    # four values: positions 0.75, 1.5 and 2.25 between the sorted values
    assert layer_ab.stats([40.0, 10.0, 30.0, 20.0]) == {
        "min": 10.0, "q1": 17.5, "median": 25.0, "q3": 32.5,
    }


def test_one_round_is_its_own_quartiles():
    assert layer_ab.stats([12.5]) == {"min": 12.5, "q1": 12.5, "median": 12.5, "q3": 12.5}


def test_summary_per_input_and_side():
    series = {
        "parent": {"ico": [200.0, 100.0, 300.0], "prism": [10.0, 10.0, 10.0]},
        "change": {"ico": [50.0, 150.0, 100.0], "prism": [12.0, 11.0, 10.0]},
    }
    summary = layer_ab.summarize(series)
    assert list(summary) == ["ico", "prism"]
    assert summary["ico"]["parent"] == {"min": 100.0, "q1": 150.0, "median": 200.0, "q3": 250.0}
    assert summary["ico"]["change"] == {"min": 50.0, "q1": 75.0, "median": 100.0, "q3": 125.0}
    assert summary["ico"]["median_ratio"] == 0.5
    assert summary["prism"]["median_ratio"] == pytest.approx(1.1)
    # per round: 50/200, 150/100, 100/300 and 1.2, 1.1, 1.0
    assert summary["ico"]["round_ratio"] == pytest.approx(
        {"q1": 0.5 * (0.25 + 1 / 3), "median": 1 / 3, "q3": 0.5 * (1 / 3 + 1.5)})
    assert summary["prism"]["round_ratio"] == pytest.approx({"q1": 1.05, "median": 1.1, "q3": 1.15})


def test_round_ratio_cancels_a_slow_stretch():
    # the host runs 2x slow for the second half of the rounds: the raw
    # medians land between the two speeds, each round's ratio stays 0.8
    slow = [1.0] * 5 + [2.0] * 5
    series = {"parent": {"x": [100.0 * k for k in slow]},
              "change": {"x": [80.0 * k for k in slow]}}
    entry = layer_ab.summarize(series)["x"]
    assert entry["parent"]["q1"] == 100.0 and entry["parent"]["q3"] == 200.0
    assert entry["round_ratio"] == pytest.approx({"q1": 0.8, "median": 0.8, "q3": 0.8})


@pytest.mark.parametrize("layer", layer_ab.LAYERS)
def test_every_layer_builds_and_runs_its_inputs_once(layer, tmp_path):
    # one worker round in-process, so that a layer whose inputs no longer
    # fit the library's API fails here, not in a later A/B run
    cases = layer_ab.inputs(layer, tmp_path)
    assert cases and all(count >= 1 for _, _, count in cases.values())
    times = layer_ab.time_round(cases)
    assert list(times) == list(cases) and all(us > 0.0 for us in times.values())


@pytest.mark.parametrize("layer", ["save_mesh", "liquid_geometry"])
def test_body_layers_time_rollouts_after_the_random_planes(layer, tmp_path):
    # the rollout inputs come after the random planes, so that adding them
    # left the random planes' inputs and names as they were
    assert list(layer_ab.inputs(layer, tmp_path)) == [
        "icosphere-3", "cylinder-48", "l-prism", "cylinder-48 rollout", "icosphere-3 rollout"]
