"""Unit and property tests for the helical thread fields."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from labmech import (
    DegenerateGradient,
    HelixAngleWarning,
    HelixSpec,
    helix_point,
    screw_advance,
    screw_pose,
    sdf_bounded,
    sdf_gradient,
    sdf_thread,
    sdf_unbounded,
    thread_engagement,
)
from labmech import helix
from labmech.helix import _nut_probes, _probe_groups

TWO_PI = 2.0 * np.pi


def wide_spec(**kw):
    base = dict(r1=1.0, r2=0.2, p=0.05, l=-10.0, h=10.0)
    base.update(kw)
    return HelixSpec(**base)


class TestHelixSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="r1"):
            HelixSpec(r1=0.0, r2=0.1, p=0.05, l=0, h=1)
        with pytest.raises(ValueError, match="r2"):
            HelixSpec(r1=1.0, r2=-0.1, p=0.05, l=0, h=1)
        with pytest.raises(ValueError, match="gauge"):
            HelixSpec(r1=1.0, r2=1.0, p=0.05, l=0, h=1)
        with pytest.raises(ValueError, match="nonzero"):
            HelixSpec(r1=1.0, r2=0.1, p=0.0, l=0, h=1)
        with pytest.raises(ValueError, match="h > l"):
            HelixSpec(r1=1.0, r2=0.1, p=0.05, l=2, h=2)

    def test_steep_helix_warns_but_still_evaluates(self):
        with pytest.warns(HelixAngleWarning):
            steep = HelixSpec(r1=1.0, r2=0.2, p=0.8, l=0, h=2)
        assert not steep.angle_ok
        assert np.isfinite(sdf_thread(steep, [2.0, 0.0, 0.0]).distance)

    def test_gentle_helix_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = wide_spec()
        assert spec.angle_ok


class TestUnbounded:
    def test_point_on_helix(self):
        res = sdf_unbounded(wide_spec(), [1.0, 0.0, 0.0])
        assert res.distance == 0.0
        assert res.nearest_t == 0.0
        assert res.degenerate

    def test_radial_point(self):
        res = sdf_unbounded(wide_spec(), [2.0, 0.0, 0.0])
        assert res.distance == pytest.approx(1.0, abs=1e-15)
        assert res.nearest_t == 0.0
        np.testing.assert_allclose(res.gradient, [1, 0, 0], atol=1e-15)

    def test_axis_point_uses_zero_azimuth(self):
        spec = wide_spec()
        res = sdf_unbounded(spec, [0.0, 0.0, 0.0])
        assert res.nearest_t == 0.0
        assert res.distance == pytest.approx(1.0, abs=1e-15)

    def test_turn_selection_rounds_half_to_even(self):
        # exactly between turns 0 and 1 the index ties; half-even rounding
        # picks turn 0, deterministically across platforms
        spec = wide_spec()
        res = sdf_unbounded(spec, [1.0, 0.0, np.pi * spec.p])
        assert res.nearest_t == 0.0
        # between turns 1 and 2 the tie rounds up to the even index 2
        res = sdf_unbounded(spec, [1.0, 0.0, 3.0 * np.pi * spec.p])
        assert res.nearest_t == pytest.approx(2.0 * TWO_PI, rel=1e-15)

    def test_against_dense_sampling(self):
        spec = HelixSpec(r1=0.8, r2=0.1, p=0.03, l=-50.0, h=50.0)
        point = np.array([0.3, -0.6, 0.11])
        d, gap = oracles.dense_min_distance(spec, point, samples=2_000_000)
        got = sdf_unbounded(spec, point).distance
        assert abs(got - d[0]) <= 2.0 * gap
        # frozen oracle minimum for this fixture (2e6 samples)
        assert d[0] == pytest.approx(0.13687337234071678, abs=1e-9)

    def test_screw_symmetry_one_pitch(self):
        spec = wide_spec()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, (200, 3))
        shifted = pts + [0.0, 0.0, TWO_PI * spec.p]
        d0 = sdf_unbounded(spec, pts).distance
        d1 = sdf_unbounded(spec, shifted).distance
        np.testing.assert_allclose(d1, d0, atol=1e-12)


class TestBounded:
    def test_on_helix_inside_window(self):
        spec = HelixSpec(r1=1.0, r2=0.2, p=0.05, l=0.0, h=2.0)
        res = sdf_bounded(spec, [1.0, 0.0, 0.1 * np.pi])
        assert res.distance == pytest.approx(0.0, abs=1e-14)
        assert res.nearest_t == pytest.approx(TWO_PI, abs=1e-12)

    def test_clamps_to_high_end(self):
        spec = HelixSpec(r1=1.0, r2=0.2, p=0.05, l=0.0, h=1.0)
        point = np.array([1.0, 0.0, 100.0])
        expected = np.linalg.norm(point - helix_point(spec, TWO_PI))
        res = sdf_bounded(spec, point)
        assert res.distance == pytest.approx(expected, rel=1e-15)
        assert res.nearest_t == pytest.approx(TWO_PI, abs=1e-12)

    def test_against_dense_sampling_beyond_the_end(self):
        # this query sits below the helix's axial extent, where the clamped
        # candidate set quantizes the azimuth: the result is an upper bound
        # on the true distance, tight only to the formula's own error scale
        # (~2e-4 here), not to the oracle's sampling resolution
        spec = HelixSpec(r1=1.0, r2=0.15, p=0.04, l=-3.0, h=3.0)
        point = np.array([-0.5, 0.9, -0.9])
        d, _ = oracles.dense_min_distance(spec, point, samples=1_000_000)
        got = sdf_bounded(spec, point).distance
        assert got >= d[0] - 1e-12
        assert got - d[0] <= 5e-4
        case, expected = oracles.brute_bounded_case(spec, point)
        assert case == "low"
        assert got == expected

    def test_against_dense_sampling_inside_extent(self):
        # gentle helix angle: the azimuth-aligned candidate approximation is
        # only accurate to ~(p/r1)^2, so steep threads drift past the
        # oracle's sampling resolution near the axis
        spec = HelixSpec(r1=1.0, r2=0.15, p=0.02, l=-3.0, h=3.0)
        rng = np.random.default_rng(23)
        pts = np.column_stack(
            [
                rng.uniform(-3, 3, 50),
                rng.uniform(-3, 3, 50),
                rng.uniform(spec.t_min * spec.p, spec.t_max * spec.p, 50),
            ]
        )
        d, gap = oracles.dense_min_distance(spec, pts, samples=1_000_000)
        got = sdf_bounded(spec, pts).distance
        assert np.abs(got - d).max() <= 2.0 * gap

    def test_interior_matches_unbounded_exactly(self):
        spec = wide_spec()
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.5, 1.5, (500, 3))  # z well inside the +-pi window
        db = sdf_bounded(spec, pts).distance
        du = sdf_unbounded(spec, pts).distance
        np.testing.assert_array_equal(db, du)

    def test_case_partition_matches_brute_force(self):
        rng = np.random.default_rng(5)
        spec = HelixSpec(r1=1.2, r2=0.1, p=0.02, l=-4.0, h=3.0)
        zspan = TWO_PI * abs(spec.p) * 10
        for _ in range(300):
            point = rng.uniform(-3.6, 3.6, 3)
            point[2] = rng.uniform(-zspan, zspan)
            case_brute, d_brute = oracles.brute_bounded_case(spec, point)
            assert oracles.analytic_case(spec, point) == case_brute
            # same candidates; scalar vs vector arithmetic differs by ulps
            assert sdf_bounded(spec, point).distance == pytest.approx(d_brute, rel=1e-13)

    @pytest.mark.parametrize("h", [0.3, 0.6, 0.9])
    def test_short_window_matches_brute_force(self, h):
        # a window shorter than a turn has azimuths with no aligned turn
        # inside it (lo > hi): a query before the window still pairs the
        # start with lo, and one past it the end with hi
        spec = HelixSpec(r1=1.0, r2=0.1, p=0.03, l=0.0, h=h)
        rng = np.random.default_rng(31)
        for _ in range(200):
            point = rng.uniform(-1.5, 1.5, 3)
            point[2] = rng.uniform(-0.4, 0.6)
            _, d_brute = oracles.brute_bounded_case(spec, point)
            assert sdf_bounded(spec, point).distance == pytest.approx(d_brute, rel=1e-13)


class TestThread:
    def test_offsets(self):
        spec = wide_spec()
        assert sdf_thread(spec, [1.0, 0.0, 0.0]).distance == -0.2
        assert sdf_thread(spec, [2.0, 0.0, 0.0]).distance == pytest.approx(0.8, abs=1e-15)
        assert sdf_thread(spec, [1.2, 0.0, 0.0]).distance == pytest.approx(0.0, abs=1e-15)

    def test_offset_identity_bitwise(self):
        spec = wide_spec()
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3, 3, (1000, 3))
        thread = sdf_thread(spec, pts)
        centerline = sdf_bounded(spec, pts)
        np.testing.assert_array_equal(thread.distance, centerline.distance - spec.r2)
        np.testing.assert_array_equal(thread.gradient, centerline.gradient)
        np.testing.assert_array_equal(thread.nearest_t, centerline.nearest_t)


class TestGradient:
    def test_radial_outward(self):
        g = sdf_gradient(wide_spec(), [2.0, 0.0, 0.0])
        np.testing.assert_allclose(g, [1, 0, 0], atol=1e-9)

    def test_inside_radius_points_toward_axis(self):
        g = sdf_gradient(wide_spec(), [0.5, 0.0, 0.0])
        assert g[0] < 0.0

    def test_degenerate_on_the_wire(self):
        # on the centerline of a symmetric window all three differences
        # cancel exactly (a power-of-two step keeps 1 +- step representable)
        with pytest.raises(DegenerateGradient):
            sdf_gradient(wide_spec(), [1.0, 0.0, 0.0], step=2.0**-20)

    @pytest.mark.parametrize("step", [0.0, -0.0])
    def test_rejects_zero_step(self, step):
        # NaN and +-inf are among the non-finite cases of test_params.py
        with pytest.raises(ValueError, match="^step must be nonzero and finite"):
            sdf_gradient(wide_spec(), [1.3, 0.2, 0.1], step=step)

    @pytest.mark.parametrize("point, step", [((1.3, 0.2, 0.1), 1e200), ((1.3, 0.2, 0.1), 1e308),
                                             ((1e308, 0.2, 0.1), 1e308)],
                             ids=["distance-1e200", "distance-1e308", "stencil-point"])
    def test_rejects_step_that_leaves_the_float_range(self, point, step):
        # the stencil's distances overflow to inf, or a stencil point does
        spec = HelixSpec(r1=1.0, r2=0.2, p=0.05, l=-3.0, h=3.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=re.escape(f"step {step} takes the gradient stencil past")):
            sdf_gradient(spec, point, step=step)

    def test_empty_batch_is_a_float_0_by_3_array(self):
        g = sdf_gradient(wide_spec(), np.empty((0, 3)))
        assert g.shape == (0, 3) and g.dtype == float

    def test_past_range_point_wins_over_an_earlier_degenerate_point(self):
        # alone, the first point raises DegenerateGradient (as in
        # test_degenerate_on_the_wire) and the second the range error
        spec, step = wide_spec(), 2.0**-20
        with pytest.raises(ValueError, match=re.escape(f"step {step} takes the gradient")):
            sdf_gradient(spec, [[1.0, 0.0, 0.0], [1e308, 0.2, 0.1]], step=step)

    def test_batch_names_its_first_degenerate_point(self):
        spec, step = wide_spec(), 2.0**-20
        with pytest.raises(DegenerateGradient, match=re.escape("at point [1. 0. 0.] (")):
            sdf_gradient(spec, [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], step=step)

    def test_negative_step_gives_the_same_gradient(self):
        # the symmetric difference only swaps its terms and the divisor's sign
        spec, point = wide_spec(), [1.3, 0.2, 0.1]
        assert (sdf_gradient(spec, point, step=-1e-4).tobytes()
                == sdf_gradient(spec, point, step=1e-4).tobytes())

    def test_matches_manual_central_difference(self):
        spec = wide_spec()
        rng = np.random.default_rng(13)
        step = 1e-6 * spec.r1
        for _ in range(25):
            p = rng.uniform(-2, 2, 3)
            g = sdf_gradient(spec, p)
            manual = np.array(
                [
                    sdf_thread(spec, p + step * e).distance
                    - sdf_thread(spec, p - step * e).distance
                    for e in np.eye(3)
                ]
            ) / (2 * step)
            manual /= np.linalg.norm(manual)
            angle = np.arccos(np.clip(g @ manual, -1, 1))
            assert angle <= 1e-6

    def test_matches_dense_oracle_gradient(self):
        spec = wide_spec()
        rng = np.random.default_rng(17)
        step = 1e-6 * spec.r1
        checked = 0
        while checked < 10:
            p = rng.uniform(-2, 2, 3)
            if abs(sdf_thread(spec, p).distance) < 0.05:
                continue  # stay away from the surface where FD of the oracle is noisy
            g = sdf_gradient(spec, p)
            oracle = np.array(
                [
                    oracles.dense_min_refined(spec, p + step * e)
                    - oracles.dense_min_refined(spec, p - step * e)
                    for e in np.eye(3)
                ]
            ) / (2 * step)
            oracle /= np.linalg.norm(oracle)
            angle = np.arccos(np.clip(g @ oracle, -1, 1))
            assert angle <= 1e-3
            checked += 1


class TestScrew:
    def test_full_turn(self):
        assert screw_advance(wide_spec(p=0.05), TWO_PI) == pytest.approx(0.1 * np.pi, rel=1e-15)

    def test_zero(self):
        assert screw_advance(wide_spec(), 0.0) == 0.0

    def test_left_handed(self):
        spec = HelixSpec(r1=1.0, r2=0.2, p=-0.03, l=-10, h=10)
        assert screw_advance(spec, np.pi) == pytest.approx(-0.03 * np.pi, rel=1e-15)

    def test_linearity(self):
        spec = wide_spec()
        rng = np.random.default_rng(19)
        a = rng.uniform(-20, 20, 100)
        b = rng.uniform(-20, 20, 100)
        lhs = screw_advance(spec, a + b)
        rhs = screw_advance(spec, a) + screw_advance(spec, b)
        # distributivity holds to ulp scale; cancellation near a = -b makes
        # a relative bound meaningless, so bound the absolute error
        np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-15)

    def test_pose_advances_along_axis(self):
        spec = wide_spec()
        pose = screw_pose(spec, np.pi)
        assert pose[2, 3] == pytest.approx(0.05 * np.pi, rel=1e-15)
        np.testing.assert_allclose(pose[:3, :3] @ pose[:3, :3].T, np.eye(3), atol=1e-15)


class TestEngagement:
    def test_coincident_threads_interpenetrate(self):
        spec = wide_spec(l=-3.0, h=3.0)
        report = thread_engagement(spec, spec)
        assert report.overlapping
        # the most negative probe is the nut centerline sitting on the bolt wire
        assert report.min_clearance == pytest.approx(-spec.r2, abs=1e-9)

    def test_screw_symmetry_pose_is_still_coincident(self):
        # rotating by pi about the axis while advancing half a pitch is the
        # helix's own screw symmetry: the wires land on each other
        spec = HelixSpec(r1=1.0, r2=0.1, p=0.05, l=-3.0, h=3.0)
        pose = screw_pose(spec, np.pi)
        report = thread_engagement(spec, spec, pose)
        assert oracles.curve_to_curve_distance(spec, spec, pose) == pytest.approx(0.0, abs=1e-3)
        assert report.overlapping
        assert report.min_clearance == pytest.approx(-spec.r2, abs=1e-9)

    def test_half_pitch_interleave_clears_for_thin_wire(self):
        spec = HelixSpec(r1=1.0, r2=0.02, p=0.05, l=-3.0, h=3.0)
        pose = np.eye(4)
        pose[2, 3] = np.pi * spec.p  # shift half a pitch without rotating
        report = thread_engagement(spec, spec, pose)
        oracle = oracles.curve_to_curve_distance(spec, spec, pose) - 2 * spec.r2
        assert report.min_clearance == pytest.approx(oracle, abs=2e-3)
        assert not report.overlapping

    def test_radial_separation(self):
        spec = HelixSpec(r1=1.0, r2=0.02, p=0.05, l=-3.0, h=3.0)
        pose = np.eye(4)
        pose[0, 3] = 10.0 * spec.r1
        report = thread_engagement(spec, spec, pose)
        oracle = oracles.curve_to_curve_distance(spec, spec, pose) - 2 * spec.r2
        assert not report.overlapping
        assert report.min_clearance == pytest.approx(oracle, rel=0.02)
        assert report.min_clearance == pytest.approx(8.0 * spec.r1, rel=0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"angular_step_deg": 0.0},
            {"angular_step_deg": -1.0},
            {"angular_step_deg": float("nan")},
            {"angular_step_deg": 10**400},
            {"wire_directions": 0},
            {"wire_directions": -3},
            {"wire_directions": 2.5},
            {"wire_directions": True},
        ],
        ids=["step-0", "step-neg", "step-nan", "step-huge",
             "wires-0", "wires-neg", "wires-frac", "wires-bool"],
    )
    def test_rejects_bad_sampling(self, kwargs):
        spec = wide_spec(l=-3.0, h=3.0)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            thread_engagement(spec, spec, **kwargs)

    @pytest.mark.parametrize("row, col", [(1, 2), (0, 3), (3, 3)],
                             ids=["rotation", "translation", "bottom-row"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pose(self, row, col, bad):
        spec = wide_spec(l=-3.0, h=3.0)
        pose = screw_pose(spec, 0.4)
        pose[row, col] = bad
        with pytest.raises(ValueError, match="^relative_pose must be finite"):
            thread_engagement(spec, spec, pose)

    def test_rejects_pose_that_overflows_the_probes(self):
        spec = wide_spec(l=-3.0, h=3.0)
        pose = np.eye(4)
        pose[2, 2] = pose[2, 3] = 1e308
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^relative_pose maps the nut's probes past"):
            thread_engagement(spec, spec, pose)

    def test_rejects_pose_that_overflows_only_a_ring_probe(self):
        spec = wide_spec(l=-3.0, h=3.0)
        probes = _nut_probes(spec, 1.0, 8)
        centres = probes[:len(probes) // 9]
        # the highest ring probe overflows under this z scale, no centerline probe does
        pose = np.eye(4)
        pose[2, 2] = np.finfo(float).max / np.abs(probes[:, 2]).max() * 1.0001
        assert np.isfinite(centres @ pose[:3, :3].T).all()
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^relative_pose maps the nut's probes past"):
            thread_engagement(spec, spec, pose)

    def test_huge_pose_that_overflows_nothing_is_accepted(self):
        spec = wide_spec(l=-3.0, h=3.0)
        probes = _nut_probes(spec, 1.0, 8)
        pose = np.eye(4)
        pose[2, 2] = np.finfo(float).max / np.abs(probes[:, 2]).max() / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            report = thread_engagement(spec, spec, pose)
            want = full_cloud_minimum(spec, spec, pose, 1.0, 8)
        assert np.float64(report.min_clearance).tobytes() == want.tobytes()

    def test_axially_past_the_window_evaluates_only_the_ceiling_group(self, monkeypatch):
        # the nut starts one unit above the bolt's end, on the same azimuth
        bolt = HelixSpec(r1=1.0, r2=0.2, p=0.05, l=-3.0, h=0.0)
        nut = HelixSpec(r1=1.1, r2=0.1, p=0.05, l=0.0, h=2.0)
        pose = np.eye(4)
        pose[2, 3] = 1.0
        calls = []

        def recorded(spec, point):
            calls.append(np.array(point, ndmin=2))
            return sdf_thread(spec, point)

        monkeypatch.setattr(helix, "sdf_thread", recorded)
        report = thread_engagement(bolt, nut, pose)
        mapped = _nut_probes(nut, 1.0, 8) + pose[:3, 3]
        n = len(mapped) // 9
        row = np.flatnonzero((mapped == calls[0]).all(axis=1))[0]
        group = row if row < n else (row - n) // 8
        members = mapped[np.r_[group, n + 8 * group + np.arange(8)]]
        assert len(calls) == 2 and len(calls[0]) == 1
        assert all((members == p).all(axis=1).any() for p in calls[1])
        assert report.min_clearance == np.min(sdf_thread(bolt, mapped).distance)

    @staticmethod
    def screened_query(monkeypatch, bolt, nut, pose):
        """The query's report, the sizes of its field calls and the names of
        the screens it ran, in order."""
        sizes, screens = [], []

        def counted(spec, point):
            sizes.append(np.size(point) // 3)
            return sdf_thread(spec, point)

        def named(spec, band, points, screen=helix._bound):
            screens.append("radial" if band is None else "axial")
            return screen(spec, band, points)

        monkeypatch.setattr(helix, "sdf_thread", counted)
        monkeypatch.setattr(helix, "_bound", named)
        return thread_engagement(bolt, nut, pose), sizes, screens

    def test_broad_phase_evaluates_a_handful_of_probes(self, monkeypatch):
        bolt = HelixSpec(r1=5.0e-3, r2=0.4e-3, p=3.0e-4, l=0.0, h=8.0)
        nut = HelixSpec(r1=5.9e-3, r2=0.4e-3, p=3.0e-4, l=2.0, h=6.3)
        pose = screw_pose(nut, 1.3)
        pose[:2, 3] += [1.0e-4, -0.5e-4]
        report, sizes, screens = self.screened_query(monkeypatch, bolt, nut, pose)
        assert sizes[0] == 1 and len(sizes) == 2
        assert sizes[1] <= 0.01 * len(_nut_probes(nut, 1.0, 8))
        # the nut's mapped box lies in the bolt's band: all three screens are radial
        assert screens == ["radial"] * 3
        want = full_cloud_minimum(bolt, nut, pose, 1.0, 8)
        assert np.float64(report.min_clearance).tobytes() == want.tobytes()

    def test_nut_lifted_past_the_window_takes_the_axial_bound(self, monkeypatch):
        bolt = HelixSpec(r1=5.0e-3, r2=0.4e-3, p=3.0e-4, l=0.0, h=8.0)
        nut = HelixSpec(r1=5.9e-3, r2=0.4e-3, p=3.0e-4, l=2.0, h=6.3)
        pose = screw_pose(nut, 1.3)
        pose[:2, 3] += [1.0e-4, -0.5e-4]
        pose[2, 3] += 12.0e-3
        report, sizes, screens = self.screened_query(monkeypatch, bolt, nut, pose)
        assert len(sizes) == 2 and screens == ["axial"] * 3
        want = full_cloud_minimum(bolt, nut, pose, 1.0, 8)
        assert np.float64(report.min_clearance).tobytes() == want.tobytes()

    @pytest.mark.parametrize("step, wires", [(1.0, 8), (2.5, 3), (0.7, 1)])
    def test_matches_field_minimum_over_oracle_probes(self, step, wires):
        bolt = HelixSpec(r1=5.0e-3, r2=0.4e-3, p=3.0e-4, l=0.0, h=8.0)
        nut = HelixSpec(r1=5.9e-3, r2=0.4e-3, p=3.0e-4, l=2.0, h=6.3)
        rng = np.random.default_rng(29)
        for _ in range(4):
            pose = screw_pose(nut, rng.uniform(0.0, TWO_PI))
            pose[:2, 3] += rng.uniform(-0.2e-3, 0.2e-3, 2)
            probes = oracles.engagement_probes(nut, pose, step, wires)
            expected = np.min(sdf_thread(bolt, probes).distance)
            got = thread_engagement(bolt, nut, pose, step, wires).min_clearance
            assert abs(got - expected) <= 1e-12 * bolt.r1


class TestProbeCache:
    def test_interleaved_calls_repeat_their_first_value(self):
        _probe_groups.cache_clear()
        bolt = wide_spec(l=-3.0, h=3.0)
        nuts = [HelixSpec(r1=1.1, r2=0.1, p=0.05, l=-2.0, h=2.0),
                HelixSpec(r1=1.3, r2=0.15, p=0.05, l=-1.0, h=2.5)]
        poses = [screw_pose(bolt, a) for a in (0.0, 0.7, 2.9)]
        first = {}
        for _ in range(3):
            for i, nut in enumerate(nuts):
                for j, pose in enumerate(poses):
                    report = thread_engagement(bolt, nut, pose)
                    assert report == first.setdefault((i, j), report)
        assert _probe_groups.cache_info().misses == len(nuts)

    def test_cached_cloud_is_read_only(self):
        cloud = _probe_groups(wide_spec(l=-1.0, h=1.0), 1.0, 8).columns
        assert not cloud.flags.writeable
        with pytest.raises(ValueError):
            cloud[0, 0] = 1.0

    def test_writing_to_a_pose_after_a_call_changes_nothing(self):
        spec = wide_spec(l=-3.0, h=3.0)
        pose = screw_pose(spec, 0.4)
        before = thread_engagement(spec, spec, pose)
        kept = pose.copy()
        pose[:3, 3] += 5.0
        pose[:3, :3] = 0.0
        assert thread_engagement(spec, spec, kept) == before


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def helix_queries(draw):
    """A helix and query points inside its axial extent, past either end
    of it (where the turn index is clamped), on the axis, and so far out
    that the squared offset from the candidate, or the turn quotient
    ``(z - t0*p) / (2*pi*p)`` too, overflows.  Windows as short as a fifth
    of a turn are drawn, where some azimuths have no aligned turn inside
    the window."""
    r1 = draw(st.floats(0.2, 3.0))
    r2 = draw(st.floats(0.01, 0.9)) * r1
    p = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.005, 0.4)) * r1
    l = draw(st.floats(-5.0, 5.0))
    spec = HelixSpec(r1=r1, r2=r2, p=p, l=l, h=l + draw(st.floats(0.2, 6.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 8
    z_first, z_last = spec.p * spec.t_min, spec.p * spec.t_max
    beyond = rng.uniform(0.1, 3.0, n) * TWO_PI * spec.p
    z = np.concatenate([
        z_first + rng.uniform(0.0, 1.0, n) * (z_last - z_first),
        z_first - beyond,
        z_last + beyond,
        z_first + rng.uniform(-0.5, 1.5, n) * (z_last - z_first),
    ])
    xy = rng.uniform(-2.0 * r1, 2.0 * r1, (4 * n, 2))
    xy[3 * n:] = 0.0
    xy[3 * n::2] = -0.0
    pts = np.column_stack([xy, z])
    far = rng.uniform(-1.0, 1.0, (2 * n, 3))
    far[:n] *= 1e200
    far[n:, 2] = np.where(far[n:, 2] < 0.0, -1.0, 1.0) * np.finfo(float).max
    return spec, np.concatenate([pts, far])


@PROPERTY_SETTINGS
@given(case=helix_queries())
def test_batch_is_bitwise_equal_to_pointwise(case):
    spec, pts = case
    for field in (sdf_thread, sdf_bounded, sdf_unbounded):
        batch = field(spec, pts)
        singles = [field(spec, q) for q in pts]
        for name in ("distance", "gradient", "nearest_t", "degenerate"):
            got = np.asarray(getattr(batch, name))
            want = np.array([getattr(s, name) for s in singles])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                field.__name__, name)


FIELDS = ("distance", "gradient", "nearest_t", "degenerate")


@PROPERTY_SETTINGS
@given(case=helix_queries())
def test_batches_on_both_sides_of_the_short_call_crossover_are_bitwise_equal(case):
    # batches of at most helix._SHORT_CALL_POINTS take the short-call path,
    # longer ones the array kernel: every prefix of sizes 1 to one past the
    # constant must give the whole batch's values, in dtype and bytes
    spec, pts = case
    sizes = range(1, helix._SHORT_CALL_POINTS + 2)
    assert len(pts) > sizes[-1]
    for field in (sdf_thread, sdf_bounded):
        batch = field(spec, pts)
        for n in sizes:
            part = field(spec, pts[:n])
            for name in FIELDS:
                got, want = getattr(part, name), getattr(batch, name)[:n]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                    field.__name__, n, name)
        one = field(spec, pts[0])
        assert ((type(one.distance), type(one.nearest_t), type(one.degenerate))
                == (float, float, bool))
        assert one.gradient.shape == (3,) and one.gradient.dtype == float


@PROPERTY_SETTINGS
@given(case=helix_queries())
def test_gradient_of_one_point_is_bitwise_its_batch_row(case):
    # one point takes sdf_gradient's Python-float path, a batch of one the
    # array path; both must give the same bits or the same error
    spec, pts = case

    def outcome(point, step):
        try:
            return sdf_gradient(spec, point, step).tobytes()
        except (ValueError, DegenerateGradient) as exc:
            return type(exc), str(exc)

    # a negative step makes the stencil's zero offsets -0.0
    for step in (None, -1e-6 * spec.r1):
        for q in pts:
            assert outcome(q, step) == outcome(q[None, :], step), (q, step)


@PROPERTY_SETTINGS
@given(case=helix_queries())
def test_gradient_batch_is_bitwise_the_stack_of_its_points(case):
    # a batch of the points with a gradient gives their gradients in order;
    # the whole batch raises the range error if any point does, and
    # otherwise the first point's DegenerateGradient
    spec, pts = case

    def outcome(point, step):
        try:
            return sdf_gradient(spec, point, step)
        except (ValueError, DegenerateGradient) as exc:
            return type(exc), str(exc)

    for step in (None, -1e-6 * spec.r1):
        singles = [outcome(q, step) for q in pts]
        good = [i for i, g in enumerate(singles) if isinstance(g, np.ndarray)]
        batch = outcome(pts[good], step)
        assert batch.shape == (len(good), 3) and batch.dtype == float
        assert batch.tobytes() == b"".join(singles[i].tobytes() for i in good)
        errors = [e for e in singles if isinstance(e, tuple)]
        if errors:
            past = [e for e in errors if e[0] is ValueError]
            assert outcome(pts, step) == (past or errors)[0]


@pytest.mark.parametrize("point, t", [([1.5, -0.0, -0.01], 0.0), ([1.0, -0.0, -1.0], -0.0)],
                         ids=["k-ties-hi", "clamped-to-lo"])
def test_signed_zeros_of_the_turn_indices_match_the_array_kernel(point, t):
    # y = -0.0 gives the azimuth -0.0, so t = 2*pi*k_in + t0 keeps the sign
    # of a zero k_in.  Turn index -0.0 ties with hi = 0.0, where np.minimum
    # takes hi; and the turn is clamped to lo = ceil(-0.5) = -0.0.
    spec = HelixSpec(r1=1.0, r2=0.2, p=0.05, l=-0.5, h=0.5)
    array = sdf_thread(spec, [point] * (helix._SHORT_CALL_POINTS + 1))
    for short in (sdf_thread(spec, point), sdf_thread(spec, [point])):
        for name in FIELDS:
            got, want = np.asarray(getattr(short, name)), getattr(array, name)[:1]
            assert got.tobytes() == want.tobytes(), name
    assert np.float64(array.nearest_t[0]).tobytes() == np.float64(t).tobytes()


def full_cloud_minimum(bolt, nut, pose, step, wires):
    """The bolt field's minimum over the nut's whole probe cloud, mapped
    through ``pose`` as the engagement query maps it."""
    probes = _nut_probes(nut, step, wires) @ np.ascontiguousarray(pose[:3, :3].T)
    probes += pose[:3, 3]
    return np.min(sdf_thread(bolt, probes).distance)


@st.composite
def engagements(draw):
    """A bolt, a nut, a pose and a sampling: the nut screwed on with a
    lateral offset up to 2*r1, tilted up to 90 degrees, coincident with the
    bolt, radially or axially separated from it, or placed so that one of
    its probes sits on the bolt axis.  Pitches of both signs and windows
    down to a fifth of a turn are drawn."""
    r1 = draw(st.floats(0.2, 3.0))
    p = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.005, 0.2)) * r1
    l = draw(st.floats(-3.0, 3.0))
    bolt = HelixSpec(r1=r1, r2=draw(st.floats(0.02, 0.5)) * r1, p=p, l=l,
                     h=l + draw(st.floats(0.2, 5.0)))
    kind = draw(st.sampled_from(["screw", "tilted", "coincident", "radial", "axial", "axis"]))
    if kind == "coincident":
        nut = bolt
    else:
        nut_r1 = draw(st.floats(0.45, 1.6)) * r1
        nut_l = draw(st.floats(-3.0, 3.0))
        nut = HelixSpec(r1=nut_r1, r2=draw(st.floats(0.02, 0.5)) * nut_r1, p=p, l=nut_l,
                        h=nut_l + draw(st.floats(0.2, 5.0)))
    step = draw(st.sampled_from([1.0, 2.5, 7.0]))
    wires = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    pose = screw_pose(nut, rng.uniform(0.0, TWO_PI))
    span = bolt.p * (bolt.t_max - bolt.t_min)
    if kind == "screw":
        pose[:2, 3] += rng.uniform(-2.0 * r1, 2.0 * r1, 2)
    elif kind == "tilted":
        # about the nut's x axis, which the screw angle turns to any horizontal
        tilt = rng.uniform(0.0, 0.5 * np.pi)
        c, s = np.cos(tilt), np.sin(tilt)
        pose[:3, :3] = pose[:3, :3] @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        pose[:3, 3] += rng.uniform(-r1, r1, 3)
    elif kind == "coincident":
        pose = screw_pose(bolt, TWO_PI * rng.integers(-2, 3))
    elif kind == "radial":
        pose[0, 3] += rng.choice([-1.0, 1.0]) * rng.uniform(2.5, 10.0) * r1
    elif kind == "axial":
        pose[2, 3] += np.sign(rng.uniform(-1.0, 1.0)) * (abs(span) + rng.uniform(0.1, 3.0) * r1)
    else:
        # translate the mapped probe i onto the axis: x + (-x) is exactly 0
        probes = _nut_probes(nut, step, wires) @ np.ascontiguousarray(pose[:3, :3].T)
        i = rng.integers(len(probes))
        pose[:2, 3] = -probes[i, :2]
    return bolt, nut, pose, step, wires


@PROPERTY_SETTINGS
@given(case=engagements())
def test_engagement_is_bitwise_the_full_cloud_minimum(case):
    bolt, nut, pose, step, wires = case
    report = thread_engagement(bolt, nut, pose, step, wires)
    want = full_cloud_minimum(bolt, nut, pose, step, wires)
    assert np.float64(report.min_clearance).tobytes() == want.tobytes()
    assert report.overlapping == (want < 0.0)


@st.composite
def distorted_engagements(draw):
    """The cases of :func:`engagements` under poses that are not rigid,
    with the linear part scaled or sheared up to 10x, or translated up to
    1e6*r1."""
    bolt, nut, pose, step, wires = draw(engagements())
    kind = draw(st.sampled_from(["scaled", "sheared", "far"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "scaled":
        pose[:3, :3] = pose[:3, :3] @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, 3))
    elif kind == "sheared":
        shear = np.eye(3)
        shear[np.triu_indices(3, 1)] = rng.uniform(-10.0, 10.0, 3)
        pose[:3, :3] = pose[:3, :3] @ shear[rng.permutation(3)][:, rng.permutation(3)]
    else:
        direction = rng.normal(size=3)
        distance = 10.0 ** rng.uniform(0.0, 6.0) * bolt.r1
        pose[:3, 3] += distance / np.linalg.norm(direction) * direction
    return bolt, nut, pose, step, wires


@PROPERTY_SETTINGS
@given(case=st.one_of(engagements(), distorted_engagements()))
def test_mapped_box_holds_the_height_of_every_mapped_probe(case):
    # the premise of the radial screen: a probe whose height the range
    # holds lies in the band whenever the range does
    bolt, nut, pose, step, wires = case
    heights, ranges = [], []
    mapped, height_range = helix._mapped, helix._height_range

    def recorded_mapped(*args):
        points = mapped(*args)
        heights.append(points[2].copy())
        return points

    def recorded_range(*args):
        ranges.append(height_range(*args))
        return ranges[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(helix, "_mapped", recorded_mapped)
        patch.setattr(helix, "_height_range", recorded_range)
        thread_engagement(bolt, nut, pose, step, wires)
    (low, high), = ranges
    assert len(heights) >= 3
    for z in heights:
        assert low <= z.min() and z.max() <= high


@st.composite
def tight_ring_engagements(draw):
    """A nut in phase with the bolt, scaled in the plane so that the inner
    ring probe of every group (an even number of wire directions has one)
    lies just outside the bolt's wire at its own height: exactly one reach
    nearer the bolt than its centerline probe, and as near as the minimum.
    The group cull then has only its rounding pad to spare."""
    bolt, _, _, step, _ = draw(engagements())
    wires = 2 * draw(st.integers(1, 4))
    nut_r1 = draw(st.floats(0.45, 1.6)) * bolt.r1
    nut = HelixSpec(r1=nut_r1, r2=draw(st.floats(0.02, 0.5)) * nut_r1, p=bolt.p, l=bolt.l, h=bolt.h)
    scale = (bolt.r1 + draw(st.floats(1.0, 3.0)) * bolt.r2) / (nut.r1 - nut.r2)
    turns = draw(st.integers(-2, 2))
    pose = screw_pose(bolt, TWO_PI * turns) @ np.diag([scale, scale, 1.0, 1.0])
    return bolt, nut, pose, step, wires


@PROPERTY_SETTINGS
@given(case=distorted_engagements())
def test_engagement_is_bitwise_the_full_cloud_minimum_under_any_pose(case):
    bolt, nut, pose, step, wires = case
    report = thread_engagement(bolt, nut, pose, step, wires)
    want = full_cloud_minimum(bolt, nut, pose, step, wires)
    assert np.float64(report.min_clearance).tobytes() == want.tobytes()
    assert report.overlapping == (want < 0.0)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(case=tight_ring_engagements())
def test_engagement_is_bitwise_the_full_cloud_minimum_on_tight_rings(case):
    bolt, nut, pose, step, wires = case
    report = thread_engagement(bolt, nut, pose, step, wires)
    want = full_cloud_minimum(bolt, nut, pose, step, wires)
    assert np.float64(report.min_clearance).tobytes() == want.tobytes()
