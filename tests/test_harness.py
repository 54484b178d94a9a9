"""Scene stepping, effective acceleration, progress score, trajectories."""

import math
import re

import numpy as np
import pytest

from labmech import (
    DegenerateTerm,
    PoleStiffnessWarning,
    DetentProfile,
    FrameTrajectory,
    HelixSpec,
    NoConvergence,
    PendulumParams,
    ProgressSpec,
    SceneConfig,
    TriMesh,
    box_mesh,
    effective_accel,
    init_state,
    progress_score,
    rotate_world_to_frame,
    run_knob_scene,
    run_liquid_scene,
    run_screw_scene,
    screw_advance,
    step_pendulum,
    write_trace,
    ZeroGravity,
)

G = (0.0, 0.0, -9.81)


def make_scene(duration=0.2, dt=1e-3, volume=0.5, gravity=G, epsilon=2.5e-2):
    # epsilon sized so the guarded azimuthal damping stays RK4-stable at dt
    return SceneConfig(
        gravity=gravity,
        container=box_mesh(),
        pendulum=PendulumParams(
            length=0.02, damping_phi=0.01, damping_theta=0.01, epsilon=epsilon
        ),
        liquid_volume=volume,
        dt=dt,
        duration=duration,
    )


def still_trajectory():
    return FrameTrajectory(times=[0.0], accels=[[0.0, 0.0, 0.0]])


class TestEffectiveAccel:
    def test_rest_frame(self):
        np.testing.assert_array_equal(effective_accel(G, (0, 0, 0)), G)

    def test_free_fall(self):
        np.testing.assert_array_equal(effective_accel(G, G), [0.0, 0.0, 0.0])

    def test_lateral_push(self):
        np.testing.assert_array_equal(
            effective_accel(G, (2.0, 0.0, 0.0)), [-2.0, 0.0, -9.81]
        )


class TestFrameTrajectory:
    def test_rejects_nonuniform_spacing(self):
        with pytest.raises(ValueError, match="uniform"):
            FrameTrajectory(times=[0.0, 0.1, 0.3], accels=np.zeros((3, 3)))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            FrameTrajectory(times=[0.0, -0.1], accels=np.zeros((2, 3)))

    def test_zero_order_hold(self):
        traj = FrameTrajectory(times=[0.0, 0.1, 0.2], accels=[[1, 0, 0], [2, 0, 0], [3, 0, 0]])
        assert traj.index_at(0.05) == 0
        assert traj.index_at(0.1) == 1
        assert traj.index_at(0.19) == 1
        assert traj.index_at(5.0) == 2
        assert traj.index_at(-1.0) == 0

    def test_times_past_the_float_range_give_the_end_samples(self):
        # the sample position is clamped before it is floored: it is
        # +-1e300 on a 1 s spacing, and inf past the first sample on 5e-324 s
        traj = FrameTrajectory(times=[0.0, 1.0, 2.0], accels=np.zeros((3, 3)))
        assert (traj.index_at(-1e300), traj.index_at(1e300)) == (0, 2)
        tiny = FrameTrajectory(times=[0.0, 5e-324], accels=np.zeros((2, 3)))
        assert [tiny.index_at(t) for t in (-1e300, 0.0, 1e-3, 1e300)] == [0, 0, 1, 1]

    def test_one_sample_covers_every_time(self):
        traj = FrameTrajectory(times=[3.0], accels=[[1.0, 0.0, 0.0]])
        assert [traj.index_at(t) for t in (-1e300, 0.0, 3.0, 1e300)] == [0, 0, 0, 0]

    def test_quaternion_rotation_matches_matrix(self):
        rng = np.random.default_rng(131)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            half = rng.uniform(-np.pi, np.pi) / 2.0
            quat = np.concatenate([[np.cos(half)], np.sin(half) * axis])
            v = rng.normal(size=3)
            w, x, y, z = quat
            rot = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                ]
            )
            np.testing.assert_allclose(
                rotate_world_to_frame(quat, v), rot.T @ v, atol=1e-12
            )

    def test_unit_quaternions_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            FrameTrajectory(
                times=[0.0], accels=[[0, 0, 0]], orientations=[[2.0, 0, 0, 0]]
            )

    @staticmethod
    def accepts(**kw):
        try:
            FrameTrajectory(**kw)
        except ValueError:
            return False
        return True

    @pytest.mark.parametrize("edge", [2.0 + 1e-9, 2.0 - 1e-9])
    def test_spacing_tolerance_edge_matches_allclose(self, edge):
        # the last gap 1 +- 1e-9 against the first, 1, ulp by ulp across the edge
        verdicts = set()
        for last in edge + np.arange(-40, 41) * np.spacing(edge):
            times = np.array([0.0, 1.0, last])
            gaps = np.diff(times)
            want = bool(np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0))
            assert self.accepts(times=times, accels=np.zeros((3, 3))) == want, last
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_overflowing_gap_is_accepted_as_allclose_does(self):
        # the one gap overflows to inf, which np.allclose finds close to itself
        with np.errstate(over="ignore"):
            assert self.accepts(times=[-1e308, 1e308], accels=np.zeros((2, 3)))

    @pytest.mark.parametrize("edge", [1.0 + 1e-9, 1.0 - 1e-9])
    def test_unit_tolerance_edge_matches_allclose(self, edge):
        verdicts = set()
        for w in edge + np.arange(-40, 41) * np.spacing(edge):
            quat = np.array([[w, 0.0, 0.0, 0.0]])
            want = bool(np.allclose(np.linalg.norm(quat, axis=1), 1.0, rtol=0.0, atol=1e-9))
            assert self.accepts(times=[0.0], accels=[[0, 0, 0]], orientations=quat) == want, w
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_quaternion_is_not_unit(self, bad):
        with pytest.raises(ValueError, match="unit"):
            FrameTrajectory(times=[0.0, 0.1], accels=np.zeros((2, 3)),
                            orientations=[[1.0, 0, 0, 0], [bad, 0, 0, 0]])


class TestLiquidScene:
    def test_free_fall_at_the_first_sample_names_it(self):
        # the scene starts at t = 0, sample 2, where the frame falls freely
        traj = FrameTrajectory(times=[-0.2, -0.1, 0.0, 0.1],
                               accels=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], G, G])
        with pytest.raises(ZeroGravity, match=r"^trajectory sample 2 at t = 0\.0: "):
            run_liquid_scene(make_scene(duration=0.01), traj)

    def test_static_scene_is_constant(self):
        trace = run_liquid_scene(make_scene(duration=0.2), still_trajectory())
        assert len(trace) == 200
        np.testing.assert_array_equal(trace.column("nx"), 0.0)
        np.testing.assert_array_equal(trace.column("ny"), 0.0)
        np.testing.assert_array_equal(trace.column("nz"), 1.0)
        assert (trace.column("height") == trace.column("height")[0]).all()
        assert trace.column("height")[0] == 0.0  # plane z = 0.5
        assert (trace.column("residual") <= 1e-9 * 1.0).all()

    def test_lateral_acceleration_reaches_equilibrium(self):
        # step input: the surface starts level, then the frame accelerates
        a = 2.0
        scene = make_scene(duration=10.0)
        traj = FrameTrajectory(
            times=[0.0, 0.1], accels=[[0.0, 0.0, 0.0], [a, 0.0, 0.0]]
        )  # g_eff settles to (-a, 0, -9.81): liquid piles up behind the push
        trace = run_liquid_scene(scene, traj)
        normal = trace.data[-1][5:8]
        expected = np.array([a, 0.0, 9.81])
        expected /= np.linalg.norm(expected)
        angle = math.acos(np.clip(normal @ expected, -1, 1))
        assert angle <= 1e-3
        assert (trace.column("residual") <= 1e-9).all()

    def test_deterministic_across_runs(self, tmp_path):
        scene = make_scene(duration=0.5, epsilon=3e-2)
        traj = FrameTrajectory(
            times=np.arange(6) * 0.1,
            accels=np.column_stack(
                [np.sin(np.arange(6.0)), np.zeros(6), np.zeros(6)]
            ),
        )
        a = run_liquid_scene(scene, traj)
        b = run_liquid_scene(scene, traj)
        assert a == b
        pa, pb = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(a, pa)
        write_trace(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_orientation_rotates_forcing(self):
        # container rolled 90 degrees about x: world -z maps to frame -y,
        # and the settled initialization aligns with it from the first step
        half = np.pi / 4.0
        quat = [np.cos(half), np.sin(half), 0.0, 0.0]
        scene = make_scene(duration=0.1)
        traj = FrameTrajectory(times=[0.0], accels=[[0, 0, 0]], orientations=[quat])
        trace = run_liquid_scene(scene, traj)
        np.testing.assert_allclose(trace.data[-1][5:8], [0.0, 1.0, 0.0], atol=1e-9)

    def test_turning_frame_sampled_finer_than_dt(self):
        # each step's forcing is its sample's, rotated into the frame, as a
        # step at a time computes it; nine of ten samples are never read
        scene = make_scene(duration=0.02)
        times = 1e-4 * np.arange(201)
        half = 0.2 * np.sin(30.0 * times)
        zero = np.zeros_like(times)
        traj = FrameTrajectory(times, np.column_stack([2.0 * np.sin(50.0 * times), zero, zero]),
                               np.column_stack([np.cos(half), np.sin(half), zero, zero]))
        trace = run_liquid_scene(scene, traj)
        samples = [traj.index_at(i * scene.dt) for i in range(scene.steps)]
        forcing = [rotate_world_to_frame(traj.orientations[k],
                                         effective_accel(scene.gravity, traj.accels[k]))
                   for k in samples]
        state = init_state(forcing[0])
        for row, g_eff in zip(trace.data, forcing):
            state = step_pendulum(scene.pendulum, state, g_eff, scene.dt)
            assert (state.phi, state.theta, state.phidot, state.thetadot) == tuple(row[1:5])

    def test_sloshing_across_vertical_stays_finite(self):
        # reversing lateral forcing swings the surface through level; the
        # guard must be sized for the damping (see PoleStiffnessWarning)
        scene = make_scene(duration=4.0, epsilon=3e-2)
        times = np.arange(0.0, 4.0, 0.05)
        accels = np.column_stack(
            [3.0 * np.sin(2 * np.pi * times), np.zeros_like(times), np.zeros_like(times)]
        )
        trace = run_liquid_scene(scene, FrameTrajectory(times=times, accels=accels))
        assert np.isfinite(trace.data).all()
        assert (trace.column("residual") <= 1e-9).all()

    def test_stiff_damping_warns(self):
        with pytest.warns(PoleStiffnessWarning):
            SceneConfig(
                gravity=G,
                container=box_mesh(),
                pendulum=PendulumParams(length=0.02, damping_phi=0.01, epsilon=1e-6),
                liquid_volume=0.5,
            )

    def test_volume_bounds_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            make_scene(volume=1.5)

    def test_empty_container_rejected(self):
        scene = make_scene()
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="^container mesh has no triangles$"):
            SceneConfig(gravity=G, container=empty, pendulum=scene.pendulum, liquid_volume=0.0)

    def test_duration_past_memory_names_duration(self):
        # 5 EiB of rows: malloc refuses it outright, whatever the overcommit setting
        with pytest.raises(ValueError, match="^duration 72000000000000.0 needs "
                                             "72000000000000000 steps"):
            run_liquid_scene(make_scene(duration=7.2e13), still_trajectory())

    def test_solver_failure_carries_step_index(self):
        scene = make_scene(duration=0.01)
        bad = object.__new__(SceneConfig)
        for name, value in vars(scene).items():
            object.__setattr__(bad, name, value)
        object.__setattr__(bad, "liquid_volume", 1.0 + 1e-6)  # just past capacity
        traj = still_trajectory()
        with pytest.raises((NoConvergence, Exception), match="step 0"):
            run_liquid_scene(bad, traj)


class TestScrewScene:
    def test_constant_profile(self):
        spec = HelixSpec(1.0, 0.2, 0.05, -10, 10)
        trace = run_screw_scene(spec, np.zeros(5), dt=0.1)
        np.testing.assert_array_equal(trace.column("axial"), 0.0)

    def test_full_turn(self):
        spec = HelixSpec(1.0, 0.2, 0.05, -10, 10)
        trace = run_screw_scene(spec, [0.0, np.pi, 2 * np.pi], dt=0.5)
        assert trace.column("axial")[-1] == pytest.approx(2 * np.pi * 0.05, rel=1e-15)

    def test_random_profile_matches_advance(self):
        rng = np.random.default_rng(137)
        spec = HelixSpec(0.8, 0.1, -0.02, -5, 5)
        angles = rng.uniform(-20, 20, 64)
        trace = run_screw_scene(spec, angles, dt=1e-2)
        np.testing.assert_array_equal(
            trace.column("axial"), screw_advance(spec, angles)
        )


class TestKnobScene:
    def test_duration_past_memory_names_duration(self):
        # 2 EiB of rows: malloc refuses it outright, whatever the overcommit setting
        profile = DetentProfile(positions=[0.0, 0.5], stiffness=10.0)
        with pytest.raises(ValueError, match="^duration 72000000000000.0 needs "
                                             "72000000000000000 steps"):
            run_knob_scene(profile, 0.0, inertia=0.005, duration=7.2e13)

    @pytest.mark.parametrize("torque", [[1.0, 2.0], np.zeros((1, 10))], ids=["short", "2-d"])
    def test_torque_of_the_wrong_shape_names_torque(self, torque):
        profile = DetentProfile(positions=[0.0, 0.5], stiffness=10.0)
        want = re.escape(f"got shape {np.shape(torque)} for 10 steps")
        with pytest.raises(ValueError, match=f"^torque .* {want}$"):
            run_knob_scene(profile, torque, inertia=0.005, duration=0.01)

    def test_rest_at_detent_is_constant(self):
        profile = DetentProfile([0.0, 0.5, 1.0], 10.0, 0.1)
        trace = run_knob_scene(profile, 0.0, inertia=0.01, dt=1e-3, duration=0.5, q0=0.5)
        np.testing.assert_array_equal(trace.column("q"), 0.5)
        np.testing.assert_array_equal(trace.column("index"), 1.0)

    def test_super_threshold_torque_advances_index(self):
        profile = DetentProfile([0.0, 0.5, 1.0], 10.0, 0.3)
        trace = run_knob_scene(profile, 3.0, inertia=0.01, dt=1e-3, duration=5.0)
        assert trace.column("index")[-1] > trace.column("index")[0]

    def test_sub_threshold_settles_back(self):
        profile = DetentProfile([0.0, 0.5, 1.0], 10.0, 0.2)
        trace = run_knob_scene(
            profile, 0.0, inertia=0.004, dt=1e-3, duration=10.0, q0=0.62
        )
        q = trace.column("q")[-1]
        assert abs(q - 0.5) <= 1e-4


class TestProgressScore:
    def test_perfect(self):
        spec = ProgressSpec(
            initial=(0, 0, 0), target=(10, 10, 10), final=(10, 10, 10),
            weights=(0.5, 0.3, 0.2),
        )
        assert progress_score(spec) == 1.0

    def test_no_motion(self):
        spec = ProgressSpec(
            initial=(0, 0, 0), target=(10, 10, 10), final=(0, 0, 0),
            weights=(0.5, 0.3, 0.2),
        )
        assert progress_score(spec) == 0.0

    def test_worked_example(self):
        spec = ProgressSpec(
            initial=(0, 0, 0), target=(10, 10, 10), final=(5, 10, 0),
            weights=(0.5, 0.3, 0.2),
        )
        assert progress_score(spec) == pytest.approx(0.55, abs=1e-15)

    def test_overshoot_clamps_at_zero(self):
        spec = ProgressSpec(
            initial=(0.0,), target=(1.0,), final=(5.0,), weights=(1.0,)
        )
        assert progress_score(spec) == 0.0

    def test_monotone_toward_target(self):
        rng = np.random.default_rng(139)
        for _ in range(300):
            initial = rng.uniform(-5, 5, 3)
            target = initial + rng.choice([-1, 1], 3) * rng.uniform(0.5, 4, 3)
            weights = rng.uniform(0.1, 1, 3)
            weights /= weights.sum()
            far = target + rng.uniform(-3, 3, 3)
            i = rng.integers(0, 3)
            near = far.copy()
            near[i] = target[i] + 0.5 * (far[i] - target[i])
            s_far = progress_score(
                ProgressSpec(initial=initial, target=target, final=far, weights=weights)
            )
            s_near = progress_score(
                ProgressSpec(initial=initial, target=target, final=near, weights=weights)
            )
            assert s_near >= s_far - 1e-12

    def test_degenerate_term_rejected(self):
        with pytest.raises(DegenerateTerm):
            ProgressSpec(initial=(1, 0), target=(1, 5), final=(0, 0), weights=(0.5, 0.5))

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProgressSpec(initial=(0,), target=(1,), final=(0,), weights=(0.5,))
        with pytest.raises(ValueError, match="nonnegative"):
            ProgressSpec(
                initial=(0, 0), target=(1, 1), final=(0, 0), weights=(1.5, -0.5)
            )
