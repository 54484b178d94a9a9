"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) carrying the measured margin, so a run documents how far
the implementation sits from each bound, not just that it passed.
"""

import math
import time

import numpy as np
import pytest

import oracles
from labmech import (
    DetentProfile,
    EccentricSpec,
    FrameTrajectory,
    HelixSpec,
    KnobState,
    LiquidPlane,
    PendulumParams,
    PendulumState,
    ProgressSpec,
    ReplayTrace,
    SceneConfig,
    box_mesh,
    clip_volume,
    cylinder_mesh,
    detent_force,
    eccentric_transform,
    factor_transforms,
    init_state,
    integrate_pendulum,
    l_prism_mesh,
    mesh_volume,
    nearest_detent,
    progress_score,
    read_trace,
    run_liquid_scene,
    screw_advance,
    sdf_bounded,
    step_knob,
    unit_vector,
    write_trace,
)
from labmech.mesh import height_search

G_DOWN = (0.0, 0.0, -9.81)


def random_helix_specs(rng, count=10):
    """Thread-like helices in the field's small-angle validity regime."""
    specs = []
    for _ in range(count):
        r1 = rng.uniform(0.5, 2.0)
        ratio = math.exp(rng.uniform(math.log(0.003), math.log(0.03)))
        p = ratio * r1 * rng.choice([-1.0, 1.0])
        l = rng.uniform(-10.0, 0.0)
        h = l + rng.uniform(2.0, 15.0)
        specs.append(HelixSpec(r1=r1, r2=0.2 * r1, p=p, l=l, h=h))
    return specs


def cylinder_points(rng, spec, count):
    """Uniform in the bounding cylinder of radius 3*r1 over the axial extent."""
    rho = 3.0 * spec.r1 * np.sqrt(rng.uniform(0.0, 1.0, count))
    ang = rng.uniform(0.0, 2.0 * np.pi, count)
    z_lo, z_hi = sorted((spec.t_min * spec.p, spec.t_max * spec.p))
    z = rng.uniform(z_lo, z_hi, count)
    return np.column_stack([rho * np.cos(ang), rho * np.sin(ang), z])


def test_criterion_01_helix_sdf_oracle_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    for spec in random_helix_specs(rng):
        points = cylinder_points(rng, spec, 1000)
        reference, gap = oracles.dense_min_distance(spec, points, samples=1_000_000)
        got = sdf_bounded(spec, points).distance
        err = np.abs(got - reference)
        assert (err <= 2.0 * gap).all()
        worst_ratio = max(worst_ratio, float(err.max() / (2.0 * gap)))
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    print(
        f"ACCEPTANCE 01 PASS: helix SDF vs 1e6-sample oracle, 10 specs x 1000 points, "
        f"worst error {worst_ratio:.1%} of the 2-chord-gap bound, {elapsed:.1f}s"
    )


def test_criterion_02_bounded_case_partition():
    rng = np.random.default_rng(2025)
    mismatches = 0
    checked = 0
    for spec in random_helix_specs(rng):
        z_lo, z_hi = sorted((spec.t_min * spec.p, spec.t_max * spec.p))
        margin = 0.2 * (z_hi - z_lo)
        for _ in range(10_000):
            point = (
                rng.uniform(-3 * spec.r1, 3 * spec.r1),
                rng.uniform(-3 * spec.r1, 3 * spec.r1),
                rng.uniform(z_lo - margin, z_hi + margin),
            )
            case_brute, d_brute = oracles.brute_bounded_case(spec, point)
            got = sdf_bounded(spec, np.array(point))
            if oracles.analytic_case(spec, point) != case_brute:
                mismatches += 1
            elif not math.isclose(got.distance, d_brute, rel_tol=1e-13, abs_tol=0.0):
                mismatches += 1
            checked += 1
    assert checked == 100_000
    assert mismatches == 0
    print(
        "ACCEPTANCE 02 PASS: analytic interior/low/high case selection matches "
        f"brute-force candidate scanning on {checked} queries, 0 mismatches"
    )


def test_criterion_03_screw_kinematics():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-0.2, 0.2)
        if p == 0.0:
            continue
        spec = HelixSpec(r1=1.0, r2=0.1, p=p, l=-5.0, h=5.0)
        got = screw_advance(spec, 2.0 * np.pi)
        expected = 2.0 * np.pi * p
        rel = abs(got - expected) / abs(expected)
        worst = max(worst, rel)
        assert rel <= 1e-15
    print(
        f"ACCEPTANCE 03 PASS: full-turn advance equals 2*pi*p for 100 random p, "
        f"worst relative error {worst:.2e} (<= 1e-15)"
    )


def test_criterion_04_detent_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2027)

    # force is zero at every detent, at rest
    for _ in range(20):
        positions = np.unique(rng.uniform(-5, 5, rng.integers(1, 30)))
        profile = DetentProfile(positions, stiffness=rng.uniform(1, 100))
        assert all(detent_force(profile, q, 0.0) == 0.0 for q in positions)

    # binary search equals a linear scan on 1e5 queries
    positions = np.unique(rng.uniform(-10, 10, 64))
    profile = DetentProfile(positions, stiffness=10.0, damping=0.1)
    queries = rng.uniform(-12, 12, 100_000)
    scan = np.argmin(np.abs(queries[:, None] - positions[None, :]), axis=1)
    got = np.fromiter((nearest_detent(profile, q) for q in queries), dtype=np.int64)
    assert np.array_equal(got, scan)

    # damped knob from q=0.6 settles onto the 0.5 detent within 1e-4 in 10 s
    clicks = DetentProfile([0.0, 0.5, 1.0], stiffness=10.0, damping=0.1)
    state = KnobState(q=0.6, qdot=0.0, inertia=0.005)
    for _ in range(10_000):
        state = step_knob(clicks, state, 0.0, dt=1e-3)
    settle_err = abs(state.q - 0.5)
    assert settle_err <= 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0
    print(
        "ACCEPTANCE 04 PASS: detent forces zero at rest, binary==linear on 1e5 "
        f"queries, knob settled to {settle_err:.2e} of the detent, {elapsed:.1f}s"
    )


def test_criterion_05_eccentric_identity():
    rng = np.random.default_rng(2028)
    worst_elem = 0.0
    worst_radius = 0.0
    for _ in range(1000):
        spec = EccentricSpec(rng.uniform(0.0, 3.0))
        theta = rng.uniform(-4 * np.pi, 4 * np.pi)
        first, second = factor_transforms(spec, theta)
        composite = eccentric_transform(spec, theta)
        elem = np.abs(first @ second - composite).max()
        radius = abs(np.linalg.norm(composite[:2, 2]) - spec.throw)
        worst_elem = max(worst_elem, elem)
        worst_radius = max(worst_radius, radius)
        assert elem <= 1e-12
        assert radius <= 1e-12
    print(
        "ACCEPTANCE 05 PASS: hinge-pair product equals the orbit transform "
        f"(worst element {worst_elem:.2e}) and orbit radius equals the throw "
        f"(worst {worst_radius:.2e}) on 1000 random cases"
    )


def test_criterion_06_euler_lagrange_machine_check():
    rng = np.random.default_rng(2029)
    worst = 0.0
    for _ in range(100):
        params = PendulumParams(
            length=rng.uniform(0.02, 0.2),
            mass=rng.uniform(0.5, 2.0),
            damping_phi=rng.uniform(0.0, 0.05),
            damping_theta=rng.uniform(0.0, 0.05),
        )
        state = PendulumState(
            phi=rng.uniform(-np.pi, np.pi),
            theta=rng.uniform(0.2, np.pi - 0.2),
            phidot=rng.uniform(-3, 3),
            thetadot=rng.uniform(-3, 3),
        )
        accel = rng.uniform(-12, 12, 3)
        residual = oracles.el_residual(params, state, accel)
        worst = max(worst, residual)
        assert residual <= 1e-5
    print(
        "ACCEPTANCE 06 PASS: rate equations satisfy the Euler-Lagrange equation "
        f"against finite-difference Lagrangian partials, worst residual {worst:.2e} "
        "(<= 1e-5) on 100 random states"
    )


def test_criterion_07_equilibrium_alignment():
    started = time.perf_counter()
    params = PendulumParams(
        length=0.02, mass=1.0, damping_phi=0.01, damping_theta=0.01
    )
    worst_angle = 0.0
    worst_rate = 0.0
    for a in (1.0, 3.0, 5.0):
        state = init_state(G_DOWN)
        state = integrate_pendulum(params, state, (a, 0.0, -9.81), 1e-3, 30_000)
        angle_err = abs(state.theta - math.atan(a / 9.81))
        rate = max(abs(state.phidot), abs(state.thetadot))
        worst_angle = max(worst_angle, angle_err)
        worst_rate = max(worst_rate, rate)
        assert angle_err <= 1e-3
        assert rate <= 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    print(
        "ACCEPTANCE 07 PASS: 30 s damped runs align with atan(a/9.81) for "
        f"a in (1,3,5), worst angle error {worst_angle:.2e}, worst terminal rate "
        f"{worst_rate:.2e}, {elapsed:.1f}s"
    )


def test_criterion_08_undamped_energy_conservation():
    params = PendulumParams(length=0.02, mass=1.0)
    state = PendulumState(phi=0.3, theta=1.0, phidot=3.0, thetadot=0.5)
    e0 = oracles.pendulum_energy(params, state, G_DOWN)
    worst = 0.0
    for _ in range(100):
        state = integrate_pendulum(params, state, G_DOWN, 1e-4, 1000)
        drift = abs(oracles.pendulum_energy(params, state, G_DOWN) - e0) / abs(e0)
        worst = max(worst, drift)
    assert worst <= 1e-6
    print(
        "ACCEPTANCE 08 PASS: undamped energy drift over 10 s at dt=1e-4 is "
        f"{worst:.2e} relative (<= 1e-6)"
    )


def test_criterion_09_volume_suite():
    started = time.perf_counter()
    cube = box_mesh()

    exact1 = clip_volume(cube, LiquidPlane(np.array([0.0, 0.0, 1.0]), -0.2)).volume
    assert abs(exact1 - 0.3) <= 1e-12
    exact2 = clip_volume(cube, LiquidPlane(unit_vector([1.0, 0.0, 1.0]), 0.0)).volume
    assert abs(exact2 - 0.5) <= 1e-12

    rng = np.random.default_rng(2030)
    shapes = [
        (cube, oracles.inside_box, ((0, 0, 0), (1, 1, 1)), 20),
        (
            cylinder_mesh(radius=0.8, height=1.4, segments=48),
            oracles.inside_ngon_prism,
            (0.8, 1.4, 48),
            15,
        ),
        (
            l_prism_mesh(outer=(2.0, 2.0), notch=(1.0, 1.0), height=1.0),
            oracles.inside_l_prism,
            ((2.0, 2.0), (1.0, 1.0), 1.0),
            15,
        ),
    ]
    cases = 0
    worst_z = 0.0
    for mesh, inside_fn, inside_args, plane_count in shapes:
        lo = mesh.bbox_min
        hi = mesh.bbox_max
        pts = rng.uniform(lo, hi, (10_000_000, 3))
        bbox_volume = float(np.prod(hi - lo))
        inside = inside_fn(pts, *inside_args)
        span = (mesh.vertices - mesh.bbox_center) @ np.array([0.0, 0.0, 1.0])
        for _ in range(plane_count):
            normal = unit_vector(rng.normal(size=3))
            support = (mesh.vertices - mesh.bbox_center) @ normal
            height = rng.uniform(0.25, 0.75) * (support.max() - support.min()) + support.min()
            got = clip_volume(mesh, LiquidPlane(normal, height)).volume
            origin = mesh.bbox_center + height * normal
            estimate, sigma = oracles.mc_clip_volume(
                inside, pts, bbox_volume, normal, origin
            )
            z = abs(got - estimate) / sigma
            worst_z = max(worst_z, z)
            assert z <= 3.0
            cases += 1
    assert cases == 50
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0
    print(
        "ACCEPTANCE 09 PASS: exact cube clips to 1e-12; 50 random planes on "
        f"cube/cylinder/L-prism within 3 sigma of 1e7-point Monte Carlo "
        f"(worst {worst_z:.2f} sigma), {elapsed:.1f}s"
    )


def test_criterion_10_newton_bisect():
    rng = np.random.default_rng(2031)
    convex = [box_mesh(), cylinder_mesh(radius=0.8, height=1.4, segments=48)]
    fixtures = convex + [l_prism_mesh()]
    worst_gap = 0.0
    worst_iters = 0
    worst_round = 0.0
    for case in range(100):
        mesh = fixtures[case % len(fixtures)]
        total = mesh_volume(mesh)
        diag = mesh.bbox_diag
        normal = unit_vector(rng.normal(size=3))
        target = rng.uniform(0.1, 0.9) * total

        found = height_search(mesh, normal, target)
        reference = oracles.bisect_height(mesh, normal, target, tol=1e-12)
        gap = abs(found.height - reference)
        worst_gap = max(worst_gap, gap / diag)
        assert gap <= 1e-9 * diag

        if any(mesh is m for m in convex):
            worst_iters = max(worst_iters, found.iterations)
            assert found.iterations <= 20

        # conservation round-trip at a height with a real cross-section
        support = (mesh.vertices - mesh.bbox_center) @ normal
        h = rng.uniform(0.25, 0.75) * (support.max() - support.min()) + support.min()
        volume = clip_volume(mesh, LiquidPlane(normal, h)).volume
        back = height_search(mesh, normal, volume).height
        worst_round = max(worst_round, abs(back - h) / diag)
        assert abs(back - h) <= 1e-9 * diag
    print(
        "ACCEPTANCE 10 PASS: Newton-Bisect matches pure bisection to "
        f"{worst_gap:.2e} x bbox (<= 1e-9), max {worst_iters} iterations on convex "
        f"fixtures (<= 20), round-trip error {worst_round:.2e} x bbox on 100 cases"
    )


def test_criterion_11_static_liquid_scene():
    scene = SceneConfig(
        gravity=G_DOWN,
        container=box_mesh(),
        pendulum=PendulumParams(
            length=0.02, damping_phi=0.01, damping_theta=0.01, epsilon=2.5e-2
        ),
        liquid_volume=0.5,
        dt=1e-3,
        duration=10.0,
    )
    trace = run_liquid_scene(scene, FrameTrajectory(times=[0.0], accels=[[0, 0, 0]]))
    assert len(trace) == 10_000
    assert (trace.column("nx") == 0.0).all()
    assert (trace.column("ny") == 0.0).all()
    assert (trace.column("nz") == 1.0).all()
    heights = trace.column("height")
    assert (heights == heights[0]).all()
    assert heights[0] == 0.0  # plane through z = 0.5
    max_residual = float(trace.column("residual").max())
    assert max_residual <= 1e-9 * 1.0
    print(
        "ACCEPTANCE 11 PASS: 1e4-step still scene holds normal (0,0,1) and a "
        f"constant height exactly; max volume residual {max_residual:.2e} "
        "(<= 1e-9 relative)"
    )


def test_criterion_12_progress_score():
    perfect = ProgressSpec(
        initial=(0, 0, 0), target=(10, 10, 10), final=(10, 10, 10),
        weights=(0.5, 0.3, 0.2),
    )
    unmoved = ProgressSpec(
        initial=(0, 0, 0), target=(10, 10, 10), final=(0, 0, 0),
        weights=(0.5, 0.3, 0.2),
    )
    partial = ProgressSpec(
        initial=(0, 0, 0), target=(10, 10, 10), final=(5, 10, 0),
        weights=(0.5, 0.3, 0.2),
    )
    assert progress_score(perfect) == 1.0
    assert progress_score(unmoved) == 0.0
    assert progress_score(partial) == pytest.approx(0.55, abs=1e-15)

    rng = np.random.default_rng(2032)
    checked = 0
    for _ in range(10_000):
        initial = rng.uniform(-5, 5, 3)
        target = initial + rng.choice([-1.0, 1.0], 3) * rng.uniform(0.5, 4.0, 3)
        weights = rng.uniform(0.1, 1.0, 3)
        weights /= weights.sum()
        far = target + rng.uniform(-3.0, 3.0, 3)
        near = far.copy()
        i = rng.integers(0, 3)
        near[i] = target[i] + rng.uniform(0.0, 1.0) * (far[i] - target[i])
        s_far = progress_score(
            ProgressSpec(initial=initial, target=target, final=far, weights=weights)
        )
        s_near = progress_score(
            ProgressSpec(initial=initial, target=target, final=near, weights=weights)
        )
        assert s_near >= s_far - 1e-12
        checked += 1
    print(
        "ACCEPTANCE 12 PASS: worked scores 1.0 / 0.0 / 0.55 reproduce exactly; "
        f"moving any parameter toward its target never lowered the score in "
        f"{checked} random perturbations"
    )


def test_criterion_13_trace_round_trip(tmp_path):
    rng = np.random.default_rng(2033)
    for i in range(100):
        kind = str(rng.choice(["generic", "liquid", "screw", "knob"]))
        ncols = int(rng.integers(1, 8))
        trace = ReplayTrace(
            kind=kind,
            columns=tuple(f"c{j}" for j in range(ncols)),
            data=rng.normal(scale=10.0 ** rng.integers(-9, 9),
                            size=(int(rng.integers(0, 50)), ncols)),
        )
        path = tmp_path / f"rt{i}.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace

    # a deterministic scene writes byte-identical files on re-run
    scene = SceneConfig(
        gravity=G_DOWN,
        container=box_mesh(),
        pendulum=PendulumParams(
            length=0.02, damping_phi=0.01, damping_theta=0.01, epsilon=2.5e-2
        ),
        liquid_volume=0.4,
        dt=1e-3,
        duration=0.25,
    )
    traj = FrameTrajectory(
        times=np.arange(5) * 0.1,
        accels=np.column_stack([np.sin(np.arange(5.0)), np.zeros(5), np.zeros(5)]),
    )
    paths = [tmp_path / "runA.trace", tmp_path / "runB.trace"]
    for path in paths:
        write_trace(run_liquid_scene(scene, traj), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print(
        "ACCEPTANCE 13 PASS: 100 random traces round-trip bit-exactly; "
        "re-running a scene reproduces byte-identical trace files"
    )
