"""Unit and property tests for the surface-direction pendulum."""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from labmech import (
    NonFiniteState,
    PendulumParams,
    PendulumState,
    ZeroGravity,
    direction_of,
    init_state,
    integrate_pendulum,
    lagrangian,
    ode_rhs,
    step_pendulum,
)

G_DOWN = (0.0, 0.0, -9.81)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def random_setup(rng):
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
    return params, state, accel


class TestLagrangian:
    def test_hanging_at_rest(self):
        params = PendulumParams(length=1.0, mass=1.0)
        value = lagrangian(params, PendulumState(0, 0, 0, 0), G_DOWN)
        assert value == pytest.approx(9.81, rel=1e-15)

    def test_pure_azimuthal_spin(self):
        params = PendulumParams(length=1.0, mass=1.0)
        state = PendulumState(phi=0.0, theta=np.pi / 2, phidot=1.0, thetadot=0.0)
        assert lagrangian(params, state, (0, 0, 0)) == pytest.approx(0.5, rel=1e-15)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            params, state, g = random_setup(rng)
            m, l = params.mass, params.length
            st, ct = math.sin(state.theta), math.cos(state.theta)
            sp, cp = math.sin(state.phi), math.cos(state.phi)
            expected = 0.5 * m * l * l * (state.phidot**2 * st**2 + state.thetadot**2) + m * l * (
                g[0] * st * cp + g[1] * sp * st - g[2] * ct
            )
            assert lagrangian(params, state, g) == pytest.approx(expected, rel=1e-14)


class TestOdeRhs:
    def test_pole_at_rest_is_stationary(self):
        params = PendulumParams(length=1.0)
        rhs = ode_rhs(params, PendulumState(0, 0, 0, 0), G_DOWN)
        assert rhs == (0.0, 0.0, 0.0, 0.0)

    def test_horizontal_release(self):
        params = PendulumParams(length=1.0, mass=1.0)
        state = PendulumState(phi=0.0, theta=np.pi / 2, phidot=0.0, thetadot=0.0)
        _, _, dphidot, dthetadot = ode_rhs(params, state, G_DOWN)
        assert dphidot == 0.0
        assert dthetadot == pytest.approx(-9.81, rel=1e-15)

    def test_guard_floors_the_azimuthal_denominator(self):
        params = PendulumParams(length=0.05, mass=1.2, damping_phi=0.01, epsilon=1e-6)
        state = PendulumState(phi=0.3, theta=1e-4, phidot=2.0, thetadot=-1.0)
        # sin^2(theta) ~ 1e-8 < epsilon, so the denominator must be m*l^2*eps
        st, ct = math.sin(state.theta), math.cos(state.theta)
        m, l = params.mass, params.length
        numerator = (
            -2 * m * l * l * state.phidot * state.thetadot * st * ct
            + m * l * (-0.0 * math.sin(state.phi) + 0.0) * st
            - params.damping_phi * state.phidot
        )
        expected = numerator / (m * l * l * params.epsilon)
        got = ode_rhs(params, state, (0.0, 0.0, -9.81))[2]
        assert got == expected

    def test_euler_lagrange_residual(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            params, state, g = random_setup(rng)
            assert oracles.el_residual(params, state, g) <= 1e-5


class TestStep:
    def test_fixed_point_is_bitwise_stable(self):
        params = PendulumParams(length=0.02, damping_phi=0.01, damping_theta=0.01)
        state = PendulumState(0.0, 0.0, 0.0, 0.0)
        out = step_pendulum(params, state, G_DOWN, 1e-3)
        assert (out.phi, out.theta, out.phidot, out.thetadot) == (0.0, 0.0, 0.0, 0.0)

    def test_converges_to_tilted_equilibrium(self):
        a = 2.0
        params = PendulumParams(length=0.02, damping_phi=0.01, damping_theta=0.01)
        state = init_state(G_DOWN)
        state = integrate_pendulum(params, state, (a, 0.0, -9.81), 1e-3, 10_000)
        assert abs(state.theta - math.atan(a / 9.81)) <= 1e-3
        assert abs(state.phidot) <= 1e-4 and abs(state.thetadot) <= 1e-4

    def test_undamped_energy_conserved(self):
        params = PendulumParams(length=0.02, mass=1.0)
        state = PendulumState(phi=0.3, theta=1.0, phidot=3.0, thetadot=0.5)
        e0 = oracles.pendulum_energy(params, state, G_DOWN)
        for _ in range(20):
            state = integrate_pendulum(params, state, G_DOWN, 1e-4, 1000)
            drift = abs(oracles.pendulum_energy(params, state, G_DOWN) - e0)
            assert drift <= 1e-6 * abs(e0)

    def test_damped_energy_non_increasing(self):
        # constant forcing, positive damping: total energy sampled every
        # 0.1 s never rises (trajectory stays clear of the stiff pole band)
        params = PendulumParams(
            length=0.02, mass=1.0, damping_phi=0.01, damping_theta=0.01
        )
        accel = (3.0, 0.0, -9.81)
        state = init_state(accel)  # equilibrium azimuth, then perturb theta
        state = PendulumState(state.phi, state.theta + 0.5, 0.0, 0.0)
        previous = oracles.pendulum_energy(params, state, accel)
        for _ in range(50):
            state = integrate_pendulum(params, state, accel, 1e-3, 100)
            current = oracles.pendulum_energy(params, state, accel)
            assert current <= previous + 1e-9
            previous = current

    def test_angular_momentum_conserved_about_vertical(self):
        # with a vertical forcing and no damping, p_phi = m l^2 phidot sin^2(theta)
        params = PendulumParams(length=0.05, mass=1.3)
        state = PendulumState(phi=-0.2, theta=0.9, phidot=2.0, thetadot=-0.4)
        m, l = params.mass, params.length

        def p_phi(s):
            return m * l * l * s.phidot * math.sin(s.theta) ** 2

        target = p_phi(state)
        state = integrate_pendulum(params, state, G_DOWN, 1e-4, 20_000)
        assert p_phi(state) == pytest.approx(target, rel=1e-7)

    def test_pole_crossing_keeps_direction_continuous(self):
        # a planar swing passes through the pole; the chart reflects there
        params = PendulumParams(length=0.02)
        state = PendulumState(phi=0.0, theta=0.15, phidot=0.0, thetadot=-2.0)
        previous = direction_of(state)
        for _ in range(400):
            state = step_pendulum(params, state, G_DOWN, 1e-3)
            current = direction_of(state)
            assert np.linalg.norm(current - previous) < 0.1
            previous = current
        assert 0.0 <= state.theta <= np.pi

    def test_guard_keeps_near_pole_stepping_finite(self):
        # oscillates entirely inside the guarded band theta < sqrt(epsilon);
        # the azimuthal rate must stay gentle there, since the guard only
        # bounds the denominator, not the stiffness of the guarded equation
        params = PendulumParams(length=0.02)
        state = PendulumState(phi=0.1, theta=5e-4, phidot=0.01, thetadot=0.0)
        state = integrate_pendulum(params, state, G_DOWN, 1e-3, 1_000_000)
        assert math.isfinite(state.phi) and math.isfinite(state.phidot)
        assert state.theta <= 2e-3

    def test_deterministic(self):
        # conical orbit: angular momentum keeps the trajectory off the poles
        params = PendulumParams(length=0.03)
        runs = []
        for _ in range(2):
            state = PendulumState(0.1, 0.8, 2.0, -0.3)
            state = integrate_pendulum(params, state, G_DOWN, 1e-3, 5000)
            runs.append((state.phi, state.theta, state.phidot, state.thetadot))
        assert runs[0] == runs[1]

    def test_integrate_matches_repeated_steps(self):
        params = PendulumParams(length=0.05, damping_phi=0.01, damping_theta=0.01)
        a = PendulumState(0.2, 0.7, 1.0, -0.5)
        b = a
        accel = (0.5, -0.2, -9.81)
        for _ in range(100):
            a = step_pendulum(params, a, accel, 1e-3)
        b = integrate_pendulum(params, b, accel, 1e-3, 100)
        assert (a.phi, a.theta, a.phidot, a.thetadot) == (b.phi, b.theta, b.phidot, b.thetadot)

    def test_nonfinite_detected(self):
        params = PendulumParams(length=0.02)
        state = PendulumState(0.0, 1.0, 1e150, 0.0)
        with pytest.raises(NonFiniteState):
            integrate_pendulum(params, state, G_DOWN, 1e300, 5)

    def test_underflowing_inertia_is_non_finite_state(self):
        # m * l * l * eps underflows to 0, so the azimuthal equation divides by zero
        params = PendulumParams(length=1e-200)
        with pytest.raises(NonFiniteState, match="division by zero"):
            step_pendulum(params, PendulumState(0.0, 1.0, 0.0, 0.0), G_DOWN, 1e-3)

    def test_rejects_bad_dt(self):
        params = PendulumParams(length=0.02)
        with pytest.raises(ValueError):
            step_pendulum(params, PendulumState(0, 0, 0, 0), G_DOWN, 0.0)


class TestInitAndDirection:
    def test_init_straight_down(self):
        state = init_state(G_DOWN)
        assert (state.phi, state.theta) == (0.0, 0.0)
        assert (state.phidot, state.thetadot) == (0.0, 0.0)

    def test_init_horizontal(self):
        state = init_state((9.81, 0.0, 0.0))
        assert state.theta == pytest.approx(np.pi / 2, rel=1e-15)
        assert state.phi == 0.0

    def test_init_inverts_direction(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            g = rng.uniform(-10, 10, 3)
            if np.linalg.norm(g) < 1e-6:
                continue
            d = direction_of(init_state(g))
            np.testing.assert_allclose(d, g / np.linalg.norm(g), atol=1e-12)

    def test_zero_gravity_rejected(self):
        with pytest.raises(ZeroGravity):
            init_state((0.0, 0.0, 0.0))

    @pytest.mark.parametrize("accel", [[], [3.0, 4.0], [[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0, 0.0]])
    def test_only_3_vectors_accepted(self, accel):
        with pytest.raises(ValueError, match="3-vector, got an array of shape"):
            init_state(accel)

    # accel . accel overflows or underflows to zero there; numpy must not warn
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "accel, direction",
        [
            ((0.0, 0.0, -1e200), (0.0, 0.0, -1.0)),
            ((3e160, 0.0, -4e160), (0.6, 0.0, -0.8)),
            ((0.0, 0.0, -1e-200), (0.0, 0.0, -1.0)),
            ((0.0, 4e-170, 3e-170), (0.0, 0.8, 0.6)),
        ],
        ids=["down-overflow", "oblique-overflow", "down-underflow", "oblique-underflow"],
    )
    def test_init_at_the_float_range_edges(self, accel, direction):
        np.testing.assert_allclose(direction_of(init_state(accel)), direction, atol=1e-15)

    def test_direction_examples(self):
        np.testing.assert_allclose(
            direction_of(PendulumState(0, 0, 0, 0)), [0, 0, -1], atol=1e-15
        )
        np.testing.assert_allclose(
            direction_of(PendulumState(0, np.pi / 2, 0, 0)), [1, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            direction_of(PendulumState(np.pi / 2, np.pi / 2, 0, 0)), [0, 1, 0], atol=1e-12
        )

    def test_direction_is_unit(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            state = PendulumState(rng.uniform(-4, 4), rng.uniform(0, np.pi), 0, 0)
            assert abs(np.linalg.norm(direction_of(state)) - 1.0) <= 1e-12


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PendulumParams(length=0.0)
        with pytest.raises(ValueError):
            PendulumParams(length=1.0, mass=-1.0)
        with pytest.raises(ValueError):
            PendulumParams(length=1.0, damping_phi=-0.1)
        with pytest.raises(ValueError):
            PendulumParams(length=1.0, epsilon=0.0)


@st.composite
def pole_crossings(draw, azimuthal):
    """(params, state, forcing) of a swing through the vertical: the state
    heads for the pole from up to 0.3 rad off it, and a lateral forcing
    towards the opposite azimuth pulls it on through the pole, over the
    whole range of the guard's epsilon.  With ``azimuthal``, the state also
    turns at up to 2 rad/s and the forcing lies up to 0.3 rad off the swing
    plane, so the swing passes beside the pole rather than through it."""
    params = PendulumParams(
        length=draw(st.floats(0.01, 0.1)), epsilon=10.0 ** draw(st.floats(-8.0, -4.0))
    )
    phi = draw(st.floats(-math.pi, math.pi))
    phidot = draw(st.floats(-2.0, 2.0)) if azimuthal else 0.0
    state = PendulumState(phi, draw(st.floats(1e-3, 0.3)), phidot, -draw(st.floats(0.0, 10.0)))
    lateral = draw(st.floats(0.5, 3.0))
    towards = phi + math.pi + (draw(st.floats(-0.3, 0.3)) if azimuthal else 0.0)
    return params, state, (lateral * math.cos(towards), lateral * math.sin(towards), -9.81)


def swing(params, state, accel, steps=300, dt=1e-3):
    """Step the swing, checking that every state is finite (step_pendulum
    raises NonFiniteState otherwise) and that the direction moves by at most
    its largest possible angular speed times dt; True when the chart
    flipped at the pole (phi jumps by pi)."""
    # the forcing's potential differs by at most 2 l |g| between any two
    # directions and damping only removes energy, which bounds the speed
    g = math.hypot(*accel)
    speed = math.sqrt(
        state.thetadot**2 + (math.sin(state.theta) * state.phidot) ** 2 + 4.0 * g / params.length
    )
    previous = direction_of(state)
    flipped = False
    for _ in range(steps):
        after = step_pendulum(params, state, accel, dt)
        flipped |= abs(math.remainder(after.phi - state.phi, 2.0 * math.pi)) > 1.5
        state = after
        current = direction_of(state)
        assert np.linalg.norm(current - previous) <= speed * dt
        previous = current
    return flipped


@PROPERTY_SETTINGS
@given(case=pole_crossings(azimuthal=False))
def test_swing_through_the_pole_stays_finite_and_continuous(case):
    assert swing(*case)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: near the pole the azimuthal equation is stiff, with a rate "
    "of up to 2 |thetadot| / sqrt(epsilon) that the guard does not bound, so "
    "explicit RK4 at dt = 1e-3 amplifies any azimuthal rate on a fast pass "
    "until the state overflows (NonFiniteState) or the direction jumps"
))
@settings(PROPERTY_SETTINGS, phases=[Phase.generate])  # a known failure needs no shrinking
@given(case=pole_crossings(azimuthal=True))
def test_turning_swing_past_the_pole_stays_finite_and_continuous(case):
    swing(*case)
