"""The first stage of the liquid step, pinned bit for bit: the pendulum's
RK4 kernel, which builds its constants once per forcing, against the
reference kernel in ``oracles`` that recomputes them at every stage, and
``FrameTrajectory.index_at``, which reads its start and spacing as floats,
against the formula that takes them from the timestamps on every call."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import oracles
from labmech import (
    FrameTrajectory, NonFiniteState, PendulumParams, PendulumState, ode_rhs, step_pendulum,
)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# a mass and a length away from 1, so that m*l and m*l*l differ from their factors
AWAY_FROM_ONE = st.one_of(st.floats(0.05, 0.9), st.floats(1.1, 20.0))


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def outcome(call):
    """The bytes of the floats ``call()`` returns, or the type of the error
    it raises."""
    try:
        return bits(call())
    except (ArithmeticError, ValueError, NonFiniteState) as exc:
        return type(exc)


@st.composite
def pendulum_cases(draw):
    """(params, state, forcing, dt) with nonzero dampings, any pole guard,
    and states on or near either pole as well as anywhere between; a rate
    towards a pole carries the step past it, which renormalizes theta."""
    params = PendulumParams(
        length=draw(AWAY_FROM_ONE),
        mass=draw(AWAY_FROM_ONE),
        damping_phi=draw(st.floats(1e-4, 5.0)),
        damping_theta=draw(st.floats(1e-4, 5.0)),
        epsilon=draw(st.one_of(st.floats(1e-300, 10.0),
                               st.floats(-12.0, 0.0).map(lambda e: 10.0**e))),
    )
    theta = draw(st.one_of(
        st.floats(0.0, 1e-3), st.floats(math.pi - 1e-3, math.pi), st.floats(0.0, math.pi),
    ))
    phi, phidot, thetadot = (draw(st.floats(-b, b)) for b in (7.0, 10.0, 10.0))
    state = PendulumState(phi, theta, phidot, thetadot)
    accel = tuple(draw(st.floats(-20.0, 20.0)) for _ in range(3))
    return params, state, accel, draw(st.floats(1e-5, 1e-2))


POLE_PARAMS = PendulumParams(length=0.02, mass=0.3, damping_phi=0.01, damping_theta=0.02,
                             epsilon=2.5e-2)


@PROPERTY_SETTINGS
@given(case=pendulum_cases())
# steps that leave [0, pi] through either pole and are folded back
@example(case=(POLE_PARAMS, PendulumState(0.4, 1e-4, 1.5, -2.0), (1.0, -0.5, -9.81), 1e-3))
@example(case=(POLE_PARAMS, PendulumState(-2.0, math.pi - 1e-4, 0.0, 2.0), (0.0, 3.0, 9.81), 1e-3))
def test_rk4_kernel_matches_the_reference_bit_for_bit(case):
    params, state, accel, dt = case
    assert outcome(lambda: ode_rhs(params, state, accel)) == outcome(
        lambda: oracles.pendulum_rhs_reference(params, state, accel))
    expected = outcome(lambda: oracles.pendulum_step_reference(params, state, accel, dt))
    if isinstance(expected, bytes) and np.isfinite(np.frombuffer(expected)).all():
        assert bits(dataclasses.astuple(step_pendulum(params, state, accel, dt))) == expected
    else:
        with pytest.raises(NonFiniteState):
            step_pendulum(params, state, accel, dt)


def test_pole_examples_renormalize():
    # the explicit examples above do cross a pole: theta comes back folded,
    # with phi turned by pi
    for state, accel in ((PendulumState(0.4, 1e-4, 1.5, -2.0), (1.0, -0.5, -9.81)),
                         (PendulumState(-2.0, math.pi - 1e-4, 0.0, 2.0), (0.0, 3.0, 9.81))):
        unfolded = state.theta + 1e-3 * state.thetadot
        assert not 0.0 <= unfolded <= math.pi
        after = step_pendulum(POLE_PARAMS, state, accel, 1e-3)
        assert 0.0 <= after.theta <= math.pi
        assert abs(abs(math.remainder(after.phi - state.phi, 2.0 * math.pi)) - math.pi) < 0.1


@st.composite
def trajectory_queries(draw):
    """A uniform trajectory, with spacings such as 0.1 that no float holds
    exactly and starts up to a million spacings away from zero, and query
    times on its samples, on the multiples of its spacing that a scene's
    steps land on, before its start and past its end."""
    spacing = draw(st.one_of(st.sampled_from([0.1, 1e-3, 1.0 / 3.0, 0.7]), st.floats(1e-6, 10.0)))
    n = draw(st.integers(2, 40))
    start = spacing * draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0), st.floats(-1e6, 1e6)))
    times = start + spacing * np.arange(n)
    try:
        trajectory = FrameTrajectory(times, np.zeros((n, 3)))
    except ValueError:  # rounding at a far start left the samples uneven
        reject()
    span = times[-1] - times[0]
    queries = draw(st.lists(st.one_of(
        st.integers(-3, n + 3).map(lambda k: float(times[0] + k * spacing)),
        st.integers(-3, n + 3).map(lambda k: k * spacing),
        st.floats(float(times[0] - span - 1.0), float(times[-1] + span + 1.0)),
    ), min_size=1, max_size=20))
    return trajectory, queries


@PROPERTY_SETTINGS
@given(case=trajectory_queries())
def test_index_at_matches_the_numpy_scalar_formula(case):
    trajectory, queries = case
    for t in queries:
        assert trajectory.index_at(t) == oracles.sample_index_reference(trajectory.times, t)
