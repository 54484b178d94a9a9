"""The first stage of the liquid step, pinned bit for bit: the pendulum's
RK4 kernel, which builds its constants once per forcing, against the
reference kernel in ``oracles`` that recomputes them at every stage, and
``FrameTrajectory.index_at``, which reads its start and spacing as floats,
against the formula that takes them from the timestamps on every call.

The private paths of the step are pinned the same way: ``step_pendulum``
against ``integrate_pendulum(..., 1)``, the states it and ``init_state``
build without the public checks against public construction,
``init_state``'s angles against the array formula, and
``_uniform_step``'s one-subtraction gaps against ``np.diff``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import oracles
from labmech import (
    FrameTrajectory, NonFiniteState, PendulumParams, PendulumState, ZeroGravity, init_state,
    integrate_pendulum, ode_rhs, step_pendulum,
)
from labmech.harness import _uniform_step

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


def result(call):
    """The bytes of the fields of the state ``call()`` returns, or the type
    and message of the error it raises."""
    try:
        return bits(dataclasses.astuple(call()))
    except (ArithmeticError, ValueError, LookupError, TypeError, NonFiniteState,
            ZeroGravity) as exc:
        return type(exc), str(exc)


# a state whose rates overflow the step and leave the angles finite: the
# check of the stepped state, not the arithmetic, fails
DIVERGING = (POLE_PARAMS, PendulumState(0.3, 1.0, 0.0, 1e150), (1.0, 2.0, -9.81), 1e-3)


@PROPERTY_SETTINGS
@given(case=pendulum_cases())
@example(case=(POLE_PARAMS, PendulumState(0.4, 1e-4, 1.5, -2.0), (1.0, -0.5, -9.81), 1e-3))
@example(case=DIVERGING)
# rates whose step overflows an angle, where the arithmetic fails
@example(case=(POLE_PARAMS, PendulumState(0.3, 1.0, 1e160, -1e160), (1.0, 2.0, -9.81), 1e-3))
def test_step_is_one_step_of_integrate_bit_for_bit(case):
    params, state, accel, dt = case
    assert result(lambda: step_pendulum(params, state, accel, dt)) == result(
        lambda: integrate_pendulum(params, state, accel, dt, 1))


def test_diverging_example_fails_in_both():
    params, state, accel, dt = DIVERGING
    failure = result(lambda: step_pendulum(params, state, accel, dt))
    assert failure[0] is NonFiniteState and "diverged" in failure[1]
    assert failure == result(lambda: integrate_pendulum(params, state, accel, dt, 1))


@pytest.mark.parametrize("dt, accel", [
    (0.0, (0.0, 0.0, -9.81)), (-1e-3, (0.0, 0.0, -9.81)), (math.nan, (0.0, 0.0, -9.81)),
    (math.inf, (0.0, 0.0, -9.81)), (10**400, (0.0, 0.0, -9.81)), ("fast", (0.0, 0.0, -9.81)),
    (1e-3, (0.0, -9.81)), (1e-3, (0.0, 0.0, -9.81, 1.0)), (1e-3, (0.0, "down", -9.81)),
    (1e-3, 9.81),
], ids=["zero", "negative", "nan", "inf", "huge-int", "text", "two", "four", "word", "scalar"])
def test_step_rejects_what_integrate_rejects_with_its_message(dt, accel):
    state = PendulumState(0.1, 0.2, 0.0, 0.0)
    failure = result(lambda: step_pendulum(POLE_PARAMS, state, accel, dt))
    assert not isinstance(failure, bytes)
    assert failure == result(lambda: integrate_pendulum(POLE_PARAMS, state, accel, dt, 1))


def assert_like_public_construction(built):
    public = PendulumState(*dataclasses.astuple(built))
    assert built == public and hash(built) == hash(public)
    assert vars(built) == vars(public)
    assert all(type(v) is float for v in vars(built).values())
    for name in ("phi", "theta", "phidot", "thetadot"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, 0.0)


@PROPERTY_SETTINGS
@given(case=pendulum_cases())
@example(case=(POLE_PARAMS, PendulumState(-2.0, math.pi - 1e-4, 0.0, 2.0), (0.0, 3.0, 9.81), 1e-3))
def test_built_states_are_the_states_public_construction_gives(case):
    params, state, accel, dt = case
    try:
        assert_like_public_construction(step_pendulum(params, state, accel, dt))
    except NonFiniteState:
        pass
    if any(accel):
        assert_like_public_construction(init_state(accel))


@PROPERTY_SETTINGS
@given(case=pendulum_cases())
# the poles, a zero vector, and vectors whose square underflows or overflows
@example(case=(POLE_PARAMS, PendulumState(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -9.81), 1e-3))
@example(case=(POLE_PARAMS, PendulumState(0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 9.81), 1e-3))
@example(case=(POLE_PARAMS, PendulumState(0.0, 0.0, 0.0, 0.0), (0.0, -0.0, 0.0), 1e-3))
@example(case=(POLE_PARAMS, PendulumState(0.0, 0.0, 0.0, 0.0), (5e-324, -1e-320, 0.0), 1e-3))
@example(case=(POLE_PARAMS, PendulumState(0.0, 0.0, 0.0, 0.0), (1e308, -1e308, 1e308), 1e-3))
def test_init_state_angles_are_the_array_formula_bit_for_bit(case):
    accel = case[2]
    try:
        state = init_state(accel)
    except ZeroGravity:
        assert not any(accel)
        return
    phi, theta = oracles.init_angles_reference(accel)
    assert bits([state.phi, state.theta]) == bits([phi, theta])
    assert state.phidot == state.thetadot == 0.0


@st.composite
def timestamps(draw):
    """Two or more timestamps: uniform ones from any start and spacing,
    the same with one sample nudged by up to a few times the 1e-9 relative
    tolerance or swapped with its neighbour, huge ones whose gaps overflow,
    and, as the CLI's profile reader may give, non-finite ones."""
    n = draw(st.integers(2, 30))
    spacing = draw(st.one_of(st.sampled_from([0.1, 1e-3, 1.0 / 3.0]), st.floats(1e-300, 1e3)))
    start = spacing * draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    times = start + spacing * np.arange(n)
    kind = draw(st.sampled_from(["uniform", "nudged", "swapped", "huge", "non-finite"]))
    k = draw(st.integers(0, n - 1))
    if kind == "nudged":
        times[k] += draw(st.floats(-3e-9, 3e-9)) * spacing
    elif kind == "swapped" and k + 1 < n:
        times[[k, k + 1]] = times[[k + 1, k]]
    elif kind == "huge":
        times = np.array([-1.7e308, 1.7e308, 1.75e308, 1.79e308][:n])
    elif kind == "non-finite":
        times[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return times


def spacing_or_error(call):
    try:
        return bits([call()])
    except ValueError as exc:
        return str(exc)


@PROPERTY_SETTINGS
@given(times=timestamps())
@example(times=np.array([0.0, 1.0, 2.0 + 1e-9, 3.0]))
@example(times=np.array([0.0, 1.0, 2.0 + 1.0000001e-9, 3.0]))
@example(times=np.array([-1.7e308, 1.7e308]))
@example(times=np.array([-1.7e308, 1.7e308, 1.7e308]))
@example(times=np.array([0.0, 5e-324, 1e-323]))
def test_uniform_step_takes_np_diff_gaps_and_keeps_its_messages(times):
    got = spacing_or_error(lambda: _uniform_step(times))
    assert got == spacing_or_error(lambda: oracles.uniform_step_reference(times))
    if isinstance(got, bytes):
        assert got == bits([np.diff(times)[0]])
