"""The one rule for scalar parameters and step schedules: every constructor
and stepper turns NaN, inf and -inf in each scalar field into a ValueError
that names the field, and a step schedule that covers no whole step, or
too many steps to count, into a ValueError too."""

import math

import pytest

from labmech import (
    DetentProfile,
    EccentricSpec,
    HelixSpec,
    KnobState,
    LiquidPlane,
    PendulumParams,
    PendulumState,
    SceneConfig,
    box_mesh,
    cylinder_mesh,
    height_search,
    icosphere_mesh,
    integrate_pendulum,
    run_knob_scene,
    run_screw_scene,
    screw_pose,
    sdf_gradient,
    step_knob,
    step_pendulum,
    thread_engagement,
)
from labmech.errors import _MAX_STEPS, _count, _finite, _nonnegative, _positive, _step_count

G = (0.0, 0.0, -9.81)
PARAMS = PendulumParams(length=0.02)
STATE = PendulumState(0.1, 0.2, 0.0, 0.0)
PROFILE = DetentProfile(positions=[0.0, 0.5], stiffness=10.0)
KNOB = KnobState(q=0.1, qdot=0.0, inertia=0.005)
SPEC = HelixSpec(r1=1.0, r2=0.2, p=0.05, l=0.0, h=2.0)


def scene(**kw):
    return SceneConfig(gravity=G, container=box_mesh(), pendulum=PARAMS, **kw)


# (name, call taking the scalar fields as keywords, valid values of them)
CASES = [
    ("PendulumParams", PendulumParams,
     dict(length=0.02, mass=1.0, damping_phi=0.1, damping_theta=0.1, epsilon=1e-6)),
    ("PendulumState", PendulumState, dict(phi=0.1, theta=0.2, phidot=0.0, thetadot=0.0)),
    ("integrate_pendulum", lambda **kw: integrate_pendulum(PARAMS, STATE, G, **kw),
     dict(dt=1e-3, steps=2)),
    ("step_pendulum", lambda **kw: step_pendulum(PARAMS, STATE, G, **kw), dict(dt=1e-3)),
    ("DetentProfile", lambda **kw: DetentProfile(positions=[0.0, 0.5], **kw),
     dict(stiffness=10.0, damping=0.1)),
    ("KnobState", KnobState, dict(q=0.1, qdot=0.0, inertia=0.005)),
    ("step_knob", lambda **kw: step_knob(PROFILE, KNOB, **kw),
     dict(external_torque=0.1, dt=1e-3)),
    ("SceneConfig", scene, dict(liquid_volume=0.5, dt=1e-3, duration=0.01)),
    ("run_knob_scene", lambda **kw: run_knob_scene(PROFILE, **kw),
     dict(torque=0.1, inertia=0.005, dt=1e-3, duration=0.01, q0=0.1, qdot0=0.0)),
    ("run_screw_scene", lambda **kw: run_screw_scene(SPEC, [0.0, 1.0], **kw), dict(dt=1e-3)),
    ("HelixSpec", HelixSpec, dict(r1=1.0, r2=0.2, p=0.05, l=0.0, h=2.0, angle_limit=0.5)),
    ("EccentricSpec", EccentricSpec, dict(throw=0.1)),
    ("LiquidPlane", lambda **kw: LiquidPlane([0.0, 0.0, 1.0], **kw), dict(height=0.1)),
    ("cylinder_mesh", lambda **kw: cylinder_mesh(segments=8, **kw), dict(radius=1.0, height=1.0)),
    ("icosphere_mesh", lambda **kw: icosphere_mesh(subdivisions=0, **kw), dict(radius=1.0)),
    ("thread_engagement", lambda **kw: thread_engagement(SPEC, SPEC, None, wire_directions=2, **kw),
     dict(angular_step_deg=30.0)),
    ("sdf_gradient", lambda **kw: sdf_gradient(SPEC, [1.3, 0.2, 0.1], **kw), dict(step=1e-6)),
    ("screw_pose", lambda **kw: screw_pose(SPEC, **kw), dict(angle=0.4)),
    ("height_search", lambda **kw: height_search(box_mesh(), [0.0, 0.0, 1.0], 0.3, **kw),
     dict(h_prev=0.1, tol_rel=1e-9)),
]

BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("name, call, valid", CASES, ids=[c[0] for c in CASES])
def test_valid_fields_are_accepted(name, call, valid):
    call(**valid)


#: fields a stepper hands on under another name, which the message uses
PASSED_AS = {"torque": "external_torque", "q0": "q", "qdot0": "qdot"}


@pytest.mark.parametrize(
    "call, valid, field, bad",
    [(call, valid, field, bad) for _, call, valid in CASES for field in valid for bad in BAD],
    ids=[f"{name}-{field}-{bad}" for name, _, valid in CASES for field in valid for bad in BAD],
)
def test_non_finite_field_is_named(call, valid, field, bad):
    with pytest.raises(ValueError, match=rf"\b{PASSED_AS.get(field, field)} must be"):
        call(**{**valid, field: bad})


class TestRule:
    def test_returns_the_float(self):
        assert _positive("x", 3) == 3.0 and type(_positive("x", 3)) is float
        assert _nonnegative("x", -0.0) == 0.0
        assert _finite("x", -1e308) == -1e308
        assert _positive("x", 5e-324) == 5e-324

    @pytest.mark.parametrize("rule", [_positive, _nonnegative, _finite])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    def test_non_finite_and_overflowing_values_fail(self, rule, value):
        with pytest.raises(ValueError, match="^x must be"):
            rule("x", value)

    def test_bounds(self):
        with pytest.raises(ValueError, match="x must be positive and finite, got 0.0"):
            _positive("x", 0.0)
        with pytest.raises(ValueError, match="x must be nonnegative and finite, got -1e-300"):
            _nonnegative("x", -1e-300)

    @pytest.mark.parametrize("value", [-1, 2.0, True, math.nan, "3"])
    def test_count_wants_an_integer(self, value):
        with pytest.raises(ValueError, match="n must be an integer of at least 0"):
            _count("n", value)

    def test_step_count(self):
        assert _step_count(1e-3, 1.0) == 1000
        assert _step_count(0.3, 0.4) == 1
        assert _step_count(1e-3, 0.0, minimum=0) == 0
        with pytest.raises(ValueError, match="covers no whole step"):
            _step_count(1.0, 0.1)
        with pytest.raises(ValueError, match="too many steps to count"):
            _step_count(1e-310, 1.0)
        # finite, but more rows than numpy can describe
        with pytest.raises(ValueError, match="duration 1e\\+300 at dt 0.001 has too many steps"):
            _step_count(1e-3, 1e300)
        with pytest.raises(ValueError, match="too many steps to count"):
            _step_count(1.0, _MAX_STEPS)
        assert _step_count(1.0, _MAX_STEPS / 2) == int(_MAX_STEPS / 2)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            _step_count(0.0, 1.0)
        with pytest.raises(ValueError, match="duration must be nonnegative and finite"):
            _step_count(1e-3, math.inf)


class TestHeightSearch:
    """height_search's iteration budget and tolerance go through the rule,
    so a bad one is a usage error, not a solver failure."""

    CUBE = box_mesh()
    UP = [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("value", [0, -3, True, 2.5, "3"])
    def test_max_iter_must_count(self, value):
        with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
            height_search(self.CUBE, self.UP, 0.3, max_iter=value)

    def test_negative_tolerance_is_named(self):
        with pytest.raises(ValueError, match="tol_rel must be nonnegative and finite, got -1.0"):
            height_search(self.CUBE, self.UP, 0.3, tol_rel=-1.0)

    @pytest.mark.parametrize("guess", [None, -5.0, 0.5, 5.0])
    def test_guess_outside_the_bracket_starts_at_the_midpoint(self, guess):
        found = height_search(self.CUBE, self.UP, 0.3, h_prev=guess)
        assert found == height_search(self.CUBE, self.UP, 0.3)

    def test_one_iteration_and_zero_tolerance_are_valid(self):
        found = height_search(self.CUBE, self.UP, 0.5, max_iter=1, tol_rel=0.0)
        assert (found.height, found.iterations) == (0.0, 1)
