"""
Damped spherical pendulum governing a liquid surface direction.

The surface direction of a quasi-static liquid is modeled as a spherical
pendulum with spherical coordinates ``(phi, theta)`` forced by the
effective acceleration ``g`` (gravity plus inertial forces of the moving
container) and damped independently in each coordinate.  The dynamics come
from the Lagrangian

    L = 1/2 m l^2 (phidot^2 sin^2(theta) + thetadot^2)
        + m l (gx sin(theta) cos(phi) + gy sin(phi) sin(theta) - gz cos(theta))

with generalized damping force ``Q = (-damping_phi*phidot,
-damping_theta*thetadot)``.  The resulting accelerations are

    phiddot   = (-2 m l^2 phidot thetadot sin(theta) cos(theta)
                 + m l (-gx sin(phi) + gy cos(phi)) sin(theta)
                 - damping_phi * phidot) / (m l^2 max(sin^2(theta), epsilon))
    thetaddot = (m l^2 phidot^2 sin(theta) cos(theta)
                 + m l (gx cos(phi) cos(theta) + gy sin(phi) cos(theta)
                        + gz sin(theta))
                 - damping_theta * thetadot) / (m l^2)

where the ``max(sin^2(theta), epsilon)`` floor keeps the azimuthal
equation finite near the poles, where the motion degenerates to a simple
pendulum.  The mass cancels from the dynamics but is kept explicit.

The pendulum direction (unit vector the surface normal is derived from) is

    d = (sin(theta) cos(phi), sin(theta) sin(phi), -cos(theta))

so ``theta = 0`` hangs along -z, i.e. along gravity at rest.  Integration
is classical RK4 with the forcing held constant over each step; whenever a
step drives ``theta`` out of [0, pi] the chart is renormalized by
reflecting ``theta``, shifting ``phi`` by pi, and negating ``thetadot``,
which leaves the direction vector and the energy unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, ZeroGravity, _count, _fields, _finite, _nonnegative, _positive
from .mesh import unit_vector

_PI = math.pi


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters: characteristic length, mass, per-coordinate
    damping, and the pole guard ``epsilon`` (floor on sin^2(theta))."""

    length: float
    mass: float = 1.0
    damping_phi: float = 0.0
    damping_theta: float = 0.0
    epsilon: float = 1e-6

    def __post_init__(self):
        _fields(self, _positive, "length", "mass", "epsilon")
        _fields(self, _nonnegative, "damping_phi", "damping_theta")


@dataclass(frozen=True)
class PendulumState:
    """Spherical coordinates and rates; ``theta`` is kept in [0, pi]."""

    phi: float
    theta: float
    phidot: float
    thetadot: float

    def __post_init__(self):
        _fields(self, _finite, "phi", "theta", "phidot", "thetadot")


def lagrangian(params: PendulumParams, state: PendulumState, accel) -> float:
    """Lagrangian evaluated at ``state`` under effective acceleration ``accel``."""
    gx, gy, gz = (float(a) for a in accel)
    m, l = params.mass, params.length
    st = math.sin(state.theta)
    kinetic = 0.5 * m * l * l * (state.phidot**2 * st * st + state.thetadot**2)
    potential_coupling = m * l * (
        gx * st * math.cos(state.phi)
        + gy * math.sin(state.phi) * st
        - gz * math.cos(state.theta)
    )
    return kinetic + potential_coupling


def ode_rhs(
    params: PendulumParams, state: PendulumState, accel
) -> tuple[float, float, float, float]:
    """Time derivatives ``(dphi, dtheta, dphidot, dthetadot)`` at ``state``."""
    return _rhs(_constants(params, accel), state.phi, state.theta, state.phidot, state.thetadot)


def _constants(params, accel) -> tuple:
    """What :func:`_rhs` reads besides the state, fixed under one forcing:
    ``(m*l, m*l*l, damping_phi, damping_theta, epsilon, gx, gy, gz)``."""
    gx, gy, gz = (float(a) for a in accel)
    ml = params.mass * params.length
    return (ml, ml * params.length, params.damping_phi, params.damping_theta, params.epsilon,
            gx, gy, gz)


def _rhs(k, phi, theta, phidot, thetadot):
    # ml * X and ml2 are the module docstring's m l X and m l^2, evaluated left to right
    ml, ml2, lam_phi, lam_theta, eps, gx, gy, gz = k
    st = math.sin(theta)
    ct = math.cos(theta)
    sp = math.sin(phi)
    cp = math.cos(phi)
    dphidot = (
        -2.0 * ml2 * phidot * thetadot * st * ct
        + ml * (-gx * sp + gy * cp) * st
        - lam_phi * phidot
    ) / (ml2 * max(st * st, eps))
    dthetadot = (
        ml2 * phidot * phidot * st * ct
        + ml * (gx * cp * ct + gy * sp * ct + gz * st)
        - lam_theta * thetadot
    ) / ml2
    return phidot, thetadot, dphidot, dthetadot


def _renormalize(phi, theta, phidot, thetadot):
    """Fold theta back into [0, pi]; the direction vector is unchanged."""
    if 0.0 <= theta <= _PI:
        return phi, theta, phidot, thetadot
    theta = math.fmod(theta, 2.0 * _PI)
    if theta < 0.0:
        theta += 2.0 * _PI
    if theta > _PI:
        theta = 2.0 * _PI - theta
        phi += _PI
        thetadot = -thetadot
    phi = math.remainder(phi, 2.0 * _PI)
    if theta == 0.0 or theta == _PI:
        phi = 0.0
    return phi, theta, phidot, thetadot


def _step(k, y, dt):
    """One RK4 step on the raw state tuple under the constants ``k``."""
    p0, t0, pd0, td0 = y
    a1, b1, c1, d1 = _rhs(k, p0, t0, pd0, td0)
    h = 0.5 * dt
    a2, b2, c2, d2 = _rhs(k, p0 + h * a1, t0 + h * b1, pd0 + h * c1, td0 + h * d1)
    a3, b3, c3, d3 = _rhs(k, p0 + h * a2, t0 + h * b2, pd0 + h * c2, td0 + h * d2)
    a4, b4, c4, d4 = _rhs(k, p0 + dt * a3, t0 + dt * b3, pd0 + dt * c3, td0 + dt * d3)
    sixth = dt / 6.0
    return _renormalize(
        p0 + sixth * (a1 + 2.0 * (a2 + a3) + a4),
        t0 + sixth * (b1 + 2.0 * (b2 + b3) + b4),
        pd0 + sixth * (c1 + 2.0 * (c2 + c3) + c4),
        td0 + sixth * (d1 + 2.0 * (d2 + d3) + d4),
    )


def step_pendulum(
    params: PendulumParams, state: PendulumState, accel, dt: float
) -> PendulumState:
    """One RK4 step of duration ``dt`` with ``accel`` held constant."""
    return integrate_pendulum(params, state, accel, dt, 1)


def integrate_pendulum(
    params: PendulumParams, state: PendulumState, accel, dt: float, steps: int
) -> PendulumState:
    """Integrate ``steps`` RK4 steps under constant forcing; one step is
    :func:`step_pendulum`.  Raises :class:`NonFiniteState` when a step
    overflows, divides by zero or leaves a non-finite state."""
    dt = _positive("dt", dt)
    steps = _count("steps", steps)
    k = _constants(params, accel)
    y = (state.phi, state.theta, state.phidot, state.thetadot)
    try:
        for _ in range(steps):
            y = _step(k, y, dt)
            if not (math.isfinite(y[0]) and math.isfinite(y[1])
                    and math.isfinite(y[2]) and math.isfinite(y[3])):
                raise NonFiniteState(f"pendulum state diverged: {y}")
    except (ArithmeticError, ValueError) as exc:
        raise NonFiniteState(f"pendulum step failed: {exc}") from exc
    return PendulumState(*y)


def init_state(accel) -> PendulumState:
    """State aligned with the effective acceleration, at rest.

    The direction of the returned state is :func:`~labmech.mesh.unit_vector`
    of ``accel``, of any finite, nonzero size.  ``phi`` is gauged to 0 when
    the direction sits on a pole.  Raises :class:`ZeroGravity` for a zero
    vector, ValueError for a non-finite one or for an array of any shape
    other than (3,).
    """
    g = np.asarray(accel, dtype=float)
    if g.shape == (3,) and not g.any():
        raise ZeroGravity("cannot align to a zero acceleration vector")
    d = unit_vector(g)
    theta = math.acos(max(-1.0, min(1.0, -d[2])))
    phi = 0.0 if (d[0] == 0.0 and d[1] == 0.0) else math.atan2(d[1], d[0])
    return PendulumState(phi=phi, theta=theta, phidot=0.0, thetadot=0.0)


def direction_of(state: PendulumState) -> np.ndarray:
    """Unit direction vector of the pendulum (along effective gravity at rest)."""
    st = math.sin(state.theta)
    return np.array(
        [
            st * math.cos(state.phi),
            st * math.sin(state.phi),
            -math.cos(state.theta),
        ]
    )
