"""
Detent (click-stop) mechanisms: a spring-damper snapping toward the nearest
of a discrete set of gear positions, plus semi-implicit stepping of a 1-DOF
knob under that force.

The passive force is ``f(q, qdot) = -k*(q - q_j) - damping*qdot`` with
``j`` the index of the gear position closest to ``q``; exact midpoints
snap to the lower index so replays are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, _fields, _finite, _nonnegative, _positive


@dataclass(frozen=True, eq=False)
class DetentProfile:
    """Gear positions with snapping stiffness and damping.

    ``positions`` must be strictly increasing (radians for rotary knobs,
    meters for sliders; the force law is unit-agnostic).
    """

    positions: np.ndarray
    stiffness: float
    damping: float = 0.0

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a non-empty 1-D sequence")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if pos.size > 1 and not (np.diff(pos) > 0.0).all():
            raise ValueError("positions must be strictly increasing")
        _fields(self, _positive, "stiffness")
        _fields(self, _nonnegative, "damping")


@dataclass(frozen=True)
class KnobState:
    """Generalized position, velocity, and inertia of a 1-DOF knob."""

    q: float
    qdot: float
    inertia: float

    def __post_init__(self):
        _fields(self, _positive, "inertia")
        _fields(self, _finite, "q", "qdot")


def nearest_detent(profile: DetentProfile, q: float) -> int:
    """Index of the gear position closest to ``q``; midpoint ties take the
    lower index.  Binary search over the sorted positions, O(log n)."""
    pos = profile.positions
    i = int(np.searchsorted(pos, q))
    if i == 0:
        return 0
    if i == len(pos):
        return len(pos) - 1
    return i - 1 if q - pos[i - 1] <= pos[i] - q else i


def detent_force(profile: DetentProfile, q: float, qdot: float) -> float:
    """Passive snapping force toward the nearest gear position."""
    j = nearest_detent(profile, q)
    return float(
        -profile.stiffness * (q - profile.positions[j]) - profile.damping * qdot
    )


def step_knob(
    profile: DetentProfile,
    state: KnobState,
    external_torque: float = 0.0,
    dt: float = 1e-3,
) -> KnobState:
    """One semi-implicit Euler step: velocity update first, then position.

    Stable for the stiff spring-damper at practical steps (dt well below
    ``2*sqrt(inertia/stiffness)``).  Raises :class:`NonFiniteState` if the
    update overflows; every operand is a float, so that shows as inf or NaN.
    """
    dt = _positive("dt", dt)
    external_torque = _finite("external_torque", external_torque)
    f = detent_force(profile, state.q, state.qdot)
    qdot = state.qdot + dt * (f + external_torque) / state.inertia
    q = state.q + dt * qdot
    if not (math.isfinite(q) and math.isfinite(qdot)):
        raise NonFiniteState(f"knob state diverged: q={q}, qdot={qdot}")
    return KnobState(q, qdot, state.inertia)
