"""
Planar eccentric drives: the orbital motion of a mixer platform, decomposed
into two negatively coupled hinge rotations.

The composite motion is a pure translation tracing a circle of radius equal
to the throw.  It factors exactly as (rotation by +theta carrying the
translation) times (rotation by -theta), which is how the orbit is realized
with two parallel hinge joints constrained to opposite angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _fields, _nonnegative


@dataclass(frozen=True)
class EccentricSpec:
    """Eccentric drive parameterized by its throw (orbit radius, >= 0)."""

    throw: float

    def __post_init__(self):
        _fields(self, _nonnegative, "throw")


def eccentric_transform(spec: EccentricSpec, theta: float) -> np.ndarray:
    """Composite orbital transform at drive angle ``theta``: a 3x3 homogeneous
    planar matrix with identity rotation and translation
    ``(throw*cos(theta), throw*sin(theta))``."""
    t = spec.throw
    return np.array(
        [
            [1.0, 0.0, t * math.cos(theta)],
            [0.0, 1.0, t * math.sin(theta)],
            [0.0, 0.0, 1.0],
        ]
    )


def factor_transforms(spec: EccentricSpec, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The two hinge transforms whose product is :func:`eccentric_transform`.

    The first rotates by ``+theta`` and carries the orbital translation;
    the second rotates by ``-theta``.  Their rotation angles sum to zero,
    which is the negative coupling between the two joints.
    """
    t = spec.throw
    c, s = math.cos(theta), math.sin(theta)
    first = np.array(
        [
            [c, -s, t * c],
            [s, c, t * s],
            [0.0, 0.0, 1.0],
        ]
    )
    second = np.array(
        [
            [c, s, 0.0],
            [-s, c, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return first, second


def orbit_point(spec: EccentricSpec, theta: float) -> np.ndarray:
    """Position of the platform origin at drive angle ``theta``."""
    return np.array([spec.throw * math.cos(theta), spec.throw * math.sin(theta)])


class HingePair:
    """Two parallel hinge joints kinematically constrained to opposite angles.

    There is no constraint solver here: :meth:`set_angle` puts the first
    hinge at the drive angle and the second at its negative, so the
    sum-to-zero coupling holds exactly by construction.
    """

    def __init__(self, spec: EccentricSpec):
        self.spec = spec
        self._theta = 0.0

    def set_angle(self, theta: float) -> None:
        """Drive angle: first hinge to ``theta``, second to ``-theta``."""
        self._theta = float(theta)

    @property
    def angles(self) -> tuple[float, float]:
        return (self._theta, -self._theta)

    @property
    def transforms(self) -> tuple[np.ndarray, np.ndarray]:
        return factor_transforms(self.spec, self._theta)

    @property
    def platform(self) -> np.ndarray:
        """Composite transform currently applied to the platform."""
        return eccentric_transform(self.spec, self._theta)
