"""
Helical thread geometry: approximate signed distance fields and screw kinematics.

A thread's collision shape is the circular helix

    H(t) = [r1*cos(t), r1*sin(t), p*t]

swept by a wire of gauge radius ``r2``, with the parameter bounded to
``2*pi*l <= t <= 2*pi*h`` (``l`` and ``h`` count turns from the zero
position).  Point-to-helix distance has no closed form, so the field is
approximated by evaluating the exact point-to-curve distance at a small
candidate set: the turn sharing the query point's azimuth that is nearest
in height, clamped into the bound window, plus the two curve endpoints.
The candidate on the query azimuth ``t0 = atan2(Py, Px)`` in turn ``k``
sits at parameter ``2*pi*k + t0``; ``k`` is the half-even rounding of
``(Pz - t0*p) / (2*pi*p)``.

The approximation is accurate when the helix angle ``|p|/r1`` is small;
construction past a configurable threshold succeeds but emits
:class:`HelixAngleWarning`.  Windows shorter than one full turn may leave
the clamped-case azimuth candidate outside the bounds, degrading the
approximation there.

Distances to the centerline are unsigned (a curve has no interior); the
thread surface field :func:`sdf_thread` subtracts ``r2`` and is negative
inside the wire.

Cost model: a batch query makes one ``atan2`` and one ``cos``/``sin`` pass
per point, for the aligned candidate clamped into the window; the endpoint
candidate is evaluated only for the points whose turn index was clamped.
The winner's offset and distance are kept, not recomputed.
:func:`thread_engagement` builds each nut's probe cloud once (cached per
nut and sampling); per call it maps the cloud through the pose and
evaluates the field only on the probes that could hold the minimum.

The broad phase rests on one fact: every candidate the field can pick,
the clamped and endpoint ones of short windows included, is a centerline
point ``H(t)`` and so lies on the cylinder ``rho = r1``.  A probe at radius
``rho = sqrt(x*x + y*y)`` from the axis is therefore no nearer the
centerline than ``|rho - r1|``.  The probe with the least such bound is
evaluated first; its centerline distance ``U`` bounds the minimum from
above, so only the probes whose bound is at most ``U`` can hold it, and
those are evaluated in one more call.  The comparison carries a slack of ``1e-9*(r1 + U)``,
some 10**6 times the rounding of the radius and of the kernel's own
distances at the scales involved (probes near that boundary have
``rho <= r1 + U``).  The minimum of floats is exact and the field is
bitwise independent of the batch, so the result is bitwise the minimum
over the whole cloud.  The bound is radial only: when every probe is
about as far from the cylinder as the nearest one, e.g. a nut axially past
the bolt's window, nothing is culled and the query costs some 20% more
than one call on the whole cloud.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, _count, _fields, _finite, _positive

TWO_PI = 2.0 * np.pi

#: Default ceiling on |p|/r1 before construction warns.
DEFAULT_ANGLE_LIMIT = 0.5

#: Finite-difference step for sdf_gradient, as a fraction of r1.
GRADIENT_STEP_FRACTION = 1e-6


class HelixAngleWarning(UserWarning):
    """Helix angle large enough that the candidate-based field degrades."""


@dataclass(frozen=True)
class HelixSpec:
    """Bounded circular helix with a gauge radius: the tuple (r1, r2, p, l, h).

    Parameters
    ----------
    r1 : float
        Helix (centerline) radius, > 0.
    r2 : float
        Gauge (wire) radius, > 0 and < r1 so the wire does not engulf the axis.
    p : float
        Axial advance per radian of parameter; one full turn advances
        ``2*pi*p``.  Negative for left-handed threads.  Zero is rejected:
        the turn-selection formula divides by ``p``.
    l, h : float
        Start and end turn counts, ``h > l``; the parameter runs over
        ``[2*pi*l, 2*pi*h]``.
    angle_limit : float, optional
        Validity threshold on the helix angle ``|p|/r1``.  Exceeding it is
        allowed but flagged with :class:`HelixAngleWarning`.
    """

    r1: float
    r2: float
    p: float
    l: float
    h: float
    angle_limit: float = DEFAULT_ANGLE_LIMIT

    def __post_init__(self):
        _fields(self, _positive, "r1", "r2", "angle_limit")
        _fields(self, _finite, "p", "l", "h")
        if self.r2 >= self.r1:
            raise ValueError(f"gauge radius r2={self.r2} must be smaller than r1={self.r1}")
        if self.p == 0.0:
            raise ValueError("p must be nonzero (a zero-pitch helix is a circle)")
        if self.h <= self.l:
            raise ValueError(f"turn bounds need h > l, got l={self.l}, h={self.h}")
        if not self.angle_ok:
            warnings.warn(
                f"helix angle |p|/r1 = {abs(self.p) / self.r1:.3g} exceeds "
                f"{self.angle_limit:.3g}; the distance field degrades for steep helices",
                HelixAngleWarning,
                stacklevel=3,
            )

    @property
    def angle_ok(self) -> bool:
        """Whether the helix angle is within the validity threshold."""
        return abs(self.p) / self.r1 <= self.angle_limit

    @property
    def t_min(self) -> float:
        return TWO_PI * self.l

    @property
    def t_max(self) -> float:
        return TWO_PI * self.h


@dataclass(frozen=True, eq=False)
class SdfResult:
    """Field evaluation: distance, unit direction of steepest increase,
    parameter of the chosen candidate point, and a degeneracy flag for
    queries landing exactly on the centerline (where no direction exists).

    Fields are scalars for a single query point and arrays for a batch.
    """

    distance: float | np.ndarray
    gradient: np.ndarray
    nearest_t: float | np.ndarray
    degenerate: bool | np.ndarray


def helix_point(spec: HelixSpec, t) -> np.ndarray:
    """Centerline point(s) at parameter ``t`` (radians)."""
    t = np.asarray(t, dtype=float)
    return np.stack(
        [spec.r1 * np.cos(t), spec.r1 * np.sin(t), spec.p * t], axis=-1
    )


def _as_points(point):
    """Coerce to an (N, 3) float array; report whether input was a single point."""
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected shape (3,) or (N, 3), got {np.shape(point)}")
    if not np.isfinite(pts).all():
        raise ValueError("query points must be finite")
    return pts, single


def _aligned_turn(spec, pts):
    """Azimuth t0 of each query and the index k of its nearest aligned turn.

    Points on the axis get t0 = 0 by convention: every turn is equally far,
    so any azimuth yields a candidate within one chord gap of optimal.
    k rounds half to even, which is deterministic across platforms.
    """
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    t0 = np.arctan2(y, x)
    t0 = np.where((x == 0.0) & (y == 0.0), 0.0, t0)
    k = np.round((z - t0 * spec.p) / (TWO_PI * spec.p))
    return t0, k


def _offsets(spec, pts, t):
    """Offset ``P - H(t)`` of each query from its candidate, and its length.

    The length is summed in the order ``np.linalg.norm`` uses over a length-3
    axis, so it is bitwise equal to it, at a fraction of the cost.
    """
    dx = pts[:, 0] - spec.r1 * np.cos(t)
    dy = pts[:, 1] - spec.r1 * np.sin(t)
    dz = pts[:, 2] - spec.p * t
    return np.stack([dx, dy, dz], axis=-1), np.sqrt(dx * dx + dy * dy + dz * dz)


def _nearest(spec, pts):
    """Winning candidate of the bounded case analysis per query: its
    parameter ``t``, the offset ``P - H(t)`` and the distance ``|P - H(t)|``.

    The aligned turn, clamped into the window, is evaluated for every query;
    the window endpoint only for the queries whose turn was clamped.
    """
    t0, k = _aligned_turn(spec, pts)
    turns = t0 / TWO_PI
    lo = np.ceil(spec.l - turns)
    hi = np.floor(spec.h - turns)
    below = k < lo
    # a window shorter than a turn can have lo > hi: below wins, as in the
    # case analysis, so this is not np.clip
    k_in = np.where(below, lo, np.minimum(k, hi))
    t = TWO_PI * k_in + t0
    delta, dist = _offsets(spec, pts, t)
    clamped = np.flatnonzero(k_in != k)
    if clamped.size:
        t_end = np.where(below[clamped], spec.t_min, spec.t_max)
        delta_end, dist_end = _offsets(spec, pts[clamped], t_end)
        # ties go to the endpoint
        end_wins = ~(dist[clamped] < dist_end)
        won = clamped[end_wins]
        t[won] = t_end[end_wins]
        delta[won] = delta_end[end_wins]
        dist[won] = dist_end[end_wins]
    return t, delta, dist


def _result(t, delta, dist, single, offset=0.0):
    """Assemble an SdfResult from the winning candidates' parameters,
    offsets and distances."""
    degenerate = dist == 0.0
    grad = delta / np.where(degenerate, 1.0, dist)[:, None]
    grad[degenerate] = 0.0
    if single:
        return SdfResult(
            distance=float(dist[0]) + offset,
            gradient=grad[0],
            nearest_t=float(t[0]),
            degenerate=bool(degenerate[0]),
        )
    return SdfResult(
        distance=dist + offset, gradient=grad, nearest_t=t, degenerate=degenerate
    )


def sdf_unbounded(spec: HelixSpec, point) -> SdfResult:
    """Distance field of the infinite helix centerline.

    Evaluates the exact distance to the aligned-turn candidate
    ``t = 2*pi*k + t0``; unsigned, since a curve has no interior.
    Accepts a single ``(3,)`` point or an ``(N, 3)`` batch.
    """
    pts, single = _as_points(point)
    t0, k = _aligned_turn(spec, pts)
    t = TWO_PI * k + t0
    return _result(t, *_offsets(spec, pts, t), single)


def sdf_bounded(spec: HelixSpec, point) -> SdfResult:
    """Distance field of the bounded helix centerline.

    Clamps the aligned-turn index into the bound window.  With ``lo`` and
    ``hi`` the smallest and largest turn indices whose azimuth candidate
    stays inside ``[2*pi*l, 2*pi*h]``, the field takes

    * the aligned candidate ``2*pi*k + t0`` when ``lo <= k <= hi``,
    * ``min(d(2*pi*l), d(2*pi*lo + t0))`` when ``k < lo``,
    * ``min(d(2*pi*h), d(2*pi*hi + t0))`` when ``k > hi``.

    For interior queries this equals :func:`sdf_unbounded` exactly.

    Parameters
    ----------
    spec : HelixSpec
    point : array-like
        Single ``(3,)`` point or ``(N, 3)`` batch.

    Returns
    -------
    SdfResult
        ``distance`` is the minimum over the case's candidates and
        ``nearest_t`` the winning parameter (ties go to the endpoint
        candidate).
    """
    pts, single = _as_points(point)
    return _result(*_nearest(spec, pts), single)


def sdf_thread(spec: HelixSpec, point) -> SdfResult:
    """Signed distance to the thread surface: the bounded field offset by -r2.

    Negative inside the wire tube, zero on its surface, positive outside.
    Gradient and nearest parameter are those of the centerline field.
    """
    pts, single = _as_points(point)
    return _result(*_nearest(spec, pts), single, offset=-spec.r2)


def sdf_gradient(spec: HelixSpec, point, step: float | None = None) -> np.ndarray:
    """Normalized central-difference gradient of the thread field.

    Step defaults to ``1e-6 * r1``; a given step must be finite and
    nonzero (the difference is symmetric, so its sign does not matter).
    Raises :class:`DegenerateGradient` when the difference vector has norm
    below 1e-12, which happens at points equidistant from several turns
    (e.g. on the axis).
    """
    delta = GRADIENT_STEP_FRACTION * spec.r1 if step is None else _finite("step", step)
    if delta == 0.0:
        raise ValueError(f"step must be nonzero and finite, got {step}")
    pts, single = _as_points(point)
    offsets = delta * np.eye(3)
    # one batched field evaluation over all 6 stencil points per query
    stencil = np.concatenate([pts[:, None, :] + offsets, pts[:, None, :] - offsets], axis=1)
    d = sdf_thread(spec, stencil.reshape(-1, 3)).distance.reshape(-1, 6)
    grad = (d[:, :3] - d[:, 3:]) / (2.0 * delta)
    norms = np.linalg.norm(grad, axis=-1)
    bad = norms < 1e-12
    if bad.any():
        idx = int(np.argmax(bad))
        raise DegenerateGradient(
            f"finite-difference gradient vanished at point {pts[idx]} "
            "(equidistant from multiple turns)"
        )
    grad = grad / norms[:, None]
    return grad[0] if single else grad


def screw_advance(spec: HelixSpec, delta_angle) -> float | np.ndarray:
    """Axial displacement of a nut screwed by ``delta_angle`` radians: p * angle."""
    advance = spec.p * np.asarray(delta_angle, dtype=float)
    return float(advance) if advance.ndim == 0 else advance


def screw_pose(spec: HelixSpec, angle: float) -> np.ndarray:
    """4x4 rigid transform of a mating part screwed by ``angle`` along the axis."""
    c, s = np.cos(angle), np.sin(angle)
    pose = np.eye(4)
    pose[:2, :2] = [[c, -s], [s, c]]
    pose[2, 3] = screw_advance(spec, angle)
    return pose


@functools.lru_cache(maxsize=8)
def _nut_probes(nut: HelixSpec, angular_step_deg: float, wire_directions: int) -> np.ndarray:
    """The nut's probe cloud in its own frame, read-only: the centerline at
    a fixed angular step, then ``wire_directions`` points on the wire
    surface around each centerline point."""
    step = np.radians(angular_step_deg)
    ts = np.arange(nut.t_min, nut.t_max + 0.5 * step, step)
    center = helix_point(nut, ts)
    # orthonormal frame along the wire: radial, and tangent x radial
    radial = np.stack([np.cos(ts), np.sin(ts), np.zeros_like(ts)], axis=-1)
    tangent = np.stack(
        [-nut.r1 * np.sin(ts), nut.r1 * np.cos(ts), np.full_like(ts, nut.p)], axis=-1
    )
    tangent /= np.linalg.norm(tangent, axis=-1, keepdims=True)
    binormal = np.cross(tangent, radial)

    psi = np.arange(wire_directions) * (TWO_PI / wire_directions)
    ring = (
        np.cos(psi)[None, :, None] * radial[:, None, :]
        + np.sin(psi)[None, :, None] * binormal[:, None, :]
    )
    probes = np.concatenate(
        [center, (center[:, None, :] + nut.r2 * ring).reshape(-1, 3)]
    )
    probes.setflags(write=False)
    return probes


@dataclass(frozen=True)
class EngagementReport:
    """Narrowphase proximity between two thread surfaces."""

    min_clearance: float
    overlapping: bool


def thread_engagement(
    bolt: HelixSpec,
    nut: HelixSpec,
    relative_pose: np.ndarray | None = None,
    angular_step_deg: float = 1.0,
    wire_directions: int = 8,
) -> EngagementReport:
    """Minimum clearance between a bolt thread and a nut thread.

    Probes the nut's wire (the centerline at a fixed angular step, plus
    points offset by its gauge radius in ``wire_directions`` azimuths
    around the wire), maps the probes through ``relative_pose`` (4x4
    homogeneous, nut frame to bolt frame; identity when omitted), and
    minimizes the bolt's thread field over them.  The centerline probes
    make coincident wires report interpenetration, where surface probes
    alone would sit exactly on the other thread's surface.  Deterministic,
    resolution-documented; not a contact solver.

    Only the probes whose radial bound ``|rho - r1|`` (``rho`` the distance
    from the axis; every field candidate lies on the bolt's cylinder
    ``rho = r1``) is at most the centerline distance of the probe with the
    least bound, plus a rounding slack, are evaluated.  The result is
    bitwise the minimum over the whole cloud; typically a handful of the
    probes survive.  The worst case, no probe culled (a nut axially past
    the bolt's window), costs some 20% more than evaluating the whole cloud.

    Returns
    -------
    EngagementReport
        ``min_clearance`` approximates the surface-to-surface distance
        when the threads are separated and bottoms out at the bolt field's
        centerline value under deep overlap; ``overlapping`` is its sign.

    Raises
    ------
    ValueError
        If ``relative_pose`` is not a finite 4x4 array or maps a probe past
        the float range, ``angular_step_deg`` is not finite and positive,
        or ``wire_directions`` is not a positive integer.
    """
    if relative_pose is None:
        relative_pose = np.eye(4)
    pose = np.asarray(relative_pose, dtype=float)
    if pose.shape != (4, 4):
        raise ValueError(f"relative_pose must be 4x4, got {pose.shape}")
    if not np.isfinite(pose).all():
        raise ValueError(f"relative_pose must be finite, got {pose.tolist()}")

    probes = _nut_probes(nut, _positive("angular_step_deg", angular_step_deg),
                         _count("wire_directions", wire_directions, 1))
    # matmul is several times slower on a transposed right operand; the copy
    # and the in-place add give the same products and sums as probes @ R.T + t
    probes = probes @ np.ascontiguousarray(pose[:3, :3].T)
    probes += pose[:3, 3]
    if not np.isfinite(probes).all():
        raise ValueError("relative_pose maps the nut's probes past the float range")

    # broad phase (module docstring): a lower bound per probe, a ceiling on
    # the minimum from the probe of least bound, and a slack for rounding
    x, y = probes[:, 0], probes[:, 1]
    bound = np.sqrt(x * x + y * y)
    bound -= bolt.r1
    np.abs(bound, out=bound)
    ceiling = sdf_thread(bolt, probes[np.argmin(bound)]).distance + bolt.r2
    near = np.flatnonzero(bound <= ceiling + 1e-9 * (bolt.r1 + ceiling))

    # take is several times faster than fancy indexing when most rows survive
    clearance = float(np.min(sdf_thread(bolt, probes.take(near, axis=0)).distance))
    return EngagementReport(min_clearance=clearance, overlapping=clearance < 0.0)
