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
The winner's offset and distance are kept, not recomputed.  That array
kernel costs some 50 numpy calls whatever the batch size, about 100 µs
at 18 points.  A call of at most ``_SHORT_CALL_POINTS`` (17) points, the
crossover, takes the short-call path instead: the same operations in the
same order, point by point in Python floats with numpy's own ``arctan2``,
``cos`` and ``sin``, so its results are bitwise the array kernel's.  It
costs about 23 µs for one point and 4 µs for each further point.  The
point count alone selects the path, for :func:`sdf_bounded` and
:func:`sdf_thread` alike.  :func:`sdf_gradient` evaluates the six
stencil points of all its queries in one field call: one query makes a
short call, three or more reach the array kernel.  (Times here are
medians of ``tools/layer_ab.py`` over 40 rounds on a 2-core VM, which
interleaves two processes; a warm loop in one process makes the
one-point short call in about 6 µs.)
:func:`thread_engagement` builds each nut's probe cloud once, as (3, N)
columns cached per nut and sampling with the cloud's box, its least and
greatest coordinate on each axis.  Per call it maps columns through the
pose, first the nut's centerline probes, then only the wire rings that
could hold the minimum, and evaluates the field only on the probes among
them that could.  The probes are screened by ``|rho - r1|`` alone when
the box, mapped through the pose, lies within the bolt's candidate band,
and by the axial bound below otherwise.

The broad phase rests on one fact: every candidate the field can pick,
the clamped and endpoint ones of short windows included, is a centerline
point ``H(t)`` with ``t`` in a known range (see :func:`_candidate_band`), so
it lies on the cylinder ``rho = r1`` inside a known height band.  A point is
therefore no nearer the centerline than its distance to that piece of the
cylinder, ``hypot(|rho - r1|, gap of z to the band)``, the *axial bound*,
and since a distance to a set changes by at most the distance moved, a
point within ``reach`` of another is no nearer than the other's bound
minus ``reach``.  :func:`thread_engagement` uses both facts in two levels,
on groups (a nut centerline probe and its wire ring) and on single probes.
Where every probe's height lies in the band, every gap is 0 and the axial
bound is ``|rho - r1|``, which takes under half its numpy calls.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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


class SdfResult(NamedTuple):
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
    # a short batch is checked in Python floats, at a fraction of the cost;
    # its rows as lists, since raveling a strided query would copy it
    if not (all(map(math.isfinite, itertools.chain.from_iterable(pts.tolist())))
            if len(pts) <= _SHORT_CALL_POINTS else np.isfinite(pts).all()):
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


#: Batches of at most this many points take the short-call path of the
#: bounded field (:func:`_field_short`), larger ones the array kernel.  It is
#: the crossover measured with ``tools/layer_ab.py --layer sdf_thread`` on
#: perfbench's bolt, one side on each path, in 100 rounds on a 2-core VM: the
#: lower quartile of the short path's time per call was 0.97x the array
#: kernel's at 17 points and 1.01x at 18.
_SHORT_CALL_POINTS = 17


def _integral(step, value):
    """``step(value)`` for ``round``, ``math.ceil`` or ``math.floor``, as
    numpy's ``rint``, ``ceil`` or ``floor`` gives it: a float that keeps the
    sign of a zero result (``-0.3`` rounds to ``-0.0``), and ``value`` itself
    from ``2**52`` on, where every float is integral, and for inf and NaN,
    on which ``step`` would raise."""
    return math.copysign(step(value), value) if abs(value) < 2.0**52 else value


def _offset(spec, x, y, z, t):
    """:func:`_offsets` of one point in Python floats: ``P - H(t)`` and its length."""
    dx = x - spec.r1 * float(np.cos(t))
    dy = y - spec.r1 * float(np.sin(t))
    dz = z - spec.p * t
    return dx, dy, dz, math.sqrt(dx * dx + dy * dy + dz * dz)


def _field_short(spec, pts, single, offset):
    """:func:`_result` of :func:`_nearest` for a short batch, point by point
    in Python floats.

    Each point goes through the operations of :func:`_aligned_turn`,
    :func:`_nearest`, :func:`_offsets` and :func:`_result` in their order, so
    every field is bitwise the array kernel's:

    * the azimuths are one ``np.arctan2`` over the batch's columns, as in
      :func:`_aligned_turn`; ``cos`` and ``sin`` are numpy's scalar ufuncs,
      which give the bits of its array loops (``math``'s do not);
    * ``+ - * /`` and ``math.sqrt`` on Python floats are the IEEE float64
      operations numpy performs, overflow to inf included;
    * :func:`_integral` gives numpy's ``rint``, ``ceil`` and ``floor``;
    * ``min(k, hi)`` is taken as ``np.minimum`` takes it: NaN if ``k`` is
      NaN, and ``hi`` on a tie, which decides the sign of a zero.
    """
    p, pitch = spec.p, TWO_PI * spec.p
    ts, dists, grads, degenerate = [], [], [], []
    for (x, y, z), t0 in zip(pts.tolist(), np.arctan2(pts[:, 1], pts[:, 0]).tolist()):
        if x == 0.0 and y == 0.0:
            t0 = 0.0
        k = _integral(round, (z - t0 * p) / pitch)
        turns = t0 / TWO_PI
        lo = _integral(math.ceil, spec.l - turns)
        hi = _integral(math.floor, spec.h - turns)
        below = k < lo
        k_in = lo if below else k if k < hi or k != k else hi
        t = TWO_PI * k_in + t0
        dx, dy, dz, dist = _offset(spec, x, y, z, t)
        if k_in != k:
            t_end = spec.t_min if below else spec.t_max
            end = _offset(spec, x, y, z, t_end)
            # ties go to the endpoint
            if not dist < end[3]:
                t = t_end
                dx, dy, dz, dist = end
        ts.append(t)
        dists.append(dist + offset)
        degenerate.append(dist == 0.0)
        grads.append((0.0, 0.0, 0.0) if dist == 0.0 else (dx / dist, dy / dist, dz / dist))
    if single:
        return SdfResult(distance=dists[0], gradient=np.array(grads[0]), nearest_t=ts[0],
                         degenerate=degenerate[0])
    return SdfResult(
        distance=np.array(dists, dtype=float),
        gradient=np.array(grads, dtype=float).reshape(-1, 3),
        nearest_t=np.array(ts, dtype=float),
        degenerate=np.array(degenerate, dtype=bool),
    )


def _bounded_field(spec, point, offset):
    """The bounded centerline field plus ``offset``: the short-call path for
    at most ``_SHORT_CALL_POINTS`` points, the array kernel beyond."""
    pts, single = _as_points(point)
    if len(pts) <= _SHORT_CALL_POINTS:
        return _field_short(spec, pts, single, offset)
    # an offset that overflows gives inf, as in Python floats, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(*_nearest(spec, pts), single, offset)


def sdf_unbounded(spec: HelixSpec, point) -> SdfResult:
    """Distance field of the infinite helix centerline.

    Evaluates the exact distance to the aligned-turn candidate
    ``t = 2*pi*k + t0``; unsigned, since a curve has no interior.
    Accepts a single ``(3,)`` point or an ``(N, 3)`` batch.  Far points
    overflow without a warning: an offset as in :func:`sdf_thread`, and a
    turn index to ``nearest_t`` inf with NaN distance and gradient.
    """
    pts, single = _as_points(point)
    with np.errstate(over="ignore", invalid="ignore"):
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
    return _bounded_field(spec, point, 0.0)


def sdf_thread(spec: HelixSpec, point) -> SdfResult:
    """Signed distance to the thread surface: the bounded field offset by -r2.

    Negative inside the wire tube, zero on its surface, positive outside.
    Gradient and nearest parameter are those of the centerline field.

    A finite point so far from the candidate that the squared length of
    its offset ``P - H(t)`` overflows gets ``distance`` inf, ``gradient``
    the offset divided by inf (zeros with the signs of a finite offset) and
    ``degenerate`` False, without a warning.  Non-finite points raise
    ValueError.
    """
    return _bounded_field(spec, point, -spec.r2)


def sdf_gradient(spec: HelixSpec, point, step: float | None = None) -> np.ndarray:
    """Normalized central-difference gradient of the thread field.

    Step defaults to ``1e-6 * r1``; a given step must be finite and
    nonzero (the difference is symmetric, so its sign does not matter).
    Raises ValueError naming the step when a stencil point or its distance
    leaves the float range, and :class:`DegenerateGradient` when the
    difference vector has norm below 1e-12, which happens at points
    equidistant from several turns (e.g. on the axis).  The range check
    covers every point of a batch before the first degenerate one is
    named.

    Cost model: the stencil is built in Python floats, the field is one
    :func:`sdf_thread` call over the six stencil points of every query,
    and the difference, its norm and the normalisation are Python floats
    again, point by point.  One point makes a short call of six points,
    about 52 µs in all; a batch of three or more points reaches the array
    kernel and costs about 5.5 µs per point at 100 points (medians of
    ``tools/layer_ab.py`` over 40 rounds on a 2-core VM).
    """
    delta = GRADIENT_STEP_FRACTION * spec.r1 if step is None else _finite("step", step)
    if delta == 0.0:
        raise ValueError(f"step must be nonzero and finite, got {step}")
    pts, single = _as_points(point)
    # the rows of pts + delta*eye(3), then pts - delta*eye(3), in Python
    # floats; the zero entries are delta*0.0, which keeps the signs of zero
    zero = delta * 0.0
    stencil = []
    for x, y, z in pts.tolist():
        stencil += (x + delta, y + zero, z + zero, x + zero, y + delta, z + zero,
                    x + zero, y + zero, z + delta, x - delta, y - zero, z - zero,
                    x - zero, y - delta, z - zero, x - zero, y - zero, z - delta)
    try:
        d = sdf_thread(spec, np.array(stencil).reshape(-1, 3)).distance.tolist()
    except ValueError:  # the points are finite, so a stencil point overflowed
        raise ValueError(_past_range(delta)) from None
    # an infinite distance makes the difference inf or NaN, which the norm test lets through
    if not all(map(math.isfinite, d)):
        raise ValueError(_past_range(delta))
    grads = []
    for i in range(0, len(d), 6):
        gx = (d[i] - d[i + 3]) / (2.0 * delta)
        gy = (d[i + 1] - d[i + 4]) / (2.0 * delta)
        gz = (d[i + 2] - d[i + 5]) / (2.0 * delta)
        # summed in np.linalg.norm's order over a length-3 axis
        norm = math.sqrt(gx * gx + gy * gy + gz * gz)
        if norm < 1e-12:
            raise DegenerateGradient(_vanished(pts[i // 6]))
        grads.append((gx / norm, gy / norm, gz / norm))
    return np.array(grads[0]) if single else np.array(grads, dtype=float).reshape(-1, 3)


def _past_range(step) -> str:
    return f"step {step} takes the gradient stencil past the float range"


def _vanished(point) -> str:
    return f"finite-difference gradient vanished at point {point} (equidistant from multiple turns)"


def screw_advance(spec: HelixSpec, delta_angle) -> float | np.ndarray:
    """Axial displacement of a nut screwed by ``delta_angle`` radians: p * angle."""
    advance = spec.p * np.asarray(delta_angle, dtype=float)
    return float(advance) if advance.ndim == 0 else advance


def screw_pose(spec: HelixSpec, angle: float) -> np.ndarray:
    """4x4 rigid transform of a mating part screwed by ``angle`` along the
    axis; ValueError naming ``angle`` unless it is finite."""
    angle = _finite("angle", angle)
    c, s = np.cos(angle), np.sin(angle)
    pose = np.eye(4)
    pose[:2, :2] = [[c, -s], [s, c]]
    pose[2, 3] = screw_advance(spec, angle)
    return pose


def _nut_probes(nut: HelixSpec, angular_step_deg: float, wire_directions: int) -> np.ndarray:
    """The nut's probe cloud in its own frame, as (N, 3) rows: the
    centerline at a fixed angular step, then ``wire_directions`` points on
    the wire surface around each centerline point."""
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
    return np.concatenate([center, (center[:, None, :] + nut.r2 * ring).reshape(-1, 3)])


class _ProbeGroups(NamedTuple):
    """The nut probe cloud as groups, for the broad phase."""

    #: the cloud transposed to (3, N), so that each coordinate is contiguous
    columns: np.ndarray
    #: row ``i``: centerline probe ``i``, then its ring rows ``n + w*i`` to
    #: ``n + w*i + w - 1`` (``n`` centerline probes, ``w`` wire directions)
    rows: np.ndarray
    #: largest distance of a ring probe from its centerline probe
    offset: float
    #: largest absolute coordinate in the cloud
    extent: float
    #: the cloud's least and greatest coordinate on each axis: its box
    low: tuple
    high: tuple


@functools.lru_cache(maxsize=8)
def _probe_groups(nut: HelixSpec, angular_step_deg: float, wire_directions: int) -> _ProbeGroups:
    """The probe cloud of :func:`_nut_probes` in the one layout the
    engagement query maps, with its group layout and constants; cached per
    nut and sampling, the arrays read-only."""
    probes = _nut_probes(nut, angular_step_deg, wire_directions)
    n = len(probes) // (1 + wire_directions)
    index = np.arange(n)
    rows = np.column_stack(
        [index, n + wire_directions * index[:, None] + np.arange(wire_directions)]
    )
    offsets = probes[n:].reshape(n, wire_directions, 3) - probes[:n, None, :]
    columns = np.ascontiguousarray(probes.T)
    for array in (columns, rows):
        array.setflags(write=False)
    return _ProbeGroups(
        columns=columns,
        rows=rows,
        offset=float(np.sqrt((offsets * offsets).sum(axis=-1)).max()),
        extent=float(np.abs(probes).max()),
        low=tuple(columns.min(axis=1).tolist()),
        high=tuple(columns.max(axis=1).tolist()),
    )


@functools.lru_cache(maxsize=8)
def _candidate_band(spec: HelixSpec) -> tuple[float, float]:
    """Height band ``(z_lo, z_hi)`` of every candidate :func:`_nearest` can
    pick; cached per spec.

    Every candidate has ``t`` in ``[min(t_min, t_max - 2*pi),
    max(t_max, t_min + 2*pi)]``.  Proof: with ``turns = t0/(2*pi)``,
    ``lo = ceil(l - turns)`` is the least integer with ``2*pi*lo + t0 >=
    t_min``, so ``2*pi*lo + t0`` lies in ``[t_min, t_min + 2*pi)``; likewise
    ``hi = floor(h - turns)`` puts ``2*pi*hi + t0`` in ``(t_max - 2*pi,
    t_max]``.  The aligned candidate is ``2*pi*k_in + t0``.  When
    ``k < lo``, ``k_in = lo`` and the candidate lies in ``[t_min, t_min +
    2*pi)``.  Otherwise ``k_in = min(k, hi)``: either ``hi``, in ``(t_max -
    2*pi, t_max]``, or ``k`` with ``lo <= k < hi``, and then ``t_min <=
    2*pi*lo + t0 <= 2*pi*k + t0 < 2*pi*hi + t0 <= t_max``.  The other
    candidates are the endpoints ``t_min`` and ``t_max``.  All of these lie
    in the range.  For a window shorter than a turn ``lo > hi`` can hold,
    and the clamped candidates then leave ``[t_min, t_max]``, but not the
    range.

    Every candidate ``H(t)`` therefore lies on the cylinder ``rho = r1``
    with ``z = p*t`` in ``p`` times that range.  The band is widened by
    ``1e-9`` of the sum of its end heights' magnitudes: the range spans a
    turn or more, so that sum is at least ``2*pi*|p|`` and at least
    ``|p*t|`` at both window ends, some 10**6 times the rounding of ``lo``,
    ``hi``, ``t`` and ``p*t``.
    """
    ends = (spec.p * min(spec.t_min, spec.t_max - TWO_PI),
            spec.p * max(spec.t_max, spec.t_min + TWO_PI))
    pad = 1e-9 * (abs(ends[0]) + abs(ends[1]))
    return min(ends) - pad, max(ends) + pad


def _axis_bound(spec: HelixSpec, band, points) -> np.ndarray:
    """Lower bound on the centerline distance of the (3, N) ``points``: their
    distance ``hypot(|rho - r1|, gap of z to band)`` to the piece of the
    cylinder ``rho = r1`` where every candidate lies."""
    x, y, z = points
    bound = np.sqrt(x * x + y * y)
    bound -= spec.r1
    gap = z - band[1]
    np.maximum(gap, band[0] - z, out=gap)
    np.maximum(gap, 0.0, out=gap)
    # np.hypot is several times slower
    bound *= bound
    gap *= gap
    bound += gap
    return np.sqrt(bound, out=bound)


def _radial_bound(spec: HelixSpec, points) -> np.ndarray:
    """``|rho - r1|`` of the (3, N) ``points``: their distance to the whole
    cylinder ``rho = r1``, a lower bound on their centerline distance
    wherever they lie.  For points whose heights lie in the band, whose
    gaps are then 0, it is :func:`_axis_bound` to the bit: a correctly
    rounded ``sqrt`` of a rounded square gives back ``|rho - r1|`` unless
    the square underflows or overflows."""
    x, y = points[0], points[1]
    bound = x * x
    bound += y * y
    np.sqrt(bound, out=bound)
    bound -= spec.r1
    return np.abs(bound, out=bound)


def _mapped(rotation, shift, probes) -> np.ndarray:
    """Probe columns mapped through a pose: ``rotation @ probes + shift``."""
    points = rotation @ probes
    points += shift
    return points


def _height_range(groups: _ProbeGroups, row, size: float) -> tuple[float, float]:
    """Heights between which every probe of the cloud lies once mapped
    through a pose whose third row is ``row`` (``R_z0, R_z1, R_z2, t_z``).

    A mapped height is linear in the probe, so over the cloud's box it lies
    between ``t_z + sum_j min(R_zj*low_j, R_zj*high_j)`` and the same sum of
    maxima (Arvo 1990, "Transforming Axis-Aligned Bounding Boxes").  The
    range is padded by ``1e-9 * size``, with ``size`` the query's
    ``|R|_inf * extent + |t|_inf``: some 10**6 times the rounding of both
    the mapping and these sums.  A product that overflows leaves an
    infinite or NaN end, which lies in no band.
    """
    g, h, i, t = row
    (x0, y0, z0), (x1, y1, z1) = groups.low, groups.high
    by_x, by_y, by_z = (g * x0, g * x1), (h * y0, h * y1), (i * z0, i * z1)
    pad = 1e-9 * size
    return (t + min(by_x) + min(by_y) + min(by_z) - pad,
            t + max(by_x) + max(by_y) + max(by_z) + pad)


#: Below this, ``|R|_inf * extent + |t|_inf`` leaves room for the rounding of
#: the mapping, so no mapped probe can leave the float range.
_MAPPABLE = 2.0**1000


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

    The broad phase (module docstring) works in two levels.  A *group* is a
    centerline probe and its wire ring; after mapping, every member lies
    within ``reach = |R|_2 * offset`` of the mapped centerline probe
    (``offset`` the largest ring radius in the cloud; ``|R|_2`` bounded by
    the square root of the largest absolute row sum of ``R^T R``, which is 1
    for a rotation), plus a rounding pad.  Every step maps probes in one
    layout: columns of the cached (3, N) cloud, as ``R @ columns + t``.
    Per call:

    0. map the cloud's box through the pose (:func:`_height_range`): if the
       heights it spans, padded, lie within the bolt's candidate band, so
       does every mapped probe, every gap is 0, and all three screens
       below take ``|rho - r1|`` (``_radial_bound``); any other pose, e.g.
       a nut lifted past the window or tilted out of the band, takes the
       axial bound (``_axis_bound``);
    1. map only the centerline probes and bound each;
    2. bound each group by its centerline probe's bound minus ``reach``;
    3. map the group of least bound and evaluate the field on its probe of
       least bound: its centerline distance is a ceiling ``U`` on the
       minimum;
    4. gather (with ``take``) and map only the groups whose bound is at
       most ``U``, and evaluate the field on their probes whose own bound is
       at most ``U`` plus a slack of ``1e-9*(r1 + U)``.

    The pad, ``1e-9*(r1 + U + |R|_inf * extent + |t|_inf)``, and the slack
    are some 10**6 times the rounding of the mapping, the radii and the
    field's distances at the scales involved.  The minimum of floats is
    exact and the field is bitwise independent of the batch, so the result
    is bitwise the minimum over the whole cloud.

    Cost model: the pose's scalars (``size``, the box heights and the
    row sums of ``R^T R``) are Python floats from one ``tolist``; step 1
    maps ``1/(1 + wire_directions)`` of the cloud, and the field is
    evaluated twice, once on one probe and once on the few that survive,
    both short calls at a typical pose.  The screen is a pass of 5 numpy
    calls in the band and of 13 outside it.  On perfbench's bolt and nut
    a screwed-on query costs about 170 µs and one lifted or tilted out of
    the band about 740 µs, most of it in the field on the probes that the
    band's loose end height lets through (medians of ``tools/layer_ab.py
    --layer thread_engagement`` over 40 rounds on a 2-core VM).  Worst
    case: every group survives, e.g. a nut coaxial with the bolt, whose
    every ring has a probe as near the bolt's cylinder as the ceiling.
    The whole cloud is then mapped in one product and screened by ``|rho -
    r1|`` alone, in or out of the band (the axial term would cost a pass
    and cull little in a cloud whose every ring reaches the ceiling), so
    the query costs steps 1-3 more than one screened pass over the whole
    cloud.

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
    rows = pose.tolist()
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        raise ValueError(f"relative_pose must be finite, got {rows}")

    groups = _probe_groups(nut, _positive("angular_step_deg", angular_step_deg),
                           _count("wire_directions", wire_directions, 1))
    columns, rotation, shift = groups.columns, pose[:3, :3], pose[:3, 3:]
    (a, b, c, tx), (d, e, f, ty), (g, h, i, tz) = rows[:3]
    size = (max(abs(a) + abs(b) + abs(c), abs(d) + abs(e) + abs(f), abs(g) + abs(h) + abs(i))
            * groups.extent + max(abs(tx), abs(ty), abs(tz)))
    if not size < _MAPPABLE and not np.isfinite(_mapped(rotation, shift, columns)).all():
        raise ValueError("relative_pose maps the nut's probes past the float range")

    # step 0: when the cloud's mapped box lies in the band, so does every
    # mapped probe; its axial gap is 0 and |rho - r1| is its whole bound
    band = _candidate_band(bolt)
    low, high = _height_range(groups, rows[2], size)
    if band[0] <= low and high <= band[1]:
        bound = functools.partial(_radial_bound, bolt)
    else:
        bound = functools.partial(_axis_bound, bolt, band)

    # steps 1-3: bound the groups by their centerline probes, and take the
    # ceiling from the least bound probe of the least bound group
    n = len(groups.rows)
    group_bound = bound(_mapped(rotation, shift, columns[:, :n]))
    members = _mapped(rotation, shift, columns.take(groups.rows[np.argmin(group_bound)], axis=1))
    best = np.argmin(bound(members))
    ceiling = sdf_thread(bolt, members[:, best]).distance + bolt.r2

    # step 4: the groups that can reach the ceiling, then their probes;
    # |R|_2 from the absolute row sums of R^T R, whose entries are dot
    # products of R's columns
    gram = [abs(u * a + v * d + w * g) + abs(u * b + v * e + w * h) + abs(u * c + v * f + w * i)
            for u, v, w in ((a, d, g), (b, e, h), (c, f, i))]
    # an overflowing product can leave inf or NaN in R^T R; the norm is huge then
    norm = math.sqrt(max(gram)) if all(map(math.isfinite, gram)) else math.inf
    reach = norm * groups.offset + 1e-9 * (bolt.r1 + ceiling + size)
    keep = np.flatnonzero(group_bound <= ceiling + reach)
    limit = ceiling + 1e-9 * (bolt.r1 + ceiling)
    if keep.size < n:
        # take is several times faster than fancy indexing
        points = _mapped(rotation, shift,
                         columns.take(groups.rows.take(keep, axis=0).ravel(), axis=1))
        near = bound(points) <= limit
    else:
        # every group survives: the whole cloud in one product, screened
        # by |rho - r1| alone
        points = _mapped(rotation, shift, columns)
        near = _radial_bound(bolt, points) <= limit
    points = points.take(np.flatnonzero(near), axis=1).T

    clearance = float(np.min(sdf_thread(bolt, points).distance))
    return EngagementReport(min_clearance=clearance, overlapping=clearance < 0.0)
