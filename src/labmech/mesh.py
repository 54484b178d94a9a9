"""
Watertight triangle meshes, halfspace clipping, and liquid-height solving.

The liquid body inside a container is the intersection of the container's
interior with the halfspace below a plane.  Conventions used throughout:

* A plane is a unit ``normal`` (the upward surface normal, pointing out of
  the liquid) plus a scalar ``height``: the signed offset of the plane
  along the normal measured from the mesh's bounding-box center.  Liquid
  occupies the non-positive side, ``(x - o) . normal <= 0`` with
  ``o = bbox_center + height * normal``.
* Meshes are closed, consistently outward-oriented triangle soups; every
  directed edge must appear exactly once together with its reverse.
* One clipping core, after Mirtich (1996): for a mesh and a plane,
  ``_cut`` classifies each triangle once by the sides of its corners
  (below, on or above the plane: 27 cases) and splits the below
  side into *whole* triangles (every vertex strictly below) and the
  *band* (some, but not all, vertices below).  Only the band is clipped:
  as in marching cubes (Lorensen & Cline 1987), each band triangle reads
  its below-side piece, a node-index polygon (mesh vertices plus one
  crossing node per sign-changing edge), and its cut chord, a piece edge
  lying on the plane, from a static table of the 27 cases built at
  import from the boundary walk.  All of that is a function of the side
  of the plane each vertex lies on: it is the cut topology, one
  read-only record (``_Cut``) that each mesh keeps for its last clip,
  keyed by the bytes of the vertex side codes.  A vertex's height is
  its support, its offset along the normal from the bbox center, minus
  the plane's height, and two rules give the sides from it.
  :func:`clip_volume` takes the strict sign of each vertex's height, so
  the volume is an exact cubic in the height between consecutive
  distinct support values; a liquid body (``_clip_table``) snaps
  vertices within ``ONPLANE_SNAP_FRACTION * bbox_diag`` onto the plane,
  so that it has no sliver triangles.  The two share a topology exactly
  when their codes agree, as they do unless a vertex lies inside the
  snap band.  A clip with the same sides, as most clips of a rollout
  are, returns that record with the vertex heights, and nothing else.
  :func:`clip_volume` sums the divergence flux with the reference point
  on the plane, so the cap contributes zero flux and is never built in
  the height-solving hot path: the band pieces directly, the whole
  triangles from per-container terms that :class:`TriMesh` computes
  once, summed once per topology.
  The cut cross-section area (the exact derivative of clipped volume with
  respect to height) comes from Green's theorem on the chords.
  :func:`liquid_geometry` emits the whole triangles and the same band
  pieces, pairs the chords into loops by their node ids and caps each
  loop.  Its body costs what moves with the plane: what the topology
  fixes (the loops, the renumbered triangles, the nodes kept and their
  face text) is built once per topology (``_Body``), and only the
  created triangles are shape-tested, on every body, since the whole ones
  are the container's and the body is closed by construction (see
  :class:`TriMesh`).

The cost of a clip that reuses the topology (a hit) is the vertex sides,
the one pass over the mesh, plus the arithmetic of the band.  Every clip
and every body cut takes its vertex heights as ``mesh._support(n) - h``:
the mesh keeps the support projection of its last normal, which the
height solve derives once per normal for its bracket, so a clip
subtracts the height, takes the signs, and reads its crossing heights
from the same array.  Each slab between two consecutive distinct support
values is therefore one side pattern, one topology.  The sums take their
plane point as ``bbox_center + h n``, which lies on the plane these
heights measure for a unit normal; a normal that is unit only within
:class:`LiquidPlane`'s 1e-12 puts the two planes ``|h| |n . n - 1|``
apart, so the cap's flux, which the sums take as zero, is off by at most
about ``2e-12 |h|`` times the cut area.  On its first
use by :func:`clip_volume` a topology gets a gather (``_Gather``): the
band's vertex rows under compact node ids and flat indices of the
components each sum reads.  A hit then interpolates the crossing nodes,
stacks them under the band's vertex rows, and reads each sum's operands
with one gather: a few dozen numpy calls on arrays of the band's size,
whatever the size of the mesh.  The sums are the same IEEE operations on
the same operands in the same order as over the full node array, so the
result is the same to the bit (``clip_sums_reference`` in the tests).  A
clip that changes a side (a miss) builds the topology in one pass over
the triangles, which classifies them, and a few over the band, whose
node numbering one mark over the vertex and edge ids gives; its gather
reuses that numbering.

File interchange uses an ASCII subset: ``v x y z`` vertex lines and
``f i j k`` one-based triangle lines; see :func:`load_mesh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    MeshFormatError,
    NoConvergence,
    NonStarShapedCutLoop,
    NotWatertight,
    OpenCutLoop,
    VolumeOutOfRange,
    _count,
    _finite,
    _nonnegative,
    _positive,
)

#: A liquid body's cut (:func:`_clip_table`) classifies vertices closer to
#: the plane than this fraction of the bbox diagonal as on-plane, avoiding
#: sliver geometry at vertex crossings.  Volumes are clipped by the strict
#: signs instead (:func:`clip_volume`).
ONPLANE_SNAP_FRACTION = 1e-9

#: Triangles whose doubled area is at most this fraction of their longest
#: edge squared are rejected as degenerate (a scale-free shape test).
DEGENERATE_AREA_FRACTION = 1e-12

#: Newton falls back to bisection when the cut area (dV/dh) drops below
#: this fraction of diag^2.
AREA_FLOOR_FRACTION = 1e-12

_SMALLEST_NORMAL = float(np.finfo(float).tiny)

#: Below this size no square of a component, nor a sum of three, overflows.
_SQUARE_SAFE = 2.0**511

#: Four float ulps at 1: times the bbox diagonal, the height resolution at
#: which a Newton step ends the height solve.
_STEP_FLOOR_EPS = 4.0 * float(np.finfo(float).eps)

#: :class:`LiquidPlane` accepts a normal whose length is 1 within this.
_UNIT_NORMAL_TOLERANCE = 1e-12

# ``array.min()`` and ``array.max()`` without the Python frame of the methods
_lowest, _highest = np.minimum.reduce, np.maximum.reduce


def _cross(a, b) -> np.ndarray:
    """Row-wise cross product of (3, m) component arrays, written out to
    skip ``np.cross`` dispatch on small arrays."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _sliver_floor(u, v) -> np.ndarray:
    """Doubled-area floor of the triangles with sides u, v and -(u + v), as
    (3, m) rows: below it a triangle is degenerate, whatever its size."""
    w = u + v
    longest_sq = np.maximum(np.maximum((u * u).sum(0), (v * v).sum(0)), (w * w).sum(0))
    return DEGENERATE_AREA_FRACTION * longest_sq


def _check_shape(verts, tris) -> None:
    """Reject degenerate triangles: doubled area at most the sliver floor."""
    a, b, c = verts[tris].transpose(1, 2, 0)
    u, v = b - a, c - b
    if (np.sqrt((_cross(u, v) ** 2).sum(0)) <= _sliver_floor(u, v)).any():
        raise ValueError("mesh contains degenerate (near-zero-area) triangles")


def unit_vector(v) -> np.ndarray:
    """Normalize a nonzero 3-vector.

    Divides by ``sqrt(v . v)``, as ``np.linalg.norm`` computes it.  When
    ``v . v`` is not a normal float (it underflowed to zero or a subnormal,
    or overflowed), ``v`` is first divided by its largest |component|, so
    a vector of any finite, nonzero size is normalized to full precision.
    An array of any shape other than (3,), and a zero or non-finite
    vector, is a ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got an array of shape {v.shape}")
    if max(map(abs, v.tolist())) < _SQUARE_SAFE:
        squared = v.dot(v)
    else:  # the square may overflow, which numpy warns about
        with np.errstate(over="ignore"):
            squared = v.dot(v)
    if not _SMALLEST_NORMAL <= squared < math.inf:
        largest = np.abs(v).max()
        if largest == 0.0:
            raise ValueError("cannot normalize a zero vector")
        if not largest < math.inf:  # NaN fails too
            raise ValueError("cannot normalize a non-finite vector")
        v = v / largest
        squared = v.dot(v)
    return v / math.sqrt(squared)


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Watertight triangle mesh with consistent outward orientation.

    Validation rejects out-of-range indices, non-finite vertices,
    degenerate triangles (doubled area <= 1e-12 * longest edge^2, so the
    test depends on shape, not size), duplicated directed edges
    (non-manifold or inconsistently wound), and boundary edges.  An empty
    mesh is valid.  ``vertices`` and ``triangles`` are read-only copies of
    the inputs, so the bounding box, the centered vertices, the edge tables,
    the flux terms and the ``v x y z`` rows that :func:`save_mesh` writes
    (each formatted on its first write, see :meth:`_rows`), all cached from
    them, cannot go stale.  Nor can the support projection of the last
    normal (:meth:`_support`), reused only for the same normal bytes, from
    which every clip and body cut takes its vertex heights as
    ``support - h`` (for a normal unit only within 1e-12, the cap's flux
    is then off by at most about ``2e-12 |h|`` times the cut area), or
    the cut topology of the last clip (see :func:`_topology`): it is a
    function of these arrays and of the vertex side codes, and it is
    reused only for the exact same codes.

    Every public construction runs all of these checks, the last two by
    deriving the edge tables (the cached ``_edge_tables``).  A
    body that :func:`liquid_geometry` cuts is built by :meth:`_liquid_body`
    instead, which runs the same shape test on the triangles the cut
    created (band fans and caps) and no other check; the rest holds by
    construction:

    * its whole triangles are container triangles with the same
      coordinates and corner order, so they passed the same shape test when
      the container was built, and for a body of a body by induction;
    * it is closed and consistently oriented: band pieces share their
      crossing nodes, and every chord loop is capped or the cut raises;
    * its indices are renumbered node ids, and its nodes are container
      vertices, points between two of them or centroids of a loop.

    Its edge tables are derived on first use, when the body is clipped
    again, by the same ``_edge_tables`` from the same arrays, so they equal
    the ones public construction gives, bit for bit.  A body also links to
    its container, whose row cache gives the rows of the container
    vertices it keeps, and to its cut topology's :class:`_Body`, whose
    triangles it shares and whose face rows :func:`save_mesh` writes.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    _source = None  # (container, _Body) of a liquid body; not a field

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=float).reshape(-1, 3)
        tris = np.array(self.triangles, dtype=np.int64).reshape(-1, 3)
        verts.flags.writeable = False
        tris.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        if not np.isfinite(verts).all():
            raise ValueError("mesh vertices must be finite")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise ValueError("triangle indices out of range")
        _check_shape(verts, tris)
        self._edge_tables  # derives the edge tables, or raises NotWatertight

    @classmethod
    def _liquid_body(cls, vertices, triangles, created, source) -> TriMesh:
        """The body :func:`liquid_geometry` assembled: ``vertices`` (float)
        and ``triangles`` (int64) arrays, made read-only and used as they
        are; the triangles may be shared with other bodies.  Only
        ``triangles[created:]``, the band fans and caps, are shape-tested
        (see the class docstring for why that suffices); ``source`` is the
        body's link to its container and to its cut's :class:`_Body`."""
        body = object.__new__(cls)
        vertices.flags.writeable = False
        triangles.flags.writeable = False
        object.__setattr__(body, "vertices", vertices)
        object.__setattr__(body, "triangles", triangles)
        _check_shape(vertices, triangles[created:])
        object.__setattr__(body, "_source", source)
        return body

    @cached_property
    def _edge_tables(self) -> tuple:
        """The undirected edge table, (2, E) rows of lower and higher vertex
        ids, and the (6, T) slot table that :func:`_cut` reads: row k < 3
        is corner k of each triangle, row 3 + k is ``V + e`` for the edge e
        from corner k to corner k + 1.  Closed and consistently oriented
        means every directed edge is unique and every undirected edge is
        used exactly twice; :class:`NotWatertight` otherwise."""
        tris, nverts = self.triangles, len(self.vertices)
        start, end = tris.ravel(), tris[:, [1, 2, 0]].ravel()
        directed = np.sort(start * nverts + end)
        if (directed[1:] == directed[:-1]).any():
            raise NotWatertight(
                "a directed edge appears more than once (non-manifold or "
                "inconsistently oriented triangles)"
            )
        lo, hi = np.minimum(start, end), np.maximum(start, end)
        undirected = lo * nverts + hi
        order = np.argsort(undirected, kind="stable")
        key = undirected[order]
        # each key now occurs at most twice; sorted, the keys pair up
        # exactly when every one occurs twice
        if key.size % 2 or (key[0::2] != key[1::2]).any():
            raise NotWatertight("mesh has boundary edges (not closed)")
        tri_edges = np.empty_like(order)
        tri_edges[order] = nverts + np.arange(order.size) // 2
        first = order[0::2]
        slots = np.empty((6, len(tris)), dtype=np.int64)
        slots[:3], slots[3:] = tris.T, tri_edges.reshape(-1, 3).T
        slots.setflags(write=False)
        return np.stack([lo[first], hi[first]]), slots

    @cached_property
    def bbox_min(self) -> np.ndarray:
        return self.vertices.min(axis=0) if len(self.vertices) else np.zeros(3)

    @cached_property
    def bbox_max(self) -> np.ndarray:
        return self.vertices.max(axis=0) if len(self.vertices) else np.zeros(3)

    @cached_property
    def bbox_center(self) -> np.ndarray:
        return 0.5 * (self.bbox_min + self.bbox_max)

    @cached_property
    def bbox_diag(self) -> float:
        return float(np.linalg.norm(self.bbox_max - self.bbox_min))

    @cached_property
    def _capacity(self) -> float:
        """Interior volume: signed tetrahedra det(a, b, c)/6 anchored at
        the bbox center (row 0 of the flux terms), so a container far from
        the origin keeps its volume to rounding."""
        return float(self._whole_flux[0].sum() / 6.0)

    @cached_property
    def _row_cache(self) -> tuple:
        """``(rows, formatted)``: an object array with the ``v x y z`` row of
        each vertex that :func:`save_mesh` has written so far, None for the
        others, and the mask of the rows it holds (see :meth:`_rows`)."""
        return np.full(len(self.vertices), None, dtype=object), np.zeros(len(self.vertices), bool)

    def _rows(self, ids: np.ndarray) -> list:
        """The ``v x y z`` rows of the vertices ``ids``, an array of distinct
        indices, as :func:`save_mesh` writes them.  Each row is formatted on
        its first request and kept in the mesh's row cache, so a container's
        row is formatted at most once, and only if some body it cuts keeps
        it."""
        rows, formatted = self._row_cache
        missing = ids[~formatted[ids]]
        if missing.size:
            rows[missing] = _vertex_lines(self.vertices[missing])
            formatted[missing] = True
        return rows[ids].tolist()

    @cached_property
    def _centered(self) -> np.ndarray:
        """(V, 3) read-only ``vertices - bbox_center``, C-contiguous: the
        height solve projects it onto each normal for the support interval."""
        centered = self.vertices - self.bbox_center
        centered.flags.writeable = False
        return centered

    @cached_property
    def _whole_flux(self) -> np.ndarray:
        """(4, T) per-triangle flux terms with corners a, b, c taken relative
        to the bbox center: row 0 is det(a, b, c), rows 1-3 are
        a x b + b x c + c x a.  For a point p relative to the center,
        det(a - p, b - p, c - p) = det(a, b, c) - p . (a x b + b x c + c x a),
        so whole triangles are summed against any plane point at once."""
        a, b, c = self._centered[self.triangles].transpose(1, 2, 0)
        ab = _cross(a, b)
        flux = np.concatenate([[(ab * c).sum(0)], ab + _cross(b, c) + _cross(c, a)])
        flux.flags.writeable = False
        return flux

    def _support(self, normal: np.ndarray) -> np.ndarray:
        """``_centered @ normal``: each vertex's height above the bbox center
        along a unit ``normal``, from which every clip and body cut takes its
        vertex heights as ``support - h``.  The mesh keeps the last normal's,
        read-only and keyed by its bytes, so a height solve derives it once,
        for its bracket and for every clip it makes.  For a normal unit only
        within 1e-12 those heights measure a plane ``|h| |n . n - 1|`` from
        the sums' plane point, and the cap's flux is off by at most about
        ``2e-12 |h|`` times the cut area."""
        key = normal.tobytes()
        last = self.__dict__.get("_last_support")
        if last is None or last[0] != key:
            support = self._centered @ normal
            support.setflags(write=False)
            last = self.__dict__["_last_support"] = (key, support)
        return last[1]

    def __len__(self) -> int:
        return len(self.triangles)


def _unit_normal(normal) -> np.ndarray:
    """``normal`` as a float array of shape (3,), a ``ValueError`` unless its
    length is 1 within ``_UNIT_NORMAL_TOLERANCE``."""
    n = np.asarray(normal, dtype=float)
    if n.shape != (3,):
        n = n.reshape(3)
    # np.linalg.norm's sum; rejects NaN
    if not abs(math.sqrt(n.dot(n)) - 1.0) <= _UNIT_NORMAL_TOLERANCE:
        raise ValueError("plane normal must be a unit vector (within 1e-12)")
    return n


@dataclass(frozen=True, eq=False)
class LiquidPlane:
    """Liquid surface: upward unit normal plus signed height offset along it,
    measured from the container mesh's bounding-box center."""

    normal: np.ndarray
    height: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _unit_normal(self.normal))
        object.__setattr__(self, "height", _finite("height", self.height))

    @classmethod
    def _of(cls, normal: np.ndarray, height: float) -> LiquidPlane:
        """The plane of a unit ``normal`` array and a finite float ``height``
        that the caller has checked: the fields public construction would
        give, without the checks."""
        plane = object.__new__(cls)
        plane.__dict__.update(normal=normal, height=height)
        return plane


class ClipResult(NamedTuple):
    """Clipped volume, cut cross-section area, and trivial-case flags."""

    volume: float
    cut_area: float
    empty: bool
    full: bool


def mesh_volume(mesh: TriMesh) -> float:
    """Interior volume by the divergence theorem: sum of signed tetrahedra
    det(v0, v1, v2)/6 anchored at the bbox center.  Positive for outward
    orientation; exact for polyhedra.  Computed once per mesh."""
    return mesh._capacity


def _case_table():
    """Band pieces and cut chords of the 27 sign cases of a triangle.

    Case ``9*c0 + 3*c1 + c2`` has corner k below, on or above the plane
    for ``ck`` = 0, 1 or 2.  A triangle's six slots are its corners 0, 1,
    2 and the crossing nodes of its edges 0-1, 1-2, 2-0 (slots 3, 4, 5).
    Walking corner 0, edge 0-1, corner 1, edge 1-2, corner 2, edge 2-0 and
    keeping each corner at or below the plane and each edge whose corners
    lie strictly on opposite sides gives the below-side piece in the
    triangle's own orientation; a walk step whose two nodes both lie on
    the plane (an on-plane corner or a crossing node) is a cut chord.

    Returns ``band`` (27,), the cases with some but not all corners below;
    ``cut`` (27, 3), the edges that cross; ``slots`` (27, 6), for a band
    case the four piece slots (a triangle repeats its last) and the two
    chord slots; and ``chord`` (27,), the band cases with a chord.
    """
    band = np.zeros(27, dtype=bool)
    cut = np.zeros((27, 3), dtype=bool)
    slots = np.zeros((27, 6), dtype=np.int64)
    chord = np.zeros(27, dtype=bool)
    for case in range(27):
        sign = (case // 9 - 1, case // 3 % 3 - 1, case % 3 - 1)
        crosses = [sign[k] * sign[(k + 1) % 3] < 0 for k in range(3)]
        cut[case] = crosses
        band[case] = min(sign) < 0 <= max(sign)
        if not band[case]:
            continue
        walk = []
        for k in range(3):
            if sign[k] <= 0:
                walk.append(k)
            if crosses[k]:
                walk.append(3 + k)
        on_plane = {slot for slot in walk if slot >= 3 or sign[slot] == 0}
        steps = [
            (a, b) for a, b in zip(walk, walk[1:] + walk[:1]) if a in on_plane and b in on_plane
        ]
        assert len(walk) in (3, 4) and len(steps) <= 1, (sign, walk, steps)
        slots[case, :4] = walk + walk[-1:] * (4 - len(walk))
        slots[case, 4:] = steps[0] if steps else (0, 0)
        chord[case] = bool(steps)
    for table in (band, cut, slots, chord):
        table.flags.writeable = False
    return band, cut, slots, chord


_BAND, _CUT, _SLOTS, _CHORD = _case_table()


@dataclass(eq=False, slots=True)
class _Cut:
    """The topology of one mesh clipped by one plane, a function of the
    mesh and of the side of the plane that each vertex lies on alone (see
    :func:`_cut`), shared, read-only, by every clip with the same sides.

    Node ids ``0 .. V-1`` are the mesh vertices; id ``V + k`` is the
    crossing node of the k-th edge, in edge-table order, whose endpoints
    lie strictly on opposite sides, interpolated from the edge's lower
    vertex index so that both triangles on the edge get the identical
    point.  Band pieces and chords are listed by triangle index, one per
    column.  The band's nodes, its vertices by index and then the crossing
    nodes, are listed in id order in ``nodes``, whose positions are the
    compact ids of the gather.  The arrays are C-contiguous.

    Two fields are set after construction, each on the cut's first use by
    one path, so that a cut builds only what its users read: ``gather``,
    the band-local layout that :func:`clip_volume` sums from (see
    :func:`_gather`), which also sums the mesh's flux terms; and ``body``,
    the parts of a liquid body that the topology fixes, which
    :func:`liquid_geometry` builds on (see :func:`_body`).
    """

    whole: np.ndarray  # (T,) triangles with every vertex strictly below
    pieces: np.ndarray  # (4, m) band walk polygons; triangles repeat node 2
    chords: np.ndarray  # (2, c) polygon steps with both nodes on the plane
    lo: np.ndarray  # (k,) lower vertex id of each crossing edge
    hi: np.ndarray  # (k,) its higher vertex id
    v_lo: np.ndarray  # (k, 3) coordinates of ``lo``
    span: np.ndarray  # (k, 3) V[hi] - v_lo
    nodes: np.ndarray  # (b + k,) node ids of the band: its vertices, then V .. V + k - 1
    empty: np.bool_  # no vertex lies strictly below the plane
    full: np.bool_  # no vertex lies strictly above the plane
    gather: _Gather | None = None
    body: _Body | None = None


class _Gather(NamedTuple):
    """How :func:`clip_volume` reads one cut topology: a band-local node
    table and flat gather indices into it, read-only.

    Compact node ids number the band's vertices (the mesh vertices that
    band pieces use, by index), then the cut's crossing nodes in ``lo``
    order.  A clip's node table is ``vertices`` followed by its crossing
    nodes.  The indices address that table raveled, three components per
    node, so that each sum reads its operands with one gather, as
    C-contiguous (3, m) rows: a node's components as they are, rolled by
    one, (y, z, x), or rolled by two, (z, x, y).  The cross product of
    nodes p and q is then ``p1 * q2 - p2 * q1``, row by row, the
    operations of :func:`_cross` in its order.
    """

    vertices: np.ndarray  # (b, 3) the band's vertex rows
    pieces: np.ndarray  # (7, 3, m) a, then c, b and d rolled by one and by two
    chords: np.ndarray  # (2, 2, 3, c) chord starts, then ends, rolled by one and by two
    whole_flux: np.ndarray  # (4,) the whole triangles' summed _whole_flux


@dataclass(frozen=True, eq=False)
class _Body:
    """The parts of a liquid body that one cut topology fixes, read-only.

    Every body that :func:`liquid_geometry` cuts with the topology has
    these triangles and keeps these nodes; only the coordinates of its
    crossing nodes and cap centroids move from plane to plane.  The body's
    node table is the mesh vertices, the cut's crossing nodes (the node ids
    of :class:`_Cut`) and then one cap centroid per loop, and the body
    lists its ``used`` rows in id order, so that its first vertices are the
    mesh vertices ``kept``.  ``faces``, the ``f i j k`` rows of
    ``triangles`` as :func:`save_mesh` writes them, is formatted on the
    first save of a body of the topology.
    """

    loops: list  # (k,) node ids of each chord loop, counterclockwise about the normal
    rings: list  # (k, 2) per loop: its cap's rims, each loop node and the next
    triangles: np.ndarray  # (t, 3) whole triangles, band fans, caps, in body vertex ids
    created: int  # triangles[:created] are whole, the container's own
    used: np.ndarray  # (n,) node ids of the body's vertices
    kept: np.ndarray  # (K,) the mesh vertices among them

    @cached_property
    def faces(self) -> str:
        return _face_lines(self.triangles)


def _roll_table(rows, roles, rolls):
    """A static gather table: for id row ``roles[i]`` of an index with
    ``rows`` rows, read with its components rolled by ``rolls[i]``, the
    rows to take from the (3, rows, m) component index, reshaped
    (3 * rows, m)."""
    roles, rolls = np.array(roles)[..., None], np.array(rolls)[..., None]
    table = (np.arange(3) + rolls) % 3 * rows + roles
    table.flags.writeable = False
    return table


# band piece rows (a, b, c, d): a, then c, b and d rolled by one and by two
_PIECE_TABLE = _roll_table(4, [0, 2, 2, 1, 1, 3, 3], [0, 1, 2, 1, 2, 1, 2])
# chord rows (start, end), each rolled by one and by two
_CHORD_TABLE = _roll_table(2, [[0, 0], [1, 1]], [[1, 2], [1, 2]])
# offsets of the x, y and z component of a node in a raveled (n, 3) table
_COMPONENTS = np.arange(3).reshape(3, 1, 1)


def _cut(mesh: TriMesh, side: np.ndarray) -> _Cut:
    """The cut topology of ``mesh`` for the vertex ``side`` codes (0 below,
    1 on, 2 above the plane), its arrays read-only.

    Each triangle's sign case (see :func:`_case_table`) is computed once
    over the mesh, from its corners' codes.  A whole triangle (case 0)
    lies strictly below and is kept as it is; it has no node on the plane,
    so it yields no chord.  Faces lying in the plane hold no volume below
    and are dropped.  The rest is the band's: its 3- or 4-node pieces and
    their chords are read with one take of the slots that the static case
    table names from the mesh's slot table (see
    :meth:`TriMesh._edge_tables`), where edge e's node is ``V + e``.  An
    edge that crosses the plane lies on the walk of both its triangles and
    any other edge on none, so the ids the pieces use, marked in one array
    over vertex and edge ids, are in id order the band's vertices by index
    and then the crossing edges in edge-table order.  That list numbers
    the nodes twice: crossing edge k of it is node ``V + k``, and its
    positions are the compact ids that :func:`_gather` reads (``nodes``).
    """
    edges, slots = mesh._edge_tables
    nverts, ntris = len(side), slots.shape[1]
    c0, c1, c2 = side.take(slots[:3])
    case = 9 * c0 + 3 * c1 + c2
    whole = case == 0
    rows = np.flatnonzero(_BAND.take(case))
    case = case.take(rows)
    # (6, m): piece and chord slots, vertex ids and V + edge ids
    picked = slots.take(_SLOTS.T.take(case, axis=1) * ntris + rows)
    used = np.zeros(nverts + edges.shape[1], dtype=bool)
    used[picked[:4]] = True
    ids = np.flatnonzero(used)
    b = ids.searchsorted(nverts)
    k = len(ids) - b
    nodes = ids.copy()
    nodes[b:] = np.arange(nverts, nverts + k)
    node_of = np.empty(len(used), dtype=np.int64)  # read at used ids only
    node_of[ids] = nodes
    picked = node_of.take(picked)
    lo_hi = edges.take(ids[b:] - nverts, axis=1)
    ends = mesh.vertices.take(lo_hi.ravel(), axis=0)
    pieces = picked[:4]
    arrays = (whole, pieces, picked[4:].compress(_CHORD.take(case), axis=1), *lo_hi, ends[:k],
              ends[k:] - ends[:k], nodes)
    for array in arrays:
        array.setflags(write=False)  # half the cost of assigning flags.writeable
    return _Cut(*arrays, np.bool_(pieces.size == 0 and not whole.any()), (side <= 1).all())


def _gather(mesh: TriMesh, cut: _Cut) -> _Gather:
    """Build ``cut.gather``, the layout :func:`clip_volume` sums from (see
    :class:`_Gather`), and return it.

    Every node that the sums read is a node of a band piece: a chord is a
    step of a piece's walk.  The cut's ``nodes`` lists those in id order,
    the band's vertices first, in index order, and then crossing node k,
    so position in that list is the compact id.  Each index is the flat
    position of every component of every piece (or chord) node, (3, 4, m)
    or (3, 2, c), from which a static table takes the rows each sum reads;
    the whole triangles' flux is summed here, once per topology, as the
    same product of the same operands it always was.
    """
    nodes = cut.nodes
    flat = np.empty(len(mesh.vertices) + len(cut.lo), dtype=np.int64)  # read at nodes only
    flat[nodes] = np.arange(0, 3 * len(nodes), 3)
    pieces, chords = ((flat[index] + _COMPONENTS).reshape(3 * len(index), index.shape[1])
                      for index in (cut.pieces, cut.chords))
    gather = cut.gather = _Gather(
        mesh.vertices.take(nodes[: len(nodes) - len(cut.lo)], axis=0),
        pieces.take(_PIECE_TABLE, axis=0),
        chords.take(_CHORD_TABLE, axis=0),
        mesh._whole_flux @ cut.whole.astype(float),
    )
    for array in gather:
        array.setflags(write=False)
    return gather


def _body(mesh: TriMesh, cut: _Cut) -> _Body:
    """Build ``cut.body``, the fixed parts of its liquid bodies (see
    :class:`_Body`), and return it.  Chords that do not chain into loops
    raise :class:`OpenCutLoop` before the cut is changed.

    The wall is the cut's whole triangles, as they are, and its band
    pieces, each fanned into triangles (a triangle piece repeats its last
    node, so its second fan triangle is degenerate and dropped).  Each
    loop is capped by a fan from its centroid node to every rim, with the
    orientation of the loop; a node that no triangle uses (a mesh vertex
    above the plane) is not listed.
    """
    loops = _chain_loops(cut.chords.T)
    centroid_ids = len(mesh.vertices) + len(cut.lo)
    whole = mesh.triangles[cut.whole]
    fans = cut.pieces[[0, 1, 2, 0, 2, 3]].T.reshape(-1, 3)
    caps = []
    for c, loop in enumerate(loops):
        cap = np.empty((len(loop), 3), dtype=np.int64)
        cap[:, 0] = centroid_ids + c
        cap[:, 1] = loop
        cap[:-1, 2] = loop[1:]
        cap[-1, 2] = loop[0]
        caps.append(cap)
    tris = np.concatenate([whole, fans[fans[:, 1] != fans[:, 2]], *caps])
    used = np.zeros(centroid_ids + len(loops), dtype=bool)
    used[tris] = True
    body = _Body(loops, [cap[:, 1:] for cap in caps], (np.cumsum(used) - 1)[tris], len(whole),
                 np.flatnonzero(used), np.flatnonzero(used[: len(mesh.vertices)]))
    for array in (*body.loops, *body.rings, body.triangles, body.used, body.kept):
        array.setflags(write=False)
    cut.body = body
    return body


def _topology(mesh: TriMesh, side: np.ndarray) -> _Cut:
    """The cut topology of ``mesh`` for the vertex ``side`` codes.  The mesh
    keeps the last one it built, keyed by the bytes of the codes, and a
    clip whose sides equal that key returns it, whichever side rule gave
    them.  That is what building it again would give, bit for bit: its
    integer arrays are computed from the sides and the mesh's fixed arrays
    only, and its gather and flux sum are the same functions of those."""
    key = side.tobytes()
    last = mesh.__dict__.get("_last_cut")
    if last is None or last[0] != key:
        last = mesh.__dict__["_last_cut"] = (key, _cut(mesh, side))
    return last[1]


def _sides(s: np.ndarray) -> np.ndarray:
    """The int8 side codes of the signed heights ``s``: 0 below, 1 on (zero,
    of either sign) and 2 above the plane."""
    return (s >= 0.0).view(np.int8) + (s > 0.0).view(np.int8)


def _crossings(cut: _Cut, s: np.ndarray) -> np.ndarray:
    """(k, 3) crossing nodes of ``cut`` at the signed vertex heights ``s``,
    each interpolated from its edge's lower vertex."""
    s_lo, s_hi = s[cut.lo], s[cut.hi]
    return cut.v_lo + (s_lo / (s_lo - s_hi))[:, None] * cut.span


def _clip_table(mesh: TriMesh, plane: LiquidPlane) -> tuple:
    """``(cut, heights, nodes)`` of ``mesh`` under ``plane`` by the body
    path's side rule: the cut topology (:class:`_Cut`), the signed vertex
    heights, and the coordinates of every node that the topology numbers,
    the mesh vertices and then the crossing nodes.

    The heights are the support projection less the plane's height, as a
    clip takes them (see :func:`clip_volume`), and those within
    ``ONPLANE_SNAP_FRACTION * bbox_diag`` of the plane are snapped to zero:
    such a vertex lies on the plane, so a body has no sliver triangle where
    the plane passes next to a vertex.  The full node order is the body
    path's: :func:`liquid_geometry` lists a body's vertices in it.
    :func:`clip_volume` classifies by the strict signs instead, so a body's
    volume may differ from the clip by the container's volume within the
    snap band around the plane: about the band's width, twice the snap,
    times the cut area.
    """
    s = mesh._support(plane.normal) - plane.height
    s[np.abs(s) <= ONPLANE_SNAP_FRACTION * mesh.bbox_diag] = 0.0
    cut = _topology(mesh, _sides(s))
    return cut, s, np.concatenate([mesh.vertices, _crossings(cut, s)])


def clip_volume(mesh: TriMesh, plane: LiquidPlane) -> ClipResult:
    """Volume of the container interior below the plane, plus the cut area.

    A vertex's height is ``mesh._support(n) - h``, its offset along the
    normal from the bbox center less the plane's height, and it lies below,
    on or above the plane by the strict sign of that height, with no snap.
    So the sides are constant, and the volume is an exact cubic in the
    height, on each slab between two consecutive distinct support values.
    For a normal unit only within :class:`LiquidPlane`'s 1e-12, these
    heights measure a plane ``|h| |n . n - 1|`` from the sums' plane point
    ``bbox_center + h n``, and the cap's flux is off by at most about
    ``2e-12 |h|`` times the cut area.  A liquid body classifies by a snap
    band instead (see :func:`_clip_table`), and its volume may differ from
    the clip by about twice the snap times the cut area.

    The volume is the divergence flux of the below-side surface with the
    reference point on the plane, so the cap needs no explicit
    construction.  Whole triangles (every vertex strictly below) add their
    flux from the mesh's cached per-triangle terms, summed once per cut
    topology; only the band triangles that the plane cuts are clipped into
    pieces.  A clip that leaves every vertex on the side it was on at the
    mesh's previous clip reuses that clip's topology and its band-local
    gather, and then costs the vertex sides, the crossing nodes and the
    band and chord sums over the band's own nodes; the crossings read their
    edges' end heights from the same array as the sides.  A plane with no
    vertex below it holds nothing and builds no gather.
    The cut area is Green's sum over the cut chords, referenced to a chord
    node so that a small cut far from the bbox center keeps its accuracy:
    every step of a band piece's boundary walk whose two nodes both lie on
    the plane, including in-plane edges of kept triangles (an edge shared
    by two kept triangles cancels).  Where both paths give every vertex the
    same side, it equals the area of the cap that :func:`liquid_geometry`
    builds.

    Parameters
    ----------
    mesh : TriMesh
    plane : LiquidPlane

    Returns
    -------
    ClipResult
        ``volume`` in length^3, ``cut_area`` in length^2 (zero when the
        plane misses the mesh), and ``empty``/``full`` flags for planes
        below/above the whole mesh.  A plane past every vertex holds
        exactly :func:`mesh_volume`, whatever its height.
    """
    n, h = plane.normal, plane.height
    heights = mesh._support(n) - h
    cut = _topology(mesh, _sides(heights))
    if cut.empty:
        return ClipResult(0.0, 0.0, True, bool(cut.full))
    if cut.full and not cut.pieces.size:
        # every triangle is whole: the container itself, whose flux sum
        # would only scale its rounding dust by the plane's height
        return ClipResult(mesh._capacity, 0.0, False, True)
    gather = cut.gather or _gather(mesh, cut)
    nodes = np.concatenate([gather.vertices, _crossings(cut, heights)])
    # whole triangles: the plane point is height * normal off the bbox center
    whole = gather.whole_flux
    six_volume = whole[0] - h * (n @ whole[1:])
    # band quad (a, b, c, d) fans into (a, b, c) + (a, c, d); a triangle has
    # d = c, and a.(b x c) + a.(c x d) = a.(c x (d - b))
    origin = mesh.bbox_center + h * n
    p = (nodes - origin).ravel()[gather.pieces]  # rows a, c1, c2, b1, b2, d1, d2
    six_volume += (p[0] * (p[1] * (p[6] - p[4]) - p[2] * (p[5] - p[3]))).sum()
    # the cap runs each chord backwards: w x u over the chords (u, w), both
    # taken from the first chord's first node (none when there are no chords)
    ends = nodes.ravel()[gather.chords]
    e = ends - ends[0, :, :, :1]  # rows (u1, u2), (w1, w2)
    area = 0.5 * (n @ (e[1, 0] * e[0, 1] - e[1, 1] * e[0, 0])).sum()
    # the flux sum of a near-empty cut rounds to dust on either side of zero
    return ClipResult(max(float(six_volume) / 6.0, 0.0), max(float(area), 0.0), False,
                      bool(cut.full))


class HeightSearch(NamedTuple):
    """Outcome of a height solve: the height, the volume residual of that
    height, and the number of Newton-Bisect iterations spent, one
    :func:`clip_volume` call each."""

    height: float
    residual: float
    iterations: int


def height_search(
    mesh: TriMesh,
    normal,
    target_volume: float,
    h_prev: float | None = None,
    tol_rel: float = 1e-9,
    max_iter: int = 200,
) -> HeightSearch:
    """Solve clip_volume(height) == target_volume by safeguarded Newton.

    A cold solve starts at the height at which a ball spanning the bracket
    (the mesh's support interval along the normal) holds the fill
    ``phi = target_volume / mesh_volume(mesh)``: the root in (0, 1) of the
    sphere-cap law ``3x^2 - 2x^3 = phi``, as a fraction of the bracket from
    its lower end, or the bracket midpoint if that height rounds onto an
    end.  At ``phi = 0.5`` it is the midpoint bit for bit.  This inverts a
    volume law instead of searching blind, as PLIC volume-of-fluid methods
    position their planes (Scardovelli & Zaleski 2000, J. Comput. Phys.
    164).  Newton steps use the cut area as the exact derivative dV/dh and
    fall back to bisection whenever the step would leave the bracket or
    the cut area degenerates.
    Iteration continues past the volume tolerance until the Newton step is
    at most ``4 * eps * bbox_diag``, the floating-point resolution of a
    height on this mesh: the step estimates the remaining height error, so
    the height is then converged whatever its magnitude (a root at h = 0,
    the half-full symmetric container, included).  A bisection step that no
    longer moves the height ends the solve too, and so does the budget.
    The mesh's capacity is cached on it, so a solve clips and does not
    re-integrate the mesh.

    The arguments are checked once, here; the solve itself runs on the
    checked floats.  It takes the support interval from the mesh's support
    projection along the normal, derived once per normal and cached on the
    mesh, from which every clip it makes takes its vertex heights as
    ``support - h``: each slab between consecutive distinct support values
    is one cut topology, on which the volume is an exact cubic.  For a
    normal unit only within 1e-12, the cap's flux is then off by at most
    about ``2e-12 |h|`` times the cut area.  It calls the module's
    :func:`clip_volume` with a plane per iteration that it builds without
    checking again, since the normal and every height it tries are checked
    already.  Beyond its clips a solve costs the scalar checks, the
    normal's length (one dot product), the projection (one product of the
    centered vertices and the normal, reused by every clip) and its two
    ends (two reductions), a cold start's arcsine and sine, and per
    iteration a plane and a few float operations.  The clips dominate,
    and on a large mesh a clip that misses the cached cut topology costs
    several that hit it: a start near the root saves the clips, and most
    of the misses, that a start at the midpoint spends closing in.

    However the solve ends (an exact hit included), one rule decides: the
    last clipped height is returned, with its own residual and the number
    of clips, when that residual is within ``tol_rel * mesh_volume(mesh)``,
    and :class:`NoConvergence`, naming the height, the residual and the
    iteration count, is raised otherwise.  A target of zero or of the full
    capacity returns the support's end without a clip.

    Parameters
    ----------
    mesh : TriMesh
    normal : array-like
        Upward unit surface normal.
    target_volume : float
        Desired liquid volume, within ``[0, mesh_volume(mesh)]``
        (:class:`VolumeOutOfRange` otherwise).
    h_prev : float, optional
        Initial guess, e.g. the previous step's height.  Must be finite.
        When omitted or not strictly inside the bracket, the solve starts
        cold, at the sphere-cap height of the fill.
    tol_rel : float
        Volume residual tolerance relative to the total mesh volume;
        nonnegative and finite.
    max_iter : int
        Iteration budget (clip calls), an integer of at least 1; at the
        budget the last clipped height is judged by the same rule.

    A parameter outside these ranges is a ``ValueError`` that names it, and
    so is a mesh without triangles.
    """
    tol_rel = _nonnegative("tol_rel", tol_rel)
    max_iter = _count("max_iter", max_iter, 1)
    if h_prev is not None:
        h_prev = _finite("h_prev", h_prev)
    if not len(mesh):
        raise ValueError("mesh has no triangles")
    n = _unit_normal(normal)
    total = mesh._capacity
    target = float(target_volume)
    if not math.isfinite(target) or target < 0.0 or target > total * (1.0 + 1e-12):
        raise VolumeOutOfRange(
            f"target volume {target} outside [0, {total}]"
        )
    return _solve_height(mesh, n, target, h_prev, tol_rel, max_iter)


def _solve_height(mesh: TriMesh, n: np.ndarray, target: float, h_prev, tol_rel: float,
                  max_iter: int) -> HeightSearch:
    """:func:`height_search` on the arguments it has checked: a mesh with
    triangles, a unit normal array, a float target within the capacity, a
    finite float ``h_prev`` or None, a nonnegative float ``tol_rel`` and an
    integer ``max_iter`` of at least 1.  The bracket is the range of
    ``mesh._support(n)``, from which every clip takes its vertex heights as
    ``support - h``: one projection per normal serves both, and a normal
    unit only within 1e-12 leaves the cap's flux off by at most about
    ``2e-12 |h|`` times the cut area.  The first iterate is ``h_prev``
    when it lies strictly inside the bracket, and otherwise the cold
    start of :func:`height_search`; the Newton steps after it do not
    depend on which start it was."""
    total = mesh._capacity
    support = mesh._support(n)
    h_lo, h_hi = float(_lowest(support)), float(_highest(support))
    if target == 0.0:
        return HeightSearch(h_lo, 0.0, 0)
    if target >= total:
        return HeightSearch(h_hi, abs(total - target), 0)

    vtol = tol_rel * total
    area_floor = AREA_FLOOR_FRACTION * mesh.bbox_diag**2
    step_floor = _STEP_FLOOR_EPS * mesh.bbox_diag
    lo, hi = h_lo, h_hi
    if h_prev is not None and lo < h_prev < hi:
        h_next = h_prev
    else:
        # the height at which a ball spanning the bracket holds the fill:
        # the root in (0, 1) of the sphere-cap law 3x^2 - 2x^3 = phi
        phi = target / total
        h_next = 0.5 * (lo + hi) - math.sin(math.asin(1.0 - 2.0 * phi) / 3.0) * (hi - lo)
        if not (lo < h_next < hi):
            h_next = 0.5 * (lo + hi)
    for iteration in range(1, max_iter + 1):
        h = h_next
        res = clip_volume(mesh, LiquidPlane._of(n, h))
        f = res.volume - target
        if f == 0.0:
            break
        if f < 0.0:
            lo = h
        else:
            hi = h
        if res.cut_area > area_floor:
            h_next = h - f / res.cut_area
            if abs(h_next - h) <= step_floor:
                # the Newton correction estimates the remaining height error;
                # once it falls below the mesh's fp resolution, h is done
                # even if the opposite bracket end never moved
                break
            if not (lo < h_next < hi):
                h_next = 0.5 * (lo + hi)
        else:
            h_next = 0.5 * (lo + hi)
        if h_next == h:
            break  # bracket at floating-point resolution
    if abs(f) <= vtol:
        return HeightSearch(h, abs(f), iteration)
    raise NoConvergence(f"no convergence by iteration {iteration}: height {h} has residual "
                        f"{f}, above the tolerance {vtol}")


def liquid_geometry(mesh: TriMesh, normal, height: float) -> TriMesh:
    """Closed mesh of the liquid body below the plane.

    The cut classifies by the snap band of :func:`_clip_table`, and the
    body's volume may differ from :func:`clip_volume`'s by about twice the
    snap times the cut area.  The wall is the cut's whole triangles, as
    they are, and its band pieces, each fanned into triangles;
    the cut chords are chained into closed loops and each loop is
    fan-triangulated from its area centroid to cap the body.  The
    centroid fan is valid for the star-shaped (in practice convex) cut
    loops produced by the containers in scope; a loop that fans
    inconsistently raises :class:`NonStarShapedCutLoop`, and a cut boundary
    that fails to close raises :class:`OpenCutLoop`.

    The body is valid without being validated again (see
    :class:`TriMesh`): its whole triangles passed the shape test when the
    container (or, for a body of a body, its container) was built, and it
    is closed by construction, since band pieces share their crossing nodes
    and every chord loop is capped or the cut raises.  Its triangles, the
    chord loops and the nodes it keeps are a function of the cut topology:
    they are built on the topology's first body (:func:`_body`) and shared
    by the bodies of every later plane with the same vertex sides, as the
    records of a replayed rollout mostly are.  So a body costs what moves
    with the plane: the clip and its crossing nodes, per loop the area
    centroid and the shape test of its cap, one shape test over the band
    fans and caps, and a gather of the vertex rows.  The body's edge tables
    are derived only if the body is clipped again.

    Returns an empty mesh when the plane lies below the container and the
    input mesh itself when it lies above.  Vertices are listed in node
    order (mesh vertices by index, then crossing nodes by edge, then cap
    centroids by loop) and triangles as whole triangles, band fans, caps,
    so identical inputs give identical meshes.  A body that the plane
    cuts links to the container and to its topology's :class:`_Body`, which
    names the container vertices it keeps, its first vertices;
    :func:`save_mesh` then takes their rows from the container's row cache
    and the face rows from the :class:`_Body`, and writes the same bytes as
    for any mesh with these arrays.
    """
    plane = LiquidPlane(unit_vector(normal), height)
    cut, _, nodes = _clip_table(mesh, plane)
    if cut.empty:
        return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    if cut.full:
        return mesh
    body = cut.body or _body(mesh, cut)
    centroids = [_cap_centroid(nodes, loop, ring, plane.normal)
                 for loop, ring in zip(body.loops, body.rings)]
    return TriMesh._liquid_body(np.concatenate([nodes, *centroids]).take(body.used, axis=0),
                                body.triangles, body.created, (mesh, body))


def _cap_centroid(nodes, loop, ring_ids, nrm) -> np.ndarray:
    """The area centroid of a cut ``loop`` of ``nodes``, as a (1, 3) row:
    the centre of its cap's fan, whose triangles have the rims
    ``ring_ids`` (each loop node and the next).  Raises :class:`NonStarShapedCutLoop` if the loop encloses no
    usable area, or if a fan triangle fails the shape test with the cap's
    orientation about the upward normal ``nrm``."""
    k = len(loop)
    coords = nodes[loop]
    # area centroid of the loop polygon: the node mean can land exactly
    # on a chord line (collinear chord subdivisions shift it), which
    # would degenerate the fan.  The doubled areas multiply an (m, 3)
    # C-ordered array by the normal: another layout can round the sums
    # differently, and exported bodies are fixed to the bit.
    ref = coords[0]
    spans = (coords[1:] - ref).T
    doubled = np.ascontiguousarray(_cross(spans[:, :-1], spans[:, 1:]).T) @ nrm
    total = doubled.sum()
    if total <= DEGENERATE_AREA_FRACTION * ((coords.max(0) - coords.min(0)) ** 2).sum():
        raise NonStarShapedCutLoop(
            f"cut loop of {k} nodes encloses no usable area"
        )
    piece_centers = (ref + coords[1:-1] + coords[2:]) / 3.0
    centroid = (doubled[:, None] * piece_centers).sum(axis=0) / total
    # every fan triangle must pass the TriMesh shape test with the
    # cap's orientation: spokes to each node and to the next
    ring = (nodes[ring_ids] - centroid).T
    spokes, rims = ring[:, 0], ring[:, 1] - ring[:, 0]
    if (nrm @ _cross(spokes, rims) <= _sliver_floor(spokes, rims)).any():
        raise NonStarShapedCutLoop(
            f"cut loop of {k} nodes is not star-shaped around its centroid"
        )
    return centroid[None]


def _chain_loops(chords) -> list:
    """Chain directed cut chords into closed loops, reversed so each loop runs
    counterclockwise around the upward normal (matching an outward cap).

    ``chords`` is a (c, 2) integer array of node ids in the cut's order;
    returns one int64 array of node ids per loop.  The chords are walked in
    that order:

    * Interior in-plane edges appear twice with opposite directions and
      cancel: a chord cancels a standing reverse chord, and one that runs
      the same way as a standing chord raises ``duplicate cut chord``.
    * Each standing chord links its end node back to its start node; a
      second link out of one end node raises ``cut boundary branches``, and
      links that do not close raise ``failed to close``.
    * Each loop starts at the end node of its first standing chord, and
      the loops come in the order of those chords.  A loop has at least
      three nodes: at most one chord stands per node pair, and no chord
      joins a node to itself.
    """
    standing = {}
    for u, w in np.asarray(chords, dtype=np.int64).reshape(-1, 2).tolist():
        if standing.pop((w, u), False):
            continue
        if (u, w) in standing:
            raise OpenCutLoop(f"duplicate cut chord at {u}")
        standing[u, w] = True
    back = {}
    for u, w in standing:
        if w in back:
            raise OpenCutLoop(f"cut boundary branches at node {w}")
        back[w] = u
    if back.keys() != set(back.values()):
        raise OpenCutLoop("cut boundary failed to close into a loop")
    loops = []
    for node in list(back):
        loop = []
        while node in back:
            loop.append(node)
            node = back.pop(node)
        if loop:
            loops.append(np.array(loop, dtype=np.int64))
    return loops


# ---------------------------------------------------------------------------
# container fixtures


def _extrude_polygon(points2d, height, cap_tris, z0=0.0):
    """Watertight prism over a counterclockwise simple polygon.

    ``cap_tris`` triangulates the polygon using loop-vertex indices only,
    keeping the side walls and caps edge-compatible.
    """
    pts = np.asarray(points2d, dtype=float)
    npts = len(pts)
    bottom = np.column_stack([pts, np.full(npts, z0)])
    top = np.column_stack([pts, np.full(npts, z0 + height)])
    verts = np.vstack([bottom, top])
    tris = []
    for a, b, c in cap_tris:
        tris.append((c, b, a))  # bottom cap faces -z
        tris.append((npts + a, npts + b, npts + c))  # top cap faces +z
    for i in range(npts):
        j = (i + 1) % npts
        tris.append((i, j, npts + j))
        tris.append((i, npts + j, npts + i))
    return TriMesh(verts, np.array(tris, dtype=np.int64))


def _fan(n):
    return [(0, i, i + 1) for i in range(1, n - 1)]


def box_mesh(size=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned box spanning ``origin`` to ``origin + size`` (12 triangles)."""
    sx, sy, sz = (_positive("size", v) for v in size)
    ox, oy, oz = (float(v) for v in origin)
    square = [(ox, oy), (ox + sx, oy), (ox + sx, oy + sy), (ox, oy + sy)]
    return _extrude_polygon(square, sz, _fan(4), z0=oz)


def cylinder_mesh(radius=1.0, height=1.0, segments=48) -> TriMesh:
    """Regular prism approximating a cylinder along z, base at z = -height/2."""
    radius, height = _positive("radius", radius), _positive("height", height)
    segments = _count("segments", segments, 3)
    ang = 2.0 * np.pi * np.arange(segments) / segments
    ring = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    return _extrude_polygon(ring, height, _fan(segments), z0=-0.5 * height)


def l_prism_mesh(outer=(2.0, 2.0), notch=(1.0, 1.0), height=1.0) -> TriMesh:
    """L-shaped prism: the ``outer`` rectangle with a ``notch`` rectangle
    removed from its (+x, +y) corner, extruded along z from z = 0."""
    W, D = (float(v) for v in outer)
    w, d = (float(v) for v in notch)
    if not (0.0 < w < W and 0.0 < d < D):
        raise ValueError("notch must be strictly smaller than the outer rectangle")
    # counterclockwise, with a collinear vertex at (0, D-d) so the left wall
    # splits compatibly with the cap triangulation (no T-junctions)
    loop = [
        (0.0, 0.0), (W, 0.0), (W, D - d), (W - w, D - d),
        (W - w, D), (0.0, D), (0.0, D - d),
    ]
    caps = [(0, 1, 2), (0, 2, 3), (0, 3, 6), (6, 3, 4), (6, 4, 5)]
    return _extrude_polygon(loop, height, caps)


def icosphere_mesh(radius=1.0, subdivisions=3) -> TriMesh:
    """Geodesic sphere: subdivided icosahedron projected onto the sphere."""
    radius = _positive("radius", radius)
    subdivisions = _count("subdivisions", subdivisions)
    g = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
            (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
            (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1),
        ],
        dtype=float,
    )
    tris = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        midpoint: dict = {}
        new_tris = []

        def mid(i, j):
            key = (min(i, j), max(i, j))
            idx = midpoint.get(key)
            if idx is None:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                idx = len(verts) - 1
                midpoint[key] = idx
            return idx

        for a, b, c in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_tris += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        tris = new_tris
    return TriMesh(radius * np.array(verts), np.array(tris, dtype=np.int64))


# ---------------------------------------------------------------------------
# ASCII interchange


def load_mesh(path) -> TriMesh:
    """Read the ``v x y z`` / ``f i j k`` ASCII subset (1-based indices,
    triangles only; ``#`` comments and blank lines are skipped).

    Raises :class:`MeshFormatError` whose message starts with the path and
    names the offending line, a byte outside ASCII included.  The mesh is
    validated on construction: :class:`NotWatertight` or ``ValueError``,
    their messages prefixed with the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        ln = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise MeshFormatError(
            f"{path}: line {ln}: byte {data[exc.start]:#04x} is not ASCII", line=ln
        ) from None
    # universal newlines, as text-mode reading gives them
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    arrays = _read_plain(text)
    if arrays is None:
        arrays = _read_lines(path, text)
    try:
        return TriMesh(*arrays)
    except (NotWatertight, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_plain(text):
    """Vertex and triangle arrays of a file laid out as :func:`save_mesh`
    writes it, converted in one pass; None for any other file, which
    :func:`_read_lines` then reads and diagnoses.

    Plain means: every line starts with ``v `` or ``f `` and has four
    fields, vertex lines come first, every number converts, and every
    index lies in 1..vertices.  Four fields per line follows from every
    line starting with a record letter, four tokens per line, every fourth
    token being a record letter and no number being one."""
    tokens = text.split()
    lines = text.count("\n") + (not text.endswith("\n"))
    starts = text.count("\nv ") + text.count("\nf ") + text.startswith(("v ", "f "))
    heads = tokens[::4]
    nv = heads.count("v")
    if not (len(tokens) == 4 * lines == 4 * starts and heads[nv:].count("f") == lines - nv):
        return None
    coords, indices = tokens[: 4 * nv], tokens[4 * nv:]
    del coords[::4], indices[::4]
    try:
        coords = list(map(float, coords))
        indices = list(map(int, indices))
    except ValueError:
        return None
    if indices and (min(indices) < 1 or max(indices) > nv):
        return None
    return (np.array(coords, dtype=float).reshape(-1, 3),
            np.array(indices, dtype=np.int64).reshape(-1, 3) - 1)


def _read_lines(path, text):
    """Vertex and triangle arrays of ``text``, read line by line; raises
    :class:`MeshFormatError` at the first bad line."""

    def malformed(ln, what):
        return MeshFormatError(f"{path}: line {ln}: {what}", line=ln)

    verts = []
    tris = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "v":
            if len(fields) != 4:
                raise malformed(ln, "vertex needs 3 coordinates")
            try:
                verts.append([float(v) for v in fields[1:]])
            except ValueError:
                raise malformed(ln, "bad vertex coordinate")
        elif fields[0] == "f":
            if len(fields) != 4:
                raise malformed(ln, "faces must be triangles")
            try:
                idx = [int(v) for v in fields[1:]]
            except ValueError:
                raise malformed(ln, "bad face index")
            if min(idx) < 1:
                raise malformed(ln, "face indices are 1-based")
            tris.append([i - 1 for i in idx])
        else:
            raise malformed(ln, f"unknown record '{fields[0]}'")
    if tris and max(max(t) for t in tris) >= len(verts):
        raise MeshFormatError(f"{path}: face index past the last vertex")
    return (np.array(verts, dtype=float).reshape(-1, 3),
            np.array(tris, dtype=np.int64).reshape(-1, 3))


def save_mesh(mesh: TriMesh, path) -> None:
    """Write the ASCII interchange format with shortest round-trip decimals
    (``repr`` of each coordinate), vertex lines first, in one write.

    The bytes are those of formatting every row afresh.  The vertex rows
    of a mesh come from its row cache (see :meth:`TriMesh._rows`).  A
    liquid body takes the rows of the container vertices it keeps from the
    container's cache, so each is formatted once however many bodies keep
    it, and formats only its crossing nodes and cap centroids; its face
    rows are its cut's (:class:`_Body`), formatted once per topology.  The
    face rows of any other mesh are one ``%`` format over the flattened
    1-based indices."""
    if mesh._source is None:
        rows, faces = mesh._rows(np.arange(len(mesh.vertices))), _face_lines(mesh.triangles)
    else:
        container, body = mesh._source
        rows, faces = container._rows(body.kept), body.faces
        rows += _vertex_lines(mesh.vertices[len(body.kept):])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(rows) + faces)


def _vertex_lines(vertices) -> list:
    """The ``v x y z`` row of each of the (n, 3) ``vertices``."""
    return [f"v {x!r} {y!r} {z!r}\n" for x, y, z in vertices.tolist()]


def _face_lines(triangles) -> str:
    """The ``f i j k`` rows of the (t, 3) ``triangles``, 1-based."""
    return ("f %d %d %d\n" * len(triangles)) % tuple((triangles + 1).ravel().tolist())
