"""Independent oracles for the test suite.

Everything here re-derives expected values by brute force (dense sampling,
exhaustive scanning, Monte Carlo, bisection, finite differences) without
going through the code paths under test.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from labmech import (
    ClipResult, LiquidPlane, MeshFormatError, OpenCutLoop, clip_volume, lagrangian, mesh_volume,
    ode_rhs,
)
from labmech.mesh import ONPLANE_SNAP_FRACTION
from labmech.pendulum import _renormalize

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# helix: dense sampling of the curve


def helix_samples(r1, p, t_lo, t_hi, n):
    t = np.linspace(t_lo, t_hi, n)
    return np.stack([r1 * np.cos(t), r1 * np.sin(t), p * t], axis=-1)


def dense_min_distance(spec, points, samples=1_000_000):
    """Minimum distance from each point to the sampled bounded helix, plus
    the largest chord gap between consecutive samples (the oracle's own
    resolution).  Exact nearest-neighbor over the sample set."""
    curve = helix_samples(spec.r1, spec.p, TWO_PI * spec.l, TWO_PI * spec.h, samples)
    gap = float(np.linalg.norm(np.diff(curve, axis=0), axis=-1).max())
    dists, _ = cKDTree(curve).query(np.atleast_2d(points))
    return dists, gap


def dense_min_refined(spec, point, coarse=200_000, rounds=6):
    """Dense-sampling minimum sharpened by re-sampling around the argmin;
    resolves the distance to ~1e-12 of arc for gradient oracles."""
    lo, hi = TWO_PI * spec.l, TWO_PI * spec.h
    best_t = None
    for _ in range(rounds):
        t = np.linspace(lo, hi, coarse)
        curve = np.stack([spec.r1 * np.cos(t), spec.r1 * np.sin(t), spec.p * t], axis=-1)
        d = np.linalg.norm(curve - np.asarray(point), axis=-1)
        i = int(np.argmin(d))
        best_t = t[i]
        width = (hi - lo) / (coarse - 1)
        lo = max(TWO_PI * spec.l, best_t - 2 * width)
        hi = min(TWO_PI * spec.h, best_t + 2 * width)
    p = np.asarray(point)
    return float(
        np.linalg.norm(
            [spec.r1 * math.cos(best_t) - p[0],
             spec.r1 * math.sin(best_t) - p[1],
             spec.p * best_t - p[2]]
        )
    )


def curve_to_curve_distance(spec_a, spec_b, pose_b=None, samples=20_000):
    """Minimum centerline-to-centerline distance between two helices, with
    the second mapped through ``pose_b`` (4x4)."""
    a = helix_samples(spec_a.r1, spec_a.p, TWO_PI * spec_a.l, TWO_PI * spec_a.h, samples)
    b = helix_samples(spec_b.r1, spec_b.p, TWO_PI * spec_b.l, TWO_PI * spec_b.h, samples)
    if pose_b is not None:
        pose_b = np.asarray(pose_b, dtype=float)
        b = b @ pose_b[:3, :3].T + pose_b[:3, 3]
    d, _ = cKDTree(a).query(b)
    return float(d.min())


def engagement_probes(nut, pose, step_deg, wire_directions):
    """The nut's engagement probes mapped through ``pose`` (4x4): centerline
    samples every ``step_deg`` degrees from the start of the window up to
    half a step past its end, then the wire surface around each sample in
    ``wire_directions`` evenly spaced directions of the normal plane.

    The normal plane is spanned by the radial unit vector and the binormal,
    written out in closed form: tangent x radial is
    ``(-p sin t, p cos t, -r1) / sqrt(r1^2 + p^2)``."""
    step = math.radians(step_deg)
    t_lo, t_hi = TWO_PI * nut.l, TWO_PI * nut.h
    count = math.ceil((t_hi - t_lo) / step + 0.5)
    t = t_lo + step * np.arange(count)
    c, s = np.cos(t), np.sin(t)
    center = np.stack([nut.r1 * c, nut.r1 * s, nut.p * t], axis=-1)
    radial = np.stack([c, s, np.zeros_like(t)], axis=-1)
    binormal = np.stack([-nut.p * s, nut.p * c, np.full_like(t, -nut.r1)], axis=-1)
    binormal /= math.hypot(nut.r1, nut.p)
    surface = [
        center + nut.r2 * (math.cos(psi) * radial + math.sin(psi) * binormal)
        for psi in (TWO_PI * j / wire_directions for j in range(wire_directions))
    ]
    local = np.concatenate([center, *surface])
    homogeneous = np.column_stack([local, np.ones(len(local))])
    return (homogeneous @ np.asarray(pose, dtype=float).T)[:, :3]


def brute_bounded_case(spec, point):
    """Case label and distance of the bounded field by exhaustive scanning.

    The window's first and last aligned turn indices come from direct
    inequality scans (no ceil/floor identities), the aligned argmin from
    evaluating actual distances over a scan window, and the case from
    comparing that argmin against the window indices.
    """
    x, y, z = point
    t0 = math.atan2(y, x) if (x, y) != (0.0, 0.0) else 0.0

    def dist(t):
        return math.sqrt(
            (spec.r1 * math.cos(t) - x) ** 2
            + (spec.r1 * math.sin(t) - y) ** 2
            + (spec.p * t - z) ** 2
        )

    # first aligned index inside the window, by scanning the inequality
    k_guess = int(math.floor(spec.l - t0 / TWO_PI)) - 3
    while not (TWO_PI * spec.l <= TWO_PI * k_guess + t0):
        k_guess += 1
    lo = k_guess
    k_guess = int(math.ceil(spec.h - t0 / TWO_PI)) + 3
    while not (TWO_PI * k_guess + t0 <= TWO_PI * spec.h):
        k_guess -= 1
    hi = k_guess

    # unconstrained aligned argmin by direct evaluation around the vertex
    vertex = (z - t0 * spec.p) / (TWO_PI * spec.p)
    ks = range(int(math.floor(vertex)) - 3, int(math.ceil(vertex)) + 4)
    k_best = min(ks, key=lambda k: dist(TWO_PI * k + t0))

    if lo <= k_best <= hi:
        return "interior", dist(TWO_PI * k_best + t0)
    if k_best < lo:
        return "low", min(dist(TWO_PI * spec.l), dist(TWO_PI * lo + t0))
    return "high", min(dist(TWO_PI * spec.h), dist(TWO_PI * hi + t0))


def analytic_case(spec, point):
    """Case label reproduced from the field's published index arithmetic."""
    x, y, _ = point
    t0 = math.atan2(y, x) if (x, y) != (0.0, 0.0) else 0.0
    k = np.round((point[2] - t0 * spec.p) / (TWO_PI * spec.p))
    lo = math.ceil(spec.l - t0 / TWO_PI)
    hi = math.floor(spec.h - t0 / TWO_PI)
    if lo <= k <= hi:
        return "interior"
    return "low" if k < lo else "high"


# ---------------------------------------------------------------------------
# pendulum: Euler-Lagrange residual from finite differences of the Lagrangian


def el_residual(params, state, accel, h_first=1e-6, h_second=1e-4):
    """Residual of d/dt(dL/dqdot) - dL/dq - Q with the accelerations taken
    from the rate equations under test.

    First partials use the step ``h_first``; the nested differences in the
    momentum's total time derivative use the balanced step ``h_second``
    (nesting 1e-6 steps would drown the residual in roundoff).
    """
    from labmech import PendulumState

    def L(phi, theta, phidot, thetadot):
        return lagrangian(params, PendulumState(phi, theta, phidot, thetadot), accel)

    s = (state.phi, state.theta, state.phidot, state.thetadot)

    def partial(fn, idx, step, at):
        up = list(at)
        dn = list(at)
        up[idx] += step
        dn[idx] -= step
        return (fn(*up) - fn(*dn)) / (2.0 * step)

    dL_dphi = partial(L, 0, h_first, s)
    dL_dtheta = partial(L, 1, h_first, s)

    _, _, ddphi, ddtheta = ode_rhs(params, state, accel)
    rates = (state.phidot, state.thetadot, ddphi, ddtheta)

    residuals = []
    for rate_idx, dL_dq, q_damping in (
        (2, dL_dphi, params.damping_phi * state.phidot),
        (3, dL_dtheta, params.damping_theta * state.thetadot),
    ):
        def momentum(*coords, _idx=rate_idx):
            return partial(L, _idx, h_second, coords)

        total = sum(
            partial(momentum, j, h_second, s) * rates[j] for j in range(4)
        )
        residuals.append(abs(total - dL_dq + q_damping))
    return max(residuals)


def pendulum_energy(params, state, accel):
    """Kinetic plus potential energy (conserved when damping is zero and the
    forcing is constant)."""
    gx, gy, gz = accel
    m, l = params.mass, params.length
    st = math.sin(state.theta)
    kinetic = 0.5 * m * l * l * (state.phidot**2 * st * st + state.thetadot**2)
    potential = -m * l * (
        gx * st * math.cos(state.phi)
        + gy * math.sin(state.phi) * st
        - gz * math.cos(state.theta)
    )
    return kinetic + potential


# ---------------------------------------------------------------------------
# pendulum: the RK4 kernel as it read before its constants were built once per
# forcing; labmech's _rhs and _step promise these bytes


def pendulum_rhs_reference(params, state, accel):
    """:func:`ode_rhs` by the reference kernel below."""
    gx, gy, gz = (float(a) for a in accel)
    return _rhs_reference(
        params.mass, params.length, params.damping_phi, params.damping_theta, params.epsilon,
        state.phi, state.theta, state.phidot, state.thetadot, gx, gy, gz,
    )


def pendulum_step_reference(params, state, accel, dt):
    """The raw state tuple after one RK4 step of the reference kernel below
    (renormalized by labmech's own ``_renormalize``), without the finite
    check ``step_pendulum`` adds; ArithmeticError or ValueError where the
    arithmetic fails."""
    gx, gy, gz = (float(a) for a in accel)
    y = (state.phi, state.theta, state.phidot, state.thetadot)
    return _step_reference(
        params.mass, params.length, params.damping_phi, params.damping_theta, params.epsilon,
        y, gx, gy, gz, float(dt),
    )


def _rhs_reference(m, l, lam_phi, lam_theta, eps, phi, theta, phidot, thetadot, gx, gy, gz):
    st = math.sin(theta)
    ct = math.cos(theta)
    sp = math.sin(phi)
    cp = math.cos(phi)
    ml2 = m * l * l
    dphidot = (
        -2.0 * ml2 * phidot * thetadot * st * ct
        + m * l * (-gx * sp + gy * cp) * st
        - lam_phi * phidot
    ) / (ml2 * max(st * st, eps))
    dthetadot = (
        ml2 * phidot * phidot * st * ct
        + m * l * (gx * cp * ct + gy * sp * ct + gz * st)
        - lam_theta * thetadot
    ) / ml2
    return phidot, thetadot, dphidot, dthetadot


def _step_reference(m, l, lam_phi, lam_theta, eps, y, gx, gy, gz, dt):
    """One RK4 step on the raw state tuple with constant forcing."""
    p0, t0, pd0, td0 = y
    a1, b1, c1, d1 = _rhs_reference(m, l, lam_phi, lam_theta, eps, p0, t0, pd0, td0, gx, gy, gz)
    h = 0.5 * dt
    a2, b2, c2, d2 = _rhs_reference(
        m, l, lam_phi, lam_theta, eps,
        p0 + h * a1, t0 + h * b1, pd0 + h * c1, td0 + h * d1, gx, gy, gz,
    )
    a3, b3, c3, d3 = _rhs_reference(
        m, l, lam_phi, lam_theta, eps,
        p0 + h * a2, t0 + h * b2, pd0 + h * c2, td0 + h * d2, gx, gy, gz,
    )
    a4, b4, c4, d4 = _rhs_reference(
        m, l, lam_phi, lam_theta, eps,
        p0 + dt * a3, t0 + dt * b3, pd0 + dt * c3, td0 + dt * d3, gx, gy, gz,
    )
    sixth = dt / 6.0
    return _renormalize(
        p0 + sixth * (a1 + 2.0 * (a2 + a3) + a4),
        t0 + sixth * (b1 + 2.0 * (b2 + b3) + b4),
        pd0 + sixth * (c1 + 2.0 * (c2 + c3) + c4),
        td0 + sixth * (d1 + 2.0 * (d2 + d3) + d4),
    )


# ---------------------------------------------------------------------------
# trajectory: the sample index from the timestamps themselves


def sample_index_reference(times, t):
    """:meth:`FrameTrajectory.index_at` by the numpy-scalar formula: the
    spacing ``times[1] - times[0]`` and the offset from ``times[0]`` taken
    from the array on every call."""
    if len(times) == 1:
        return 0
    dt = times[1] - times[0]
    i = int(math.floor((t - times[0]) / dt + 1e-12))
    return min(max(i, 0), len(times) - 1)


# ---------------------------------------------------------------------------
# volumes: Monte Carlo rejection sampling and bisection-only height search


def mc_clip_volume(inside_mask, points, bbox_volume, normal, origin):
    """Monte-Carlo clipped volume from precomputed interior membership.

    Returns the estimate and its standard error.
    """
    below = (points - origin) @ np.asarray(normal, dtype=float) <= 0.0
    hit = inside_mask & below
    p = hit.mean()
    estimate = bbox_volume * p
    sigma = bbox_volume * math.sqrt(p * (1.0 - p) / len(points))
    return estimate, sigma


def bisect_height(mesh, normal, target, tol=1e-12, max_iter=200):
    """Bisection-only volume-conservation solve (the reference for the
    Newton-Bisect path)."""
    n = np.asarray(normal, dtype=float)
    support = (mesh.vertices - mesh.bbox_center) @ n
    lo, hi = float(support.min()), float(support.max())
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if clip_volume(mesh, LiquidPlane(n, mid)).volume < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def exact_chord_area(starts, ends, normal):
    """Green's sum 0.5 * normal . sum(end x start) over directed chords (the
    cap runs each chord backwards), in exact rational arithmetic on the
    float inputs, rounded once at the end."""
    n = [Fraction(x) for x in normal]
    total = Fraction(0)
    for u, w in zip(starts, ends):
        u = [Fraction(x) for x in u]
        w = [Fraction(x) for x in w]
        cross = (w[1] * u[2] - w[2] * u[1], w[2] * u[0] - w[0] * u[2], w[0] * u[1] - w[1] * u[0])
        total += sum(a * b for a, b in zip(n, cross))
    return float(total / 2)


def clip_sums_reference(mesh, plane):
    """The :class:`ClipResult` of ``mesh`` under ``plane`` summed over the
    full node array of :func:`clip_walk` by the strict side rule, without
    the band-local gather: each band piece gathered as a (4, m, 3) row
    block and transposed to (4, 3, m) components, the row-wise cross
    product stacked by ``np.array``, and the chords gathered and referenced
    to the first chord's first node the same way; the whole triangles' flux
    is the mesh's per-triangle terms summed over the walk's whole flags.
    ``clip_volume`` promises these bytes: the same IEEE operations on the
    same operands in the same order.  A plane with no vertex strictly below
    it holds nothing, and a plane past every vertex, whose every triangle
    is whole, holds the container's ``mesh_volume`` exactly."""

    def cross(a, b):
        return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                         a[0] * b[1] - a[1] * b[0]])

    table = clip_walk(mesh, plane, snap=False)
    empty, full = not (table["heights"] < 0.0).any(), not (table["heights"] > 0.0).any()
    if empty:
        return ClipResult(volume=0.0, cut_area=0.0, empty=True, full=full)
    nodes, pieces = table["nodes"], table["pieces"].T
    if full and not pieces.size:
        return ClipResult(volume=mesh_volume(mesh), cut_area=0.0, empty=False, full=True)
    origin = mesh.bbox_center + plane.height * plane.normal
    whole = mesh._whole_flux @ table["whole"].astype(float)
    six_volume = whole[0] - plane.height * (plane.normal @ whole[1:])
    a, b, c, d = (nodes.take(pieces, axis=0) - origin).transpose(0, 2, 1)
    six_volume += (a * cross(c, d - b)).sum()
    ends = nodes.take(table["chords"].T, axis=0)
    u, w = (ends - ends[0, :1]).transpose(0, 2, 1)
    area = 0.5 * (plane.normal @ cross(w, u)).sum()
    return ClipResult(volume=max(float(six_volume) / 6.0, 0.0), cut_area=max(float(area), 0.0),
                      empty=False, full=full)


def walk_triangle(signs, corners, crossings):
    """Below-side piece and cut chords of one triangle, by walking its
    boundary: corner 0, edge 0-1, corner 1, edge 1-2, corner 2, edge 2-0.

    ``signs`` are the corners' -1, 0 or +1 (below, on, above the plane),
    ``corners`` their node ids and ``crossings[k]`` the node id on edge k
    (corner k to corner k + 1), used only where that edge's corners lie
    strictly on opposite sides.  A corner is kept when it is not above,
    an edge when it crosses; a step of the closed walk whose two distinct
    nodes both lie on the plane (an on-plane corner or a crossing node) is
    a chord.  Returns the kept node ids and the chords as (from, to).
    """
    walk, on_plane = [], []
    for k in range(3):
        if signs[k] <= 0:
            walk.append(corners[k])
            on_plane.append(signs[k] == 0)
        if signs[k] * signs[(k + 1) % 3] < 0:
            walk.append(crossings[k])
            on_plane.append(True)
    chords = []
    for i in range(len(walk)):
        j = (i + 1) % len(walk)
        if on_plane[i] and on_plane[j] and walk[i] != walk[j]:
            chords.append((walk[i], walk[j]))
    return walk, chords


def chain_loops_walk(chords):
    """Cut chords chained into closed loops by walking them through dicts,
    in chord order: the reference for ``mesh._chain_loops``.

    Opposite chords cancel as they meet, a chord repeated in the same
    direction is a duplicate, each standing chord (u, w) links w back to u,
    and loops start at the first unvisited end node.  Returns the loops as
    lists of node ids; raises :class:`OpenCutLoop` for a duplicate, a
    branch or a boundary that does not close."""
    counted = {}
    for u, w in chords:
        if counted.pop((w, u), None) is not None:
            continue
        if (u, w) in counted:
            raise OpenCutLoop(f"duplicate cut chord at {u}")
        counted[(u, w)] = True
    succ = {}
    for u, w in counted:
        if w in succ:
            raise OpenCutLoop(f"cut boundary branches at node {w}")
        succ[w] = u  # reversed traversal
    loops = []
    visited = set()
    for start in succ:
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        cur = succ[start]
        while cur != start:
            if cur in visited or cur not in succ:
                raise OpenCutLoop("cut boundary failed to close into a loop")
            visited.add(cur)
            loop.append(cur)
            cur = succ[cur]
        loops.append(loop)
    return loops


def clip_walk(mesh, plane, snap=True):
    """The clip table of ``mesh`` under ``plane``, walking the band triangles
    one at a time in plain Python: vertex heights, node coordinates,
    whole-triangle flags, band pieces and cut chords, numbered as
    ``mesh._Cut`` documents.  Pieces and chords are listed one per row,
    (m, 4) and (c, 2).

    The side rule is a liquid body's with ``snap`` (heights within
    ``ONPLANE_SNAP_FRACTION * bbox_diag`` of the plane are zero), and the
    strict sign of each height, as ``clip_volume`` takes it, without.  The
    heights are the one numpy projection ``(vertices - bbox_center) @
    normal - height`` that the code under test computes too (a
    plain-Python sum rounds differently from the BLAS kernel); the snap,
    the crossing-edge numbering (edges ordered by their (lower, higher)
    vertex ids), the node interpolation from the lower vertex id and the
    walks are recomputed here.
    """
    heights = ((mesh.vertices - mesh.bbox_center) @ plane.normal - plane.height).tolist()
    if snap:
        band = ONPLANE_SNAP_FRACTION * mesh.bbox_diag
        heights = [0.0 if abs(s) <= band else s for s in heights]
    signs = [(s > 0.0) - (s < 0.0) for s in heights]
    # a triangle is whole when every corner is below, and in the band when
    # some are: only band triangles have pieces, chords or crossing edges
    below = np.array(signs)[mesh.triangles] < 0
    whole = below.all(axis=1)
    triangles = mesh.triangles[below.any(axis=1) & ~whole].tolist()

    crossing = set()
    for tri in triangles:
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            if signs[a] * signs[b] < 0:
                crossing.add((min(a, b), max(a, b)))
    vertices = mesh.vertices.tolist()
    node_of, nodes = {}, list(vertices)
    for lo, hi in sorted(crossing):
        node_of[lo, hi] = len(nodes)
        t = heights[lo] / (heights[lo] - heights[hi])
        nodes.append([p + t * (q - p) for p, q in zip(vertices[lo], vertices[hi])])

    pieces, chords = [], []
    for tri in triangles:
        edges = [(min(tri[k], tri[(k + 1) % 3]), max(tri[k], tri[(k + 1) % 3])) for k in range(3)]
        walk, steps = walk_triangle([signs[v] for v in tri], tri, [node_of.get(e) for e in edges])
        pieces.append(walk + walk[-1:] * (4 - len(walk)))
        chords += steps
    return {
        "heights": np.array(heights),
        "nodes": np.array(nodes).reshape(-1, 3),
        "whole": whole,
        "pieces": np.array(pieces, dtype=np.int64).reshape(-1, 4),
        "chords": np.array(chords, dtype=np.int64).reshape(-1, 2),
    }


def cap_centroids(mesh, plane):
    """The area centroid of each cut loop of three or more nodes, in loop
    order, from :func:`clip_walk` and :func:`chain_loops_walk`: the doubled
    fan areas about the loop's first node by ``np.cross``, times the
    normal, and the area-weighted mean of the fan triangles' centers."""
    table = clip_walk(mesh, plane)
    centroids = []
    for loop in chain_loops_walk(map(tuple, table["chords"].tolist())):
        if len(loop) < 3:
            continue
        coords = table["nodes"][loop]
        ref = coords[0]
        doubled = np.cross(coords[1:-1] - ref, coords[2:] - ref) @ plane.normal
        centers = (ref + coords[1:-1] + coords[2:]) / 3.0
        centroids.append((doubled[:, None] * centers).sum(axis=0) / doubled.sum())
    return np.array(centroids).reshape(-1, 3)


def inside_box(points, origin, size):
    o = np.asarray(origin, dtype=float)
    s = np.asarray(size, dtype=float)
    return ((points >= o) & (points <= o + s)).all(axis=1)


def inside_ngon_prism(points, radius, height, segments):
    """Membership in the regular-polygon prism that cylinder_mesh builds
    (centered on z, base at -height/2).  Streams over edges to stay within
    memory for large samples."""
    ang = TWO_PI * np.arange(segments) / segments
    ring = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    nxt = np.roll(ring, -1, axis=0)
    inside = np.abs(points[:, 2]) <= 0.5 * height
    x, y = points[:, 0], points[:, 1]
    # inside a convex CCW polygon: left of every edge
    for (x0, y0), (x1, y1) in zip(ring, nxt):
        inside &= (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) >= 0.0
    return inside


def inside_l_prism(points, outer, notch, height):
    W, D = outer
    w, d = notch
    base = inside_box(points, (0, 0, 0), (W, D, height))
    cut = inside_box(points, (W - w, D - d, 0), (w, d, height))
    return base & ~cut


# ---------------------------------------------------------------------------
# mesh interchange: a line-by-line reader and a row-by-row writer


def read_mesh_lines(path):
    """(vertices, triangles) of an ASCII mesh file, read in text mode one
    line at a time, with one float() or int() per field; raises
    MeshFormatError naming the path and the line.  The arrays are not
    validated as a mesh."""

    def malformed(ln, what):
        return MeshFormatError(f"{path}: line {ln}: {what}", line=ln)

    verts = []
    tris = []
    with open(path, "r", encoding="ascii") as fh:
        for ln, raw in enumerate(fh, start=1):
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


def write_mesh_rows(mesh, path):
    """The ASCII interchange format written one row at a time, each
    coordinate converted to a Python float and printed with repr."""
    with open(path, "w", encoding="ascii") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")
