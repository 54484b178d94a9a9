"""Property tests of the clipping core and the height solve built on it:
the clip table equals a plain-Python boundary walk bit for bit, in each of
the 27 sign cases of a triangle too, and on planes clipped in turn, whose
cut topology is reused exactly while no vertex changes side; clip_volume's
sums from the band-local gather equal the full-node-array reference bit
for bit on cold, repeated and walked clips, at the ends of the support,
along a rollout and at the edges of the side rule, on a mesh far from the
origin too; the volume path classifies vertices by the strict sign of
their support less the height and a liquid body's cut by the snap band;
clips between two consecutive support values share one cut, and their
volumes one cubic; the cut chords chain into the loops of a dict walk;
the liquid body agrees with clip_volume, is watertight, saves the bytes
of a row-by-row writer, has the edge table of a public TriMesh, clips and
caps again as one and caps with the centroids of an np.cross fan; the cut
area is the volume derivative; the height solve meets its
budget and agrees with bisection.

Planes are drawn free across the support interval or snapped through a
mesh vertex or a mesh edge, the places where classification is exact.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from labmech import (
    FrameTrajectory,
    LiquidPlane,
    NonStarShapedCutLoop,
    OpenCutLoop,
    PendulumParams,
    SceneConfig,
    TriMesh,
    box_mesh,
    clip_volume,
    cylinder_mesh,
    icosphere_mesh,
    l_prism_mesh,
    liquid_geometry,
    load_mesh,
    mesh_volume,
    run_liquid_scene,
    save_mesh,
    unit_vector,
)
from labmech.mesh import (
    _BAND,
    _CHORD,
    _CUT,
    _SLOTS,
    ONPLANE_SNAP_FRACTION,
    _chain_loops,
    _clip_table,
    _gather,
    height_search,
)

FIXTURES = {
    "cube": box_mesh(),
    "cylinder-48": cylinder_mesh(segments=48),
    "l-prism": l_prism_mesh(),
    "icosphere-3": icosphere_mesh(subdivisions=3),
    "icosphere-4": icosphere_mesh(subdivisions=4),
}

# icosphere-4 far from the origin, where the rounding of the plane point
# exceeds the snap band
FAR = TriMesh(FIXTURES["icosphere-4"].vertices + [3e6, -5e6, 2e6],
              FIXTURES["icosphere-4"].triangles)
SIDE_MESHES = {**FIXTURES, "icosphere-4-far": FAR}

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

directions = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
)


@st.composite
def planes(draw, names=tuple(sorted(FIXTURES))):
    """(fixture name, unit normal, height) with the plane free, through a
    vertex, or containing an edge."""
    name = draw(st.sampled_from(names))
    mesh = SIDE_MESHES[name]
    normal = draw(directions)
    kind = draw(st.sampled_from(["free", "vertex", "edge"]))
    tri = mesh.triangles[draw(st.integers(0, len(mesh) - 1))]
    corner = draw(st.integers(0, 2))
    p = mesh.vertices[tri[corner]]
    if kind == "edge":
        d = mesh.vertices[tri[(corner + 1) % 3]] - p
        normal = normal - (normal @ d) / (d @ d) * d
        assume(np.linalg.norm(normal) > 0.1)
    normal = unit_vector(normal)
    if kind == "free":
        support = (mesh.vertices - mesh.bbox_center) @ normal
        height = support.min() + draw(st.floats(0.0, 1.0)) * np.ptp(support)
    else:
        height = float((p - mesh.bbox_center) @ normal)
    return name, normal, height


def assert_bitwise(got, expected, what):
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape), what
    assert got.tobytes() == expected.tobytes(), what


def assert_same_clip(got, expected):
    assert np.array([got.volume, got.cut_area]).tobytes() == np.array(
        [expected.volume, expected.cut_area]).tobytes()
    assert (got.empty, got.full) == (expected.empty, expected.full)


def table_fields(mesh, clip):
    """A ``_clip_table`` result of ``mesh`` by field, with pieces and chords
    in the layout of ``oracles.clip_walk``: the cut keeps one per column,
    the walk one per row.  ``whole_flux`` is the lazy sum of the cut's
    gather, built here if no clip has built it."""
    cut, heights, nodes = clip
    return {"heights": heights, "nodes": nodes, "whole": cut.whole,
            "pieces": cut.pieces.T, "chords": cut.chords.T,
            "whole_flux": (cut.gather or _gather(mesh, cut)).whole_flux,
            "empty": cut.empty, "full": cut.full}


def assert_table_is_walk(mesh, clip, walk):
    got = table_fields(mesh, clip)
    for field, expected in walk.items():
        assert_bitwise(got[field], expected, field)


def strict_heights(mesh, plane):
    """The vertex heights, unsnapped, whose strict signs give clip_volume's
    vertex sides: the support projection less the plane's height."""
    return (mesh.vertices - mesh.bbox_center) @ plane.normal - plane.height


def strict_sides(heights):
    return (heights >= 0.0).view(np.int8) + (heights > 0.0).view(np.int8)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_clip_table_matches_walk(name, data):
    _, normal, height = data.draw(planes((name,)))
    plane = LiquidPlane(normal, height)
    mesh = FIXTURES[name]
    assert_table_is_walk(mesh, _clip_table(mesh, plane), oracles.clip_walk(mesh, plane))


SIGN_CASES = list(itertools.product((-1, 0, 1), repeat=3))


@pytest.mark.parametrize("signs", SIGN_CASES)
def test_case_table_is_the_walk(signs):
    case = 9 * (signs[0] + 1) + 3 * (signs[1] + 1) + (signs[2] + 1)
    corners, crossings = [10, 11, 12], [20, 21, 22]
    below = [s < 0 for s in signs]
    assert _BAND[case] == (any(below) and not all(below))
    assert _CUT[case].tolist() == [signs[k] * signs[(k + 1) % 3] < 0 for k in range(3)]
    if not _BAND[case]:
        return
    walk, chords = oracles.walk_triangle(signs, corners, crossings)
    six = np.array(corners + crossings)
    assert six[_SLOTS[case, :4]].tolist() == walk + walk[-1:] * (4 - len(walk))
    assert ([tuple(six[_SLOTS[case, 4:]].tolist())] if _CHORD[case] else []) == chords


@pytest.mark.parametrize("signs", SIGN_CASES)
def test_every_sign_case_on_a_mesh(signs):
    # a plane that puts the corners of the cube's triangle 0 a quarter below,
    # on or a quarter above it, tilted out of the face so that it is a plane
    # even when every corner lies on it
    mesh = FIXTURES["cube"]
    corners = mesh.vertices[mesh.triangles[0]]
    face = np.cross(corners[1] - corners[0], corners[2] - corners[0])
    system = np.block([[corners, np.ones((3, 1))], [face, 0.0]])
    gradient, offset = np.split(np.linalg.solve(system, [*(0.25 * np.array(signs)), 1.0]), [3])
    normal = unit_vector(gradient)
    height = -float(offset[0]) / np.linalg.norm(gradient) - float(normal @ mesh.bbox_center)
    plane = LiquidPlane(normal, height)
    table = _clip_table(mesh, plane)
    _, heights, _ = table
    assert np.sign(heights[mesh.triangles[0]]).tolist() == list(signs)
    assert_table_is_walk(mesh, table, oracles.clip_walk(mesh, plane))


@st.composite
def plane_walks(draw, name):
    """Planes clipped in turn on one fixture: a start, a nudge, then up to
    four moves, each a nudge (the height moved by 1e-12 diag, which keeps
    every vertex on its side), a step that puts a drawn vertex just below,
    on or just above the plane (two snap bands off), a jump to an
    unrelated plane or a return to a plane visited before the current
    one."""
    mesh = SIDE_MESHES[name]
    walk = [draw(planes((name,)))[1:]]
    kinds = st.sampled_from(["nudge", "vertex", "jump", "return"])
    moves = ["nudge"] + draw(st.lists(kinds, max_size=4))
    for move in moves:
        normal, height = walk[-1]
        if move == "nudge":
            walk.append((normal, height + draw(st.sampled_from([1e-12, -1e-12])) * mesh.bbox_diag))
        elif move == "vertex":
            vertex = mesh.vertices[draw(st.integers(0, len(mesh.vertices) - 1))]
            bands = draw(st.sampled_from([2.0, 0.0, -2.0]))
            offset = bands * ONPLANE_SNAP_FRACTION * mesh.bbox_diag
            walk.append((normal, float((vertex - mesh.bbox_center) @ normal) + offset))
        elif move == "jump":
            walk.append(draw(planes((name,)))[1:])
        else:
            walk.append(walk[draw(st.integers(0, len(walk) - 2))])
    return moves, walk


@pytest.mark.parametrize("name", sorted(FIXTURES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_clips_in_turn_reuse_the_cut_only_while_no_vertex_changes_side(name, data):
    # each mesh keeps the topology of its last clip.  A walk of body cuts
    # on one warm copy gives the tables of the snapped walk oracle, and the
    # same walk of volume clips on another gives the results of a copy
    # whose cache is emptied before every clip, bit for bit.  Each path
    # shares the topology with its clip before exactly when every vertex
    # lies on the side it did by that path's rule: the snap band for
    # bodies, the strict sign for volumes
    moves, walk = data.draw(plane_walks(name))
    body, volume, cold = (TriMesh(FIXTURES[name].vertices, FIXTURES[name].triangles)
                          for _ in range(3))
    before, shared_by_a_nudge = None, False
    for move, (normal, height) in zip([None] + moves, walk):
        plane = LiquidPlane(normal, height)
        table = _clip_table(body, plane)
        assert_table_is_walk(body, table, oracles.clip_walk(body, plane))
        got = clip_volume(volume, plane)
        cold.__dict__.pop("_last_cut", None)
        assert_same_clip(got, clip_volume(cold, plane))
        cuts = table[0], volume.__dict__["_last_cut"][1]
        signs = np.sign(table[1]), np.sign(strict_heights(volume, plane))
        if before is not None:
            same = [(now == then).all() for now, then in zip(signs, before[1])]
            assert [now is then for now, then in zip(cuts, before[0])] == same
            shared_by_a_nudge |= move == "nudge" and same[0]
        before = cuts, signs
    assert shared_by_a_nudge


def support_ends(mesh, normal):
    """Heights of planes along ``normal`` below the mesh, through its lowest
    vertex (empty), through its highest (full) and above it."""
    support = (mesh.vertices - mesh.bbox_center) @ normal
    low, high = float(support.min()), float(support.max())
    return [low - mesh.bbox_diag, low, high, high + mesh.bbox_diag]


@pytest.mark.parametrize("name", sorted(SIDE_MESHES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_clip_sums_match_reference(name, data):
    # clip_volume sums a cut from the band-local gather it builds on first
    # use; the result is the bytes of the sums over the full node array, on
    # a cold clip, on the same clip repeated and along a walk of clips in
    # turn, and at the ends of the support
    moves, walk = data.draw(plane_walks(name))
    mesh = SIDE_MESHES[name]
    normal = walk[0][0]
    walk += [(normal, height) for height in support_ends(mesh, normal)]
    warm, cold, reference = (TriMesh(mesh.vertices, mesh.triangles) for _ in range(3))
    for normal, height in walk:
        plane = LiquidPlane(normal, height)
        expected = oracles.clip_sums_reference(reference, plane)
        cold.__dict__.pop("_last_cut", None)
        for got in (clip_volume(cold, plane), clip_volume(warm, plane), clip_volume(warm, plane)):
            assert_same_clip(got, expected)


@st.composite
def side_edge_planes(draw, name):
    """A plane of ``SIDE_MESHES[name]``: its normal's length is 1, or 1 off
    by 0.999e-12, at the edge of LiquidPlane's tolerance; its height puts a
    drawn vertex from 0 to 4 ulps of the height, times a power of two up to
    2**28, from the plane (where the strict side changes), from -snap or
    from +snap, or is free."""
    mesh = SIDE_MESHES[name]
    scale = 1.0 + draw(st.sampled_from([0.0, -0.999e-12, 0.999e-12]))
    normal = unit_vector(draw(directions)) * scale
    support = (mesh.vertices - mesh.bbox_center) @ normal
    if draw(st.booleans()):
        edge = draw(st.sampled_from([0.0, -1.0, 1.0])) * ONPLANE_SNAP_FRACTION * mesh.bbox_diag
        height = float(support[draw(st.integers(0, len(mesh.vertices) - 1))] - edge)
        height += (draw(st.integers(-4, 4)) << draw(st.integers(0, 28))) * np.spacing(height)
    else:
        height = float(support.min() + draw(st.floats(0.0, 1.0)) * np.ptp(support))
    return mesh, LiquidPlane(normal, height)


@pytest.mark.parametrize("name", sorted(SIDE_MESHES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_side_edge_clips_match_reference(name, data):
    # at the edges of the side rule, a normal whose length is off 1 by up
    # to 0.999e-12 and a plane within ulps of a vertex or of the snap band,
    # a cold clip sides each vertex by the strict sign of its support less
    # the height, and gives the reference's bytes
    mesh, plane = data.draw(side_edge_planes(name))
    cold = TriMesh(mesh.vertices, mesh.triangles)
    got = clip_volume(cold, plane)
    assert cold.__dict__["_last_cut"][0] == strict_sides(strict_heights(mesh, plane)).tobytes()
    assert_same_clip(got, oracles.clip_sums_reference(mesh, plane))


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "ROADMAP item 1: the band sums round crossing nodes and the plane point at the "
        "container's world position, so on icosphere-4 moved to (3e6, -5e6, 2e6) the "
        "volume in a slab is a cubic only to about 3e-11 of capacity"
    ))) if name == "icosphere-4-far" else name
    for name in sorted(SIDE_MESHES)
])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_clips_in_a_slab_share_a_cut_and_a_cubic(name, data):
    # between two consecutive distinct support values no vertex changes
    # side, so the clips of a warm mesh there share one cut topology, and
    # the volume is a cubic in the height: four clips in the slab predict
    # the volume at a fifth height between them
    mesh = SIDE_MESHES[name]
    normal = unit_vector(data.draw(directions))
    support = np.unique((mesh.vertices - mesh.bbox_center) @ normal)
    lo, hi = support[data.draw(st.integers(0, len(support) - 2)) + np.arange(2)].tolist()
    fractions = [0.1, 0.35, 0.65, 0.9, data.draw(st.floats(0.1, 0.9))]
    heights = [lo + fraction * (hi - lo) for fraction in fractions]
    assume(lo < min(heights) and max(heights) < hi and len(set(heights[:4])) == 4)
    warm = TriMesh(mesh.vertices, mesh.triangles)
    volumes, cuts = [], []
    for height in heights:
        volumes.append(clip_volume(warm, LiquidPlane(normal, height)).volume)
        cuts.append(warm.__dict__["_last_cut"][1])
    assert all(cut is cuts[0] for cut in cuts)
    *known, (at, volume) = zip(heights, volumes)
    predicted = sum(v * math.prod((at - x) / (h - x) for x, _ in known if x != h)
                    for h, v in known)
    assert abs(predicted - volume) <= 1e-12 * mesh_volume(mesh)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_support_ends_clip_empty_full_and_chordless(name):
    # a tilted plane below the mesh holds nothing, and one above it exactly
    # the capacity.  The clip takes the strict sign of each vertex's support
    # less the height: through the lowest vertex no vertex is below, so it
    # holds exactly nothing, and through the highest all but rounding dust.
    # A body's cut snaps them onto the plane: through the lowest vertex it
    # is empty, and through the single highest full, with a band of the
    # triangles around that vertex and no chord
    mesh = FIXTURES[name]
    normal = unit_vector([0.3, -0.2, 1.0])
    capacity, clips = mesh_volume(mesh), []
    for height in support_ends(mesh, normal):
        plane = LiquidPlane(normal, height)
        clips.append(clip_volume(mesh, plane))
        assert_same_clip(clips[-1], oracles.clip_sums_reference(mesh, plane))
    below, low, high, above = clips
    assert below == low == (0.0, 0.0, True, False) and above == (capacity, 0.0, False, True)
    assert high.volume >= capacity * (1.0 - 1e-12) and not high.empty
    below, low, high, above = (_clip_table(mesh, LiquidPlane(normal, height))[0]
                               for height in support_ends(mesh, normal))
    assert below.empty and low.empty and not low.full
    assert high.full and not high.empty and high.pieces.size and not high.chords.size
    assert above.full and not above.pieces.size


def lateral_rollout(mesh, rng):
    """The (normal, height) records, in order, of a 40-step liquid rollout
    of ``mesh`` at fill 0.4 under a lateral sinusoid drawn from ``rng``."""
    times = 1e-3 * np.arange(41)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    wave = rng.uniform(2.0, 4.0) * np.sin(2.0 * np.pi * rng.uniform(3.0, 6.0) * times)
    accels = np.column_stack([wave * np.cos(heading), wave * np.sin(heading), 0.0 * times])
    config = SceneConfig(
        gravity=(0.0, 0.0, -9.81), container=TriMesh(mesh.vertices, mesh.triangles),
        pendulum=PendulumParams(length=0.02, damping_phi=0.01, damping_theta=0.01,
                                epsilon=2.5e-2),
        liquid_volume=0.4 * mesh_volume(mesh), duration=40e-3,
    )
    trace = run_liquid_scene(config, FrameTrajectory(times, accels))
    return [(np.array(normal), height)
            for *normal, height in zip(*(trace.column(c) for c in ("nx", "ny", "nz", "height")))]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_rollout_clips_match_reference(name):
    # the planes of a seeded liquid rollout, clipped in order, mostly reuse
    # the cut of the clip before; each gives the reference's bytes
    mesh = FIXTURES[name]
    warm, reference = (TriMesh(mesh.vertices, mesh.triangles) for _ in range(2))
    hits, before = 0, None
    for normal, height in lateral_rollout(mesh, np.random.default_rng(18)):
        plane = LiquidPlane(normal, height)
        assert_same_clip(clip_volume(warm, plane), oracles.clip_sums_reference(reference, plane))
        cut = warm.__dict__["_last_cut"][1]
        hits += cut is before
        before = cut
    assert hits


def assert_same_export(body, expected, paths):
    """``body`` has the arrays of ``expected`` bit for bit, and both save
    the bytes of the row-by-row writer."""
    for field in ("vertices", "triangles"):
        assert_bitwise(getattr(body, field), getattr(expected, field), field)
    ours, cold, rows = paths
    save_mesh(body, ours)
    save_mesh(expected, cold)
    oracles.write_mesh_rows(expected, rows)
    assert ours.read_bytes() == cold.read_bytes() == rows.read_bytes()


@pytest.mark.parametrize("name", ["cylinder-48", "icosphere-3", "l-prism"])
def test_rollout_bodies_match_cold_cuts(name, tmp_path):
    # the records of a seeded rollout exported in order from one container
    # mostly reuse its cut and the body parts cached on that cut, and take
    # the container's rows from its row cache; each body is the one that a
    # fresh TriMesh of the same arrays (a cold cut) gives, bit for bit
    mesh = FIXTURES[name]
    warm = TriMesh(mesh.vertices, mesh.triangles)
    paths = [tmp_path / f"{side}.mesh" for side in ("ours", "cold", "rows")]
    reused, before = 0, None
    for normal, height in lateral_rollout(mesh, np.random.default_rng(21)):
        body = liquid_geometry(warm, normal, height)
        assert len(body) and body is not warm
        assert_same_export(body, liquid_geometry(TriMesh(mesh.vertices, mesh.triangles), normal,
                                                 height), paths)
        parts = warm.__dict__["_last_cut"][1].body
        reused += parts is before
        before = parts
    assert reused


# an L-prism plane through the top vertex of the reflex edge, where the cut
# pinches; and one whose loop is not star-shaped around its centroid, with a
# plane of the same cut topology whose loop is
PINCHED = (unit_vector([0.4732900852896917, 0.04573437199029376, 0.879718626826288]),
           0.439859313413144)
NOT_STAR = (unit_vector([-0.36806344459523743, 0.24845534974903277, 0.8959906472356587]),
            0.39088372670594596)
STAR = (unit_vector([-0.29999051069612276, 0.2053257189447641, 0.9315830841272802]),
        0.3248621782052813)


@pytest.mark.parametrize("fails, error, message", [
    (PINCHED, OpenCutLoop, "cut boundary branches at node 10"),
    (NOT_STAR, NonStarShapedCutLoop, "cut loop of 13 nodes is not star-shaped around its centroid"),
], ids=["pinched", "not-star-shaped"])
def test_a_cap_that_raises_leaves_no_half_built_body(fails, error, message, tmp_path):
    # a plane whose cap raises raises the same on a second call, and the
    # planes after it export the bodies of cold cuts: one of the failed
    # plane's topology where there is one, then a horizontal plane twice
    mesh = TriMesh(FIXTURES["l-prism"].vertices, FIXTURES["l-prism"].triangles)
    for _ in range(2):
        with pytest.raises(error, match=f"^{message}$"):
            liquid_geometry(mesh, *fails)
    cut = mesh.__dict__["_last_cut"][1]
    after = [(unit_vector([0.0, 0.0, 1.0]), -0.1)] * 2
    if error is OpenCutLoop:
        assert cut.body is None  # the chords never chained
    else:
        assert _clip_table(mesh, LiquidPlane(*STAR))[0] is cut
        after.insert(0, STAR)
    paths = [tmp_path / f"{side}.mesh" for side in ("ours", "cold", "rows")]
    for normal, height in after:
        assert_same_export(liquid_geometry(mesh, normal, height),
                           liquid_geometry(TriMesh(mesh.vertices, mesh.triangles), normal, height),
                           paths)


@st.composite
def chord_lists(draw):
    """Directed chords as a clip table lists them, plus the faults it must
    not produce.  Disjoint closed loops of 2-5 distinct nodes (a 2-node
    loop is an opposite pair), their chords shuffled; opposite pairs put in
    reversed first, on a loop chord (it cancels and then reappears, or the
    pair cancels) or on two free nodes; then up to two faults, each a
    chord repeated, a chord into a loop node from elsewhere (a branch) or
    a chord left out (an open chain)."""
    ids = draw(st.permutations(range(16)))
    chords, at = [], 0
    for size in draw(st.lists(st.integers(2, 5), max_size=3)):
        loop = ids[at:at + size]
        at += size
        chords += [(loop[i], loop[(i + 1) % size]) for i in range(size)]
    chords = draw(st.permutations(chords))
    node = st.integers(0, 15)
    for _ in range(draw(st.integers(0, 3))):
        if chords and draw(st.booleans()):
            u, w = draw(st.sampled_from(chords))
        else:
            u, w = draw(st.lists(node, min_size=2, max_size=2, unique=True))
        i = draw(st.integers(0, len(chords)))
        chords.insert(draw(st.integers(i, len(chords))), (u, w))
        chords.insert(i, (w, u))
    for fault in draw(st.lists(st.sampled_from(["duplicate", "branch", "open"]), max_size=2)):
        if not chords:
            break
        if fault == "duplicate":
            chords.insert(draw(st.integers(0, len(chords))), draw(st.sampled_from(chords)))
        elif fault == "branch":
            _, w = draw(st.sampled_from(chords))
            chords.insert(draw(st.integers(0, len(chords))), (draw(node.filter(lambda v: v != w)), w))
        else:
            del chords[draw(st.integers(0, len(chords) - 1))]
    return chords


def chain_outcome(chain, chords):
    """The loops as lists of ints, or the OpenCutLoop message."""
    try:
        return [[int(node) for node in loop] for loop in chain(chords)]
    except OpenCutLoop as exc:
        return str(exc)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(chords=chord_lists())
@example(chords=[(3, 4), (5, 3), (4, 5), (7, 8), (8, 6), (6, 7)])  # two loops
@example(chords=[(1, 2), (2, 1), (1, 2), (2, 3), (3, 1)])  # cancels, then reappears
@example(chords=[(2, 1), (1, 2), (1, 2), (2, 3), (3, 1)])  # a duplicate after a cancel
@example(chords=[(1, 2), (2, 3), (3, 1), (4, 2)])  # branches at node 2
@example(chords=[(5, 6), (6, 7), (7, 5), (8, 6), (1, 2), (2, 3), (3, 1), (4, 2)])  # first at 6
@example(chords=[(1, 2), (2, 3)])  # open chain
@example(chords=[])
def test_chain_loops_matches_dict_walk(chords):
    ours = chain_outcome(_chain_loops, np.array(chords, dtype=np.int64).reshape(-1, 2))
    assert ours == chain_outcome(oracles.chain_loops_walk, chords)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(chords=chord_lists())
def test_chained_loops_step_along_reversed_chords(chords):
    # without the reference walk: every step of a loop, the closing one
    # included, is an input chord reversed, and no node is on a loop twice
    try:
        loops = _chain_loops(chords)
    except OpenCutLoop:
        return
    reversed_chords = {(w, u) for u, w in chords}
    nodes = [node for loop in loops for node in loop.tolist()]
    assert len(nodes) == len(set(nodes))
    for loop in loops:
        assert loop.dtype == np.int64 and len(loop) >= 3
        steps = zip(loop.tolist(), np.roll(loop, -1).tolist())
        assert set(steps) <= reversed_chords


@PROPERTY_SETTINGS
@given(case=planes())
def test_body_volume_matches_clip(case, tmp_path_factory):
    name, normal, height = case
    mesh = FIXTURES[name]
    expected = clip_volume(mesh, LiquidPlane(normal, height)).volume
    try:
        body = liquid_geometry(mesh, normal, height)
    except (NonStarShapedCutLoop, OpenCutLoop):
        # the centroid fan caps only star-shaped loops: the non-convex L can
        # cut a loop that is not, or pinch two loops at its reflex edge
        assert name == "l-prism"
        return
    path = tmp_path_factory.getbasetemp() / "body.mesh"
    save_mesh(body, path)
    back = load_mesh(path)  # raises unless closed and consistently oriented
    np.testing.assert_array_equal(back.vertices, body.vertices)
    # mesh_volume anchors its tetrahedra at the bbox center, which leaves a
    # roundoff of order eps * capacity; a near-empty body is judged on that
    floor = 1e-12 * mesh_volume(mesh)
    assert abs(mesh_volume(back) - expected) <= 1e-9 * expected + floor


@pytest.mark.parametrize("name", sorted(FIXTURES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_saved_bodies_match_row_writer(name, data, tmp_path_factory):
    # two bodies of one container back to back: each takes the rows of the
    # container vertices it keeps from the container's row cache, which
    # formats a row on its first request only, so the second finds there
    # the rows the first (or an earlier example) kept; each also rebuilt as
    # a fresh TriMesh, which formats every row itself.  A plane moved a
    # diagonal down or up gives an empty or a full body, the full one being
    # the container itself.
    mesh = FIXTURES[name]
    ours, rows = (tmp_path_factory.getbasetemp() / f"{name}-{side}.mesh" for side in "ab")
    for _ in range(2):
        _, normal, height = data.draw(planes((name,)))
        height += data.draw(st.sampled_from([0.0, -1.0, 1.0])) * mesh.bbox_diag
        try:
            body = liquid_geometry(mesh, normal, height)
        except (NonStarShapedCutLoop, OpenCutLoop):
            assert name == "l-prism"  # as in test_body_volume_matches_clip
            continue
        oracles.write_mesh_rows(body, rows)
        public = TriMesh(body.vertices, body.triangles)
        for saved in (body, public):
            save_mesh(saved, ours)
            assert ours.read_bytes() == rows.read_bytes()
        # a cut body derives its edge tables on first use
        for got, expected in zip(body._edge_tables, public._edge_tables):
            assert_bitwise(got, expected, "_edge_tables")


@pytest.mark.parametrize("name", sorted(FIXTURES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_body_of_a_body_matches_public_rebuild(name, data):
    # a cut body clipped and capped again, which derives its edge table,
    # gives the clip table and the body that the same arrays give as a
    # public TriMesh, bit for bit
    mesh = FIXTURES[name]
    _, normal, height = data.draw(planes((name,)))
    try:
        body = liquid_geometry(mesh, normal, height)
    except (NonStarShapedCutLoop, OpenCutLoop):
        assert name == "l-prism"  # as in test_body_volume_matches_clip
        return
    assume(len(body) and body is not mesh)
    assert "_edge_tables" not in vars(body)
    public = TriMesh(body.vertices, body.triangles)
    normal = unit_vector(data.draw(directions))
    support = (body.vertices - body.bbox_center) @ normal
    plane = LiquidPlane(normal, support.min() + data.draw(st.floats(0.0, 1.0)) * np.ptp(support))
    assert_table_is_walk(body, _clip_table(body, plane),
                         table_fields(public, _clip_table(public, plane)))
    for got, expected in zip(body._edge_tables, public._edge_tables):
        assert_bitwise(got, expected, "_edge_tables")
    again = []
    for source in (body, public):
        try:
            again.append(liquid_geometry(source, plane.normal, plane.height))
        except (NonStarShapedCutLoop, OpenCutLoop) as exc:
            again.append(repr(exc))
    if isinstance(again[0], str):
        assert again[0] == again[1]
        return
    for field in ("vertices", "triangles"):
        assert_bitwise(getattr(again[0], field), getattr(again[1], field), field)
    expected = clip_volume(public, plane).volume
    assert abs(mesh_volume(again[0]) - expected) <= 1e-9 * expected + 1e-12 * mesh_volume(mesh)


# Two draws of test_body_of_a_body_matches_public_rebuild[cube], each pinned
# here on its own: the draws depend on the literals of the loaded modules,
# which Hypothesis adds to its pool, so a change to the source can drop
# either one from the property.


def test_thin_body_clipped_at_its_top_matches_the_clip():
    # a body thinner than the snap band, cut at the top of its support:
    # liquid_geometry returns the body whole, and the clip, which takes the
    # strict sides of the body's vertices, holds the body's volume
    mesh = FIXTURES["cube"]
    body = liquid_geometry(mesh, [0.0, 2e-9, -1.0], -0.499999999)
    normal = unit_vector([0.0, 0.0, 1.0])
    support = (body.vertices - body.bbox_center) @ normal
    plane = LiquidPlane(normal, support.min() + np.ptp(support))
    again = liquid_geometry(body, plane.normal, plane.height)
    expected = clip_volume(TriMesh(body.vertices, body.triangles), plane).volume
    assert abs(mesh_volume(again) - expected) <= 1e-9 * expected + 1e-12 * mesh_volume(mesh)


@pytest.mark.xfail(raises=NonStarShapedCutLoop, strict=True, reason=(
    "ROADMAP item 4: a cube plane 8.4e-8 above an edge cuts a thin 7-node loop "
    "whose centroid fan fails the shape test"
))
def test_thin_cube_cap_along_an_edge_is_star_shaped():
    liquid_geometry(FIXTURES["cube"], [0.0, np.sqrt(0.5), np.sqrt(0.5)], -0.7071066968928504)


@PROPERTY_SETTINGS
@given(case=planes())
def test_cap_centroids_are_the_cross_product_fan(case):
    # the cap's products keep the layout, and so every bit, of the
    # np.cross formulation; the centroids are the body's last vertices
    name, normal, height = case
    mesh = FIXTURES[name]
    try:
        body = liquid_geometry(mesh, normal, height)
    except (NonStarShapedCutLoop, OpenCutLoop):
        assert name == "l-prism"  # as in test_body_volume_matches_clip
        return
    assume(len(body) and body is not mesh)
    expected = oracles.cap_centroids(mesh, LiquidPlane(unit_vector(normal), height))
    assert len(expected)
    assert_bitwise(body.vertices[len(body.vertices) - len(expected):], expected, "centroids")


@PROPERTY_SETTINGS
@given(case=planes())
def test_cut_area_is_volume_derivative(case):
    name, normal, height = case
    mesh = FIXTURES[name]
    delta = 1e-8 * mesh.bbox_diag
    corners = mesh.vertices[mesh.triangles]
    s = (corners - mesh.bbox_center - height * normal) @ normal
    face = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    tilt_cos = np.abs(face @ normal) / np.linalg.norm(face, axis=1)
    # a face within 0.01 rad of the plane's tilt that meets the difference
    # stencil bends the area profile faster than the quotient resolves (a
    # face in the plane is the limit: a jump)
    meets = (s.min(axis=1) <= 2.0 * delta) & (s.max(axis=1) >= -2.0 * delta)
    assume(not (meets & (tilt_cos > np.cos(1e-2))).any())
    area = clip_volume(mesh, LiquidPlane(normal, height)).cut_area
    # a kink at a vertex height biases the quotient by about delta * dA/dh;
    # on areas above 1% of diag^2 that stays below the tolerance
    assume(area > 1e-2 * mesh.bbox_diag**2)
    up = clip_volume(mesh, LiquidPlane(normal, height + delta)).volume
    dn = clip_volume(mesh, LiquidPlane(normal, height - delta)).volume
    assert (up - dn) / (2.0 * delta) == pytest.approx(area, rel=1e-4)


@st.composite
def fills(draw):
    """(fixture name, unit normal, target volume) with the normal free or
    normal to a face, and the target a free fill, exact half fill, or the
    volume below the plane through a vertex of that face (so a face normal
    puts the whole face in the plane)."""
    name = draw(st.sampled_from(sorted(FIXTURES)))
    mesh = FIXTURES[name]
    corners = mesh.vertices[mesh.triangles[draw(st.integers(0, len(mesh) - 1))]]
    if draw(st.booleans()):
        normal = unit_vector(draw(directions))
    else:
        face = np.cross(corners[1] - corners[0], corners[2] - corners[0])
        normal = draw(st.sampled_from([1.0, -1.0])) * unit_vector(face)
    capacity = mesh_volume(mesh)
    kind = draw(st.sampled_from(["free", "half", "vertex"]))
    if kind == "free":
        target = draw(st.floats(1e-6, 1.0 - 1e-6)) * capacity
    elif kind == "half":
        target = 0.5 * capacity
    else:
        height = float((corners[draw(st.integers(0, 2))] - mesh.bbox_center) @ normal)
        # a plane through an extreme vertex or face holds none or all of the
        # volume, the solver's trivial returns; next to them the volume is
        # flat in the height, which no height oracle resolves
        support = (mesh.vertices - mesh.bbox_center) @ normal
        snap = ONPLANE_SNAP_FRACTION * mesh.bbox_diag
        assume(support.min() + snap < height < support.max() - snap)
        target = clip_volume(mesh, LiquidPlane(normal, height)).volume
    return name, normal, target


@PROPERTY_SETTINGS
@given(case=fills())
def test_height_solve_meets_budget_and_bisection(case):
    name, normal, target = case
    mesh = FIXTURES[name]
    capacity = mesh_volume(mesh)
    found = height_search(mesh, normal, target)
    if name != "l-prism" and 0.01 <= target / capacity <= 0.99:
        # acceptance criterion 10's budget, on the convex containers; cold
        # solves of near-empty and near-full fills still overrun it (see
        # test_near_full_meets_iteration_budget in test_mesh.py)
        assert found.iterations <= 20
    volume = clip_volume(mesh, LiquidPlane(normal, found.height)).volume
    assert abs(volume - target) <= 1e-9 * capacity
    assert found.residual <= 1e-9 * capacity
    reference = oracles.bisect_height(mesh, normal, target)
    assert abs(found.height - reference) <= 1e-9 * mesh.bbox_diag
