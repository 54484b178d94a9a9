"""Unit and property tests for meshes, clipping, and height solving."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from labmech import (
    LabmechError,
    LiquidPlane,
    MeshFormatError,
    NoConvergence,
    NonStarShapedCutLoop,
    NotWatertight,
    OpenCutLoop,
    TriMesh,
    VolumeOutOfRange,
    box_mesh,
    clip_volume,
    cylinder_mesh,
    height_search,
    icosphere_mesh,
    l_prism_mesh,
    liquid_geometry,
    load_mesh,
    mesh_volume,
    save_mesh,
    unit_vector,
)
from labmech.mesh import AREA_FLOOR_FRACTION, ONPLANE_SNAP_FRACTION, _clip_table
from labmech.mesh import height_search as _height_search


@pytest.fixture
def cube():
    return box_mesh()


def z_flux_volume(mesh):
    """Independent divergence form: flux of the field (0, 0, z)."""
    tri = mesh.vertices[mesh.triangles]
    normal_area = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    centroid_z = tri[:, :, 2].mean(axis=1)
    return float((normal_area[:, 2] * centroid_z).sum())


class TestUnitVector:
    @pytest.mark.parametrize(
        "v, direction",
        [
            ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),  # v . v underflows to zero
            ([1e-160, 0.0, 0.0], [1.0, 0.0, 0.0]),  # v . v is subnormal
            ([5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]),  # the least subnormal
            ([1e-200, 0.0, 1e-200], [1.0, 0.0, 1.0]),
            ([1e200, 1e200, 0.0], [1.0, 1.0, 0.0]),  # v . v overflows
            ([-1.7e308, 1.7e308, 1.7e308], [-1.0, 1.0, 1.0]),
        ],
    )
    def test_float_range_edges(self, v, direction):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = unit_vector(v)
        # an exact multiple of the direction normalizes to its very bits
        assert u.tobytes() == unit_vector(direction).tobytes()
        assert abs(u @ u - 1.0) <= 4e-16

    def test_normal_range_keeps_the_norm_division(self):
        rng = np.random.default_rng(7)
        for v in rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-150, 150, (2000, 1)):
            assert unit_vector(v).tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]])
    def test_zero_vector_rejected(self, v):
        with pytest.raises(ValueError, match="zero vector"):
            unit_vector(v)

    @pytest.mark.parametrize("v", [[np.inf, 0.0, 1.0], [0.0, -np.inf, 0.0], [np.nan, 0.0, 1.0]])
    def test_non_finite_vector_rejected(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite vector"):
                unit_vector(v)

    @pytest.mark.parametrize("v, shape", [
        ([], (0,)), ([3.0, 4.0], (2,)), ([[1.0, 0.0, 0.0]], (1, 3)), ([1.0, 0.0, 0.0, 0.0], (4,)),
    ])
    def test_only_3_vectors_accepted(self, v, shape):
        with pytest.raises(ValueError, match=re.escape(f"3-vector, got an array of shape {shape}")):
            unit_vector(v)


class TestTriMesh:
    def test_cube_is_valid(self, cube):
        assert len(cube) == 12
        assert cube.bbox_diag == pytest.approx(np.sqrt(3.0))

    def test_missing_triangle_rejected(self, cube):
        with pytest.raises(NotWatertight, match="boundary"):
            TriMesh(cube.vertices, cube.triangles[:-1])

    def test_flipped_triangle_rejected(self, cube):
        tris = cube.triangles.copy()
        tris[3] = tris[3][::-1]
        with pytest.raises(NotWatertight):
            TriMesh(cube.vertices, tris)

    def test_degenerate_triangle_rejected(self, cube):
        verts = np.vstack([cube.vertices, cube.vertices[0] + 1e-16])
        tris = np.vstack([cube.triangles, [[0, 8, 1]]])
        with pytest.raises((ValueError, NotWatertight)):
            TriMesh(verts, tris)

    def test_empty_mesh_is_valid(self):
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert mesh_volume(empty) == 0.0

    def test_out_of_range_index_rejected(self, cube):
        tris = cube.triangles.copy()
        tris[0, 0] = 99
        with pytest.raises(ValueError, match="out of range"):
            TriMesh(cube.vertices, tris)

    def test_arrays_are_read_only(self, cube):
        with pytest.raises(ValueError, match="read-only"):
            cube.vertices *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            cube.triangles[0] = cube.triangles[1]
        assert cube.bbox_diag == pytest.approx(np.sqrt(3.0))

    def test_inputs_are_copied(self, cube):
        verts, tris = cube.vertices.copy(), cube.triangles.copy()
        mesh = TriMesh(verts, tris)
        capacity, diag = mesh_volume(mesh), mesh.bbox_diag
        verts *= 2.0
        tris[:, [1, 2]] = tris[:, [2, 1]]
        np.testing.assert_array_equal(mesh.vertices, cube.vertices)
        np.testing.assert_array_equal(mesh.triangles, cube.triangles)
        assert (mesh_volume(mesh), mesh.bbox_diag) == (capacity, diag)


class TestMeshVolume:
    def test_unit_cube(self, cube):
        assert mesh_volume(cube) == 1.0

    def test_scaled_box(self):
        assert mesh_volume(box_mesh(size=(2, 1, 1))) == 2.0

    def test_icosphere_against_z_flux(self):
        sphere = icosphere_mesh(radius=1.0, subdivisions=4)
        v = mesh_volume(sphere)
        assert abs(v - z_flux_volume(sphere)) <= 1e-12 * v
        # inscribed polyhedron: strictly below the smooth ball, converging to it
        assert 0.99 * (4 / 3) * np.pi < v < (4 / 3) * np.pi

    def test_cylinder_against_prism_formula(self):
        n, r, h = 48, 0.7, 1.3
        mesh = cylinder_mesh(radius=r, height=h, segments=n)
        exact = 0.5 * n * r * r * np.sin(2 * np.pi / n) * h
        assert mesh_volume(mesh) == pytest.approx(exact, rel=1e-13)

    def test_l_prism_volume(self):
        mesh = l_prism_mesh(outer=(2.0, 2.0), notch=(1.0, 1.0), height=1.0)
        assert mesh_volume(mesh) == pytest.approx(3.0, rel=1e-13)

    @pytest.mark.parametrize("shift", [10.0, 1000.0])
    @pytest.mark.parametrize("mesh", [cylinder_mesh(segments=48),
                                      icosphere_mesh(radius=0.015, subdivisions=4)],
                             ids=["cylinder-48", "icosphere-4"])
    def test_capacity_far_from_the_origin(self, mesh, shift):
        # the tetrahedra are anchored at the bbox center, so a container far
        # from the origin loses nothing to cancellation
        moved = TriMesh(mesh.vertices + shift * np.array([1.0, -0.5, 0.3]), mesh.triangles)
        assert abs(mesh_volume(moved) - mesh_volume(mesh)) <= 1e-11 * mesh_volume(mesh)


class TestClipVolume:
    def test_horizontal_prism(self, cube):
        res = clip_volume(cube, LiquidPlane(np.array([0.0, 0.0, 1.0]), -0.2))
        assert res.volume == pytest.approx(0.3, abs=1e-12)
        assert res.cut_area == pytest.approx(1.0, abs=1e-12)
        assert not res.empty and not res.full

    def test_tilted_through_centroid(self, cube):
        res = clip_volume(cube, LiquidPlane(unit_vector([1.0, 0.0, 1.0]), 0.0))
        assert res.volume == pytest.approx(0.5, abs=1e-12)

    def test_empty_and_full_flags(self, cube):
        below = clip_volume(cube, LiquidPlane(np.array([0.0, 0.0, 1.0]), -0.7))
        assert below.empty and below.volume == 0.0
        above = clip_volume(cube, LiquidPlane(np.array([0.0, 0.0, 1.0]), 0.7))
        assert above.full and above.volume == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "mesh",
        [cylinder_mesh(radius=14e-3, height=30e-3, segments=48), icosphere_mesh(subdivisions=3)],
        ids=["cylinder-48", "icosphere-3"],
    )
    def test_plane_past_every_vertex_holds_the_container(self, mesh):
        # every triangle is whole: the flux sum with the plane's point as
        # reference would scale its rounding dust by the height, to 1.36e280
        # on the cylinder at h = 1e300
        capacity = mesh_volume(mesh)
        for normal in (np.array([0.6, 0.8, 0.0]), unit_vector([0.3, -0.2, 1.0]),
                       np.array([0.0, 0.0, -1.0])):
            top = float(((mesh.vertices - mesh.bbox_center) @ normal).max())
            for height in (top + 1e-8 * mesh.bbox_diag, 1e6, 1e12, 1e300):
                res = clip_volume(mesh, LiquidPlane(normal, height))
                assert (res.volume, res.cut_area, res.empty, res.full) == (
                    capacity, 0.0, False, True), (normal, height)

    def test_empty_mesh(self):
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        res = clip_volume(empty, LiquidPlane(np.array([0.0, 0.0, 1.0]), 0.0))
        assert (res.volume, res.cut_area, res.empty, res.full) == (0.0, 0.0, True, True)
        assert len(liquid_geometry(empty, [0.0, 0.0, 1.0], 0.0)) == 0

    def test_reused_cut_arrays_are_read_only(self):
        # clips with the same vertex sides share one topology, so a write
        # through one clip must not reach the next; its index arrays are
        # C-contiguous, the layout the sums gather with
        mesh = cylinder_mesh(segments=48)
        plane = LiquidPlane(unit_vector([0.1, -0.2, 1.0]), 0.1)
        cut = _clip_table(mesh, plane)[0]
        for field in ("whole", "pieces", "chords", "lo", "hi", "nodes"):
            array = getattr(cut, field)
            assert array.size and array.flags.c_contiguous, field
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert _clip_table(mesh, plane)[0] is cut is mesh.__dict__["_last_cut"][1]
        cold = TriMesh(mesh.vertices, mesh.triangles)
        assert clip_volume(mesh, plane) == clip_volume(cold, plane)

    def test_empty_clip_builds_no_gather(self):
        # a plane with no vertex below holds nothing: the clip neither
        # builds the container's flux terms nor the cut's gather
        mesh = cylinder_mesh(segments=48)
        for height in (-0.6, -0.5):
            res = clip_volume(mesh, LiquidPlane(np.array([0.0, 0.0, 1.0]), height))
            assert res == (0.0, 0.0, True, False)
            assert "_whole_flux" not in vars(mesh)
            assert mesh.__dict__["_last_cut"][1].gather is None

    def test_body_cut_builds_no_flux_terms(self):
        # the whole-triangle flux sum is clip_volume's alone: a body cut from
        # a freshly built container neither builds the container's
        # per-triangle flux terms nor the cut's gather
        mesh = cylinder_mesh(segments=48)
        normal = unit_vector([0.1, -0.2, 1.0])
        body = liquid_geometry(mesh, normal, 0.1)
        assert len(body) and body is not mesh
        assert "_whole_flux" not in vars(mesh)
        assert mesh.__dict__["_last_cut"][1].gather is None
        clip_volume(mesh, LiquidPlane(normal, 0.1))
        assert "_whole_flux" in vars(mesh)

    def test_thin_body_clip_is_not_empty_and_full(self):
        # a body thinner than the snap band: a clip through its middle takes
        # the strict sides of its vertices, some below and some above
        body = liquid_geometry(box_mesh(), [0.0, 2e-9, 1.0], -0.499999999)
        res = clip_volume(body, LiquidPlane(np.array([0.0, 0.0, 1.0]), 0.0))
        assert not (res.empty and res.full)

    def test_grazing_cut_area_matches_exact_sum(self):
        # near-empty cuts far from the bbox center: Green's sum referenced
        # to a point far from the chords would cancel large terms
        mesh = cylinder_mesh(segments=48)
        rng = np.random.default_rng(29)
        for _ in range(40):
            normal = unit_vector([*rng.normal(scale=0.05, size=2), 1.0])
            support = (mesh.vertices - mesh.bbox_center) @ normal
            depth = 10.0 ** rng.uniform(-7.0, -4.0) * mesh.bbox_diag
            plane = LiquidPlane(normal, support.min() + depth)
            cut, _, nodes = _clip_table(mesh, plane)
            starts, ends = nodes[cut.chords]
            exact = oracles.exact_chord_area(starts, ends, normal)
            assert abs(clip_volume(mesh, plane).cut_area - exact) <= 1e-12 * exact

    def test_monte_carlo_random_planes(self, cube):
        rng = np.random.default_rng(83)
        pts = rng.uniform(0.0, 1.0, (2_000_000, 3))
        inside = np.ones(len(pts), dtype=bool)
        for _ in range(3):
            normal = unit_vector(rng.normal(size=3))
            height = rng.uniform(-0.3, 0.3)
            res = clip_volume(cube, LiquidPlane(normal, height))
            origin = cube.bbox_center + height * normal
            mc, sigma = oracles.mc_clip_volume(inside, pts, 1.0, normal, origin)
            assert abs(res.volume - mc) <= 3.0 * sigma

    def test_monotone_in_height(self, cube):
        normal = unit_vector([0.3, -0.2, 0.9])
        heights = np.linspace(-0.9, 0.9, 100)
        volumes = [clip_volume(cube, LiquidPlane(normal, h)).volume for h in heights]
        assert (np.diff(volumes) >= -1e-15).all()

    def test_complementarity(self):
        mesh = cylinder_mesh(radius=0.6, height=1.2, segments=24)
        total = mesh_volume(mesh)
        rng = np.random.default_rng(89)
        for _ in range(20):
            normal = unit_vector(rng.normal(size=3))
            height = rng.uniform(-0.5, 0.5)
            below = clip_volume(mesh, LiquidPlane(normal, height)).volume
            above = clip_volume(mesh, LiquidPlane(-normal, -height)).volume
            assert below + above == pytest.approx(total, rel=1e-9)

    def test_cut_area_is_volume_derivative(self, cube):
        normal = unit_vector([1.0, 2.0, 0.5])
        rng = np.random.default_rng(97)
        delta = 1e-6 * cube.bbox_diag
        for h in rng.uniform(-0.3, 0.3, 20):
            area = clip_volume(cube, LiquidPlane(normal, h)).cut_area
            up = clip_volume(cube, LiquidPlane(normal, h + delta)).volume
            dn = clip_volume(cube, LiquidPlane(normal, h - delta)).volume
            assert (up - dn) / (2 * delta) == pytest.approx(area, rel=1e-4)

    @pytest.mark.parametrize(
        "mesh, normal",
        [
            (box_mesh(), unit_vector([1.0, 1.0, 0.0])),
            (icosphere_mesh(radius=15e-3, subdivisions=3), np.array([0.0, 0.0, 1.0])),
        ],
        ids=["cube-diagonal", "icosphere-3-equator"],
    )
    def test_cut_area_counts_in_plane_edges(self, mesh, normal):
        # the plane at h = 0 contains mesh edges whose triangles lie below
        delta = 1e-6 * mesh.bbox_diag
        area = clip_volume(mesh, LiquidPlane(normal, 0.0)).cut_area
        up = clip_volume(mesh, LiquidPlane(normal, delta)).volume
        dn = clip_volume(mesh, LiquidPlane(normal, -delta)).volume
        assert (up - dn) / (2 * delta) == pytest.approx(area, rel=1e-4)


class TestSolveHeight:
    def test_half_full_cube(self, cube):
        h = _height_search(cube, [0.0, 0.0, 1.0], 0.5).height
        assert h == pytest.approx(0.0, abs=1e-12)  # plane z = 0.5

    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_empty_mesh_is_a_named_value_error(self, target):
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="^mesh has no triangles$"):
            _height_search(empty, [0.0, 0.0, 1.0], target)

    def test_empty_target_returns_lower_support(self, cube):
        assert _height_search(cube, [0.0, 0.0, 1.0], 0.0).height == -0.5

    def test_full_target_returns_upper_support(self, cube):
        assert _height_search(cube, [0.0, 0.0, 1.0], mesh_volume(cube)).height == 0.5

    def test_diagonal_normal_matches_bisection(self, cube):
        normal = unit_vector([1.0, 1.0, 1.0])
        found = _height_search(cube, normal, 0.25)
        reference = oracles.bisect_height(cube, normal, 0.25)
        assert abs(found.height - reference) <= 1e-9 * cube.bbox_diag
        assert found.iterations <= 20

    def test_round_trip(self, cube):
        normal = unit_vector([0.2, -0.4, 1.0])
        for h in np.linspace(-0.4, 0.4, 9):
            target = clip_volume(cube, LiquidPlane(normal, h)).volume
            back = _height_search(cube, normal, target).height
            assert abs(back - h) <= 1e-9 * cube.bbox_diag

    def test_warm_start_agrees_with_cold_start(self, cube):
        normal = unit_vector([0.1, 0.9, 0.6])
        cold = _height_search(cube, normal, 0.37).height
        warm = _height_search(cube, normal, 0.37, h_prev=cold + 1e-3).height
        assert abs(cold - warm) <= 1e-12 * cube.bbox_diag

    def test_volume_out_of_range(self, cube):
        with pytest.raises(VolumeOutOfRange):
            _height_search(cube, [0.0, 0.0, 1.0], 2.0)
        with pytest.raises(VolumeOutOfRange):
            _height_search(cube, [0.0, 0.0, 1.0], -0.1)

    @pytest.mark.parametrize(
        "mesh, normal, warm",
        [
            (cylinder_mesh(segments=48), np.array([0.0, 0.0, 1.0]), False),
            (box_mesh(), unit_vector([1.0, 0.0, 1.0]), True),
            (icosphere_mesh(subdivisions=4), unit_vector([1.0, 0.0, 1.0]), False),
            (icosphere_mesh(subdivisions=4), unit_vector([0.3, -0.5, 1.0]), True),
            (icosphere_mesh(subdivisions=4), unit_vector([-0.2, 0.9, 0.1]), True),
        ],
        ids=["cylinder-48-cold", "cube-tilted-warm", "icosphere-4-tilted-cold",
             "icosphere-4-oblique-warm", "icosphere-4-sideways-warm"],
    )
    def test_half_fill_meets_iteration_budget(self, mesh, normal, warm):
        # the root sits at h ~ 0, where a stopping rule relative to |h|
        # chases volume roundoff
        capacity = mesh_volume(mesh)
        h_prev = None
        if warm:
            h_prev = _height_search(mesh, normal, 0.5 * capacity).height + 1e-3 * mesh.bbox_diag
        found = _height_search(mesh, normal, 0.5 * capacity, h_prev=h_prev)
        assert found.iterations <= 20
        assert found.residual <= 1e-9 * capacity
        reference = oracles.bisect_height(mesh, normal, 0.5 * capacity)
        assert abs(found.height - reference) <= 1e-9 * mesh.bbox_diag

    @pytest.mark.parametrize(
        "mesh, normal, vertex",
        [
            (box_mesh(), unit_vector([1.0, -1.0, 1.0]), 2),
            (cylinder_mesh(segments=48), unit_vector([1.0, 1.0, 0.0]), 0),
            (l_prism_mesh(), unit_vector([1.0, 1.0, 0.0]), 3),
            (icosphere_mesh(subdivisions=4), unit_vector([0.3, -0.2, 1.0]), 100),
        ],
        ids=["cube-three-vertices", "cylinder-48-side-vertices", "l-prism-reflex-vertex",
             "icosphere-4-vertex"],
    )
    def test_plane_through_vertices_meets_iteration_budget(self, mesh, normal, vertex):
        # the root is a plane through mesh vertices, where the volume's
        # cubic changes from one piece to the next
        height = (mesh.vertices[vertex] - mesh.bbox_center) @ normal
        target = clip_volume(mesh, LiquidPlane(normal, height)).volume
        found = _height_search(mesh, normal, target)
        assert found.iterations <= 20
        assert abs(found.height - height) <= 1e-9 * mesh.bbox_diag

    def test_near_full_meets_iteration_budget(self, cube):
        normal = unit_vector([-0.75, -0.6, -0.285])
        assert _height_search(cube, normal, 1.0 - 1e-4).iterations <= 20

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: safeguarded Newton creeps toward a near-full root from a "
        "cold start, each step covering a fraction of the remaining distance"
    ))
    def test_nearer_full_meets_iteration_budget(self, cube):
        normal = unit_vector([-0.75, -0.6, -0.285])
        assert _height_search(cube, normal, 1.0 - 1e-12).iterations <= 20

    @staticmethod
    def _fixtures():
        return {"cube": box_mesh(), "cylinder-48": cylinder_mesh(segments=48),
                "l-prism": l_prism_mesh(), "icosphere-3": icosphere_mesh(subdivisions=3),
                "icosphere-4": icosphere_mesh(subdivisions=4)}

    def test_cold_start_is_inside_the_bracket(self, monkeypatch):
        # the first clipped height of a cold solve is the sphere-cap height
        # of its fill, or the midpoint where that lands on a bracket end;
        # at half fill it is the midpoint bit for bit
        fills = [5e-324, 1e-300, 1e-17, 1e-4, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]
        heights = []

        def recording(mesh, plane, clip=clip_volume):
            heights.append(plane.height)
            return clip(mesh, plane)

        monkeypatch.setattr("labmech.mesh.clip_volume", recording)
        rng = np.random.default_rng(131)
        for name, mesh in self._fixtures().items():
            capacity = mesh_volume(mesh)
            for _ in range(6):
                normal = unit_vector(rng.normal(size=3))
                support = mesh._centered @ normal
                lo, hi = float(support.min()), float(support.max())
                for fill in fills:
                    heights.clear()
                    _height_search(mesh, normal, fill * capacity)
                    first = heights[0]
                    assert lo < first < hi, (name, normal, fill)
                    if fill == 0.5:
                        assert first == 0.5 * (lo + hi), (name, normal)

    def test_cold_start_takes_no_more_clips_than_the_midpoint(self):
        # a solve warm-started at the bracket midpoint is the cold solve
        # that started there; on the spheres, where the start inverts the
        # exact volume law up to faceting, every cold solve of a moderate
        # fill takes at most four clips
        rng = np.random.default_rng(137)
        for name, mesh in self._fixtures().items():
            capacity = mesh_volume(mesh)
            counts = {"cold": 0, "midpoint": 0}
            for k in range(80):
                normal = unit_vector(rng.normal(size=3))
                support = mesh._centered @ normal
                midpoint = 0.5 * (float(support.min()) + float(support.max()))
                if k % 4:
                    fill = rng.uniform(0.02, 0.98)
                else:  # 1e-3 to 1e-2 from empty or full
                    fill = rng.uniform(1e-3, 1e-2)
                    fill = fill if k % 8 else 1.0 - fill
                cold = _height_search(mesh, normal, fill * capacity).iterations
                warm = _height_search(mesh, normal, fill * capacity, h_prev=midpoint).iterations
                counts["cold"] += cold
                counts["midpoint"] += warm
                if warm <= 20:
                    assert cold <= 20, (name, normal, fill)
                if name.startswith("icosphere") and 0.02 <= fill <= 0.98:
                    assert cold <= 4, (name, normal, fill)
            assert counts["cold"] <= counts["midpoint"], (name, counts)

    def test_degenerate_cut_area_bisects(self, monkeypatch):
        # a warm start 0.5e-9 diag above the lowest vertex clips a sliver
        # whose cut area is under the area floor, no slope for Newton: the
        # next iterate bisects
        mesh = icosphere_mesh(subdivisions=4)
        normal = np.array([0.0, 0.0, 1.0])
        support = mesh._centered @ normal
        start = float(support.min()) + 0.5e-9 * mesh.bbox_diag
        clips = []

        def recording(mesh, plane, clip=clip_volume):
            clips.append((plane.height, clip(mesh, plane)))
            return clips[-1][1]

        monkeypatch.setattr("labmech.mesh.clip_volume", recording)
        target = 0.3 * mesh_volume(mesh)
        found = _height_search(mesh, normal, target, h_prev=start)
        (first, sliver), (second, _) = clips[:2]
        assert first == start and not sliver.empty
        assert 0.0 < sliver.cut_area <= AREA_FLOOR_FRACTION * mesh.bbox_diag**2
        assert second == 0.5 * (start + float(support.max()))
        assert found.iterations == len(clips) <= 20
        reference = oracles.bisect_height(mesh, normal, target)
        assert abs(found.height - reference) <= 1e-9 * mesh.bbox_diag

    def test_iteration_budget_exhaustion(self, cube):
        with pytest.raises(NoConvergence):
            _height_search(cube, [0.0, 0.0, 1.0], 0.37, max_iter=1)

    def test_budget_exit_returns_the_last_clipped_height(self):
        # a solve cut short by its budget returns the height it clipped
        # last, with that height's own residual, or raises.  Budgets just
        # under a solve's own count end it at the budget with the residual
        # already within tolerance.
        cylinder = cylinder_mesh(segments=48)
        cases = [(cylinder, unit_vector([0.3, -0.2, 1.0]), 0.3, range(1, 6))]
        rng = np.random.default_rng(113)
        for mesh in (box_mesh(), cylinder, icosphere_mesh(subdivisions=3)):
            for _ in range(4):
                normal = unit_vector(rng.normal(size=3) + [0.0, 0.0, 1.0])
                fill = rng.uniform(0.05, 0.95)
                full = _height_search(mesh, normal, fill * mesh_volume(mesh)).iterations
                cases.append((mesh, normal, fill, range(max(1, full - 3), full + 1)))
        at_budget = 0
        for mesh, normal, fill, budgets in cases:
            target = fill * mesh_volume(mesh)
            for max_iter in budgets:
                try:
                    found = _height_search(mesh, normal, target, max_iter=max_iter)
                except NoConvergence:
                    continue
                own = clip_volume(mesh, LiquidPlane(normal, found.height)).volume
                assert found.residual == abs(own - target), (normal, fill, max_iter)
                assert found.iterations <= max_iter
                at_budget += found.iterations == max_iter < budgets[-1]
        assert at_budget

    def test_residual_within_tolerance(self):
        mesh = l_prism_mesh()
        total = mesh_volume(mesh)
        rng = np.random.default_rng(101)
        for _ in range(20):
            normal = unit_vector(rng.normal(size=3))
            target = rng.uniform(0.1, 0.9) * total
            found = _height_search(mesh, normal, target)
            assert found.residual <= 1e-9 * total


class TestLiquidGeometry:
    def test_horizontal_cut_is_a_box(self, cube):
        body = liquid_geometry(cube, [0.0, 0.0, 1.0], -0.2)
        assert mesh_volume(body) == pytest.approx(0.3, abs=1e-12)
        assert body.vertices[:, 2].max() == pytest.approx(0.3, abs=1e-12)
        assert body.vertices[:, 2].min() == 0.0

    def test_plane_below_gives_empty(self, cube):
        body = liquid_geometry(cube, [0.0, 0.0, 1.0], -0.8)
        assert len(body) == 0
        assert mesh_volume(body) == 0.0

    def test_plane_above_gives_input(self, cube):
        body = liquid_geometry(cube, [0.0, 0.0, 1.0], 0.8)
        assert mesh_volume(body) == mesh_volume(cube)

    def test_random_planes_consistent_with_clip(self, cube):
        rng = np.random.default_rng(103)
        for _ in range(25):
            normal = unit_vector(rng.normal(size=3))
            height = rng.uniform(-0.4, 0.4)
            body = liquid_geometry(cube, normal, height)
            expected = clip_volume(cube, LiquidPlane(normal, height)).volume
            assert mesh_volume(body) == pytest.approx(expected, rel=1e-9)

    def test_cylinder_random_planes(self):
        mesh = cylinder_mesh(radius=0.8, height=1.5, segments=32)
        rng = np.random.default_rng(107)
        for _ in range(15):
            normal = unit_vector(rng.normal(size=3) + [0, 0, 2.0])
            height = rng.uniform(-0.4, 0.4)
            body = liquid_geometry(mesh, normal, height)  # watertight or raises
            expected = clip_volume(mesh, LiquidPlane(normal, height)).volume
            assert mesh_volume(body) == pytest.approx(expected, rel=1e-9)

    def test_l_prism_horizontal_cut(self):
        # the loop has collinear chord subdivisions whose node mean sits
        # exactly on the inner wall line; the area-centroid fan must not
        # produce degenerate caps there
        mesh = l_prism_mesh()
        body = liquid_geometry(mesh, [0.0, 0.0, 1.0], -0.2)
        assert mesh_volume(body) == pytest.approx(0.9, rel=1e-12)

    def test_non_star_shaped_loop_raises(self):
        # a horseshoe cross-section puts the loop centroid inside the void,
        # so the centroid fan flips sign and must fail loudly
        from labmech.mesh import _extrude_polygon
        from labmech import NonStarShapedCutLoop

        loop = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
        caps = [(0, 1, 4), (0, 4, 5), (1, 2, 3), (1, 3, 4), (0, 5, 6), (0, 6, 7)]
        horseshoe = _extrude_polygon(loop, 1.0, caps)
        assert mesh_volume(horseshoe) == pytest.approx(7.0, rel=1e-13)
        with pytest.raises(NonStarShapedCutLoop):
            liquid_geometry(horseshoe, [0.0, 0.0, 1.0], -0.2)

    def test_branching_cut_boundary_raises(self):
        # three chords meeting at one node cannot chain into loops
        from labmech.mesh import _chain_loops
        from labmech import OpenCutLoop

        chords = [(0, 1), (1, 2), (1, 3)]
        with pytest.raises(OpenCutLoop):
            _chain_loops(chords)

    def test_unclosed_cut_boundary_raises(self):
        from labmech.mesh import _chain_loops
        from labmech import OpenCutLoop

        with pytest.raises(OpenCutLoop):
            _chain_loops([(0, 1), (1, 2)])

    def test_body_path_shape_tests_the_created_triangles(self, cube):
        # the private constructor of cut bodies skips the closure check and
        # shape-tests only the triangles from `created` on, with the public
        # message: here a zero-area triangle on the midpoint of edge 0-1
        verts = np.vstack([cube.vertices, [0.5 * (cube.vertices[0] + cube.vertices[1])]])
        tris = np.vstack([cube.triangles, [[0, 8, 1]]])
        with pytest.raises(ValueError, match=r"^mesh contains degenerate \(near-zero-area\) "
                                             r"triangles$"):
            TriMesh._liquid_body(verts.copy(), tris.copy(), len(cube), None)
        with pytest.raises(ValueError, match="degenerate"):
            TriMesh(verts, tris)
        # before `created` the triangles count as the container's, tested
        # when it was built
        body = TriMesh._liquid_body(verts.copy(), tris.copy(), len(tris), None)
        assert body.vertices.tobytes() == verts.tobytes() and not body.vertices.flags.writeable

    def test_small_wall_piece_is_kept(self, tmp_path):
        # a plane just above an icosphere vertex clips a well-shaped wall
        # triangle of area 3.5e-13 * diag^2; the shape test must accept it
        sphere = icosphere_mesh(radius=15e-3, subdivisions=3)
        normal = [0.07035190605864018, 0.049573259563879334, 0.9962896673408435]
        body = liquid_geometry(sphere, normal, 0.0030328827791561005)
        path = tmp_path / "body.mesh"
        save_mesh(body, path)
        back = load_mesh(path)  # watertight, or it raises
        assert mesh_volume(back) == pytest.approx(9.110075167497895e-06, rel=1e-9)

    def test_thin_cap_along_an_edge(self, cube):
        # a plane 1.4e-6 above the bottom edge cuts a thin cap: its smallest
        # fan triangle has area 4.7e-13 * diag^2, below the old absolute
        # floor, and doubled area 1.1e-11 * longest edge^2, above the shape floor
        normal = unit_vector([0.0, 1.0, 1.0])
        height = -0.7071053669729851
        body = liquid_geometry(cube, normal, height)
        expected = clip_volume(cube, LiquidPlane(normal, height)).volume
        assert mesh_volume(body) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.xfail(raises=NonStarShapedCutLoop, strict=True, reason=(
        "the centroid fan of a thin cap with a node 1e-7 from a corner "
        "makes a triangle that fails the shape test"
    ))
    def test_thin_cap_with_node_near_a_corner(self, cube):
        normal = unit_vector([9.61523948e-01, -2.74721128e-01, 1.09888451e-06])
        liquid_geometry(cube, normal, -0.6181218509648088)

    @staticmethod
    def assert_body_caps_with_the_clip_volume(mesh, normal, height):
        body = liquid_geometry(mesh, normal, height)
        expected = clip_volume(mesh, LiquidPlane(normal, height)).volume
        assert abs(mesh_volume(body) - expected) <= 1e-9 * expected + 1e-12 * mesh_volume(mesh)

    @pytest.mark.xfail(raises=OpenCutLoop, strict=True, reason=(
        "ROADMAP item 4: a plane through the L-prism's top reflex vertex "
        "pinches the cut into two loops that touch there, and chaining "
        "raises 'cut boundary branches at node 10'"
    ))
    def test_l_prism_cut_pinched_at_the_reflex_vertex(self):
        self.assert_body_caps_with_the_clip_volume(
            l_prism_mesh(), unit_vector([1.0, 1.0, 1.0]), 0.2886751345948129)

    @pytest.mark.xfail(raises=NonStarShapedCutLoop, strict=True, reason=(
        "ROADMAP item 4: an oblique plane cuts the L-prism in a loop that is "
        "not star-shaped around its centroid, so the centroid fan cannot cap it"
    ))
    def test_l_prism_cut_loop_not_star_shaped(self):
        self.assert_body_caps_with_the_clip_volume(
            l_prism_mesh(), unit_vector([-1.0, -2.0, -4.0]), -0.2182178902359924)

    def test_vertices_snap_onto_the_plane(self, cube):
        # a plane within the snap band of the bottom face: a body's cut
        # classifies those vertices as on-plane, so nothing lies strictly
        # below and the body is empty.  The clip takes their strict signs
        # and holds the 1e-11 slab under the plane, which is less than twice
        # the snap times the cut area
        res = clip_volume(cube, LiquidPlane(np.array([0.0, 0.0, 1.0]), -0.5 + 1e-11))
        assert not res.empty and not res.full
        assert res.volume == pytest.approx(1e-11, rel=1e-5)
        assert res.cut_area == pytest.approx(1.0, rel=1e-12)
        assert res.volume <= 2.0 * ONPLANE_SNAP_FRACTION * cube.bbox_diag * res.cut_area
        body = liquid_geometry(cube, [0.0, 0.0, 1.0], -0.5 + 1e-11)
        assert len(body) == 0

    def test_cap_faces_point_up(self, cube):
        body = liquid_geometry(cube, [0.0, 0.0, 1.0], -0.2)
        tri = body.vertices[body.triangles]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        caps = np.abs(tri[:, :, 2] - 0.3).max(axis=1) < 1e-12
        assert caps.any()
        assert (normals[caps, 2] > 0.0).all()


class TestMeshIO:
    def test_round_trip_exact(self, tmp_path):
        mesh = icosphere_mesh(radius=0.37, subdivisions=2)
        path = tmp_path / "sphere.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n")
        with pytest.raises(MeshFormatError, match="line 4") as err:
            load_mesh(path)
        assert err.value.line == 4

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("v 0 0 0\nf 0 1 2\n")
        with pytest.raises(MeshFormatError, match="1-based"):
            load_mesh(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("vn 0 0 1\n")
        with pytest.raises(MeshFormatError, match="unknown record"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text, line",
        [("v 0 0 0\nv 1 0 x\n", 2), ("v 0 0 0\nf 1 2 3\n", None), ("vn 0 0 1\n", 1)],
        ids=["bad-coordinate", "index-past-last-vertex", "unknown-record"],
    )
    def test_parse_error_names_the_file(self, tmp_path, text, line):
        path = tmp_path / "bad.mesh"
        path.write_text(text)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert str(err.value).startswith(f"{path}: ")
        assert err.value.line == line

    def test_open_mesh_fails_validation(self, tmp_path):
        path = tmp_path / "open.mesh"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(NotWatertight):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text, kind, message",
        [("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", NotWatertight, "boundary edges"),
         ("v 0 0 0\nf 1 1 1\n", ValueError, "degenerate"),
         ("v 0 0 0\nv 1 0 nan\nv 0 1 0\nf 1 2 3\n", ValueError, "finite")],
        ids=["open", "degenerate", "non-finite"],
    )
    def test_validation_error_names_the_file(self, tmp_path, text, kind, message):
        path = tmp_path / "bad.mesh"
        path.write_text(text)
        with pytest.raises(kind) as err:
            load_mesh(path)
        assert type(err.value) is kind
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "data, line",
        [(b"v 0 0 0\nv 1 0 0\xff\n", 2), (b"\xe9", 1),
         (b"v 0 0 0\r\nv 1 0 0\rv 0 1 0\n# caf\xc3\xa9\n", 4)],
        ids=["end-of-line", "first-byte", "mixed-line-endings"],
    )
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "latin.mesh"
        path.write_bytes(data)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert str(err.value).startswith(f"{path}: line {line}: byte 0x")
        assert err.value.line == line


IO_SETTINGS = settings(max_examples=600, deadline=None, derandomize=True, database=None)
#: integer coordinates in 1..4, so that spelled as integers they also read
#: as face indices
TETRAHEDRON = TriMesh([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]],
                      [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
#: replacement fields: digit separators, non-finite values, index 0, an
#: index past the last vertex of both meshes, and fields no builtin reads
FIELDS = ["1_0", "nan", "inf", "-inf", "0", "-1", "+2", "1e0", "9", "-0.0", "1.5",
          "0x1", "x", "1__0", "99999999999999999999"]
RECORDS = ["v", "f", "vn", "F", "V", "o", "vv", "#v"]
FILLERS = ["", " ", "\t", "\x0b", "\x0c", "#", "# comment", "  # indented", "#v 1 2 3"]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", " \t"]
PADDING = ["", " ", "\t", "\x0c", "\x0b"]


@st.composite
def mesh_texts(draw):
    """Mesh-like ASCII text: a tetrahedron (its coordinates spelled as
    floats or as integers) or a box, up to three edits of a field, a
    record letter or a line break, in one of three layouts: ``plain`` as
    save_mesh writes it, ``interleaved`` vertex and face lines, or
    ``free``: interleaved, with comment and blank lines, odd whitespace and
    mixed line endings."""
    mesh, spell = draw(st.sampled_from([(TETRAHEDRON, repr), (TETRAHEDRON, lambda x: str(int(x))),
                                        (box_mesh(origin=(0.25, -1.5, 2e-3)), repr)]))
    nv = len(mesh.vertices)
    verts = [["v", *map(spell, row)] for row in mesh.vertices.tolist()]
    faces = [["f", *(str(i + 1) for i in row)] for row in mesh.triangles.tolist()]
    layout = draw(st.sampled_from(["plain", "interleaved", "free"]))
    records = []
    if layout == "plain":
        records = verts + faces
    else:
        for vertex_next in draw(st.lists(st.booleans(), min_size=len(verts) + len(faces),
                                         max_size=len(verts) + len(faces))):
            queue = verts if (vertex_next and verts) or not faces else faces
            records.append(queue.pop(0))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        k = draw(st.integers(0, len(records) - 1))
        fields = records[k]
        edit = draw(st.sampled_from(["drop", "extra", "field", "index", "record", "break"]))
        if edit == "drop":
            fields.pop()
        elif edit == "extra":
            fields.append(draw(st.sampled_from(FIELDS)))
        elif edit == "record":
            fields[0] = draw(st.sampled_from(RECORDS))
        elif edit == "break" and k + 1 < len(records) and fields:
            # the line break moves one field to the front of the next line
            records[k + 1].insert(0, fields.pop())
        elif edit in ("field", "index") and len(fields) > 1:
            value = draw(st.sampled_from(FIELDS if edit == "field" else [0, 1, nv, nv + 1]))
            fields[draw(st.integers(1, len(fields) - 1))] = str(value)
    lines = []
    for fields in records:
        if layout == "free":
            lead, trail = draw(st.sampled_from(PADDING)), draw(st.sampled_from(PADDING))
            lines.append(lead + draw(st.sampled_from(SEPARATORS)).join(fields) + trail)
        else:
            lines.append(" ".join(fields))
    endings = ["\n"] * len(lines)
    if layout == "free":
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLERS)))
        endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text[: len(text) - len(endings[-1])]
    return text


def io_meshes():
    """The four container fixtures and boxes whose coordinates print in
    exponent form or as -0.0, by name."""
    return {
        "cube": box_mesh(),
        "cylinder48": cylinder_mesh(segments=48),
        "l-prism": l_prism_mesh(),
        "icosphere4": icosphere_mesh(subdivisions=4),
        "exponent-box": box_mesh(size=(1e16, 2e16, 3e16), origin=(-1e16, 1e-7, -0.0)),
        "tiny-box": box_mesh(size=(3e-5, 1e-5, 2e-5), origin=(-0.0, -0.0, 1e-300)),
    }


def io_cases():
    """Each mesh of :func:`io_meshes` and the liquid body below a tilted
    plane through its bbox center."""
    cases = []
    for name, mesh in io_meshes().items():
        cases.append(pytest.param(mesh, id=name))
        body = liquid_geometry(mesh, [0.1, -0.05, 1.0], 0.0)
        cases.append(pytest.param(body, id=f"{name}-body"))
    return cases


def bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMeshFileEquivalence:
    """``save_mesh`` writes the bytes of a row-by-row writer, and
    ``load_mesh`` reads what a line-by-line reader reads, or fails the same
    way (``oracles.read_mesh_lines``/``write_mesh_rows``)."""

    @pytest.mark.parametrize("mesh", io_cases())
    def test_save_matches_row_writer(self, tmp_path, mesh):
        save_mesh(mesh, tmp_path / "a.mesh")
        oracles.write_mesh_rows(mesh, tmp_path / "b.mesh")
        assert (tmp_path / "a.mesh").read_bytes() == (tmp_path / "b.mesh").read_bytes()

    @pytest.mark.parametrize("mesh", io_cases())
    def test_load_matches_line_reader(self, tmp_path, mesh):
        path = tmp_path / "m.mesh"
        save_mesh(mesh, path)
        verts, tris = oracles.read_mesh_lines(path)
        back = load_mesh(path)
        assert bit_equal(back.vertices, verts) and bit_equal(back.triangles, tris)
        assert bit_equal(back.vertices, mesh.vertices) and bit_equal(back.triangles, mesh.triangles)

    @given(text=mesh_texts())
    @IO_SETTINGS
    def test_load_matches_line_reader_on_any_text(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("io") / "m.mesh"
        path.write_bytes(text.encode("ascii"))
        try:
            verts, tris = oracles.read_mesh_lines(path)
            TriMesh(verts, tris)
        except MeshFormatError as exc:
            expected = (MeshFormatError, str(exc), exc.line)
        except (NotWatertight, ValueError) as exc:
            expected = (type(exc), f"{path}: {exc}", None)
        else:
            expected = None
        try:
            mesh = load_mesh(path)
        except Exception as exc:
            assert isinstance(exc, (LabmechError, ValueError))
            assert (type(exc), str(exc), getattr(exc, "line", None)) == expected
        else:
            assert expected is None
            assert bit_equal(mesh.vertices, verts) and bit_equal(mesh.triangles, tris)
