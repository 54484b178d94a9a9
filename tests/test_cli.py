"""End-to-end tests of the command-line front end."""

import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from labmech import (
    HelixSpec,
    LiquidPlane,
    ReplayTrace,
    TriMesh,
    box_mesh,
    clip_volume,
    cylinder_mesh,
    height_search,
    load_mesh,
    mesh_volume,
    read_trace,
    save_mesh,
    sdf_thread,
    unit_vector,
    write_trace,
)
from labmech import cli, helix
from labmech.cli import main


@pytest.fixture
def cube_path(tmp_path):
    path = tmp_path / "cube.mesh"
    save_mesh(box_mesh(), path)
    return path


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSdfGrid:
    HELIX = ["--r1", "1", "--r2", "0.2", "--p", "0.05", "--l", "-10", "--h", "10"]

    def test_rows_match_direct_evaluation(self, tmp_path, capsys):
        out = tmp_path / "grid.tsv"
        code, _, _ = run(
            ["sdf-grid", *self.HELIX, "--min", "-1", "-1", "-1",
             "--max", "1", "1", "1", "--res", "2", "2", "2", "--output", out],
            capsys,
        )
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 8
        spec = HelixSpec(1.0, 0.2, 0.05, -10.0, 10.0)
        for row in rows:
            x, y, z, d = (float(v) for v in row)
            assert d == sdf_thread(spec, [x, y, z]).distance
        # the bytes of one repr row per grid point
        grid = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 2)] * 3, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        values = sdf_thread(spec, grid).distance
        assert out.read_text() == "".join(
            f"{float(x)!r}\t{float(y)!r}\t{float(z)!r}\t{float(d)!r}\n"
            for (x, y, z), d in zip(grid, values)
        )

    def test_row_major_order_and_count(self, tmp_path, capsys):
        out = tmp_path / "grid.tsv"
        code, _, _ = run(
            ["sdf-grid", *self.HELIX, "--min", "0", "0", "0",
             "--max", "1", "2", "3", "--res", "2", "3", "4", "--output", out],
            capsys,
        )
        assert code == 0
        rows = np.array(
            [[float(v) for v in line.split("\t")] for line in out.read_text().splitlines()]
        )
        assert len(rows) == 2 * 3 * 4
        # z varies fastest, x slowest
        assert (np.diff(rows[:4, 2]) > 0).all()
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0

    def test_bad_resolution_exits_2(self, tmp_path, capsys):
        code, out, err = run(
            ["sdf-grid", *self.HELIX, "--min", "0", "0", "0",
             "--max", "1", "1", "1", "--res", "1", "2", "2",
             "--output", tmp_path / "g.tsv"],
            capsys,
        )
        assert code == 2
        assert "resolution" in err
        assert out == ""

    @pytest.mark.parametrize("res, point", [(2, "(0.0, 0.0, 1e+308)"), (5, "(0.0, 0.0, 2.5e+307)")],
                             ids=["short-call", "array"])
    def test_overflowing_field_exits_2(self, tmp_path, capsys, res, point):
        # 8 and 20 grid points, one on each path of the field, overflow the distance to inf
        assert 8 <= helix._SHORT_CALL_POINTS < 20
        out = tmp_path / "g.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(
                ["sdf-grid", "--r1", "5e-3", "--r2", "4e-4", "--p", "3e-4", "--l", "0", "--h", "8",
                 "--min", "0", "0", "0", "--max", "1e308", "1e308", "1e308",
                 "--res", "2", "2", res, "--output", out],
                capsys,
            )
        assert code == 2
        assert err == (f"sdf-grid: thread field is not finite at grid point {point}; "
                       "the grid reaches past the float range\n")
        assert stdout == ""
        assert not out.exists()

    def test_missing_helix_params_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["sdf-grid", "--r1", "1", "--min", "0", "0", "0",
             "--max", "1", "1", "1", "--res", "2", "2", "2",
             "--output", tmp_path / "g.tsv"],
            capsys,
        )
        assert code == 2
        assert "missing helix parameters" in err

    def test_config_document_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "helix.json"
        config.write_text(json.dumps({
            "version": 1,
            "helix": {"r1": 1.0, "r2": 0.2, "p": 0.05, "l": -10, "h": 10},
        }))
        out = tmp_path / "grid.tsv"
        code, _, _ = run(
            ["sdf-grid", "--config", config, "--r2", "0.1",
             "--min", "0", "0", "0", "--max", "1", "1", "1",
             "--res", "2", "2", "2", "--output", out],
            capsys,
        )
        assert code == 0
        spec = HelixSpec(1.0, 0.1, 0.05, -10.0, 10.0)  # r2 overridden
        first = [float(v) for v in out.read_text().splitlines()[0].split("\t")]
        assert first[3] == sdf_thread(spec, first[:3]).distance

    def test_idempotent_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "grid.tsv"
        args = ["sdf-grid", *self.HELIX, "--min", "0", "0", "0",
                "--max", "1", "1", "1", "--res", "2", "2", "2", "--output", out]
        assert run(args, capsys)[0] == 0
        first = out.read_bytes()
        assert run(args, capsys)[0] == 0
        assert out.read_bytes() == first
        manifest = json.loads((tmp_path / "grid.tsv.manifest.json").read_text())
        assert manifest["command"] == "sdf-grid"
        assert manifest["outputs"] == [str(out)]
        assert "duration_s" in manifest

    def test_manifest_digest_tracks_input_bytes(self, tmp_path, capsys):
        config = tmp_path / "helix.json"
        body = {"version": 1, "helix": {"r1": 1.0, "r2": 0.2, "p": 0.05, "l": -10, "h": 10}}
        config.write_text(json.dumps(body))
        out = tmp_path / "grid.tsv"
        args = ["sdf-grid", "--config", config, "--min", "0", "0", "0",
                "--max", "1", "1", "1", "--res", "2", "2", "2", "--output", out]
        manifest_path = tmp_path / "grid.tsv.manifest.json"

        assert run(args, capsys)[0] == 0
        digest_a = json.loads(manifest_path.read_text())["inputs"][str(config)]
        assert run(args, capsys)[0] == 0
        assert json.loads(manifest_path.read_text())["inputs"][str(config)] == digest_a

        config.write_text(json.dumps(body) + "\n")  # same values, different bytes
        assert run(args, capsys)[0] == 0
        digest_b = json.loads(manifest_path.read_text())["inputs"][str(config)]
        assert digest_b != digest_a


class TestClip:
    def test_unit_cube_fixture(self, cube_path, capsys):
        code, out, err = run(
            ["clip", "--mesh", cube_path, "--normal", "0", "0", "1", "--height", "-0.2"],
            capsys,
        )
        assert code == 0
        assert err == ""
        volume, cut_area = out.split()
        assert volume == "0.300000000000000"
        assert cut_area == "1.000000000000000"

    def test_plane_past_every_vertex_prints_the_capacity(self, tmp_path, capsys):
        # at h = 1e300 the flux sum's rounding dust, scaled by the height,
        # printed as a 281-digit volume
        mesh = cylinder_mesh(radius=14e-3, height=30e-3, segments=48)
        path = tmp_path / "cylinder.mesh"
        save_mesh(mesh, path)
        code, out, err = run(
            ["clip", "--mesh", path, "--normal", "0.6", "0.8", "0", "--height", "1e300"], capsys
        )
        assert (code, err) == (0, "")
        assert out == f"{mesh_volume(load_mesh(path)):.15f} 0.000000000000000\n"

    def test_random_plane_matches_library(self, cube_path, capsys):
        rng = np.random.default_rng(149)
        normal = unit_vector(rng.normal(size=3))
        height = 0.21
        code, out, _ = run(
            ["clip", "--mesh", cube_path, "--normal", *normal, "--height", height],
            capsys,
        )
        assert code == 0
        expected = clip_volume(box_mesh(), LiquidPlane(normal, height))
        assert float(out.split()[0]) == pytest.approx(expected.volume, abs=1e-15)

    @pytest.mark.parametrize(
        "command, scaled, direction",
        [
            (["clip", "--height", "0.1"], ["1e200", "1e200", "0"], ["1", "1", "0"]),
            (["fill-height", "--volume", "0.3"], ["1e-200", "0", "1e-200"], ["1", "0", "1"]),
        ],
        ids=["clip-overflow", "fill-height-underflow"],
    )
    def test_normal_at_float_range_edge(self, cube_path, capsys, command, scaled, direction):
        head = [command[0], "--mesh", cube_path, *command[1:], "--normal"]
        expected = run(head + direction, capsys)
        assert expected[0] == 0
        assert run(head + scaled, capsys) == expected

    @pytest.mark.parametrize("normal", [["inf", "0", "1"], ["0", "nan", "1"]])
    def test_non_finite_normal_exits_2(self, cube_path, capsys, normal):
        code, out, err = run(
            ["clip", "--mesh", cube_path, "--normal", *normal, "--height", "0"], capsys
        )
        assert (code, out, err) == (2, "", "clip: cannot normalize a non-finite vector\n")

    def test_bad_mesh_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mesh"
        bad.write_text("nonsense\n")
        code, _, err = run(
            ["clip", "--mesh", bad, "--normal", "0", "0", "1", "--height", "0"], capsys
        )
        assert code == 2
        assert "line 1" in err

    def test_open_mesh_exits_3(self, tmp_path, capsys):
        open_mesh = tmp_path / "open.mesh"
        open_mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        code, _, err = run(
            ["clip", "--mesh", open_mesh, "--normal", "0", "0", "1", "--height", "0"],
            capsys,
        )
        assert code == 3

    def test_degenerate_mesh_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "degenerate.mesh"
        bad.write_text("v 0 0 0\nf 1 1 1\n")
        code, _, err = run(
            ["clip", "--mesh", bad, "--normal", "0", "0", "1", "--height", "0"], capsys
        )
        assert code == 2
        assert "degenerate" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(
            ["clip", "--mesh", "/nonexistent.mesh", "--normal", "0", "0", "1",
             "--height", "0"],
            capsys,
        )
        assert code == 2


class TestNegativeValues:
    """A value such as -1e-3 is read as a number, not as an option."""

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (["--height", "-1e-3"], ["--height=-1e-3"]),
            (["--height", "-2.5E-1"], ["--height=-2.5E-1"]),
            (["--height", "-.2"], ["--height=-.2"]),
        ],
    )
    def test_clip_height(self, cube_path, capsys, spaced, joined):
        base = ["clip", "--mesh", cube_path, "--normal", "0", "0", "1"]
        code, out, err = run(base + spaced, capsys)
        assert (code, err) == (0, "")
        assert run(base + joined, capsys) == (0, out, "")

    def test_clip_normal(self, cube_path, capsys):
        base = ["clip", "--mesh", cube_path, "--height", "0", "--normal"]
        code, out, err = run(base + ["-1e-3", "0", "1"], capsys)
        assert (code, err) == (0, "")
        assert run(base + ["-0.001", "0", "1"], capsys) == (0, out, "")

    def test_fill_height_guess(self, cube_path, capsys):
        base = ["fill-height", "--mesh", cube_path, "--normal", "0", "0", "1", "--volume", "0.3"]
        code, out, err = run(base + ["--guess", "-1e-3"], capsys)
        assert (code, err) == (0, "")
        assert run(base + ["--guess=-1e-3"], capsys) == (0, out, "")

    def test_score_lists(self, capsys):
        tail = ["--target", "1", "1", "--final", "0.5", "0.5", "--weights", "0.5", "0.5"]
        code, out, err = run(["score", "--initial", "-1e-1", "-5e-2", *tail], capsys)
        assert (code, err) == (0, "")
        assert run(["score", "--initial", "-0.1", "-0.05", *tail], capsys) == (0, out, "")

    def test_non_finite_value_is_bad_input(self, cube_path, capsys):
        code, _, err = run(
            ["clip", "--mesh", cube_path, "--normal", "0", "0", "1", "--height", "-inf"],
            capsys,
        )
        assert code == 2
        assert "finite" in err


class TestFillHeight:
    def test_half_volume(self, cube_path, capsys):
        code, out, _ = run(
            ["fill-height", "--mesh", cube_path, "--normal", "0", "0", "1",
             "--volume", "0.5"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "0.000000000000000"

    def test_matches_library(self, cube_path, capsys):
        code, out, _ = run(
            ["fill-height", "--mesh", cube_path, "--normal", "0", "0", "1",
             "--volume", "0.37"],
            capsys,
        )
        assert code == 0
        expected = height_search(box_mesh(), [0, 0, 1], 0.37).height
        assert float(out) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("volume", ["0", "0.5"])
    def test_empty_mesh_exits_2(self, tmp_path, capsys, volume):
        path = tmp_path / "empty.mesh"
        save_mesh(TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)), path)
        code, out, err = run(
            ["fill-height", "--mesh", path, "--normal", "0", "0", "1", "--volume", volume],
            capsys,
        )
        assert (code, out, err) == (2, "", "fill-height: mesh has no triangles\n")

    def test_overfull_exits_4(self, cube_path, capsys):
        code, _, err = run(
            ["fill-height", "--mesh", cube_path, "--normal", "0", "0", "1",
             "--volume", "2.0"],
            capsys,
        )
        assert code == 4
        assert "outside" in err


class TestLiquid:
    @staticmethod
    def write_scene(tmp_path, cube_path, **overrides):
        scene = {
            "version": 1,
            "scene": {
                "gravity": [0.0, 0.0, -9.81],
                "mesh": cube_path.name,
                "liquid_volume": 0.5,
                "dt": 1e-3,
                "duration": 0.05,
                "pendulum": {
                    "length": 0.02,
                    "damping_phi": 0.01,
                    "damping_theta": 0.01,
                    "epsilon": 2.5e-2,
                },
            },
        }
        scene["scene"].update(overrides)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        return path

    @staticmethod
    def write_trajectory(tmp_path, rows):
        path = tmp_path / "traj.txt"
        path.write_text("\n".join(" ".join(repr(float(v)) for v in r) for r in rows) + "\n")
        return path

    def test_static_scene_summary(self, tmp_path, cube_path, capsys):
        scene = self.write_scene(tmp_path, cube_path)
        traj = self.write_trajectory(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        out_path = tmp_path / "run.trace"
        code, out, err = run(
            ["liquid", "--scene", scene, "--trajectory", traj, "--output", out_path],
            capsys,
        )
        assert code == 0, err
        fields = out.split()
        assert fields[0] == "final_normal"
        assert [float(v) for v in fields[1:4]] == [0.0, 0.0, 1.0]
        assert float(fields[5]) == 0.0  # final height: plane z = 0.5
        trace = read_trace(out_path)
        assert len(trace) == 50

    def test_missing_trajectory_exits_2(self, tmp_path, cube_path, capsys):
        scene = self.write_scene(tmp_path, cube_path)
        code, _, err = run(
            ["liquid", "--scene", scene, "--trajectory", tmp_path / "none.txt",
             "--output", tmp_path / "run.trace"],
            capsys,
        )
        assert code == 2

    def test_bad_trajectory_line_reported(self, tmp_path, cube_path, capsys):
        scene = self.write_scene(tmp_path, cube_path)
        traj = tmp_path / "traj.txt"
        traj.write_text("0.0 0 0 0\n0.001 0 zero 0\n")
        code, _, err = run(
            ["liquid", "--scene", scene, "--trajectory", traj,
             "--output", tmp_path / "run.trace"],
            capsys,
        )
        assert code == 2
        assert "line 2" in err

    def test_lateral_equilibrium_summary(self, tmp_path, cube_path, capsys):
        scene = self.write_scene(tmp_path, cube_path, duration=8.0)
        traj = self.write_trajectory(
            tmp_path, [[0.0, 0.0, 0.0, 0.0], [0.1, 2.0, 0.0, 0.0]]
        )
        out_path = tmp_path / "run.trace"
        code, out, _ = run(
            ["liquid", "--scene", scene, "--trajectory", traj, "--output", out_path],
            capsys,
        )
        assert code == 0
        normal = np.array([float(v) for v in out.split()[1:4]])
        expected = unit_vector([2.0, 0.0, 9.81])
        angle = np.arccos(np.clip(normal @ expected, -1, 1))
        assert angle <= 1e-3

    def test_subnormal_spacing_holds_the_last_sample(self, tmp_path, cube_path, capsys):
        # on a 5e-324 s spacing every step after the first lies past the
        # float range of sample positions and holds the last sample, as on
        # a spacing of one step
        scene = self.write_scene(tmp_path, cube_path, duration=0.01)
        traces = []
        for spacing in (5e-324, 1e-3):
            traj = self.write_trajectory(tmp_path, [[0.0, 0.0, 0.0, 0.0], [spacing, 2.0, 0.0, 0.0]])
            out_path = tmp_path / f"run{spacing}.trace"
            code, _, err = run(
                ["liquid", "--scene", scene, "--trajectory", traj, "--output", out_path], capsys
            )
            assert (code, err) == (0, "")
            traces.append(read_trace(out_path).data)
        assert traces[0].tobytes() == traces[1].tobytes()

    def test_flags_override_scene(self, tmp_path, cube_path, capsys):
        scene = self.write_scene(tmp_path, cube_path)
        traj = self.write_trajectory(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        out_path = tmp_path / "run.trace"
        code, _, _ = run(
            ["liquid", "--scene", scene, "--trajectory", traj, "--output", out_path,
             "--duration", "0.02"],
            capsys,
        )
        assert code == 0
        assert len(read_trace(out_path)) == 20

    def test_scene_file_read_once(self, tmp_path, cube_path, capsys, monkeypatch):
        # the scene and scene.pendulum sections come from one parsed document
        scene = self.write_scene(tmp_path, cube_path)
        traj = self.write_trajectory(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        read = []

        def counting(path, _read=cli._read_text):
            read.append(path)
            return _read(path)

        monkeypatch.setattr(cli, "_read_text", counting)
        code, _, err = run(
            ["liquid", "--scene", scene, "--trajectory", traj, "--output", tmp_path / "run.trace"],
            capsys,
        )
        assert code == 0, err
        assert [str(p) for p in read].count(str(scene)) == 1


class TestDetentAndScrew:
    def test_detent_settles(self, tmp_path, capsys):
        out_path = tmp_path / "knob.trace"
        code, out, _ = run(
            ["detent-sim", "--positions", "0", "0.5", "1.0", "--stiffness", "10",
             "--damping", "0.1", "--inertia", "0.005", "--q0", "0.6",
             "--duration", "10", "--output", out_path],
            capsys,
        )
        assert code == 0
        assert abs(float(out.split()[1]) - 0.5) <= 1e-4
        assert int(out.split()[5]) == 1

    def test_detent_config_section(self, tmp_path, capsys):
        config = tmp_path / "knob.json"
        config.write_text(json.dumps({
            "version": 1,
            "detent": {"positions": [0.0, 0.5, 1.0], "stiffness": 10.0,
                       "damping": 0.1, "inertia": 0.005},
        }))
        out_path = tmp_path / "knob.trace"
        code, out, _ = run(
            ["detent-sim", "--config", config, "--q0", "0.6", "--duration", "2",
             "--output", out_path],
            capsys,
        )
        assert code == 0
        assert abs(float(out.split()[1]) - 0.5) <= 1e-4

    def test_screw_ramp(self, tmp_path, capsys):
        out_path = tmp_path / "screw.trace"
        code, out, _ = run(
            ["screw-sim", "--r1", "1", "--r2", "0.2", "--p", "0.05",
             "--l", "-10", "--h", "10", "--turns", "1", "--duration", "1",
             "--output", out_path],
            capsys,
        )
        assert code == 0
        trace = read_trace(out_path)
        np.testing.assert_allclose(
            trace.column("axial"), 0.05 * trace.column("angle"), rtol=1e-15
        )
        assert float(out.split()[3]) == pytest.approx(2 * np.pi * 0.05, rel=1e-12)

    def test_screw_profile_file(self, tmp_path, capsys):
        profile = tmp_path / "angles.txt"
        profile.write_text("0.0 0.0\n0.1 1.0\n0.2 3.5\n0.3 2.0\n")
        out_path = tmp_path / "screw.trace"
        code, _, _ = run(
            ["screw-sim", "--r1", "1", "--r2", "0.2", "--p", "0.05",
             "--l", "-10", "--h", "10", "--profile", profile,
             "--output", out_path],
            capsys,
        )
        assert code == 0
        trace = read_trace(out_path)
        np.testing.assert_array_equal(trace.column("angle"), [0.0, 1.0, 3.5, 2.0])
        np.testing.assert_allclose(
            trace.column("axial"), 0.05 * trace.column("angle"), rtol=1e-15
        )

    def test_screw_profile_lines_end_only_at_line_breaks(self, tmp_path, capsys):
        # a form feed or vertical tab separates fields, as in a mesh file
        profile = tmp_path / "angles.txt"
        profile.write_bytes(b"0.0\x0c0.0\r\n0.1\x0b1.0\r0.2 3.5\x0c\n")
        out_path = tmp_path / "screw.trace"
        code, _, _ = run(
            ["screw-sim", "--r1", "1", "--r2", "0.2", "--p", "0.05",
             "--l", "-10", "--h", "10", "--profile", profile, "--output", out_path],
            capsys,
        )
        assert code == 0
        np.testing.assert_array_equal(read_trace(out_path).column("angle"), [0.0, 1.0, 3.5])

    def test_screw_zero_duration_writes_one_sample(self, tmp_path, capsys):
        out_path = tmp_path / "screw.trace"
        code, _, _ = run(
            ["screw-sim", "--r1", "1", "--r2", "0.2", "--p", "0.05",
             "--l", "-10", "--h", "10", "--duration", "0", "--output", out_path],
            capsys,
        )
        assert code == 0
        assert read_trace(out_path).data.tolist() == [[0.0, 0.0, 0.0]]


class TestScore:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            ["score", "--initial", "0", "0", "0", "--target", "10", "10", "10",
             "--final", "5", "10", "0", "--weights", "0.5", "0.3", "0.2"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "0.550000000000000"

    def test_degenerate_exits_2(self, capsys):
        code, _, err = run(
            ["score", "--initial", "1", "--target", "1", "--final", "1",
             "--weights", "1.0"],
            capsys,
        )
        assert code == 2
        assert "initial equals target" in err


class TestReplay:
    def make_trace(self, tmp_path, cube_path, capsys, steps=3):
        scene = TestLiquid.write_scene(tmp_path, cube_path, duration=steps * 1e-3)
        traj = TestLiquid.write_trajectory(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        out_path = tmp_path / "run.trace"
        code, _, _ = run(
            ["liquid", "--scene", scene, "--trajectory", traj, "--output", out_path],
            capsys,
        )
        assert code == 0
        return out_path

    def test_table_row_count(self, tmp_path, cube_path, capsys):
        trace_path = self.make_trace(tmp_path, cube_path, capsys, steps=5)
        table = tmp_path / "dump.tsv"
        code, _, _ = run(
            ["replay", "--trace", trace_path, "--export", "table", "--output", table],
            capsys,
        )
        assert code == 0
        assert len(table.read_text().strip().splitlines()) == 2 + 5

    def test_mesh_export_static_trace(self, tmp_path, cube_path, capsys):
        trace_path = self.make_trace(tmp_path, cube_path, capsys, steps=3)
        outdir = tmp_path / "frames"
        code, _, _ = run(
            ["replay", "--trace", trace_path, "--export", "meshes",
             "--mesh", cube_path, "--outdir", outdir],
            capsys,
        )
        assert code == 0
        files = sorted(outdir.glob("step_*.mesh"))
        assert len(files) == 3
        blobs = [f.read_bytes() for f in files]
        assert blobs[0] == blobs[1] == blobs[2]
        body = load_mesh(files[0])
        assert mesh_volume(body) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize(
        "columns, value, message",
        [(("nx", "ny", "nz"), 0.0, "zero vector"), (("height",), np.nan, "finite")],
        ids=["zero-normal", "nan-height"],
    )
    def test_bad_record_exits_2(self, tmp_path, cube_path, capsys, columns, value, message):
        good = read_trace(self.make_trace(tmp_path, cube_path, capsys, steps=3))
        data = good.data.copy()
        data[1, [good.columns.index(c) for c in columns]] = value
        bad = tmp_path / "bad.trace"
        write_trace(ReplayTrace(kind="liquid", columns=good.columns, data=data), bad)
        code, _, err = run(
            ["replay", "--trace", bad, "--export", "meshes",
             "--mesh", cube_path, "--outdir", tmp_path / "frames"],
            capsys,
        )
        assert code == 2
        assert "record 1" in err and message in err

    def test_bad_mesh_is_named(self, tmp_path, cube_path, capsys):
        trace_path = self.make_trace(tmp_path, cube_path, capsys, steps=1)
        bad = tmp_path / "bad.mesh"
        bad.write_text("nonsense\n")
        code, _, err = run(
            ["replay", "--trace", trace_path, "--export", "meshes",
             "--mesh", bad, "--outdir", tmp_path / "frames"],
            capsys,
        )
        assert code == 2
        assert f"{bad}: line 1" in err

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"garbage!")
        code, _, err = run(
            ["replay", "--trace", bad, "--export", "table",
             "--output", tmp_path / "t.tsv"],
            capsys,
        )
        assert code == 2

    def test_table_over_its_own_trace_records_the_bytes_read(self, tmp_path, cube_path, capsys):
        # the table replaces the trace it was read from; the manifest keeps
        # the digest of the trace's bytes, not of the table written over them
        trace_path = self.make_trace(tmp_path, cube_path, capsys, steps=2)
        read = hashlib.sha256(trace_path.read_bytes()).hexdigest()
        code, _, err = run(
            ["replay", "--trace", trace_path, "--export", "table", "--output", trace_path],
            capsys,
        )
        assert code == 0, err
        assert trace_path.read_text().startswith("# kind=liquid records=2\n")
        manifest = json.loads(Path(f"{trace_path}.manifest.json").read_text())
        assert manifest["inputs"] == {str(trace_path): read}
        assert manifest["outputs"] == [str(trace_path)]

    def test_mesh_export_over_its_own_trace_records_the_bytes_read(self, tmp_path, cube_path,
                                                                   capsys):
        # the first body is written over the trace, inside --outdir
        frames = tmp_path / "frames"
        frames.mkdir()
        trace_path = frames / "step_000000.mesh"
        self.make_trace(tmp_path, cube_path, capsys, steps=2).rename(trace_path)
        read = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (trace_path, cube_path)}
        code, _, err = run(
            ["replay", "--trace", trace_path, "--export", "meshes",
             "--mesh", cube_path, "--outdir", frames],
            capsys,
        )
        assert code == 0, err
        assert load_mesh(trace_path).vertices.size
        manifest = json.loads(Path(f"{trace_path}.manifest.json").read_text())
        assert manifest["inputs"] == read

    def test_liquid_over_its_own_trajectory_records_the_bytes_read(self, tmp_path, cube_path,
                                                                   capsys):
        scene = TestLiquid.write_scene(tmp_path, cube_path, duration=2e-3)
        traj = TestLiquid.write_trajectory(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        read = hashlib.sha256(traj.read_bytes()).hexdigest()
        code, _, err = run(
            ["liquid", "--scene", scene, "--trajectory", traj, "--output", traj], capsys,
        )
        assert code == 0, err
        assert len(read_trace(traj)) == 2
        manifest = json.loads(Path(f"{traj}.manifest.json").read_text())
        assert manifest["inputs"][str(traj)] == read

    def test_table_without_output_exits_2(self, tmp_path, capsys):
        code, _, err = run(["replay", "--trace", tmp_path / "x", "--export", "table"], capsys)
        assert code == 2
        assert "--output" in err


class TestExitCodes:
    """Each failure exits with its documented code and a one-line
    ``<command>: `` diagnostic, never a traceback."""

    HELIX = TestSdfGrid.HELIX
    DETENT = ["--positions", "0", "0.5", "--stiffness", "10"]

    @pytest.fixture
    def files(self, tmp_path):
        open_mesh = tmp_path / "open.mesh"
        open_mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        latin = tmp_path / "latin.mesh"
        latin.write_bytes(b"v 0 0 0\nv 1 0 0\xff")
        traj = tmp_path / "traj.txt"
        traj.write_text("0.0 0 0 0\n")
        liquid = tmp_path / "liquid.trace"
        write_trace(
            ReplayTrace(kind="liquid", columns=("nx", "ny", "nz", "height"),
                        data=[[0.0, 0.0, 1.0, 0.0]] * 3),
            liquid,
        )
        truncated = tmp_path / "truncated.trace"
        truncated.write_bytes(liquid.read_bytes()[:-8])
        no_nz = tmp_path / "no_nz.trace"
        write_trace(
            ReplayTrace(kind="liquid", columns=("nx", "ny", "height"),
                        data=[[0.0, 0.0, 0.0]]),
            no_nz,
        )
        cube = tmp_path / "cube.mesh"
        save_mesh(box_mesh(), cube)
        profiles = {
            "equal": b"0.0 0.0\n0.0 1.0\n",
            "gappy": b"0 0.0\n1 1.0\n5 2.0\n",
            "nan": b"0.0 0.0\n0.1 nan\n",
            "text": b"0.0 0.0\n0.1 one\n",
            "one": b"0.0 0.5\n",
            "utf8": b"0.0 0.0\r\n0.1 1.0\r\n0.2 \xff\n",
            "formfeed": b"0.0 0.0\x0c\n0.1 1.0\n0.2 x\n",
        }
        for name, body in profiles.items():
            (tmp_path / f"{name}.txt").write_bytes(body)
        (tmp_path / "utf8.json").write_bytes(b'{"version": 1,\n "helix": "\xc3\xa9\xff"}\n')
        documents = {
            "bad.json": '{"version": 1,\n "helix": }\n',
            "list.json": "[1]\n",
            "v2.json": '{"version": 2}\n',
            "section.json": '{"version": 1, "helix": [1]}\n',
            "narrow.txt": "0 0 0\n",
            "mixed.txt": "0 0 0 0\n0.001 0 0 0 1 0 0 0\n",
            "blank.txt": "# time ax ay az\n\n",
            "uneven.txt": "0 0 0 0\n0.001 0 0 0\n0.003 0 0 0\n",
        }
        for name, text in documents.items():
            (tmp_path / name).write_text(text)
        write_trace(ReplayTrace(kind="screw", columns=("time", "angle", "axial"),
                                data=[[0.0, 0.0, 0.0]]), tmp_path / "screw.trace")
        write_trace(ReplayTrace(kind="liquid", columns=("nx", "ny", "nz", "height"),
                                data=np.zeros((0, 4))), tmp_path / "empty.trace")
        return {
            "dir": tmp_path, "open": open_mesh, "latin": latin, "traj": traj,
            "liquid": liquid, "truncated": truncated, "no_nz": no_nz, "cube": cube,
        }

    LIQUID = ["liquid", "--trajectory", "{traj}", "--output", "{dir}/run.trace",
              "--mesh", "{cube}", "--liquid-volume", "0.5", "--pend-length", "0.02"]
    KNOB = ["detent-sim", "--positions", "0", "0.5", "--output", "{dir}/k.trace"]
    SCREW = ["screw-sim", *HELIX, "--output", "{dir}/s.trace"]
    FILL = ["fill-height", "--mesh", "{cube}", "--normal", "0", "0", "1", "--volume", "0.3"]
    GRID = ["sdf-grid", *HELIX, "--min", "0", "0", "0", "--max", "1", "1", "1",
            "--output", "{dir}/g.tsv"]

    @pytest.mark.parametrize(
        "argv, code, fragment",
        [
            (["liquid", "--trajectory", "{traj}", "--output", "{dir}/run.trace",
              "--mesh", "{open}", "--liquid-volume", "0.1", "--pend-length", "0.02"],
             3, "{open}: mesh has boundary edges"),
            (["replay", "--trace", "{liquid}", "--export", "meshes", "--mesh", "{open}",
              "--outdir", "{dir}/frames"], 3, "{open}: mesh has boundary edges"),
            (["clip", "--mesh", "{latin}", "--normal", "0", "0", "1", "--height", "0"],
             2, "{latin}: line 2: byte 0xff is not ASCII"),
            (["screw-sim", *HELIX, "--profile", "{dir}/equal.txt",
              "--output", "{dir}/s.trace"], 2, "strictly increasing"),
            (["screw-sim", *HELIX, "--profile", "{dir}/gappy.txt",
              "--output", "{dir}/s.trace"], 2, "uniformly spaced"),
            (["screw-sim", *HELIX, "--profile", "{dir}/nan.txt",
              "--output", "{dir}/s.trace"], 2, "finite"),
            (["screw-sim", *HELIX, "--profile", "{dir}/text.txt",
              "--output", "{dir}/s.trace"], 2, "text.txt: line 2: non-numeric"),
            (["screw-sim", *HELIX, "--dt", "0", "--output", "{dir}/s.trace"],
             2, "dt must be positive"),
            (["screw-sim", *HELIX, "--dt", "-1", "--output", "{dir}/s.trace"],
             2, "dt must be positive"),
            (["detent-sim", *DETENT, "--inertia", "0", "--output", "{dir}/k.trace"],
             2, "inertia must be positive"),
            (["detent-sim", *DETENT, "--inertia", "0.005", "--dt", "1", "--duration", "0.1",
              "--output", "{dir}/k.trace"], 2, "covers no whole step"),
            (["replay", "--trace", "{truncated}", "--export", "table",
              "--output", "{dir}/t.tsv"], 2, "record 2: data section"),
            ([*LIQUID, "--duration", "inf"], 2, "duration must be nonnegative and finite"),
            ([*LIQUID, "--pend-epsilon", "nan"], 2, "epsilon must be positive and finite"),
            ([*LIQUID, "--pend-length", "nan"], 2, "length must be positive and finite"),
            ([*LIQUID, "--pend-damping-phi", "nan"], 2,
             "damping_phi must be nonnegative and finite"),
            ([*LIQUID, "--pend-mass", "inf"], 2, "mass must be positive and finite"),
            ([*LIQUID, "--dt", "nan"], 2, "dt must be positive and finite, got nan"),
            ([*KNOB, "--stiffness", "10", "--inertia", "0.005", "--duration", "inf"],
             2, "duration must be nonnegative and finite"),
            ([*KNOB, "--stiffness", "10", "--inertia", "nan"],
             2, "inertia must be positive and finite"),
            ([*KNOB, "--stiffness", "nan", "--inertia", "0.005"],
             2, "stiffness must be positive and finite"),
            ([*KNOB, "--stiffness", "10", "--damping", "nan", "--inertia", "0.005"],
             2, "damping must be nonnegative and finite"),
            ([*KNOB, "--stiffness", "10", "--inertia", "0.005", "--torque", "nan"],
             2, "step 0: external_torque must be finite"),
            ([*SCREW, "--duration", "inf"], 2, "duration must be nonnegative and finite"),
            ([*SCREW, "--profile", "{dir}/one.txt", "--dt", "inf"],
             2, "dt must be positive and finite, got inf"),
            ([*SCREW, "--profile", "{dir}/one.txt", "--dt", "nan"],
             2, "dt must be positive and finite, got nan"),
            ([*LIQUID, "--pend-length", "1e-200", "--duration", "0.01"],
             3, "step 0: pendulum step failed: float division by zero"),
            ([*SCREW, "--profile", "{dir}/utf8.txt"],
             2, "{dir}/utf8.txt: line 3: byte 0xff is not UTF-8"),
            (["sdf-grid", "--config", "{dir}/utf8.json", "--min", "0", "0", "0",
              "--max", "1", "1", "1", "--res", "2", "2", "2", "--output", "{dir}/g.tsv"],
             2, "{dir}/utf8.json: line 2: byte 0xff is not UTF-8"),
            ([*SCREW, "--profile", "{dir}/formfeed.txt"],
             2, "{dir}/formfeed.txt: line 3: non-numeric field"),
            (["replay", "--trace", "{no_nz}", "--export", "meshes", "--mesh", "{cube}",
              "--outdir", "{dir}/frames"], 2, "liquid trace has no column 'nz'"),
            ([*LIQUID, "--duration", "1e300"], 2, "duration 1e+300 at dt 0.001 has too many steps"),
            ([*KNOB, "--stiffness", "10", "--inertia", "0.005", "--duration", "1e300"],
             2, "duration 1e+300 at dt 0.001 has too many steps"),
            # countable, but 2 EiB (knob) and 5 EiB (liquid) of rows: malloc refuses
            # outright, whatever the host's overcommit setting
            ([*KNOB, "--stiffness", "10", "--inertia", "0.005", "--duration", "7.2e13"],
             2, "duration 72000000000000.0 needs 72000000000000000 steps, more rows than"),
            ([*LIQUID, "--duration", "7.2e13"],
             2, "duration 72000000000000.0 needs 72000000000000000 steps, more rows than"),
            # 7.1 PiB of angles, 2.4 EiB for the grid's first coordinate array:
            # malloc refuses both outright
            ([*SCREW, "--duration", "1e12"], 2, "--duration 1000000000000.0 at --dt 0.001 "
             "needs 1000000000000001 samples, more than memory can hold"),
            ([*GRID, "--res", "700000", "700000", "700000"], 2,
             "--res 700000 700000 700000 needs 343000000000000000 grid points, more than"),
            # 1e18 rows of three floats: more bytes than an array can describe
            ([*GRID, "--res", "1000000", "1000000", "1000000"], 2,
             "--res 1000000 1000000 1000000 needs 1000000000000000000 grid points, more than"),
            (["sdf-grid", *HELIX, "--min", "nan", "0", "0", "--max", "1", "1", "1",
              "--res", "2", "2", "2", "--output", "{dir}/g.tsv"], 2, "--min must be finite, got nan 0.0 0.0"),
            (["sdf-grid", *HELIX, "--min", "0", "0", "0", "--max", "inf", "1", "1",
              "--res", "2", "2", "2", "--output", "{dir}/g.tsv"], 2, "--max must be finite, got inf 1.0 1.0"),
            ([*FILL, "--guess", "nan"], 2, "h_prev must be finite, got nan"),
            ([*FILL, "--guess", "inf"], 2, "h_prev must be finite, got inf"),
            ([*FILL, "--guess", "-inf"], 2, "h_prev must be finite, got -inf"),
            ([*GRID, "--res", "2", "2", "2", "--config", "{dir}/bad.json"],
             2, "{dir}/bad.json: line 2 column 11: Expecting value"),
            ([*GRID, "--res", "2", "2", "2", "--config", "{dir}/list.json"],
             2, "{dir}/list.json: config must be a JSON object"),
            ([*GRID, "--res", "2", "2", "2", "--config", "{dir}/v2.json"],
             2, "{dir}/v2.json: unsupported config version 2, expected 1"),
            ([*GRID, "--res", "2", "2", "2", "--config", "{dir}/section.json"],
             2, "{dir}/section.json: section 'helix' must be a JSON object"),
            ([*LIQUID, "--trajectory", "{dir}/narrow.txt"],
             2, "{dir}/narrow.txt: line 1: expected 4 or 8 columns, got 3"),
            ([*LIQUID, "--trajectory", "{dir}/mixed.txt"],
             2, "{dir}/mixed.txt: line 2: inconsistent column count"),
            ([*LIQUID, "--trajectory", "{dir}/blank.txt"], 2, "{dir}/blank.txt: no data rows"),
            ([*LIQUID, "--trajectory", "{dir}/uneven.txt"],
             2, "{dir}/uneven.txt: timestamps must be uniformly spaced"),
            (["sdf-grid", *HELIX, "--min", "0", "0", "0", "--max", "1", "0", "1",
              "--res", "2", "2", "2", "--output", "{dir}/g.tsv"],
             2, "grid max corner must exceed min corner componentwise"),
            (["replay", "--trace", "{liquid}", "--export", "meshes", "--mesh", "{cube}"],
             2, "mesh export needs --outdir"),
            (["replay", "--trace", "{liquid}", "--export", "meshes", "--outdir", "{dir}/frames"],
             2, "mesh export needs --mesh (the container)"),
            (["replay", "--trace", "{dir}/screw.trace", "--export", "meshes", "--mesh", "{cube}",
              "--outdir", "{dir}/frames"], 2, "mesh export needs a liquid trace, got kind 'screw'"),
            (["replay", "--trace", "{dir}/empty.trace", "--export", "meshes", "--mesh", "{cube}",
              "--outdir", "{dir}/frames"], 2, "trace has no records"),
        ],
        ids=[
            "liquid-open-mesh", "replay-open-mesh", "clip-non-ascii-mesh", "screw-equal-times",
            "screw-uneven-times", "screw-nan-angle", "screw-text-field", "screw-dt-0",
            "screw-dt-negative", "detent-zero-inertia", "detent-short-duration",
            "replay-truncated-trace", "liquid-duration-inf", "liquid-epsilon-nan",
            "liquid-length-nan", "liquid-damping-phi-nan", "liquid-mass-inf", "liquid-dt-nan",
            "detent-duration-inf", "detent-inertia-nan", "detent-stiffness-nan",
            "detent-damping-nan", "detent-torque-nan", "screw-duration-inf",
            "screw-one-row-dt-inf", "screw-one-row-dt-nan", "liquid-length-underflow",
            "screw-non-utf8-profile", "sdf-grid-non-utf8-config", "screw-form-feed-line-number",
            "replay-missing-column", "liquid-duration-past-array", "detent-duration-past-array",
            "detent-duration-past-memory", "liquid-duration-past-memory",
            "screw-duration-past-memory", "sdf-grid-res-past-memory", "sdf-grid-res-past-array",
            "sdf-grid-min-nan", "sdf-grid-max-inf", "fill-height-guess-nan", "fill-height-guess-inf", "fill-height-guess-minus-inf",
            "sdf-grid-invalid-json", "sdf-grid-config-not-object", "sdf-grid-config-version",
            "sdf-grid-section-not-object", "liquid-trajectory-width", "liquid-trajectory-mixed-widths",
            "liquid-trajectory-no-rows", "liquid-trajectory-uneven-times", "sdf-grid-max-not-above-min",
            "replay-meshes-no-outdir", "replay-meshes-no-mesh", "replay-meshes-screw-trace",
            "replay-meshes-no-records",
        ],
    )
    def test_failure_exit_code(self, files, capsys, argv, code, fragment):
        exit_code, out, err = run([a.format(**files) for a in argv], capsys)
        assert (exit_code, out) == (code, "")
        assert err.startswith(f"{argv[0]}: ")
        assert fragment.format(**files) in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1


class TestParserReuse:
    def test_second_call_records_only_its_own_flags(self, tmp_path, capsys):
        base = ["detent-sim", "--positions", "0", "0.5", "--stiffness", "10",
                "--inertia", "0.005", "--duration", "0.01"]
        first, second = tmp_path / "first.trace", tmp_path / "second.trace"
        code, _, _ = run(
            [*base, "--damping", "0.3", "--torque", "0.2", "--q0", "0.1", "--qdot0", "-1",
             "--dt", "1e-4", "--output", first],
            capsys,
        )
        assert code == 0
        code, _, _ = run([*base, "--output", second], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "second.trace.manifest.json").read_text())
        assert manifest["parameters"] == {
            "command": "detent-sim", "positions": [0.0, 0.5], "stiffness": 10.0,
            "inertia": 0.005, "duration": 0.01, "torque": 0.0, "q0": 0.0, "qdot0": 0.0,
            "dt": 1e-3, "output": str(second),
        }


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        mesh = tmp_path / "cube.mesh"
        save_mesh(box_mesh(), mesh)
        result = subprocess.run(
            [sys.executable, "-m", "labmech", "clip", "--mesh", str(mesh),
             "--normal", "0", "0", "1", "--height", "-0.2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.split()[0] == "0.300000000000000"
        assert result.stderr == ""
