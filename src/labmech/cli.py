"""
Command-line front end for batch evaluation and artifact export.

Commands: sdf-grid, liquid, clip, fill-height, detent-sim, screw-sim,
score, replay.  Results go to files or stdout; diagnostics go to stderr;
exit codes are the only failure channel: 0 ok; 2 bad input or parse
failure (bad flags, config, trajectory, profile, mesh file or trace, and
unreadable files); 3 solver or mesh failure (an open or non-manifold
mesh, no convergence, a diverging state, a cut that cannot be capped); 4
liquid volume out of range.  Commands raise and :func:`main` maps the
error to its code.

Parameters are taken from flags, from a JSON config document
(``--config``, schema version 1 with optional ``helix``, ``detent``, and
``scene`` sections), or both, with flags overriding the document.  Every
command that writes a file also writes a ``<output>.manifest.json``
sidecar recording the command, parameters, SHA-256 digests of the exact
input bytes read, the output list, and the wall-clock duration (the
manifest is the one output that varies between identical runs).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .detent import DetentProfile
from .errors import (
    DegenerateTerm,
    LabmechError,
    MalformedTrace,
    MeshFormatError,
    VolumeOutOfRange,
    _count,
    _memory_for,
    _step_count,
)
from .harness import (
    FrameTrajectory,
    ProgressSpec,
    SceneConfig,
    _uniform_step,
    progress_score,
    run_knob_scene,
    run_liquid_scene,
    run_screw_scene,
)
from .helix import HelixSpec, sdf_thread
from .mesh import LiquidPlane, clip_volume, height_search, liquid_geometry, load_mesh, save_mesh, unit_vector
from .pendulum import PendulumParams
from .trace import read_trace, trace_table, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_VOLUME = 4

CONFIG_VERSION = 1


def _digests(paths) -> dict:
    """SHA-256 of each input file by path.  A command takes them before it
    writes its first output, so an output written over one of its inputs
    leaves the digest of the bytes the command read."""
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _write_manifest(command, args, inputs, outputs, duration) -> None:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and v is not None
    }
    manifest = {
        "command": command,
        "parameters": params,
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "duration_s": duration,
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_text(path) -> str:
    """A UTF-8 text file, line ends read as :func:`load_mesh` reads them;
    ValueError naming the path and line of a byte that is not UTF-8."""
    # no byte of a multibyte UTF-8 character is \r or \n
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ln = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {ln}: byte {data[exc.start]:#04x} is not UTF-8") from None


def _load_config(path) -> dict:
    """Parse a version-1 JSON config document; empty without a path."""
    if not path:
        return {}
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ValueError(
            f"{path}: unsupported config version {doc.get('version')!r}, expected {CONFIG_VERSION}"
        )
    return doc


def _section(path, doc, name, args, keys, required, prefix="") -> dict:
    """Section ``name`` (dotted for a nested section) of the config document
    ``doc`` that :func:`_load_config` read from ``path``, with the flags
    given for ``keys`` laid over it; the flag for key ``k`` is
    ``args.<prefix><k>``.  Raises ValueError naming the ``required`` keys
    still missing."""
    section = doc
    for part in name.split("."):
        section = section.get(part, {})
        if not isinstance(section, dict):
            raise ValueError(f"{path}: section '{name}' must be a JSON object")
    merged = dict(section)
    for key in keys:
        value = getattr(args, prefix + key)
        if value is not None:
            merged[key] = value
    missing = [k for k in required if k not in merged]
    if missing:
        raise ValueError(f"missing {name} parameters: {', '.join(missing)}")
    return merged


def _helix_from(args) -> HelixSpec:
    keys = ("r1", "r2", "p", "l", "h")
    merged = _section(args.config, _load_config(args.config), "helix", args, keys, keys)
    return HelixSpec(**{k: merged[k] for k in keys})


def _read_table(path, widths) -> np.ndarray:
    """Float rows of a whitespace-separated text table, skipping blank and
    ``#`` lines; all rows have one width, which is one of ``widths``."""
    rows = []
    for ln, raw in enumerate(_read_text(path).split("\n"), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) not in widths:
            expected = " or ".join(str(w) for w in widths)
            raise ValueError(f"{path}: line {ln}: expected {expected} columns, got {len(fields)}")
        if rows and len(fields) != len(rows[0]):
            raise ValueError(f"{path}: line {ln}: inconsistent column count")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise ValueError(f"{path}: line {ln}: non-numeric field") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def _load_trajectory(path) -> FrameTrajectory:
    """Tabular text: columns time ax ay az, optionally qw qx qy qz."""
    table = _read_table(path, (4, 8))
    try:
        return FrameTrajectory(
            table[:, 0], table[:, 1:4], table[:, 4:] if table.shape[1] == 8 else None
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands: each raises on failure and returns the digests of its inputs
# (see _digests) and the outputs it wrote, or None when it only prints


def cmd_sdf_grid(args):
    spec = _helix_from(args)
    mins = np.array(args.min, dtype=float)
    maxs = np.array(args.max, dtype=float)
    for flag, corner in (("--min", mins), ("--max", maxs)):
        if not np.isfinite(corner).all():
            raise ValueError(f"{flag} must be finite, got {' '.join(map(repr, corner.tolist()))}")
    if (maxs <= mins).any():
        raise ValueError("grid max corner must exceed min corner componentwise")
    res = [_count("grid resolution", r, 2) for r in args.res]
    points = math.prod(res)
    past = (f"--res {' '.join(map(str, res))} needs {points} grid points, "
            "more than memory can hold")
    # a grid that reaches past the float range is refused below, not warned about
    with _memory_for(points, 3, past), np.errstate(over="ignore", invalid="ignore"):
        axes = [np.linspace(mins[i], maxs[i], res[i]) for i in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        values = sdf_thread(spec, grid).distance
    overflowed = np.flatnonzero(~np.isfinite(values))
    if overflowed.size:
        x, y, z = grid[overflowed[0]].tolist()
        raise ValueError(f"thread field is not finite at grid point ({x!r}, {y!r}, {z!r}); "
                         "the grid reaches past the float range")
    with _memory_for(points, 3, past):
        rows = "".join(f"{x!r}\t{y!r}\t{z!r}\t{d!r}\n"
                       for (x, y, z), d in zip(grid.tolist(), values.tolist()))
    inputs = _digests([args.config] if args.config else [])
    out = Path(args.output)
    with out.open("w") as fh:
        fh.write(rows)
    return inputs, [out]


def _scene_from(args) -> tuple[SceneConfig, list]:
    doc = _load_config(args.scene)
    merged = _section(
        args.scene, doc, "scene", args, ("gravity", "mesh", "liquid_volume", "dt", "duration"),
        ("mesh", "liquid_volume"),
    )
    pend = _section(
        args.scene, doc, "scene.pendulum", args,
        ("length", "mass", "damping_phi", "damping_theta", "epsilon"), ("length",), "pend_",
    )
    mesh_path = Path(merged["mesh"])
    if not mesh_path.is_absolute() and args.scene:
        mesh_path = Path(args.scene).parent / mesh_path
    config = SceneConfig(
        gravity=np.asarray(merged.get("gravity", (0.0, 0.0, -9.81)), dtype=float),
        container=load_mesh(mesh_path),
        pendulum=PendulumParams(**pend),
        liquid_volume=merged["liquid_volume"],
        dt=merged.get("dt", 1e-3),
        duration=merged.get("duration", 1.0),
    )
    return config, [p for p in (args.scene, mesh_path) if p]


def cmd_liquid(args):
    config, inputs = _scene_from(args)
    trajectory = _load_trajectory(args.trajectory)
    result = run_liquid_scene(config, trajectory)
    inputs = _digests([*inputs, args.trajectory])
    write_trace(result, args.output)
    nx, ny, nz, height, residual = map(result.column, ("nx", "ny", "nz", "height", "residual"))
    print(
        f"final_normal {nx[-1]:.15f} {ny[-1]:.15f} {nz[-1]:.15f} "
        f"final_height {height[-1]:.15f} max_residual {residual.max():.6e}"
    )
    return inputs, [Path(args.output)]


def cmd_clip(args):
    mesh = load_mesh(args.mesh)
    result = clip_volume(mesh, LiquidPlane(unit_vector(args.normal), args.height))
    print(f"{result.volume:.15f} {result.cut_area:.15f}")


def cmd_fill_height(args):
    mesh = load_mesh(args.mesh)
    found = height_search(mesh, unit_vector(args.normal), args.volume, args.guess)
    print(f"{found.height:.15f}")


def cmd_detent_sim(args):
    merged = _section(
        args.config, _load_config(args.config), "detent", args,
        ("positions", "stiffness", "damping", "inertia"), ("positions", "stiffness", "inertia"),
    )
    profile = DetentProfile(
        positions=np.asarray(merged["positions"], dtype=float),
        stiffness=merged["stiffness"],
        damping=merged.get("damping", 0.0),
    )
    result = run_knob_scene(
        profile, args.torque, merged["inertia"],
        dt=args.dt, duration=args.duration, q0=args.q0, qdot0=args.qdot0,
    )
    inputs = _digests([args.config] if args.config else [])
    write_trace(result, args.output)
    last = result.data[-1]
    print(
        "final_q {:.15f} final_qdot {:.15f} index {}".format(
            last[1], last[2], int(last[3])
        )
    )
    return inputs, [Path(args.output)]


def cmd_screw_sim(args):
    spec = _helix_from(args)
    if args.profile:
        table = _read_table(args.profile, (2,))
        try:
            dt = _uniform_step(table[:, 0]) if len(table) > 1 else args.dt
        except ValueError as exc:
            raise ValueError(f"{args.profile}: {exc}") from None
        result = run_screw_scene(spec, table[:, 1], dt=dt)
    else:
        steps = _step_count(args.dt, args.duration, minimum=0)
        past = (f"--duration {args.duration} at --dt {args.dt} needs {steps + 1} samples, "
                "more than memory can hold")
        # the trace's time, angle and axial columns
        with _memory_for(steps + 1, 3, past):
            angles = np.linspace(0.0, 2.0 * np.pi * args.turns, steps + 1)
            result = run_screw_scene(spec, angles, dt=args.dt)
    inputs = _digests([p for p in (args.config, args.profile) if p])
    write_trace(result, args.output)
    last = result.data[-1]
    print(f"final_angle {last[1]:.15f} final_axial {last[2]:.15f}")
    return inputs, [Path(args.output)]


def cmd_score(args):
    spec = ProgressSpec(
        initial=args.initial, target=args.target,
        final=args.final, weights=args.weights,
    )
    print(f"{progress_score(spec):.15f}")


def cmd_replay(args):
    if args.export == "table":
        if not args.output:
            raise ValueError("table export needs --output")
        table = trace_table(read_trace(args.trace))
        inputs = _digests([args.trace])
        out = Path(args.output)
        out.write_text(table)
        return inputs, [out]
    # mesh export: rebuild the liquid body for every record
    if not args.outdir:
        raise ValueError("mesh export needs --outdir")
    result = read_trace(args.trace)
    if result.kind != "liquid":
        raise ValueError(f"mesh export needs a liquid trace, got kind '{result.kind}'")
    if not args.mesh:
        raise ValueError("mesh export needs --mesh (the container)")
    if not len(result):
        raise ValueError("trace has no records")
    nx, ny, nz, height = map(result.column, ("nx", "ny", "nz", "height"))
    container = load_mesh(args.mesh)
    inputs = _digests([args.trace, args.mesh])
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i in range(len(result)):
        normal = np.array([nx[i], ny[i], nz[i]])
        try:
            body = liquid_geometry(container, normal, height[i])
        except (ValueError, LabmechError) as exc:
            raise type(exc)(f"record {i}: {exc}") from exc
        path = outdir / f"step_{i:06d}.mesh"
        save_mesh(body, path)
        outputs.append(path)
    return inputs, outputs


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reads every token that parses as a negative float (``-1e-3``,
    ``-.5``, ``-inf``) as a value, not as an option; argparse on its own
    accepts only the ``-1`` and ``-0.5`` shapes.  Subcommand parsers
    inherit the class."""

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-"):
            try:
                float(arg_string)
            except ValueError:
                pass
            else:
                return None
        return super()._parse_optional(arg_string)


def _add_helix_flags(sub):
    sub.add_argument("--r1", type=float, help="helix radius")
    sub.add_argument("--r2", type=float, help="gauge (wire) radius")
    sub.add_argument("--p", type=float, help="axial advance per radian")
    sub.add_argument("--l", type=float, help="start turn count")
    sub.add_argument("--h", type=float, help="end turn count")
    sub.add_argument("--config", help="JSON config document (section 'helix')")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call; parsing leaves it unchanged (every default is
    immutable), so it must not be modified."""
    parser = _Parser(
        prog="labmech",
        description="Laboratory-mechanism physics kernel: thread fields, detents, "
        "eccentric drives, quasi-static liquids.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("sdf-grid", help="evaluate the thread field on a grid")
    _add_helix_flags(sub)
    sub.add_argument("--min", type=float, nargs=3, required=True, metavar=("X", "Y", "Z"))
    sub.add_argument("--max", type=float, nargs=3, required=True, metavar=("X", "Y", "Z"))
    sub.add_argument("--res", type=int, nargs=3, required=True, metavar=("NX", "NY", "NZ"))
    sub.add_argument("--output", required=True, help="TSV output path")
    sub.set_defaults(func=cmd_sdf_grid)

    sub = subs.add_parser("liquid", help="run a quasi-static liquid scene")
    sub.add_argument("--scene", help="JSON config document (section 'scene')")
    sub.add_argument("--trajectory", required=True, help="tabular frame trajectory")
    sub.add_argument("--output", required=True, help="trace output path")
    sub.add_argument("--gravity", type=float, nargs=3, metavar=("GX", "GY", "GZ"))
    sub.add_argument("--mesh", help="container mesh path (overrides scene)")
    sub.add_argument("--liquid-volume", dest="liquid_volume", type=float)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--duration", type=float)
    sub.add_argument("--pend-length", dest="pend_length", type=float)
    sub.add_argument("--pend-mass", dest="pend_mass", type=float)
    sub.add_argument("--pend-damping-phi", dest="pend_damping_phi", type=float)
    sub.add_argument("--pend-damping-theta", dest="pend_damping_theta", type=float)
    sub.add_argument("--pend-epsilon", dest="pend_epsilon", type=float)
    sub.set_defaults(func=cmd_liquid)

    sub = subs.add_parser("clip", help="clipped volume and cut area of a mesh")
    sub.add_argument("--mesh", required=True)
    sub.add_argument("--normal", type=float, nargs=3, required=True, metavar=("NX", "NY", "NZ"))
    sub.add_argument("--height", type=float, required=True,
                     help="plane offset along the normal from the bbox center")
    sub.set_defaults(func=cmd_clip)

    sub = subs.add_parser("fill-height", help="solve the height holding a liquid volume")
    sub.add_argument("--mesh", required=True)
    sub.add_argument("--normal", type=float, nargs=3, required=True, metavar=("NX", "NY", "NZ"))
    sub.add_argument("--volume", type=float, required=True)
    sub.add_argument("--guess", type=float, help="initial height guess")
    sub.set_defaults(func=cmd_fill_height)

    sub = subs.add_parser("detent-sim", help="simulate a detent knob")
    sub.add_argument("--positions", type=float, nargs="+", help="gear positions")
    sub.add_argument("--stiffness", type=float)
    sub.add_argument("--damping", type=float)
    sub.add_argument("--inertia", type=float)
    sub.add_argument("--config", help="JSON config document (section 'detent')")
    sub.add_argument("--torque", type=float, default=0.0)
    sub.add_argument("--q0", type=float, default=0.0)
    sub.add_argument("--qdot0", type=float, default=0.0)
    sub.add_argument("--dt", type=float, default=1e-3)
    sub.add_argument("--duration", type=float, default=1.0)
    sub.add_argument("--output", required=True, help="trace output path")
    sub.set_defaults(func=cmd_detent_sim)

    sub = subs.add_parser("screw-sim", help="kinematic screw replay")
    _add_helix_flags(sub)
    sub.add_argument("--turns", type=float, default=1.0, help="turns of the generated ramp")
    sub.add_argument("--duration", type=float, default=1.0)
    sub.add_argument("--dt", type=float, default=1e-3)
    sub.add_argument("--profile", help="tabular 'time angle' profile (overrides the ramp)")
    sub.add_argument("--output", required=True, help="trace output path")
    sub.set_defaults(func=cmd_screw_sim)

    sub = subs.add_parser("score", help="weighted relative progress score")
    sub.add_argument("--initial", type=float, nargs="+", required=True)
    sub.add_argument("--target", type=float, nargs="+", required=True)
    sub.add_argument("--final", type=float, nargs="+", required=True)
    sub.add_argument("--weights", type=float, nargs="+", required=True)
    sub.set_defaults(func=cmd_score)

    sub = subs.add_parser("replay", help="export a recorded trace")
    sub.add_argument("--trace", required=True)
    sub.add_argument("--export", choices=("table", "meshes"), required=True)
    sub.add_argument("--output", help="table output path")
    sub.add_argument("--outdir", help="directory for exported liquid meshes")
    sub.add_argument("--mesh", help="container mesh (for mesh export)")
    sub.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exception type -> exit code: the first match in this order wins, and
    # an exception of any other type is a bug and propagates
    exit_codes = {
        ValueError: EXIT_USAGE,
        TypeError: EXIT_USAGE,
        OSError: EXIT_USAGE,
        MeshFormatError: EXIT_USAGE,
        MalformedTrace: EXIT_USAGE,
        DegenerateTerm: EXIT_USAGE,
        VolumeOutOfRange: EXIT_VOLUME,
        LabmechError: EXIT_SOLVER,
    }
    started = time.perf_counter()
    try:
        written = args.func(args)
    except tuple(exit_codes) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return next(code for kind, code in exit_codes.items() if isinstance(exc, kind))
    if written:
        _write_manifest(args.command, args, *written, time.perf_counter() - started)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
