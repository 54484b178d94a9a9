"""
Command-line front end for batch evaluation and artifact export.

Commands: sdf-grid, liquid, clip, fill-height, detent-sim, screw-sim,
score, replay.  Results go to files or stdout; diagnostics go to stderr;
exit codes are the only failure channel (0 ok, 2 bad input/parse, 3
solver or mesh failure, 4 volume out of range).

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
import hashlib
import json
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
    NoConvergence,
    NonFiniteState,
    NotWatertight,
    VolumeOutOfRange,
)
from .harness import (
    FrameTrajectory,
    ProgressSpec,
    SceneConfig,
    progress_score,
    run_knob_scene,
    run_liquid_scene,
    run_screw_scene,
)
from .helix import HelixSpec, sdf_thread
from .mesh import LiquidPlane, clip_volume, liquid_geometry, load_mesh, save_mesh, solve_height, unit_vector
from .pendulum import PendulumParams
from .trace import ReplayTrace, read_trace, trace_table, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_VOLUME = 4

CONFIG_VERSION = 1


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(command, args, inputs, outputs, started) -> None:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and v is not None
    }
    manifest = {
        "command": command,
        "parameters": params,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "duration_s": time.perf_counter() - started,
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_config(path):
    """Parse a version-1 JSON config document."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise ValueError(str(exc))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ValueError(
            f"{path}: unsupported config version {doc.get('version')!r}, expected {CONFIG_VERSION}"
        )
    return doc


def _merge(section: dict, args, keys) -> dict:
    """Overlay CLI flags (when given) onto a config section."""
    merged = dict(section)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _helix_from(args) -> HelixSpec:
    section = {}
    if args.config:
        section = _load_config(args.config).get("helix", {})
    merged = _merge(section, args, ("r1", "r2", "p", "l", "h"))
    missing = [k for k in ("r1", "r2", "p", "l", "h") if k not in merged]
    if missing:
        raise ValueError(f"missing helix parameters: {', '.join(missing)}")
    return HelixSpec(**{k: merged[k] for k in ("r1", "r2", "p", "l", "h")})


def _load_trajectory(path) -> FrameTrajectory:
    """Tabular text: columns time ax ay az, optionally qw qx qy qz."""
    times, accels, quats = [], [], []
    width = None
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(str(exc))
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (4, 8):
            raise ValueError(f"{path}: line {ln}: expected 4 or 8 columns, got {len(fields)}")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"{path}: line {ln}: inconsistent column count")
        try:
            values = [float(v) for v in fields]
        except ValueError:
            raise ValueError(f"{path}: line {ln}: non-numeric field")
        times.append(values[0])
        accels.append(values[1:4])
        if width == 8:
            quats.append(values[4:8])
    if not times:
        raise ValueError(f"{path}: empty trajectory")
    try:
        return FrameTrajectory(
            np.array(times), np.array(accels), np.array(quats) if quats else None
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# commands


def cmd_sdf_grid(args) -> int:
    started = time.perf_counter()
    try:
        spec = _helix_from(args)
        mins = np.array(args.min, dtype=float)
        maxs = np.array(args.max, dtype=float)
        res = [int(r) for r in args.res]
        if (maxs <= mins).any():
            raise ValueError("grid max corner must exceed min corner componentwise")
        if min(res) < 2:
            raise ValueError("grid resolution must be at least 2 per axis")
    except ValueError as exc:
        _diag(f"sdf-grid: {exc}")
        return EXIT_USAGE
    axes = [np.linspace(mins[i], maxs[i], res[i]) for i in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    values = sdf_thread(spec, grid).distance
    out = Path(args.output)
    with out.open("w") as fh:
        for (x, y, z), d in zip(grid, values):
            fh.write(f"{float(x)!r}\t{float(y)!r}\t{float(z)!r}\t{float(d)!r}\n")
    inputs = [args.config] if args.config else []
    _write_manifest("sdf-grid", args, inputs, [out], started)
    return EXIT_OK


def _scene_from(args) -> tuple[SceneConfig, list]:
    section = {}
    inputs = []
    if args.scene:
        section = _load_config(args.scene).get("scene", {})
        inputs.append(args.scene)
    merged = _merge(
        section, args, ("gravity", "mesh", "liquid_volume", "dt", "duration")
    )
    pend = dict(section.get("pendulum", {}))
    for key in ("length", "mass", "damping_phi", "damping_theta", "epsilon"):
        value = getattr(args, f"pend_{key}", None)
        if value is not None:
            pend[key] = value
    if "mesh" not in merged:
        raise ValueError("no container mesh given (flag --mesh or scene key 'mesh')")
    if "liquid_volume" not in merged:
        raise ValueError("no liquid volume given (flag --liquid-volume or key 'liquid_volume')")
    if "length" not in pend:
        raise ValueError("no pendulum length given (flag --pend-length or key pendulum.length)")
    mesh_path = Path(merged["mesh"])
    if not mesh_path.is_absolute() and args.scene:
        mesh_path = Path(args.scene).parent / mesh_path
    container = _load_mesh_arg(mesh_path)
    inputs.append(mesh_path)
    config = SceneConfig(
        gravity=np.asarray(merged.get("gravity", (0.0, 0.0, -9.81)), dtype=float),
        container=container,
        pendulum=PendulumParams(**pend),
        liquid_volume=merged["liquid_volume"],
        dt=merged.get("dt", 1e-3),
        duration=merged.get("duration", 1.0),
    )
    return config, inputs


def cmd_liquid(args) -> int:
    started = time.perf_counter()
    try:
        config, inputs = _scene_from(args)
        trajectory = _load_trajectory(args.trajectory)
        inputs.append(args.trajectory)
    except (ValueError, MeshFormatError, NotWatertight, TypeError) as exc:
        _diag(f"liquid: {exc}")
        return EXIT_USAGE
    try:
        result = run_liquid_scene(config, trajectory)
    except (NoConvergence, VolumeOutOfRange, NonFiniteState) as exc:
        _diag(f"liquid: solver failed: {exc}")
        return EXIT_SOLVER
    write_trace(result, args.output)
    last = result.data[-1]
    cols = result.columns
    print(
        "final_normal {:.15f} {:.15f} {:.15f} final_height {:.15f} max_residual {:.6e}".format(
            last[cols.index("nx")],
            last[cols.index("ny")],
            last[cols.index("nz")],
            last[cols.index("height")],
            float(result.column("residual").max()) if len(result) else 0.0,
        )
    )
    _write_manifest("liquid", args, inputs, [Path(args.output)], started)
    return EXIT_OK


def _load_mesh_arg(path):
    try:
        return load_mesh(path)
    except (MeshFormatError, NotWatertight):
        raise
    except (OSError, ValueError) as exc:
        # unreadable file or content failing mesh validation: a parse-class
        # failure for exit-code purposes
        raise MeshFormatError(str(exc))


def cmd_clip(args) -> int:
    try:
        mesh = _load_mesh_arg(args.mesh)
    except MeshFormatError as exc:
        _diag(f"clip: {exc}")
        return EXIT_USAGE
    except NotWatertight as exc:
        _diag(f"clip: {exc}")
        return EXIT_SOLVER
    try:
        plane = LiquidPlane(unit_vector(args.normal), args.height)
    except ValueError as exc:
        _diag(f"clip: {exc}")
        return EXIT_USAGE
    result = clip_volume(mesh, plane)
    print(f"{result.volume:.15f} {result.cut_area:.15f}")
    return EXIT_OK


def cmd_fill_height(args) -> int:
    try:
        mesh = _load_mesh_arg(args.mesh)
    except MeshFormatError as exc:
        _diag(f"fill-height: {exc}")
        return EXIT_USAGE
    except NotWatertight as exc:
        _diag(f"fill-height: {exc}")
        return EXIT_SOLVER
    try:
        normal = unit_vector(args.normal)
    except ValueError as exc:
        _diag(f"fill-height: {exc}")
        return EXIT_USAGE
    try:
        height = solve_height(mesh, normal, args.volume, args.guess)
    except VolumeOutOfRange as exc:
        _diag(f"fill-height: {exc}")
        return EXIT_VOLUME
    except NoConvergence as exc:
        _diag(f"fill-height: {exc}")
        return EXIT_SOLVER
    print(f"{height:.15f}")
    return EXIT_OK


def cmd_detent_sim(args) -> int:
    started = time.perf_counter()
    try:
        section = {}
        if args.config:
            section = _load_config(args.config).get("detent", {})
        merged = _merge(section, args, ("positions", "stiffness", "damping", "inertia"))
        for key in ("positions", "stiffness", "inertia"):
            if key not in merged:
                raise ValueError(f"missing detent parameter: {key}")
        profile = DetentProfile(
            positions=np.asarray(merged["positions"], dtype=float),
            stiffness=merged["stiffness"],
            damping=merged.get("damping", 0.0),
        )
        if args.dt <= 0 or args.duration <= 0:
            raise ValueError("dt and duration must be positive")
    except ValueError as exc:
        _diag(f"detent-sim: {exc}")
        return EXIT_USAGE
    try:
        result = run_knob_scene(
            profile, args.torque, merged["inertia"],
            dt=args.dt, duration=args.duration, q0=args.q0, qdot0=args.qdot0,
        )
    except NonFiniteState as exc:
        _diag(f"detent-sim: solver failed: {exc}")
        return EXIT_SOLVER
    write_trace(result, args.output)
    last = result.data[-1]
    print(
        "final_q {:.15f} final_qdot {:.15f} index {}".format(
            last[1], last[2], int(last[3])
        )
    )
    inputs = [args.config] if args.config else []
    _write_manifest("detent-sim", args, inputs, [Path(args.output)], started)
    return EXIT_OK


def cmd_screw_sim(args) -> int:
    started = time.perf_counter()
    inputs = [p for p in (args.config, args.profile) if p]
    try:
        spec = _helix_from(args)
        if args.profile:
            rows = []
            for ln, raw in enumerate(Path(args.profile).read_text().splitlines(), 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(f"{args.profile}: line {ln}: expected 'time angle'")
                rows.append((float(fields[0]), float(fields[1])))
            if not rows:
                raise ValueError(f"{args.profile}: empty profile")
            times = np.array([r[0] for r in rows])
            angles = np.array([r[1] for r in rows])
            dt = times[1] - times[0] if len(times) > 1 else args.dt
        else:
            steps = int(round(args.duration / args.dt)) + 1
            angles = np.linspace(0.0, 2.0 * np.pi * args.turns, steps)
            dt = args.dt
    except (ValueError, OSError) as exc:
        _diag(f"screw-sim: {exc}")
        return EXIT_USAGE
    result = run_screw_scene(spec, angles, dt=dt)
    write_trace(result, args.output)
    last = result.data[-1]
    print(f"final_angle {last[1]:.15f} final_axial {last[2]:.15f}")
    _write_manifest("screw-sim", args, inputs, [Path(args.output)], started)
    return EXIT_OK


def cmd_score(args) -> int:
    try:
        spec = ProgressSpec(
            initial=args.initial, target=args.target,
            final=args.final, weights=args.weights,
        )
    except (ValueError, DegenerateTerm) as exc:
        _diag(f"score: {exc}")
        return EXIT_USAGE
    print(f"{progress_score(spec):.15f}")
    return EXIT_OK


def cmd_replay(args) -> int:
    started = time.perf_counter()
    try:
        result = read_trace(args.trace)
    except MalformedTrace as exc:
        _diag(f"replay: {exc} (record {exc.record})")
        return EXIT_USAGE
    except OSError as exc:
        _diag(f"replay: {exc}")
        return EXIT_USAGE
    if args.export == "table":
        out = Path(args.output)
        out.write_text(trace_table(result))
        _write_manifest("replay", args, [args.trace], [out], started)
        return EXIT_OK
    # mesh export: rebuild the liquid body for every record
    if result.kind != "liquid":
        _diag(f"replay: mesh export needs a liquid trace, got kind '{result.kind}'")
        return EXIT_USAGE
    if not args.mesh:
        _diag("replay: mesh export needs --mesh (the container)")
        return EXIT_USAGE
    try:
        container = _load_mesh_arg(args.mesh)
    except (MeshFormatError, NotWatertight) as exc:
        _diag(f"replay: {exc}")
        return EXIT_USAGE
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cols = result.columns
    outputs = []
    for i, row in enumerate(result.data):
        normal = np.array([row[cols.index("nx")], row[cols.index("ny")], row[cols.index("nz")]])
        height = row[cols.index("height")]
        try:
            LiquidPlane(unit_vector(normal), height)  # validates the record
        except ValueError as exc:
            _diag(f"replay: record {i}: {exc}")
            return EXIT_USAGE
        body = liquid_geometry(container, normal, height)
        path = outdir / f"step_{i:06d}.mesh"
        save_mesh(body, path)
        outputs.append(path)
    if not outputs:
        _diag("replay: trace has no records")
        return EXIT_USAGE
    _write_manifest("replay", args, [args.trace, args.mesh], outputs, started)
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "replay":
        if args.export == "table" and not args.output:
            _diag("replay: table export needs --output")
            return EXIT_USAGE
        if args.export == "meshes" and not args.outdir:
            _diag("replay: mesh export needs --outdir")
            return EXIT_USAGE
    try:
        return args.func(args)
    except LabmechError as exc:
        _diag(f"{args.command}: {exc}")
        return EXIT_SOLVER
    except OSError as exc:
        _diag(f"{args.command}: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
