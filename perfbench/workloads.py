"""The four benchmark workloads.

Each workload drives labmech only through its public functions (and
``labmech.cli.main`` in-process).  A workload has

* ``setup(seed, workdir)``: build and validate the fixtures; returns them;
* ``make_input(fx, i)``: the inputs of op ``i``, drawn from the seed alone;
* ``run(fx, inp, rec)``: the timed op; ``rec.span`` marks the benchmark's
  call into a layer;
* ``check(fx, inp, out)``: the correctness gate, an error message or None;
* ``digest(fx, out)``: the op's output as bytes, for the determinism check;
* ``steps(inp)``: the liquid steps (simulated or replayed) or screw-pose
  queries that one op covers, the unit of ``step_us``;
* ``reference``: the host-speed slice (``reference.py``) closest to the
  work the op spends its time in.

Checks call labmech through names bound at import, so the traced run's
replaced module attributes never see them.
"""

from __future__ import annotations

import hashlib
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from labmech import cli, harness, helix
from labmech.helix import HelixSpec, helix_point
from labmech.mesh import (
    cylinder_mesh,
    height_search,
    icosphere_mesh,
    l_prism_mesh,
    load_mesh,
    mesh_volume,
    save_mesh,
)
from labmech.pendulum import PendulumParams
from labmech.trace import write_trace
from reference import DISPATCH, INTERPRETER

GRAVITY = (0.0, 0.0, -9.81)
PENDULUM = PendulumParams(length=0.02, damping_phi=0.01, damping_theta=0.01, epsilon=2.5e-2)
DT = 1e-3

#: Gate: a trace residual (relative to capacity) or a body-volume error
#: (relative to the liquid volume) may not exceed this fraction.
VOLUME_GATE = 1e-9


def cylinder48():
    return cylinder_mesh(radius=14e-3, height=30e-3, segments=48)


def icosphere(subdivisions):
    return lambda: icosphere_mesh(radius=15e-3, subdivisions=subdivisions)


def l_prism():
    return l_prism_mesh(outer=(30e-3, 30e-3), notch=(15e-3, 15e-3), height=30e-3)


def rng_for(seed: int, stream: int, i: int) -> np.random.Generator:
    """Generator for item ``i`` of a workload's input stream; the same seed
    gives the same inputs whatever ran before."""
    return np.random.default_rng([seed, stream, i])


def lateral_forcing(rng, steps: int):
    """Sample times and frame accelerations of two seeded lateral sinusoids
    (amplitude, direction, frequency, phase each drawn), one sample per step."""
    times = DT * np.arange(steps + 1)
    accels = np.zeros((steps + 1, 3))
    for _ in range(2):
        amp = rng.uniform(1.0, 4.0)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        freq = rng.uniform(2.0, 8.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = amp * np.sin(2.0 * np.pi * freq * times + phase)
        accels[:, 0] += wave * np.cos(heading)
        accels[:, 1] += wave * np.sin(heading)
    return times, accels


def scene_config(container, liquid_volume, steps):
    return harness.SceneConfig(
        gravity=GRAVITY, container=container, pendulum=PENDULUM,
        liquid_volume=liquid_volume, dt=DT, duration=steps * DT,
    )


def residual_error(trace, capacity) -> str | None:
    if not np.isfinite(trace.data).all():
        return "trace holds a non-finite value"
    worst = float(trace.column("residual").max())
    if worst > VOLUME_GATE * capacity:
        return f"residual {worst:.3e} above {VOLUME_GATE:g} x capacity {capacity:.6e}"
    return None


# ---------------------------------------------------------------------------
# liquid-scene rollouts


@dataclass
class SceneFixture:
    seed: int
    container: object
    capacity: float


class SceneWorkload:
    """One op builds a SceneConfig and runs one short rollout from rest
    under seeded lateral forcing, at a fill drawn from ``fill_range``."""

    def __init__(self, stream, build, fill_range, steps, reference):
        self.stream = stream
        self.build = build
        self.fill_range = fill_range
        self.op_steps = steps
        self.reference = reference

    def setup(self, seed, workdir):
        container = self.build()
        capacity = mesh_volume(container)
        fill = 0.5 * sum(self.fill_range)
        found = height_search(container, (0.0, 0.0, 1.0), fill * capacity)
        if not found.residual <= VOLUME_GATE * capacity:
            raise RuntimeError("container fixture fails its level-fill solve")
        return SceneFixture(seed, container, capacity)

    def make_input(self, fx, i):
        rng = rng_for(fx.seed, self.stream, i)
        fill = rng.uniform(*self.fill_range)
        return (fill, *lateral_forcing(rng, self.op_steps))

    def run(self, fx, inp, rec):
        fill, times, accels = inp
        config = scene_config(fx.container, fill * fx.capacity, self.op_steps)
        trajectory = harness.FrameTrajectory(times, accels)
        with rec.span("harness.run_liquid_scene"):
            return harness.run_liquid_scene(config, trajectory)

    def check(self, fx, inp, out):
        if len(out) != self.op_steps:
            return f"trace holds {len(out)} records, expected {self.op_steps}"
        return residual_error(out, fx.capacity)

    def digest(self, fx, out):
        return out.data.tobytes()

    def steps(self, inp):
        return self.op_steps


# ---------------------------------------------------------------------------
# liquid-body replay through the CLI


@dataclass
class Recording:
    mesh_path: Path
    trace_path: Path
    liquid_volume: float
    residuals: np.ndarray


@dataclass
class ReplayFixture:
    seed: int
    recordings: list
    outdir: Path


class ReplayWorkload:
    """One op is ``labmech replay --export meshes`` on a recorded liquid
    trace.  Set-up records ``per_container`` traces on each of cylinder-48,
    the L-prism and icosphere-3, at the same fills for every seed (evenly
    spread over [0.3, 0.7]) so that body sizes do not depend on the seed;
    the forcing does.  Ops replay them in seeded order, each once per
    cycle."""

    CONTAINERS = (("cylinder48", cylinder48), ("lprism", l_prism), ("icosphere3", icosphere(3)))
    # liquid_geometry makes small numpy calls triangle by triangle
    reference = DISPATCH

    def __init__(self, stream, record_stream, records, per_container):
        self.stream = stream
        self.record_stream = record_stream
        self.records = records
        self.per_container = per_container

    def setup(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        recordings = []
        for name, build in self.CONTAINERS:
            container = build()
            capacity = mesh_volume(container)
            mesh_path = workdir / f"{name}.mesh"
            save_mesh(container, mesh_path)
            for j in range(self.per_container):
                rng = rng_for(seed, self.record_stream, len(recordings))
                fill = 0.3 + 0.4 * (j + 0.5) / self.per_container
                times, accels = lateral_forcing(rng, self.records)
                trace = harness.run_liquid_scene(
                    scene_config(container, fill * capacity, self.records),
                    harness.FrameTrajectory(times, accels),
                )
                error = residual_error(trace, capacity)
                if error:
                    raise RuntimeError(f"{name} recording {j}: {error}")
                trace_path = workdir / f"{name}-{j}.lmtr"
                write_trace(trace, trace_path)
                recordings.append(Recording(
                    mesh_path, trace_path, fill * capacity, trace.column("residual").copy()
                ))
        return ReplayFixture(seed, recordings, workdir / "bodies")

    def make_input(self, fx, i):
        """The recording op ``i`` replays; empties the export directory."""
        cycle = len(fx.recordings)
        order = rng_for(fx.seed, self.stream, i // cycle).permutation(cycle)
        shutil.rmtree(fx.outdir, ignore_errors=True)
        return fx.recordings[order[i % cycle]]

    def run(self, fx, recording, rec):
        # every flag as --flag=value: argparse reads a separate value that
        # looks like a negative number in scientific notation as a flag
        argv = [
            "replay", f"--trace={recording.trace_path}", "--export=meshes",
            f"--outdir={fx.outdir}", f"--mesh={recording.mesh_path}",
        ]
        with rec.span("cli.replay"):
            try:
                return cli.main(argv), None
            except SystemExit as exc:
                return exc.code, "argparse exit"
            except Exception as exc:
                # the installed CLI would die with this traceback and exit 1;
                # the op fails and the run goes on
                return 1, "".join(traceback.format_exception_only(exc)).strip()

    def _bodies(self, fx):
        return sorted(fx.outdir.glob("step_*.mesh"))

    def check(self, fx, recording, result):
        code, crash = result
        if code != 0:
            return f"replay exited {code}" + (f": {crash}" if crash else "")
        bodies = self._bodies(fx)
        if len(bodies) != self.records:
            return f"replay wrote {len(bodies)} bodies, expected {self.records}"
        for path, residual in zip(bodies, recording.residuals):
            # load_mesh raises NotWatertight for a body that is not closed
            volume = mesh_volume(load_mesh(path))
            # the record's own residual is the volume error its height carries
            tol = VOLUME_GATE * recording.liquid_volume + residual
            if not abs(volume - recording.liquid_volume) <= tol:
                return f"{path.name}: body volume {volume!r}, liquid {recording.liquid_volume!r}"
        return None

    def digest(self, fx, result):
        h = hashlib.sha256(repr(result).encode())
        for path in self._bodies(fx):
            h.update(path.read_bytes())
        return h.digest()

    def steps(self, recording):
        return self.records


# ---------------------------------------------------------------------------
# bolt/nut thread engagement


@dataclass
class ThreadFixture:
    seed: int
    bolt: HelixSpec
    nut: HelixSpec


class ThreadWorkload:
    """One op is one ``thread_engagement`` query of the nut screwed onto the
    bolt at a seeded angle and small lateral offset, then one single-point
    ``sdf_gradient`` contact normal near the bolt wire."""

    reference = INTERPRETER

    def __init__(self, stream):
        self.stream = stream

    def setup(self, seed, workdir):
        # the nut's 4.3 turns at a 1 degree step give 1549 x 9 = 13941 probes
        bolt = HelixSpec(r1=5.0e-3, r2=0.4e-3, p=3.0e-4, l=0.0, h=8.0)
        nut = HelixSpec(r1=5.9e-3, r2=0.4e-3, p=3.0e-4, l=2.0, h=6.3)
        report = helix.thread_engagement(bolt, nut)
        if not np.isfinite(report.min_clearance):
            raise RuntimeError("thread fixture reports a non-finite clearance")
        return ThreadFixture(seed, bolt, nut)

    def make_input(self, fx, i):
        rng = rng_for(fx.seed, self.stream, i)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        offset = rng.uniform(-0.2e-3, 0.2e-3, size=2)
        t = rng.uniform(2.0 * np.pi, 7.0 * 2.0 * np.pi)
        on_wire = helix_point(fx.bolt, t)
        radial = np.array([on_wire[0], on_wire[1], 0.0]) / fx.bolt.r1
        point = on_wire + rng.uniform(1.5, 3.0) * fx.bolt.r2 * radial
        point[2] += rng.uniform(-0.5, 0.5) * fx.bolt.r2
        return angle, offset, point

    def run(self, fx, inp, rec):
        angle, offset, point = inp
        pose = helix.screw_pose(fx.nut, angle)
        pose[:2, 3] += offset
        with rec.span("helix.thread_engagement"):
            report = helix.thread_engagement(fx.bolt, fx.nut, pose)
        with rec.span("helix.sdf_gradient"):
            normal = helix.sdf_gradient(fx.bolt, point)
        return report.min_clearance, normal

    def check(self, fx, inp, out):
        clearance, normal = out
        if not np.isfinite(clearance):
            return f"clearance {clearance!r} is not finite"
        norm = float(np.linalg.norm(normal))
        if not abs(norm - 1.0) <= 1e-12:
            return f"contact normal has norm {norm!r}"
        return None

    def digest(self, fx, out):
        clearance, normal = out
        return np.float64(clearance).tobytes() + np.asarray(normal, dtype=np.float64).tobytes()

    def steps(self, inp):
        return 1


WORKLOADS = {
    # the 188-triangle clips are bound by numpy dispatch; on 5120 triangles
    # arithmetic dominates, which slowed with the host as the Python loop did
    "slosh-half-cyl48": SceneWorkload(1, cylinder48, (0.5, 0.5), steps=2, reference=DISPATCH),
    "tilt-ico4": SceneWorkload(2, icosphere(4), (0.2, 0.4), steps=4, reference=INTERPRETER),
    "replay-bodies": ReplayWorkload(3, record_stream=5, records=10, per_container=4),
    "thread-engage": ThreadWorkload(4),
}
