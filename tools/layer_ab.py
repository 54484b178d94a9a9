#!/usr/bin/env python3
"""A/B timing of one labmech layer: a parent checkout against this one.

    python3 tools/layer_ab.py --baseline ../labmech-parent --layer save_mesh \\
        --rounds 40 --number 11

Starts one worker subprocess per side.  Each worker imports labmech from
its own checkout's ``src/`` and builds the layer's fixed, seeded inputs
once.  After one warm-up round per side, the workers run rounds in turn,
alternating which side goes first, so that a slow stretch of the host
falls on both sides.  A round times the layer once on every input.  Per
input and side the tool prints the minimum, the quartiles (q1, median, q3)
over the rounds and the ratio of the medians.  It also prints the
quartiles of the per-round ratio change/parent: a round times both sides
back to back, so a slow stretch of the host that moves the raw medians
between runs moves both sides of a round and mostly cancels in the ratio.
With ``--number`` it appends the series to ``BENCH_<number>.json`` under
``layer_ab``.

Layers and inputs (times in microseconds):

* ``save_mesh``: per body, ten liquid bodies of a freshly built container
  (icosphere-3, cylinder-48, L-prism) at fills 0.3-0.7 and tilts up to 0.2
  rad; and, as ``rollout``, the bodies of the 40 records of a seeded
  ``run_liquid_scene`` under lateral forcing, in order, on perfbench's
  cylinder-48 and icosphere-3 at fill 0.5.  A container row is formatted
  on the first save of a body that keeps it, as in ``labmech replay``.
  No two of the ten icosphere-3 planes share a cut topology, so each of
  their bodies builds its topology's body record and formats its face
  rows; the ten cylinder-48 planes share one, and so do the ten L-prism
  planes and most rollout records with the record before.
* ``liquid_geometry``: per body, the same bodies built from a freshly
  built container.
* ``clip_volume``: per call, ten such planes on cylinder-48 and
  icosphere-4; and, as ``rollout``, the 40 (normal, height) records of a
  seeded ``run_liquid_scene`` under lateral forcing, in order, on
  perfbench's cylinder-48 at fill 0.5 and icosphere-4 at fill 0.3.  A
  clip reuses the cut topology of the mesh's previous clip when it
  leaves every vertex on the same side.  None of the ten icosphere-4
  planes does, most rollout planes do, and so do all ten cylinder-48
  planes: each leaves the bottom ring below and the top ring above.
* ``height_search``: per solve, on perfbench's two scene fixtures,
  cylinder-48 at fill 0.5 and icosphere-4 at a fill drawn from 0.2-0.4:
  ten normals of a seeded tilt sweep (0.01 rad a step), each solved cold
  and warm-started from the previous normal's height, as a scene steps.
* ``liquid_scene``: per op, the ops of perfbench's two scene workloads at
  seed 11, run as perfbench runs them, so that each builds its
  ``SceneConfig`` and ``FrameTrajectory`` inside the timing: twenty
  ``slosh-half-cyl48`` ops (cylinder-48 at fill 0.5, 2 steps) as
  ``cylinder-48`` and ten ``tilt-ico4`` ops (icosphere-4 at fills 0.2-0.4,
  4 steps) as ``icosphere-4``.
* ``sdf_thread``: per call, perfbench's bolt at batches of 1, 4, 6, 17, 18,
  1549 and 13941 points near its wire.  ``thread-engage`` sends 1 and 4-5
  points per engagement query and 6 per contact normal, and its set-up 1549
  (the coaxial nut); 17 and 18 straddle the field's short-call crossover.
* ``sdf_gradient``: per call, perfbench's bolt at one point, as
  ``thread-engage``'s contact normal asks for it, and at batches of 6 and
  100 points.  The points lie 1.5-3 gauge radii outward of the wire and
  within half a gauge radius of its height, as in that workload.
* ``thread_engagement``: per query, perfbench's bolt and nut at twenty
  seeded screw poses with lateral offsets up to 0.2 mm.

The controller uses only the standard library; the workers use what
labmech uses and take perfbench's fixtures from its workload module.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_record import describe, quartiles

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("save_mesh", "liquid_geometry", "clip_volume", "height_search", "liquid_scene",
          "sdf_thread", "sdf_gradient", "thread_engagement")
SEED = 11


# ---------------------------------------------------------------------------
# worker side: runs inside one checkout


def _planes(mesh, count, rng):
    """``count`` (normal, height) pairs at fills 0.3-0.7 of the support
    interval and tilts up to 0.2 rad from +z."""
    import numpy as np

    planes = []
    for _ in range(count):
        tilt, azimuth = rng.uniform(0.0, 0.2), rng.uniform(0.0, 2.0 * np.pi)
        normal = np.array([np.sin(tilt) * np.cos(azimuth), np.sin(tilt) * np.sin(azimuth),
                           np.cos(tilt)])
        support = (mesh.vertices - mesh.bbox_center) @ normal
        planes.append((normal, float(support.min() + rng.uniform(0.3, 0.7) * np.ptp(support))))
    return planes


def _tilt_sweep(count, rng):
    """``count + 1`` unit normals that tilt away from +z by 0.01 rad a step
    from a seeded start, at a seeded, slowly turning azimuth."""
    import numpy as np

    tilt = rng.uniform(0.0, 0.1) + 0.01 * np.arange(count + 1)
    azimuth = rng.uniform(0.0, 2.0 * np.pi) + rng.uniform(-0.05, 0.05) * np.arange(count + 1)
    return np.column_stack([np.sin(tilt) * np.cos(azimuth), np.sin(tilt) * np.sin(azimuth),
                            np.cos(tilt)])


def _rollout_planes(config, rng):
    """The (normal, height) records of ``config``'s liquid scene from rest,
    under a seeded lateral sinusoid of 2-4 m/s^2 at 3-6 Hz sampled every
    step."""
    import numpy as np
    from labmech import FrameTrajectory, run_liquid_scene

    times = config.dt * np.arange(config.steps + 1)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    wave = rng.uniform(2.0, 4.0) * np.sin(2.0 * np.pi * rng.uniform(3.0, 6.0) * times)
    accels = np.column_stack([wave * np.cos(heading), wave * np.sin(heading),
                              np.zeros_like(times)])
    trace = run_liquid_scene(config, FrameTrajectory(times, accels))
    normals = np.column_stack([trace.column(c) for c in ("nx", "ny", "nz")])
    return list(zip(normals, trace.column("height").tolist()))


def inputs(layer, workdir):
    """Per input name, ``(prepare, run, count)``: a round calls ``prepare()``
    untimed, then times ``run(prepared)``, which covers ``count`` items."""
    import numpy as np
    from labmech import (LiquidPlane, TriMesh, clip_volume, cylinder_mesh, height_search,
                         helix_point, icosphere_mesh, l_prism_mesh, liquid_geometry, mesh_volume,
                         save_mesh, screw_pose, sdf_gradient, sdf_thread, thread_engagement)

    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from tracing import NullRecorder

    rng = np.random.default_rng(SEED)
    if layer in ("save_mesh", "liquid_geometry"):
        def bodies_of(name, mesh, planes):
            """The layer's ``(prepare, run, count)`` on the bodies of
            ``planes``, in order, each round from a freshly built container."""
            def fresh():
                return TriMesh(mesh.vertices, mesh.triangles)

            def bodies(container):
                return [liquid_geometry(container, n, h) for n, h in planes]

            if layer == "liquid_geometry":
                return fresh, bodies, len(planes)
            paths = [workdir / f"{name}-{k}.mesh" for k in range(len(planes))]

            def save(built):
                for body, path in zip(built, paths):
                    save_mesh(body, path)

            return lambda: bodies(fresh()), save, len(planes)

        out = {}
        for name, mesh in (("icosphere-3", icosphere_mesh(subdivisions=3)),
                           ("cylinder-48", cylinder_mesh(segments=48)),
                           ("l-prism", l_prism_mesh())):
            out[name] = bodies_of(name, mesh, _planes(mesh, 10, rng))
        # perfbench's replay containers at fill 0.5; a generator of their
        # own, so that the planes above stay the draws they were before
        rollout = np.random.default_rng([SEED, 1])
        for name, mesh in (("cylinder-48", workloads.cylinder48()),
                           ("icosphere-3", workloads.icosphere(3)())):
            config = workloads.scene_config(mesh, 0.5 * mesh_volume(mesh), 40)
            out[f"{name} rollout"] = bodies_of(f"{name}-rollout", mesh,
                                               _rollout_planes(config, rollout))
        return out
    if layer == "clip_volume":
        def clips(mesh, planes):
            return lambda _: [clip_volume(mesh, p) for p in planes]

        out = {}
        for name, mesh in (("cylinder-48", cylinder_mesh(segments=48)),
                           ("icosphere-4", icosphere_mesh(subdivisions=4))):
            planes = [LiquidPlane(n, h) for n, h in _planes(mesh, 10, rng)]
            out[name] = (lambda: None, clips(mesh, planes), len(planes))
        # perfbench's scene fixtures; a generator of their own, so that the
        # planes above stay the draws they were before this input
        rollout = np.random.default_rng([SEED, 1])
        for name, mesh, fill in (("cylinder-48", workloads.cylinder48(), 0.5),
                                 ("icosphere-4", workloads.icosphere(4)(), 0.3)):
            config = workloads.scene_config(mesh, fill * mesh_volume(mesh), 40)
            planes = [LiquidPlane(n, h) for n, h in _rollout_planes(config, rollout)]
            out[f"{name} rollout"] = (lambda: None, clips(mesh, planes), len(planes))
        return out
    if layer == "height_search":
        out = {}
        # perfbench's scene fixtures
        for name, mesh, fill in (("cylinder-48", workloads.cylinder48(), 0.5),
                                 ("icosphere-4", workloads.icosphere(4)(), rng.uniform(0.2, 0.4))):
            target = fill * mesh_volume(mesh)
            normals = _tilt_sweep(10, rng)
            # each warm solve starts from the height of the normal before it
            hints = [height_search(mesh, n, target).height for n in normals[:-1]]
            out[f"{name} cold"] = (lambda: None,
                                   lambda _, mesh=mesh, target=target, normals=normals:
                                   [height_search(mesh, n, target) for n in normals[1:]],
                                   len(normals) - 1)
            out[f"{name} warm"] = (lambda: None,
                                   lambda _, mesh=mesh, target=target, normals=normals, hints=hints:
                                   [height_search(mesh, n, target, h) for n, h in
                                    zip(normals[1:], hints)],
                                   len(hints))
        return out
    if layer == "liquid_scene":
        out = {}
        for name, workload, ops in (("cylinder-48", "slosh-half-cyl48", 20),
                                    ("icosphere-4", "tilt-ico4", 10)):
            wl = workloads.WORKLOADS[workload]
            fx = wl.setup(SEED, workdir)
            items = [wl.make_input(fx, i) for i in range(ops)]
            out[name] = (lambda: None,
                         lambda _, wl=wl, fx=fx, items=items:
                         [wl.run(fx, item, NullRecorder()) for item in items],
                         len(items))
        return out
    # perfbench's thread-engage fixture
    threads = workloads.WORKLOADS["thread-engage"].setup(SEED, workdir)
    bolt, nut = threads.bolt, threads.nut
    if layer == "sdf_thread":
        out = {}
        for size, calls in ((1, 20), (4, 20), (6, 20), (17, 20), (18, 20), (1549, 2), (13941, 1)):
            t = rng.uniform(2.0 * np.pi, 14.0 * np.pi, size)
            points = helix_point(bolt, t).reshape(-1, 3)
            points = points + rng.uniform(-1.5, 1.5, (size, 3)) * bolt.r2
            out[f"{size} points"] = (lambda: None,
                                     lambda _, points=points, calls=calls:
                                     [sdf_thread(bolt, points) for _ in range(calls)],
                                     calls)
        return out
    if layer == "sdf_gradient":
        def near_wire(size):
            t = rng.uniform(2.0 * np.pi, 14.0 * np.pi, size)
            on_wire = helix_point(bolt, t)
            radial = on_wire * [1.0, 1.0, 0.0] / bolt.r1
            points = on_wire + rng.uniform(1.5, 3.0, (size, 1)) * bolt.r2 * radial
            points[:, 2] += rng.uniform(-0.5, 0.5, size) * bolt.r2
            return points

        singles = near_wire(20)
        out = {"1 point": (lambda: None, lambda _: [sdf_gradient(bolt, p) for p in singles],
                           len(singles))}
        for size, calls in ((6, 20), (100, 2)):
            out[f"{size} points"] = (lambda: None,
                                     lambda _, points=near_wire(size), calls=calls:
                                     [sdf_gradient(bolt, points) for _ in range(calls)],
                                     calls)
        return out
    if layer == "thread_engagement":
        poses = []
        for _ in range(20):
            pose = screw_pose(nut, rng.uniform(0.0, 2.0 * np.pi))
            pose[:2, 3] += rng.uniform(-0.2e-3, 0.2e-3, 2)
            poses.append(pose)
        return {"bolt and nut": (lambda: None,
                                 lambda _: [thread_engagement(bolt, nut, pose) for pose in poses],
                                 len(poses))}
    raise ValueError(f"unknown layer {layer!r}")


def serve(checkout: Path, layer: str) -> int:
    """Answer each line on stdin with one round of ``layer``, as a JSON
    object of microseconds per item by input name."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import labmech

    if Path(labmech.__file__).resolve().parent != src / "labmech":
        raise SystemExit(f"labmech imported from {labmech.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        cases = inputs(layer, Path(tmp))
        print("ready", flush=True)
        for _ in sys.stdin:
            print(json.dumps(time_round(cases)), flush=True)
    return 0


def time_round(cases: dict) -> dict:
    """One round over the inputs of :func:`inputs`: microseconds per item
    by input name."""
    times = {}
    for name, (prepare, run, count) in cases.items():
        prepared = prepare()
        t0 = time.perf_counter()
        run(prepared)
        times[name] = (time.perf_counter() - t0) / count * 1e6
    return times


# ---------------------------------------------------------------------------
# controller side


def stats(values: list) -> dict:
    """Minimum and quartiles (inclusive method) of one side's series."""
    q1, median, q3 = quartiles(values)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3}


def summarize(series: dict) -> dict:
    """Per input, each side's :func:`stats`, the ratio of the change's
    median to the parent's, and the quartiles of the per-round ratio
    change/parent (round r of one side against round r of the other)."""
    summary = {}
    for name in series["change"]:
        entry = {side: stats(values[name]) for side, values in series.items()}
        entry["median_ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        ratios = [c / p for p, c in zip(series["parent"][name], series["change"][name])]
        entry["round_ratio"] = dict(zip(("q1", "median", "q3"), quartiles(ratios)))
        summary[name] = entry
    return summary


class Worker:
    """One side's worker process."""

    def __init__(self, checkout: Path, layer: str):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve", str(checkout), layer],
            cwd=checkout, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise SystemExit(f"{checkout}: worker for {layer} failed to start")

    def round(self) -> dict:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker exited {self.proc.wait()} during a round")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:  # a worker: --serve <checkout> <layer>
        return serve(Path(argv[1]), argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layer", choices=LAYERS, required=True)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--rounds", type=int, default=40, help="timed rounds per side")
    parser.add_argument("--number", type=int, help="append the series to BENCH_<number>.json")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sides = {"parent": args.baseline.resolve(), "change": ROOT}
    workers = {}
    try:
        for side, checkout in sides.items():
            workers[side] = Worker(checkout, args.layer)
        for worker in workers.values():
            worker.round()  # warm-up
        series = {side: {} for side in sides}
        for r in range(args.rounds):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                for name, us in workers[side].round().items():
                    series[side].setdefault(name, []).append(us)
    finally:
        for worker in workers.values():
            worker.close()

    summary = summarize(series)
    print(f"{args.layer}: {args.rounds} rounds per side, us per item")
    for name, entry in summary.items():
        for side in sides:
            s = entry[side]
            print(f"  {name:12s} {side:6s} min {s['min']:9.1f}  q1 {s['q1']:9.1f}  "
                  f"median {s['median']:9.1f}  q3 {s['q3']:9.1f}")
        r = entry["round_ratio"]
        print(f"  {name:12s} median change/parent {entry['median_ratio']:.3f}; per round "
              f"q1 {r['q1']:.3f}  median {r['median']:.3f}  q3 {r['q3']:.3f}")
    if args.number is not None:
        path = ROOT / f"BENCH_{args.number}.json"
        doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
        doc.setdefault("layer_ab", {}).setdefault(args.layer, []).append({
            "rounds": args.rounds, "seed": SEED,
            "checkouts": {side: describe(checkout) for side, checkout in sides.items()},
            "summary": summary, "series": series,
        })
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
