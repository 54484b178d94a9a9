"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span in ``Recorder.spans`` (-1 at the top) and ``op`` the
benchmark op the span belongs to.  Spans are recorded around the calls the
benchmark makes into a layer (``Recorder.span``) and, in the traced process
only, around the public functions that callers inside labmech look up as
module attributes (``install``).  The recorder also keeps the height
solver's counters, which repeat exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, OP = range(5)

#: (module, attribute, span name): the lookups that callers inside labmech
#: make, so replacing the attribute traces every call from that caller.
PATCH_POINTS = (
    ("harness", "step_pendulum", "pendulum.step_pendulum"),
    ("harness", "height_search", "mesh.height_search"),
    ("mesh", "clip_volume", "mesh.clip_volume"),
    ("mesh", "mesh_volume", "mesh.mesh_volume"),
    ("cli", "read_trace", "trace.read_trace"),
    ("cli", "liquid_geometry", "mesh.liquid_geometry"),
    ("cli", "save_mesh", "mesh.save_mesh"),
    ("cli", "load_mesh", "mesh.load_mesh"),
    ("helix", "sdf_thread", "helix.sdf_thread"),
)

class NullRecorder:
    """Recorder stand-in for the untraced run: every span is a no-op."""

    op = -1
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def active(self):
        return self._null


class _Solve:
    """Counters of one open height solve, read by the clip_volume wrapper."""

    __slots__ = ("target", "vtol", "met")

    def __init__(self, target, vtol):
        self.target = target
        self.vtol = vtol
        self.met = False


class Recorder:
    """Spans and height-solver counters of the traced passes."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._solve: _Solve | None = None
        self.solve_iters: list[int] = []
        self.solve_clip_calls = 0
        self.wasted_clip_calls = 0
        self.sdf_points = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def active(self):
        """Context in which the labmech patch points record into this."""
        return install(self)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(s[END] - s[START] - covered)
    return out


def _solver_wrappers(rec: Recorder, height_search, clip_volume, mesh_volume):
    """Traced height_search and clip_volume that also count iterations per
    solve and clip calls made after the residual was already within
    ``tol_rel * capacity`` (wasted calls)."""
    signature = inspect.signature(height_search)
    capacities: dict[int, tuple] = {}

    def traced_height_search(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        container = bound.arguments["mesh"]
        cached = capacities.get(id(container))
        if cached is None or cached[0] is not container:
            cached = capacities[id(container)] = (container, mesh_volume(container))
        tol_rel = bound.arguments.get("tol_rel", 1e-9)
        outer, rec._solve = rec._solve, _Solve(
            float(bound.arguments["target_volume"]), tol_rel * cached[1]
        )
        rec._open("mesh.height_search")
        try:
            found = height_search(*args, **kwargs)
        finally:
            rec._close()
            rec._solve = outer
        rec.solve_iters.append(found.iterations)
        return found

    def traced_clip_volume(*args, **kwargs):
        rec._open("mesh.clip_volume")
        try:
            result = clip_volume(*args, **kwargs)
        finally:
            rec._close()
        solve = rec._solve
        if solve is not None:
            rec.solve_clip_calls += 1
            if solve.met:
                rec.wasted_clip_calls += 1
            elif abs(result.volume - solve.target) <= solve.vtol:
                solve.met = True
        return result

    return traced_height_search, traced_clip_volume


def _sdf_wrapper(rec: Recorder, sdf_thread):
    traced = rec.wrap("helix.sdf_thread", sdf_thread)

    def counted(spec, point, *args, **kwargs):
        rec.sdf_points += np.size(point) // 3
        return traced(spec, point, *args, **kwargs)

    return counted


@contextlib.contextmanager
def install(rec: Recorder):
    """Replace every ``PATCH_POINTS`` attribute with a span recorder for the
    duration of the block, then restore the originals."""
    from labmech import cli, harness, helix, mesh

    modules = {"cli": cli, "harness": harness, "helix": helix, "mesh": mesh}
    originals = [(modules[m], attr, getattr(modules[m], attr)) for m, attr, _ in PATCH_POINTS]
    replacements = {
        (m, attr): rec.wrap(name, getattr(modules[m], attr))
        for m, attr, name in PATCH_POINTS
    }
    replacements[("harness", "height_search")], replacements[("mesh", "clip_volume")] = (
        _solver_wrappers(rec, harness.height_search, mesh.clip_volume, mesh.mesh_volume)
    )
    replacements[("helix", "sdf_thread")] = _sdf_wrapper(rec, helix.sdf_thread)
    try:
        for (m, attr), fn in replacements.items():
            setattr(modules[m], attr, fn)
        yield rec
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def write_spans(rec: Recorder, path: Path, **meta) -> Path:
    """Write the spans and solver counters as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(
        meta,
        columns=["name", "start_ns", "end_ns", "parent", "op"],
        spans=rec.spans,
        solve_iterations=rec.solve_iters,
        solve_clip_calls=rec.solve_clip_calls,
        wasted_clip_calls=rec.wasted_clip_calls,
    )
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path

