"""
Quasi-static scene stepping, progress scoring, and trace recording.

A liquid scene couples the mechanism kernels: the container rides a
prescribed moving frame whose acceleration (minus gravity) forces the
surface-direction pendulum; the surface normal is the negated pendulum
direction; the surface height then comes from volume conservation, warm
starting each solve from the previous height.  Screw and knob scenes are
1-DOF replays of the corresponding mechanisms.  All runs are single
threaded and deterministic: identical inputs produce bit-identical traces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detent import DetentProfile, KnobState, nearest_detent, step_knob
from .errors import (
    DegenerateTerm, NoConvergence, NonFiniteState, VolumeOutOfRange,
    _fields, _memory_for, _nonnegative, _positive, _step_count,
)
from .helix import HelixSpec, screw_advance
from .mesh import TriMesh, height_search, mesh_volume
from .pendulum import PendulumParams, direction_of, init_state, step_pendulum
from .trace import ReplayTrace


class PoleStiffnessWarning(UserWarning):
    """Damping too stiff for the pole guard at this step size."""

LIQUID_COLUMNS = (
    "time", "phi", "theta", "phidot", "thetadot",
    "nx", "ny", "nz", "height", "residual",
)
SCREW_COLUMNS = ("time", "angle", "axial")
KNOB_COLUMNS = ("time", "q", "qdot", "index")


def _uniform_step(times) -> float:
    """Spacing of two or more timestamps; raises ValueError unless they
    are strictly increasing and uniformly spaced (within 1e-9 relative)."""
    gaps = np.diff(times)
    if not (gaps > 0.0).all():
        raise ValueError("timestamps must be strictly increasing")
    first = gaps[0]
    # np.allclose(gaps, first, rtol=1e-9, atol=0.0) written out; an infinite
    # first gap (the difference of two huge timestamps) is close only to itself
    close = np.abs(gaps - first) <= 1e-9 * first if first < math.inf else gaps == first
    if not close.all():
        raise ValueError("timestamps must be uniformly spaced")
    return first


@dataclass(frozen=True, eq=False)
class FrameTrajectory:
    """Uniformly sampled container-frame motion: timestamps, linear
    accelerations, and optional orientation quaternions (w, x, y, z) of the
    container frame in the world."""

    times: np.ndarray
    accels: np.ndarray
    orientations: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        accels = np.asarray(self.accels, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "accels", accels)
        if len(times) == 0:
            raise ValueError("trajectory needs at least one sample")
        if len(times) != len(accels):
            raise ValueError("times and accelerations disagree in length")
        if not (np.isfinite(times).all() and np.isfinite(accels).all()):
            raise ValueError("trajectory samples must be finite")
        # index_at reads the start and the spacing as floats, infinite for one sample
        object.__setattr__(self, "_start", float(times[0]))
        object.__setattr__(self, "_spacing",
                           float(_uniform_step(times)) if len(times) > 1 else math.inf)
        if self.orientations is not None:
            quats = np.asarray(self.orientations, dtype=float).reshape(-1, 4)
            object.__setattr__(self, "orientations", quats)
            if len(quats) != len(times):
                raise ValueError("orientations and times disagree in length")
            norms = np.linalg.norm(quats, axis=1)
            # np.allclose(norms, 1.0, rtol=0.0, atol=1e-9) written out; NaN fails it
            if not (np.abs(norms - 1.0) <= 1e-9).all():
                raise ValueError("orientation quaternions must be unit length")

    def index_at(self, t: float) -> int:
        """Sample covering time ``t`` (zero-order hold, clamped to the ends,
        also past the float range: the position is clamped, then floored)."""
        at = (t - self._start) / self._spacing + 1e-12
        return math.floor(min(max(at, 0.0), len(self.times) - 1))


def effective_accel(gravity, frame_accel) -> np.ndarray:
    """Forcing of the surface pendulum: gravity minus the frame acceleration
    (the inertial force felt inside the accelerating container)."""
    return np.asarray(gravity, dtype=float) - np.asarray(frame_accel, dtype=float)


def rotate_world_to_frame(quat, v) -> np.ndarray:
    """Express a world vector in a frame whose world orientation is ``quat``
    (w, x, y, z): applies the inverse rotation."""
    w, x, y, z = (float(c) for c in quat)
    # conjugate rotates world -> frame
    x, y, z = -x, -y, -z
    vx, vy, vz = (float(c) for c in v)
    # q * v * q^-1 expanded
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.array(
        [
            vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx),
        ]
    )


@dataclass(frozen=True, eq=False)
class SceneConfig:
    """A liquid scene: gravity, container mesh, pendulum parameters, the
    conserved liquid volume, and the stepping schedule.

    Angular effects of a rotating container are limited to re-expressing
    the effective acceleration in the container frame when the trajectory
    carries orientations; Euler and centrifugal terms are not modeled.
    """

    gravity: np.ndarray
    container: TriMesh
    pendulum: PendulumParams
    liquid_volume: float
    dt: float = 1e-3
    duration: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.gravity, dtype=float).reshape(3)
        object.__setattr__(self, "gravity", g)
        if not np.isfinite(g).all():
            raise ValueError("gravity must be finite")
        _fields(self, _positive, "dt")
        _fields(self, _nonnegative, "duration", "liquid_volume")
        object.__setattr__(self, "_steps", _step_count(self.dt, self.duration))
        if not len(self.container):
            raise ValueError("container mesh has no triangles")
        total = mesh_volume(self.container)
        if self.liquid_volume > total:
            raise ValueError(
                f"liquid volume {self.liquid_volume} outside container capacity [0, {total}]"
            )
        # the guarded azimuthal equation has damping rate damping_phi /
        # (m l^2 eps) at the pole; explicit RK4 needs that below ~2.78/dt,
        # or trajectories that revisit the vertical blow up
        p = self.pendulum
        ml2 = p.mass * p.length * p.length
        if p.damping_phi * self.dt > 2.0 * ml2 * p.epsilon:
            need = p.damping_phi * self.dt / (2.0 * ml2) if ml2 else math.inf
            warnings.warn(
                "azimuthal damping is stiffer than the pole guard can stabilize "
                f"at dt={self.dt:g}: need epsilon >= {need:.3g} "
                f"(got {p.epsilon:g}); trajectories crossing the vertical may diverge",
                PoleStiffnessWarning,
                stacklevel=3,
            )

    @property
    def steps(self) -> int:
        return self._steps


def run_liquid_scene(config: SceneConfig, trajectory: FrameTrajectory) -> ReplayTrace:
    """Step the liquid surface over the trajectory and record every state.

    Per step: sample the frame acceleration (zero-order hold), form the
    effective acceleration, advance the pendulum one RK4 step, set the
    surface normal to the negated pendulum direction, and re-solve the
    height from volume conservation warm-started at the previous height.
    The pendulum starts settled: aligned with the effective acceleration of
    the first sample, at rest.  The forcing of each sample the steps read
    is formed once: one subtraction, and one rotation into the container
    frame when the trajectory carries orientations, read as floats.
    Solver failures propagate with the failing step index; a duration with
    more rows than memory can hold is a ValueError.
    """
    steps = config.steps
    with _memory_for(steps, len(LIQUID_COLUMNS), f"duration {config.duration} needs "
                     f"{steps} steps, more rows than memory can hold"):
        rows = np.empty((steps, len(LIQUID_COLUMNS)))
    # the samples the steps read run from the first step's to the last's,
    # since index_at does not decrease with t
    first = trajectory.index_at(0.0)
    last = trajectory.index_at((steps - 1) * config.dt)
    forcing = effective_accel(config.gravity, trajectory.accels[first:last + 1]).tolist()
    if trajectory.orientations is not None:
        # only the rows a step reads: a trajectory may be sampled finer than dt
        for k in {trajectory.index_at(i * config.dt) - first for i in range(steps)}:
            forcing[k] = rotate_world_to_frame(trajectory.orientations[first + k],
                                               forcing[k]).tolist()
    state = init_state(forcing[0])
    h_prev = None
    for i in range(steps):
        t = i * config.dt
        g_eff = forcing[trajectory.index_at(t) - first]
        try:
            state = step_pendulum(config.pendulum, state, g_eff, config.dt)
            normal = -direction_of(state)
            found = height_search(
                config.container, normal, config.liquid_volume, h_prev
            )
        except (NoConvergence, VolumeOutOfRange, NonFiniteState) as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        h_prev = found.height
        rows[i] = (
            t + config.dt,
            state.phi, state.theta, state.phidot, state.thetadot,
            normal[0], normal[1], normal[2],
            found.height, found.residual,
        )
    return ReplayTrace(kind="liquid", columns=LIQUID_COLUMNS, data=rows)


def run_screw_scene(spec: HelixSpec, angles, dt: float = 1e-3) -> ReplayTrace:
    """Kinematic screw replay: axial position is pitch times angle at every
    sample of the driven angle profile."""
    dt = _positive("dt", dt)
    angles = np.asarray(angles, dtype=float).reshape(-1)
    if not np.isfinite(angles).all():
        raise ValueError("angle profile must be finite")
    times = dt * np.arange(len(angles))
    axial = screw_advance(spec, angles)
    rows = np.column_stack([times, angles, np.atleast_1d(axial)])
    return ReplayTrace(kind="screw", columns=SCREW_COLUMNS, data=rows)


def run_knob_scene(
    profile: DetentProfile,
    torque,
    inertia: float,
    dt: float = 1e-3,
    duration: float = 1.0,
    q0: float = 0.0,
    qdot0: float = 0.0,
) -> ReplayTrace:
    """Step a knob under an external torque (scalar, or one sample per step)
    and record position, velocity, and the nearest detent index.  Raises
    ValueError unless ``dt`` is positive and ``duration`` covers at least
    one whole step and no more rows than memory can hold, and, naming the
    step, for a torque that is not finite."""
    steps = _step_count(dt, duration)
    torques = np.broadcast_to(np.asarray(torque, dtype=float), (steps,))
    state = KnobState(q=q0, qdot=qdot0, inertia=inertia)
    with _memory_for(steps, len(KNOB_COLUMNS), f"duration {duration} needs "
                     f"{steps} steps, more rows than memory can hold"):
        rows = np.empty((steps, len(KNOB_COLUMNS)))
    for i in range(steps):
        try:
            state = step_knob(profile, state, torques[i], dt)
        except (NonFiniteState, ValueError) as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        rows[i] = (
            (i + 1) * dt, state.q, state.qdot, nearest_detent(profile, state.q),
        )
    return ReplayTrace(kind="knob", columns=KNOB_COLUMNS, data=rows)


@dataclass(frozen=True, eq=False)
class ProgressSpec:
    """Per-parameter (initial, target, final) triples with weights that are
    nonnegative and sum to one.  A term with initial == target carries no
    usable scale and is rejected with :class:`DegenerateTerm`."""

    initial: np.ndarray
    target: np.ndarray
    final: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("initial", "target", "final", "weights"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
            arrays[name] = arr
        n = len(arrays["initial"])
        if n == 0 or any(len(a) != n for a in arrays.values()):
            raise ValueError("initial, target, final, and weights must share a length >= 1")
        if not all(np.isfinite(a).all() for a in arrays.values()):
            raise ValueError("progress parameters must be finite")
        if (self.weights < 0.0).any():
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {self.weights.sum()}")
        if (self.initial == self.target).any():
            i = int(np.argmax(self.initial == self.target))
            raise DegenerateTerm(
                f"term {i}: initial equals target ({self.initial[i]}); "
                "relative progress is undefined"
            )


def progress_score(spec: ProgressSpec) -> float:
    """Weighted relative progress toward the targets, each term clamped to
    [0, 1]: sum_i w_i * max(1 - |final_i - target_i| / |initial_i - target_i|, 0)."""
    shortfall = np.abs(spec.final - spec.target) / np.abs(spec.initial - spec.target)
    terms = np.maximum(1.0 - shortfall, 0.0)
    return float(spec.weights @ terms)
