"""Exception types shared across the kernel, the rule every scalar
parameter and step schedule is checked by, and the guard on output sizes."""

import math
import operator
import sys


class LabmechError(Exception):
    """Base class for kernel-specific failures."""


class NonFiniteState(LabmechError):
    """An integration step produced NaN or infinity."""


class ZeroGravity(LabmechError):
    """Effective acceleration has zero magnitude; alignment is undefined."""


class DegenerateGradient(LabmechError):
    """Finite-difference gradient vanished (point equidistant from several turns)."""


class NotWatertight(LabmechError):
    """Mesh is not a closed, consistently oriented two-manifold."""


class OpenCutLoop(LabmechError):
    """Cut-boundary chaining failed to close every loop (non-manifold input)."""


class NonStarShapedCutLoop(LabmechError):
    """A cut loop cannot be fan-triangulated from its centroid."""


class VolumeOutOfRange(LabmechError):
    """Requested liquid volume is negative or exceeds the container volume."""


class NoConvergence(LabmechError):
    """Height search failed to converge within the iteration budget."""


class DegenerateTerm(LabmechError):
    """A progress term has initial == target; relative progress is undefined."""


class MeshFormatError(LabmechError):
    """A mesh file failed to parse. Carries the failing line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class MalformedTrace(LabmechError):
    """A trace file failed validation. Carries the failing record index,
    which the message names."""

    def __init__(self, message, record=None):
        super().__init__(message if record is None else f"record {record}: {message}")
        self.record = record


# The one rule for scalar parameters and step schedules, private to the package:
# each check returns the value as a float (an int for a count) or raises ValueError.
# Each is a single call, because PendulumState and LiquidPlane run them every step.


def _positive(name, value) -> float:
    try:
        if 0.0 < (x := float(value)) < math.inf:
            return x
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"{name} must be positive and finite, got {value}")


def _nonnegative(name, value) -> float:
    try:
        if 0.0 <= (x := float(value)) < math.inf:
            return x
    except OverflowError:
        pass
    raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _finite(name, value) -> float:
    try:
        if math.isfinite(x := float(value)):
            return x
    except OverflowError:
        pass
    raise ValueError(f"{name} must be finite, got {value}")


def _count(name, value, least=0) -> int:
    if hasattr(value, "__index__") and not isinstance(value, bool) and value >= least:
        return operator.index(value)
    raise ValueError(f"{name} must be an integer of at least {least}, got {value}")


def _fields(obj, rule, *names) -> None:
    """Replace each named field of the frozen dataclass ``obj`` by ``rule(name, value)``."""
    for name in names:
        object.__setattr__(obj, name, rule(name, getattr(obj, name)))


#: Steps a schedule must stay below: one more row of up to 16 float64
#: columns still fits an array numpy can describe (at most sys.maxsize bytes).
_MAX_STEPS = float(sys.maxsize // (16 * 8))


def _step_count(dt, duration, minimum=1) -> int:
    """Whole steps of a positive ``dt`` in a nonnegative ``duration``,
    ``round(duration / dt)``; ValueError unless it is at least ``minimum``
    and below ``_MAX_STEPS``."""
    return _whole_steps(_positive("dt", dt), _nonnegative("duration", duration), minimum)


def _whole_steps(dt: float, duration: float, minimum=1) -> int:
    """:func:`_step_count` of a ``dt`` and a ``duration`` that the caller
    has checked: a positive and a nonnegative finite float."""
    steps = duration / dt
    if not steps < _MAX_STEPS:
        raise ValueError(f"duration {duration} at dt {dt} has too many steps to count")
    steps = int(round(steps))
    if steps < minimum:
        raise ValueError(f"duration {duration} covers no whole step at dt {dt}")
    return steps


class _memory_for:
    """Run a block that builds arrays of ``rows`` rows of ``columns`` floats;
    ValueError ``message.format(*args)`` when numpy cannot describe such an
    array, past ``sys.maxsize`` bytes, or the host refuses to allocate one.
    The message is formatted only then, so a block that fits costs a
    comparison."""

    __slots__ = ("message", "args")

    def __init__(self, rows: int, columns: int, message: str, *args):
        self.message, self.args = message, args
        if rows > sys.maxsize // (8 * columns):
            raise ValueError(self._text())

    def _text(self) -> str:
        return self.message.format(*self.args) if self.args else self.message

    def __enter__(self):
        return None

    def __exit__(self, kind, exc, traceback):
        if kind is not None and issubclass(kind, MemoryError):
            raise ValueError(self._text()) from None
        return False
