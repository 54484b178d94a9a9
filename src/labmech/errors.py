"""Exception types shared across the kernel."""


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
