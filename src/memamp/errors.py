"""Exception hierarchy shared across the package."""


class MemampError(Exception):
    """Base class for all errors raised by memamp."""


class TruncationOverflowError(MemampError):
    """Amplitude would flow past the allocated top of a truncated axis."""


class TruncationLeakageError(TruncationOverflowError):
    """Exact evolution left more population on a top Fock level than tolerated."""


class ResourceGuardError(MemampError):
    """A hard resource cap (atom count, dimension, grid size) was exceeded."""


class GridGuardError(ResourceGuardError):
    """Sweep grid is empty or larger than the configured cap."""


class MixedConditionalError(MemampError):
    """Heralded conditional state is mixed and cannot be returned as a pure vector."""


class UndefinedMetricError(MemampError):
    """Metric denominator vanished (no detectable photons / no atomic overlap)."""


class MetricRangeError(MemampError):
    """A probability landed outside [-1e-10, 1 + 1e-10]; the run is invalid."""


class ConfigError(MemampError):
    """Invalid, unknown or out-of-range configuration key."""
