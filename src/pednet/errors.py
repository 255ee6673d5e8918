"""Exception hierarchy shared across the engine."""


class PednetError(Exception):
    """Base class for all engine errors."""


class ShapeError(PednetError):
    """Tensor shapes incompatible with the requested operation."""


class NumericError(PednetError):
    """NaN/Inf surfaced where only finite values are allowed."""


class StateError(PednetError):
    """Operation called out of order (e.g. backward before forward)."""


class ConfigError(PednetError):
    """Invalid model id, phase, or run configuration."""


class CheckpointError(PednetError):
    """Malformed checkpoint file (magic, version, tensor table)."""


class DataError(PednetError):
    """Dataset ingest, split, balance, or decode failure."""


class MetricError(PednetError):
    """Degenerate input to an evaluation metric."""
