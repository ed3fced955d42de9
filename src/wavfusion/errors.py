"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (non-scalar backward, graph reuse, ...)."""


class ConfigError(ValueError):
    """Invalid configuration value or combination of values; ``keys`` names
    the config keys at fault, if any."""

    def __init__(self, message: str, keys: tuple = ()):
        super().__init__(message)
        self.keys = keys


class DataError(ValueError):
    """A dataset, sample, or label violates a contract."""


class FormatError(ValueError):
    """Malformed binary file; the message carries the offending byte offset."""


class CheckpointError(FormatError):
    """Checkpoint content incompatible with the receiving model."""
