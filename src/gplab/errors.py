"""Shared exception types."""


class ConfigError(ValueError):
    """A problem configuration failed to parse or validate."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded one of the configured resource caps."""


class ShallowTruncationError(ValueError):
    """The truncation depth is too shallow for what was asked: a Q_w with w
    longer than the depth, or an operator comparison with no guarded column,
    where nothing is left to check."""
