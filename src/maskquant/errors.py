"""Shared error types, one per CLI exit code."""


class ConfigError(Exception):
    """Invalid configuration key, value, or flag combination (exit 2)."""


class ContainerError(Exception):
    """Malformed or unwritable file: a tensor, packed model, manifest or report (exit 3)."""


class ShapeError(ValueError):
    """Operands whose dimensions or names do not line up (exit 4)."""
