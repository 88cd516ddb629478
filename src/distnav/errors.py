"""Exception types shared across the package, and the one reader of input files."""

from pathlib import Path


class GridMismatchError(ValueError):
    """Two objects that must share a time grid (or support grid) do not."""


class NumericalError(RuntimeError):
    """A numerical operation failed beyond recovery (singular matrix, underflow)."""


class ConfigError(ValueError):
    """Invalid configuration, dataset, or command-line input."""


def read_input(path) -> str:
    """The text of an input file; one that cannot be read or decoded raises
    ConfigError naming it."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
