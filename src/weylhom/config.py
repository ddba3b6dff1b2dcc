"""Resource limits, all overridable through the environment."""

from __future__ import annotations

import os


class ConfigError(ValueError):
    """An environment limit is set to a value that is not an integer, or is
    below the least value it accepts."""


def _env_int(name: str, default: int, minimum: int | None = None) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


def expansion_limit() -> int:
    """Term budget for a single exterior-realization expansion (at least 1),
    counted over the partial dealings `polyalg.dprime` steps through."""
    return _env_int("WEYLHOM_EXPANSION_LIMIT", 1_000_000, minimum=1)


def worker_count() -> int:
    """Scan worker processes: WEYLHOM_WORKERS, clamped to 1..cpu_count()."""
    return max(1, min(_env_int("WEYLHOM_WORKERS", 1), os.cpu_count() or 1))


def scan_degree_cap() -> int:
    """Largest degree the scan command will enumerate (at least 0)."""
    return _env_int("WEYLHOM_MAX_SCAN_DEGREE", 10, minimum=0)


def specht_degree_bound() -> int:
    """Largest degree for which the symmetric-group oracle will build matrices
    (at least 0)."""
    return _env_int("WEYLHOM_SPECHT_BOUND", 7, minimum=0)
