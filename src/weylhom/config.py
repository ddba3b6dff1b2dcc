"""Resource limits, all overridable through the environment."""

from __future__ import annotations

import os


class ConfigError(ValueError):
    """An environment limit is set to a value that is not an integer."""


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def expansion_limit() -> int:
    """Term budget for a single exterior-realization expansion."""
    return _env_int("WEYLHOM_EXPANSION_LIMIT", 1_000_000)


def worker_count() -> int:
    """Scan worker processes: WEYLHOM_WORKERS, clamped to 1..cpu_count()."""
    return max(1, min(_env_int("WEYLHOM_WORKERS", 1), os.cpu_count() or 1))


def scan_degree_cap() -> int:
    """Largest degree the scan command will enumerate."""
    return _env_int("WEYLHOM_MAX_SCAN_DEGREE", 10)


def specht_degree_bound() -> int:
    """Largest degree for which the symmetric-group oracle will build matrices."""
    return _env_int("WEYLHOM_SPECHT_BOUND", 7)
