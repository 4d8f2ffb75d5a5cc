"""Small validation helpers used by configuration dataclasses."""

from __future__ import annotations

import numbers

from repro.util.errors import ConfigError


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")


def check_integral(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a whole number.

    Latencies and fixed costs are cycle counts. The analytical model
    sums them in regrouped order (a run's RA costs as one product), which
    equals the access-by-access sum only when every cost is a whole
    number.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not float(value).is_integer()
    ):
        raise ConfigError(f"{name} must be a whole number of cycles, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise :class:`ConfigError` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def check_power_of_two(name: str, value: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a power of two."""
    if not is_power_of_two(value):
        raise ConfigError(f"{name} must be a positive power of two, got {value!r}")
