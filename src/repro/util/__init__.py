"""Shared utilities: unit handling and seeded RNG trees."""

from repro.util.units import (
    KB,
    MB,
    GB,
    TB,
    KiB,
    MiB,
    GiB,
    TiB,
    format_bytes,
    format_rate,
)
from repro.util.rng import RngTree, spawn

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "format_bytes",
    "format_rate",
    "RngTree",
    "spawn",
]
