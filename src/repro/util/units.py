"""Byte / rate unit constants and formatting helpers.

The paper mixes decimal storage units (GB/s bandwidth figures, TB matrix
sizes) with binary memory sizes; we follow the same convention: decimal for
bandwidth and file sizes, binary for DRAM capacities.
"""

from __future__ import annotations

KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

KiB = 2**10
MiB = 2**20
GiB = 2**30
TiB = 2**40

_DECIMAL = [(TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")]
_BINARY = [(TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")]


def format_bytes(n: float, *, binary: bool = False, digits: int = 2) -> str:
    """Render a byte count with an auto-selected unit suffix."""
    table = _BINARY if binary else _DECIMAL
    for factor, suffix in table:
        if abs(n) >= factor:
            return f"{n / factor:.{digits}f} {suffix}"
    return f"{n:.0f} B"


def format_rate(bytes_per_second: float, *, digits: int = 2) -> str:
    """Render a bandwidth in decimal units per second (paper convention)."""
    return f"{format_bytes(bytes_per_second, digits=digits)}/s"


def gbit_to_bytes(gbits_per_second: float) -> float:
    """Convert a link rate quoted in Gb/s (e.g. 32 Gb/s QDR IB) to bytes/s."""
    return gbits_per_second * 1e9 / 8.0
