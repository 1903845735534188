"""Galileo System Time, local reference time sources and the
time-synchronization (TS) rule the receiver's startup gate applies.

All simulation timestamps are integer milliseconds; GST week/time-of-week
are integer seconds.  Sub-second thresholds such as 29.5 s therefore compare
exactly, with no float rounding at the decision boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

SECONDS_PER_WEEK = 604_800
SUBFRAME_SECONDS = 30
MS_PER_S = 1000


def to_millis(seconds) -> int:
    """Convert a seconds value (int, float, str or Decimal) to integer ms.

    Configs carry short decimals ("29.5", "0.771"); reading them as an
    exact ratio of ints keeps boundary comparisons exact at any length.
    Digits below the millisecond raise ValueError rather than being
    rounded away; vectors.read_keys names the key in a SchemaError.
    """
    num, den = Decimal(str(seconds)).as_integer_ratio()
    ms, rest = divmod(num * MS_PER_S, den)
    if rest:
        raise ValueError(f"{seconds!r} has digits below the millisecond")
    return ms


@dataclass(frozen=True)
class Gst:
    """Galileo System Time: week number plus time of week in whole seconds."""

    wn: int
    tow: int

    def __post_init__(self):
        if self.wn < 0:
            raise ValueError(f"negative week number: {self.wn}")
        if not 0 <= self.tow < SECONDS_PER_WEEK:
            raise ValueError(f"tow out of range: {self.tow}")

    def total_seconds(self) -> int:
        return self.wn * SECONDS_PER_WEEK + self.tow

    def total_millis(self) -> int:
        return self.total_seconds() * MS_PER_S

    def add_seconds(self, seconds: int) -> "Gst":
        total = self.total_seconds() + seconds
        if total < 0:
            raise ValueError("GST before epoch")
        return Gst(total // SECONDS_PER_WEEK, total % SECONDS_PER_WEEK)


@dataclass(frozen=True)
class SymmetricBound:
    """TS rule |GST - LRT| < B, with B the LRT error bound in ms."""

    b_ms: int


@dataclass(frozen=True)
class AlternateThreshold:
    """Lightweight TS rule LRT - GST < T_L, the one-sided variant deployed
    by receivers that skip error-bound bookkeeping."""

    t_l_ms: int


TsPolicy = SymmetricBound | AlternateThreshold


@dataclass(frozen=True)
class LrtSource:
    """A local-reference-time source (crystal clock or NTP-derived).

    Reading the source at true time t yields t + offset_ms.  error_bound_ms
    is the trust interval the receiver attaches to each reading.
    """

    offset_ms: int = 0
    error_bound_ms: int = 0

    def __post_init__(self):
        if self.error_bound_ms < 0:
            raise ValueError("error bound must be >= 0")

    def read(self, true_ms: int) -> int:
        return true_ms + self.offset_ms


def check_time_sync(gst: Gst, lrt_ms: int, policy: TsPolicy) -> bool:
    """Apply the configured TS rule to a GST reading and an LRT value."""
    delta_ms = lrt_ms - gst.total_millis()
    if isinstance(policy, SymmetricBound):
        return abs(delta_ms) < policy.b_ms
    return delta_ms < policy.t_l_ms
