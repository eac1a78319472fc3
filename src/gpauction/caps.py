"""Enumeration caps shared by the search routines.

Every brute-force surface (demand sets, vertex tables, multiset searches)
is exponential in n or m; exceeding a cap raises instead of truncating.
"""
from __future__ import annotations

from dataclasses import dataclass


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class Caps:
    max_n: int = 6
    max_m: int = 6

    def check_n(self, n: int) -> None:
        if n > self.max_n:
            raise CapExceededError(f"n={n} exceeds cap max_n={self.max_n}")

    def check_m(self, m: int) -> None:
        """Also refuses an m that is not an int >= 0: every search checks
        m here first."""
        if type(m) is not int or m < 0:
            raise ValueError(f"part count m={m!r} must be a nonnegative int")
        if m > self.max_m:
            raise CapExceededError(f"m={m} exceeds cap max_m={self.max_m}")


DEFAULT_CAPS = Caps()
