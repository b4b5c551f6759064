"""The one report type of every verification suite.

CheckReport is a plain mutable class with __slots__: every report gets its
own mismatches list and details dict.  Every suite's JSON has the same keys,
name, checked, mismatch_count, mismatches, details and verdict; what a suite
adds goes inside details.  A verdict needs no mismatch and more checks than
details["bound"] (0 if absent): a Sturm check short of its bound is false.
Rationals are serialized as canonical Fraction strings ("7", "-1/12") so
that report JSON never contains floating point.
"""
from __future__ import annotations

from fractions import Fraction

__all__ = ["CheckReport", "jsonable"]


def jsonable(value):
    """Recursively convert report payloads to JSON-safe values."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


class CheckReport:
    """Outcome of one verification pass: what ran, what disagreed."""

    __slots__ = ("name", "checked", "mismatches", "details")

    def __init__(self, name: str, checked: int, mismatches: list[tuple] | None = None,
                 details: dict | None = None) -> None:
        self.name = name
        self.checked = checked
        self.mismatches = [] if mismatches is None else mismatches
        self.details = {} if details is None else details

    @property
    def verdict(self) -> bool:
        return not self.mismatches and self.checked > self.details.get("bound", 0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "mismatch_count": len(self.mismatches),
            "mismatches": jsonable(self.mismatches),
            "details": jsonable(self.details),
            "verdict": self.verdict,
        }
