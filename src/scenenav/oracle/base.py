"""The answers ``RuleOracle``'s decisions return, and ``OracleError``.

The remote chat backend serves schema generation only; it raises
``OracleError`` when the endpoint stays unusable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MatchDecision",
    "ClassifiedElements",
    "RegionChoice",
    "Proposal",
    "OracleError",
]


class OracleError(Exception):
    """A backend failed to produce a usable answer."""


@dataclass(frozen=True)
class MatchDecision:
    matched: bool
    confidence: float  # always strictly inside (0, 1)
    reasoning: str = ""


@dataclass(frozen=True)
class ClassifiedElements:
    place_label: str | None
    connectors: tuple[str, ...] = ()
    objects: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegionChoice:
    """Either an existing region node id or a label for a brand-new one."""

    is_new: bool
    value: str


@dataclass(frozen=True)
class Proposal:
    chosen: str
    reasoning: str = ""

