"""The answers ``RuleOracle``'s decisions return, and ``OracleError``.

The remote chat backend serves schema generation only; it raises
``OracleError`` when the endpoint stays unusable.
An answer is a NamedTuple: it equals a plain tuple of the same values.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "MatchDecision",
    "RegionChoice",
    "Proposal",
    "OracleError",
]


class OracleError(Exception):
    """A backend failed to produce a usable answer."""


class MatchDecision(NamedTuple):
    matched: bool
    confidence: float  # always strictly inside (0, 1)
    reasoning: str = ""


class RegionChoice(NamedTuple):
    """Either an existing region node id or a label for a brand-new one."""

    is_new: bool
    value: str


class Proposal(NamedTuple):
    chosen: str
    reasoning: str = ""
