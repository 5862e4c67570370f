from .base import (
    MatchDecision,
    OracleError,
    Proposal,
    RegionChoice,
)
from .remote import RemoteChatBackend, RemoteConfig
from .rules import RuleOracle
from .tables import OracleTables, SynonymTable, default_tables

__all__ = [
    "MatchDecision",
    "OracleError",
    "OracleTables",
    "Proposal",
    "RegionChoice",
    "RemoteChatBackend",
    "RemoteConfig",
    "RuleOracle",
    "SynonymTable",
    "default_tables",
]
