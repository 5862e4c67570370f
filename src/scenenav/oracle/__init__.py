from .base import (
    ClassifiedElements,
    MatchDecision,
    OracleError,
    Proposal,
    RegionChoice,
    SemanticOracle,
)
from .remote import RemoteChatBackend, RemoteConfig
from .rules import RuleOracle
from .tables import OracleTables, SynonymTable, default_tables

__all__ = [
    "ClassifiedElements",
    "MatchDecision",
    "OracleError",
    "OracleTables",
    "Proposal",
    "RegionChoice",
    "RemoteChatBackend",
    "RemoteConfig",
    "RuleOracle",
    "SemanticOracle",
    "SynonymTable",
    "default_tables",
]
