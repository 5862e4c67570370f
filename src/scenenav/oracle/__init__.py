from .base import (
    ClassifiedElements,
    MatchDecision,
    OracleError,
    Proposal,
    RegionChoice,
    SemanticOracle,
)
from .remote import RemoteChatOracle, RemoteConfig
from .rules import RuleOracle
from .tables import OracleTables, SynonymTable, default_tables

__all__ = [
    "ClassifiedElements",
    "MatchDecision",
    "OracleError",
    "OracleTables",
    "Proposal",
    "RegionChoice",
    "RemoteChatOracle",
    "RemoteConfig",
    "RuleOracle",
    "SemanticOracle",
    "SynonymTable",
    "default_tables",
]
