"""Authoritative servers: zone serving, ACLs, and scripted pathologies."""

from .acl import Acl
from .authoritative import AuthoritativeServer, ServerStats
from .behaviors import Behavior, BehaviorServer

__all__ = [
    "Acl",
    "AuthoritativeServer",
    "Behavior",
    "BehaviorServer",
    "ServerStats",
]
