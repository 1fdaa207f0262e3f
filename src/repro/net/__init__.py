"""Simulated network: virtual clock, address registries, and the fabric."""

from .addresses import AddressClass, TESTBED_GLUE, classify, is_globally_routable
from .chaos import (
    ChaosAction,
    ChaosDecision,
    ChaosPolicy,
    ChaosStats,
    Impairment,
    LinkFlap,
    Outage,
    target_matches,
)
from .clock import Clock, SimulatedClock
from .endpoint import Endpoint
from .fabric import (
    DNS_PORT,
    FabricStats,
    LinkProperties,
    NetworkFabric,
    Timeout,
    TransportError,
    Unreachable,
)
from .lanes import LaneDeadlock, VirtualLanePool, run_in_lanes
from .ttl_store import TtlStore, remaining_ttl

__all__ = [
    "AddressClass",
    "ChaosAction",
    "ChaosDecision",
    "ChaosPolicy",
    "ChaosStats",
    "Clock",
    "DNS_PORT",
    "Impairment",
    "LaneDeadlock",
    "LinkFlap",
    "Outage",
    "target_matches",
    "Endpoint",
    "FabricStats",
    "LinkProperties",
    "NetworkFabric",
    "SimulatedClock",
    "TESTBED_GLUE",
    "Timeout",
    "TransportError",
    "TtlStore",
    "Unreachable",
    "VirtualLanePool",
    "classify",
    "is_globally_routable",
    "remaining_ttl",
    "run_in_lanes",
]
