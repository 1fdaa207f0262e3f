"""Recursive resolution: engine, cache, vendor EDE profiles, stub client."""

from .cache import CacheConfig, CacheStats, ResolverCache
from .ede_policy import EdeEmission, EdePolicy
from .error_reporting import (
    REPORT_CHANNEL,
    DecodedReport,
    ErrorReporter,
    ReportChannelOption,
    ReportRecord,
    ReportingAgent,
    decode_report_qname,
    encode_report_qname,
)
from .forwarder import ForwarderStats, ForwardingResolver
from .iterative import (
    EngineConfig,
    EngineStats,
    IterationResult,
    IterativeEngine,
    QueryBudget,
)
from .server_stats import ServerStat, ServerStatsBook
from .public import (
    TEN_PUBLIC_RESOLVERS,
    SupportProbe,
    probe_ede_support,
    select_ede_capable,
)
from .policy import (
    ACTION_EDE,
    LocalPolicy,
    PolicyAction,
    PolicyDecision,
    PolicyRule,
    spamhaus_style_feed,
)
from .profiles import (
    ALL_PROFILES,
    BIND,
    CLOUDFLARE,
    KNOT,
    OPENDNS,
    POWERDNS,
    PROFILES_BY_NAME,
    QUAD9,
    UNBOUND,
    ResolverProfile,
    get_profile,
)
from .recursive import RecursiveResolver, ResolverStats
from .stub import StubAnswer, StubResolver
from .transfer import TransferError, axfr, axfr_domains

__all__ = [
    "ACTION_EDE",
    "ALL_PROFILES",
    "BIND",
    "CLOUDFLARE",
    "CacheConfig",
    "CacheStats",
    "DecodedReport",
    "EdeEmission",
    "EdePolicy",
    "EngineConfig",
    "EngineStats",
    "QueryBudget",
    "ServerStat",
    "ServerStatsBook",
    "ErrorReporter",
    "ForwarderStats",
    "ForwardingResolver",
    "LocalPolicy",
    "SupportProbe",
    "TEN_PUBLIC_RESOLVERS",
    "probe_ede_support",
    "select_ede_capable",
    "PolicyAction",
    "PolicyDecision",
    "PolicyRule",
    "REPORT_CHANNEL",
    "ReportChannelOption",
    "ReportRecord",
    "ReportingAgent",
    "decode_report_qname",
    "encode_report_qname",
    "spamhaus_style_feed",
    "IterationResult",
    "IterativeEngine",
    "KNOT",
    "OPENDNS",
    "POWERDNS",
    "PROFILES_BY_NAME",
    "QUAD9",
    "RecursiveResolver",
    "ResolverCache",
    "ResolverProfile",
    "ResolverStats",
    "StubAnswer",
    "StubResolver",
    "TransferError",
    "UNBOUND",
    "axfr",
    "axfr_domains",
    "get_profile",
]
