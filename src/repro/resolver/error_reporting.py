"""DNS Error Reporting (draft-ietf-dnsop-dns-error-reporting / RFC 9567).

The paper's Section 2 points at this draft as the flagship EDE-based
follow-on: authoritative servers advertise a *monitoring agent* via the
EDNS0 Report-Channel option, and resolvers that hit a resolution
failure tell the agent by resolving a specially encoded query name —
the query itself is the report::

    _er.<qtype>.<qname>.<info-code>._er.<agent-domain>   TXT

Implemented here: the Report-Channel option (code 18), the resolver-side
:class:`ErrorReporter` (with the draft's per-failure deduplication so an
agent is not flooded), and the agent-side decoding plus an in-memory
:class:`ReportingAgent` server that collects reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..dns.edns import EdnsOption
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.rdata import TXT
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dns.wire import WireReader, WireWriter
from ..net.clock import Clock
from ..net.endpoint import Endpoint
from ..net.ttl_store import TtlStore

#: EDNS0 OPTION-CODE assigned to Report-Channel.
REPORT_CHANNEL = 18

#: Distinct recent failures one reporter remembers for deduplication;
#: beyond it the oldest is forgotten (and would be reported again).
DEDUP_CAPACITY = 8192

_ER_LABEL = b"_er"


@dataclass(frozen=True)
class ReportChannelOption(EdnsOption):
    """EDNS0 Report-Channel: the zone's monitoring-agent domain."""

    code: int = REPORT_CHANNEL
    data: bytes = b""
    agent_domain: Name = Name.root()

    @classmethod
    def make(cls, agent_domain: Name | str) -> "ReportChannelOption":
        if isinstance(agent_domain, str):
            agent_domain = Name.from_text(agent_domain)
        return cls(agent_domain=agent_domain)

    def to_wire_data(self) -> bytes:
        # The agent domain is encoded as an uncompressed wire name.
        writer = WireWriter(enable_compression=False)
        writer.write_name(self.agent_domain, compress=False)
        return writer.getvalue()

    @classmethod
    def from_wire_data(cls, data: bytes) -> "ReportChannelOption":
        return cls(agent_domain=WireReader(data).read_name())


EdnsOption.register(REPORT_CHANNEL, ReportChannelOption.from_wire_data)


def encode_report_qname(
    qname: Name, rdtype: RdataType, info_code: int, agent: Name
) -> Name:
    """Build the reporting query name per the specification."""
    labels: list[bytes] = [_ER_LABEL, str(int(rdtype)).encode()]
    labels.extend(label for label in qname.labels if label != b"")
    labels.append(str(int(info_code)).encode())
    labels.append(_ER_LABEL)
    return Name(tuple(labels) + tuple(agent.labels))


@dataclass(frozen=True)
class DecodedReport:
    """A report reconstructed from an ``_er.`` query name."""

    qname: Name
    rdtype: int
    info_code: int


def decode_report_qname(report_name: Name, agent: Name) -> DecodedReport | None:
    """Inverse of :func:`encode_report_qname`; None when malformed."""
    if not report_name.is_strict_subdomain_of(agent):
        return None
    inner = report_name.relativize(agent).labels
    if len(inner) < 4 or inner[0] != _ER_LABEL or inner[-1] != _ER_LABEL:
        return None
    try:
        rdtype = int(inner[1])
        info_code = int(inner[-2])
    except ValueError:
        return None
    qname_labels = inner[2:-2]
    if not qname_labels:
        return None
    return DecodedReport(
        qname=Name(tuple(qname_labels) + (b"",)),
        rdtype=rdtype,
        info_code=info_code,
    )


@dataclass
class ReporterStats:
    reports_sent: int = 0
    suppressed_duplicates: int = 0
    failed: int = 0


class ErrorReporter:
    """Resolver-side agent notification with draft-mandated dedup."""

    def __init__(
        self,
        clock: Clock,
        dedup_window: float = 86_400.0,
        rng_seed: int = 0x9567,
    ):
        self._clock = clock
        self._dedup_window = dedup_window
        self._rng = random.Random(rng_seed)
        #: ``(qname, type, info-code, agent)`` of each failure reported
        #: within the window; it expires when the window closes.
        self._recent = TtlStore(clock, DEDUP_CAPACITY)
        self.stats = ReporterStats()

    def should_report(
        self, qname: Name, rdtype: RdataType, info_code: int, agent: Name
    ) -> bool:
        """False when the same failure was reported within the window."""
        key = (qname, int(rdtype), int(info_code), agent)
        if self._recent.fresh(key) is not None:
            self.stats.suppressed_duplicates += 1
            return False
        self._recent.put(key, None, self._clock.now() + self._dedup_window)
        return True

    def build_report_query(
        self, qname: Name, rdtype: RdataType, info_code: int, agent: Name
    ) -> Message:
        report_name = encode_report_qname(qname, rdtype, info_code, agent)
        # Reports are plain TXT lookups without DO (nothing to validate).
        return Message.make_query(
            report_name, RdataType.TXT, want_dnssec=False, rng=self._rng
        )


@dataclass
class ReportRecord:
    """One received report, as the agent stores it."""

    qname: Name
    rdtype: int
    info_code: int
    received_at: float
    reporter: str = ""


class ReportingAgent(Endpoint):
    """Authoritative endpoint for an agent domain; collects ``_er`` reports."""

    def __init__(self, agent_domain: Name | str, clock: Clock):
        if isinstance(agent_domain, str):
            agent_domain = Name.from_text(agent_domain)
        self.agent_domain = agent_domain
        self._clock = clock
        self.reports: list[ReportRecord] = []
        self.malformed = 0

    def handle_query(self, query: Message, source: str = "") -> Message:
        response = query.make_response(recursion_available=False)
        response.aa = True
        question = query.question[0]
        decoded = decode_report_qname(question.name, self.agent_domain)
        if decoded is None:
            self.malformed += 1
            response.rcode = Rcode.NXDOMAIN
            return response
        self.reports.append(
            ReportRecord(
                qname=decoded.qname,
                rdtype=decoded.rdtype,
                info_code=decoded.info_code,
                received_at=self._clock.now(),
                reporter=source,
            )
        )
        # The draft answers with any NOERROR response; a TXT ack is common.
        response.answer.append(
            RRset.of(
                question.name, RdataType.TXT,
                TXT.from_text_value("report received"), ttl=1,
            )
        )
        return response

    def reports_by_code(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for record in self.reports:
            counts[record.info_code] = counts.get(record.info_code, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))
