"""Structured query traces: one ordered span per client resolution.

The paper's thesis is that a resolver failure should *explain itself*;
:class:`QueryTrace` applies that to our own stack.  One trace object is
threaded through a resolution (engine, cache, validator, resilience
layer) and accumulates :class:`TraceEvent` records — each with a kind
from the closed :class:`TraceEventKind` registry, a **virtual-clock**
timestamp, and flat string/number attributes.  Because every timestamp
comes from the simulation's clock, the same seed replays to the same
trace, byte for byte.

Serialization is NDJSON: one JSON object per event, prefixed by the
trace's identity, loss-lessly re-parseable (:func:`parse_ndjson`).
Golden-snapshot tests use :func:`normalize_trace`, which replaces the
raw timestamps with their ordinal rank so snapshots stay stable across
jitter-seed changes while still pinning event *order*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..dnssec.trace import EventRecord
    from ..net.clock import Clock


class TraceEventKind(Enum):
    """The closed registry of span-event kinds."""

    #: Resolution accepted: qname, rdtype, profile.
    BEGIN = "begin"
    #: A query handed to the fabric: server, qname, rdtype, transport.
    UPSTREAM_QUERY = "upstream_query"
    #: A response came back: server, rcode, rtt (virtual seconds).
    UPSTREAM_RESPONSE = "upstream_response"
    #: One transport/server anomaly, mirrored from the engine's
    #: :class:`~repro.dnssec.trace.EventRecord` stream (event, server,
    #: qname, detail) — breaker and deadline events arrive this way too.
    EVENT = "event"
    #: Served from cache without upstream work: hit positive/negative/error.
    CACHE_HIT = "cache_hit"
    #: Parked on another lane's identical in-flight work: level client/infra.
    COALESCED = "coalesced"
    #: Infrastructure-record fetch (DS/DNSKEY/NSEC3PARAM): zone, qname,
    #: rdtype, outcome hit/miss.
    INFRA_FETCH = "infra_fetch"
    #: DNSSEC validation verdict: state, reason, role, zone.
    VALIDATION = "validation"
    #: One EDE option attached to the final response: code, extra_text.
    EDE = "ede"
    #: Resolution finished: rcode, stale, from_cache, answers.
    END = "end"


#: Attribute names an event may not use: they would collide with the
#: event's own fields in the serialized forms.
RESERVED_ATTRS = frozenset({"kind", "t", "attrs"})


@dataclass
class TraceEvent:
    """One ordered, virtual-timestamped observation."""

    kind: TraceEventKind
    t: float
    attrs: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "t": self.t, "attrs": dict(self.attrs)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TraceEvent":
        return cls(
            kind=TraceEventKind(obj["kind"]),
            t=float(obj["t"]),
            attrs=dict(obj.get("attrs", {})),
        )


@dataclass
class QueryTrace:
    """Everything observed while answering one client query."""

    trace_id: int
    qname: str
    rdtype: str
    profile: str
    start: float
    events: list[TraceEvent] = field(default_factory=list)

    def add(
        self, clock: "Clock", kind: TraceEventKind, /, **attrs
    ) -> TraceEvent:
        bad = RESERVED_ATTRS.intersection(attrs)
        if bad:
            raise ValueError(f"reserved trace attribute name(s): {sorted(bad)}")
        event = TraceEvent(kind=kind, t=clock.now(), attrs=attrs)
        self.events.append(event)
        return event

    def events_of(self, *kinds: TraceEventKind) -> list[TraceEvent]:
        return [event for event in self.events if event.kind in kinds]

    @property
    def final_rcode(self) -> int | None:
        for event in reversed(self.events):
            if event.kind is TraceEventKind.END:
                return event.attrs.get("rcode")
        return None

    @property
    def ede_codes(self) -> tuple[int, ...]:
        return tuple(
            event.attrs.get("code")
            for event in self.events
            if event.kind is TraceEventKind.EDE
        )

    # -- NDJSON ------------------------------------------------------------

    def to_ndjson(self) -> str:
        """One line per event, each carrying the trace identity.

        Event attributes ride in a nested ``attrs`` object so they can
        never collide with the head keys (an UPSTREAM_QUERY legitimately
        has its own ``qname``).
        """
        head = {
            "trace_id": self.trace_id,
            "qname": self.qname,
            "rdtype": self.rdtype,
            "profile": self.profile,
            "start": self.start,
        }
        return "".join(
            json.dumps({**head, **event.to_json_obj()}, sort_keys=True) + "\n"
            for event in self.events
        )


def event_record_attrs(record: "EventRecord") -> dict:
    """Flatten an engine :class:`EventRecord` into trace attributes."""
    attrs: dict = {"event": record.event.name}
    if record.server:
        attrs["server"] = record.server
    if record.qname is not None:
        attrs["qname"] = str(record.qname)
    if record.rdtype:
        attrs["rdtype"] = record.rdtype
    if record.detail:
        attrs["detail"] = record.detail
    return attrs


def parse_ndjson(text: str) -> list[QueryTrace]:
    """Re-assemble traces from NDJSON lines (lossless round-trip)."""
    traces: dict[int, QueryTrace] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        trace_id = obj["trace_id"]
        head = {
            "qname": obj["qname"],
            "rdtype": obj["rdtype"],
            "profile": obj["profile"],
            "start": obj["start"],
        }
        trace = traces.get(trace_id)
        if trace is None:
            trace = QueryTrace(trace_id=trace_id, **head)
            traces[trace_id] = trace
        trace.events.append(TraceEvent.from_json_obj(obj))
    return list(traces.values())


def normalize_trace(trace: QueryTrace) -> dict:
    """Snapshot form: event kinds + attributes, timestamps -> ordinals.

    Jitter seeds shift *when* retries happen, never *what* happens or in
    which order; replacing timestamps with their rank makes golden
    snapshots seed-independent while still pinning the event sequence.
    """
    return {
        "qname": trace.qname,
        "rdtype": trace.rdtype,
        "profile": trace.profile,
        "events": [
            {"t": index, "kind": event.kind.value, **event.attrs}
            for index, event in enumerate(trace.events)
        ],
    }


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TraceSink:
    """Where finished traces go.  The base class swallows them (null sink)."""

    def emit(self, trace: QueryTrace) -> None:
        pass

    def close(self) -> None:
        pass


#: The default: traces cost one no-op call and vanish.
NULL_SINK = TraceSink()


class CollectingSink(TraceSink):
    """Keeps every trace in memory (tests, the dig ``+trace`` renderer)."""

    def __init__(self):
        self.traces: list[QueryTrace] = []

    def emit(self, trace: QueryTrace) -> None:
        self.traces.append(trace)

    def last(self) -> QueryTrace | None:
        return self.traces[-1] if self.traces else None


class NdjsonSink(TraceSink):
    """Streams each finished trace to an NDJSON file."""

    def __init__(self, path):
        from pathlib import Path

        self._path = Path(path)
        self._handle = self._path.open("a", encoding="utf-8")

    def emit(self, trace: QueryTrace) -> None:
        self._handle.write(trace.to_ndjson())
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def traces_to_ndjson(traces: Iterable[QueryTrace]) -> str:
    return "".join(trace.to_ndjson() for trace in traces)
