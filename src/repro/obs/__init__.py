"""``repro.obs`` — the unified observability layer (metrics + traces).

One :class:`Observability` object bundles a :class:`MetricsRegistry`
and a :class:`TraceSink` and is *injected* into whatever should be
observed: recursive resolvers, the iterative engine, forwarders, the
resilient frontend, and the wild scanner all accept an ``obs=``
argument.  Omit it and they share :data:`NULL_OBS`, whose every
operation is a no-op — the seed behaviour, bit for bit.

Design rules (enforced by tests):

* **Off the hot path, provably.**  Recording reads the virtual clock
  but never advances it, never consumes randomness, and never touches
  the wire; scans with observability fully enabled are byte-identical
  to null-sink runs (``tests/test_obs_differential.py``).
* **Closed vocabularies.**  Metric names live in
  :data:`repro.obs.registry.METRICS`; trace event kinds are the
  :class:`TraceEventKind` enum.  An instrument is looked up by its
  declared name and kind when it is wired, and ``tests/test_obs.py``
  holds that every declared metric is requested somewhere.
* **Virtual timestamps.**  Trace events are stamped with the fabric
  clock, so a seeded run replays to the same NDJSON bytes.
"""

from __future__ import annotations

import threading

from ..net.clock import Clock
from .metrics import (
    DEFAULT_BUCKETS,
    ExpositionParseError,
    MetricsRegistry,
    ParsedExposition,
    ParsedSample,
    parse_prometheus,
)
from .registry import METRICS, MetricSpec
from .trace import (
    NULL_SINK,
    CollectingSink,
    NdjsonSink,
    QueryTrace,
    TraceEvent,
    TraceEventKind,
    TraceSink,
    event_record_attrs,
    normalize_trace,
    parse_ndjson,
    traces_to_ndjson,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS",
    "MetricSpec",
    "CollectingSink",
    "ExpositionParseError",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SINK",
    "NdjsonSink",
    "Observability",
    "ParsedExposition",
    "ParsedSample",
    "QueryTrace",
    "TraceEvent",
    "TraceEventKind",
    "TraceSink",
    "event_record_attrs",
    "normalize_trace",
    "parse_ndjson",
    "parse_prometheus",
    "traces_to_ndjson",
]


class Observability:
    """A metrics registry + trace sink pair, wired to one virtual clock.

    Each lane (thread) has its own *active trace*: trace events recorded
    anywhere below ``begin_trace``/``end_trace`` — the engine, the
    validator's fetch path, the resilience layer — land on the trace of
    the resolution that thread is running, never on another lane's.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
        sink: TraceSink | None = None,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.clock = clock
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(enabled=enabled)
        )
        self.sink = sink if sink is not None else NULL_SINK
        self._tls = threading.local()
        self._next_trace_id = 0

    # -- metrics shortcuts --------------------------------------------------
    #
    # Instruments are looked up by documented name only: help text and
    # label names come from the METRICS registry, so code cannot drift
    # from the documentation. An undocumented name raises KeyError and a
    # name asked for as the wrong kind raises ValueError, at wiring time.

    def _instrument(self, name: str, kind: str):
        spec = METRICS[name]
        if spec.kind != kind:
            raise ValueError(f"metric {name!r} is declared as a {spec.kind}, not a {kind}")
        return getattr(self.registry, kind)(name, spec.help, spec.labels)

    def counter(self, name: str):
        return self._instrument(name, "counter")

    def gauge(self, name: str):
        return self._instrument(name, "gauge")

    def histogram(self, name: str):
        return self._instrument(name, "histogram")

    # -- trace lifecycle ----------------------------------------------------

    @property
    def active_trace(self) -> QueryTrace | None:
        return getattr(self._tls, "trace", None)

    def begin_trace(self, qname: str, rdtype: str, profile: str) -> QueryTrace | None:
        """Open a trace and make it this lane's active trace.

        Returns None (and records nothing) when disabled, or when this
        lane already has an active trace — a nested resolution (error
        reporting, background refresh) folds into its parent's span
        rather than emitting a separate trace.
        """
        if not self.enabled or self.clock is None:
            return None
        if getattr(self._tls, "trace", None) is not None:
            return None
        self._next_trace_id += 1
        trace = QueryTrace(
            trace_id=self._next_trace_id,
            qname=qname,
            rdtype=rdtype,
            profile=profile,
            start=self.clock.now(),
        )
        trace.add(
            self.clock, TraceEventKind.BEGIN,
            qname=qname, rdtype=rdtype, profile=profile,
        )
        self._tls.trace = trace
        return trace

    def end_trace(self, trace: QueryTrace | None) -> None:
        """Close ``trace`` (if it is this lane's active one) and emit it."""
        if trace is None or getattr(self._tls, "trace", None) is not trace:
            return
        self._tls.trace = None
        self.sink.emit(trace)

    def trace_event(self, kind: TraceEventKind, **attrs) -> None:
        """Record onto the active trace; free no-op when there is none."""
        trace = getattr(self._tls, "trace", None)
        if trace is not None and self.clock is not None:
            trace.add(self.clock, kind, **attrs)

    def trace_event_record(self, record) -> None:
        """Mirror one engine :class:`EventRecord` onto the active trace."""
        trace = getattr(self._tls, "trace", None)
        if trace is not None and self.clock is not None:
            trace.add(self.clock, TraceEventKind.EVENT, **event_record_attrs(record))


#: The shared default: disabled registry, null sink, no clock.  Every
#: operation on it is a constant-time no-op, so un-instrumented callers
#: (the seed paths) stay byte-identical.
NULL_OBS = Observability(clock=None, enabled=False)
