"""Unit and property tests for ``repro.obs`` (metrics + traces).

Covers the registry's instrument semantics, the Prometheus text
round-trip (render -> parse, with hypothesis-driven label escaping),
the NDJSON trace round-trip, the Observability lifecycle (null no-op,
nesting, reserved attributes), and the two pinned regressions from
``repro.dnssec.trace``: ``ResolutionOutcome.events_of`` insertion
order and the ``EventRecord.__str__`` field order including rdtype.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.dns.name import Name
from repro.dnssec.trace import EventRecord, ResolutionEvent, ResolutionOutcome
from repro.obs import (
    METRICS,
    NULL_OBS,
    CollectingSink,
    MetricsRegistry,
    MetricSpec,
    Observability,
    QueryTrace,
    TraceEventKind,
    normalize_trace,
    parse_ndjson,
    parse_prometheus,
)
from repro.obs.metrics import escape_label_value, unescape_label_value
from repro.obs.trace import RESERVED_ATTRS, traces_to_ndjson


class _Clock:
    """Minimal manual clock for trace construction."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        self._now += dt


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counter_and_gauge_values():
    registry = MetricsRegistry()
    hits = registry.counter("hits_total", "hits", labels=("kind",))
    hits.labels(kind="a").inc()
    hits.labels(kind="a").inc(2)
    hits.labels(kind="b").inc()
    depth = registry.gauge("depth", "queue depth")
    depth.set(7)
    depth.set(3)

    parsed = parse_prometheus(registry.render_prometheus())
    assert parsed.value("hits_total", kind="a") == 3
    assert parsed.value("hits_total", kind="b") == 1
    assert parsed.value("depth") == 3
    assert parsed.types == {"hits_total": "counter", "depth": "gauge"}
    assert parsed.helps["depth"] == "queue depth"


def test_histogram_buckets_are_cumulative_in_exposition():
    """Each observation lands in exactly one bucket; exposition cumulates.

    Regression: buckets were once incremented for *every* bound >= the
    value (already cumulative), then cumulated again at render time,
    doubling the counts.
    """
    registry = MetricsRegistry()
    hist = registry.histogram("lat", "latency", buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.5, 1.5, 4.0, 99.0):
        hist.observe(value)

    parsed = parse_prometheus(registry.render_prometheus())
    assert parsed.value("lat_bucket", le="1") == 1
    assert parsed.value("lat_bucket", le="2") == 3
    assert parsed.value("lat_bucket", le="5") == 4
    assert parsed.value("lat_bucket", le="+Inf") == 5
    assert parsed.value("lat_count") == 5
    assert parsed.value("lat_sum") == pytest.approx(106.5)

    snap = registry.snapshot()
    assert snap["format"] == "repro-metrics/v1"
    (family,) = snap["metrics"]
    (series,) = family["series"]
    # Snapshot stores the per-bucket (non-cumulative) counts.
    assert series["buckets"] == {"1": 1, "2": 2, "5": 1}
    assert series["count"] == 5


def test_disabled_registry_is_a_no_op():
    registry = MetricsRegistry(enabled=False)
    instrument = registry.counter("anything", "ignored", labels=("x",))
    instrument.inc()
    instrument.labels(x="y").inc(5)
    registry.gauge("g").set(1)
    registry.histogram("h").observe(2)
    assert registry.render_prometheus() == ""
    assert registry.snapshot()["metrics"] == []


def test_kind_conflict_rejected():
    registry = MetricsRegistry()
    registry.counter("dual", "first")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("dual", "second")


def test_invalid_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("bad-name")
    with pytest.raises(ValueError):
        registry.counter("ok_name", labels=("bad-label",))


def test_observability_rejects_undocumented_metric_names():
    obs = Observability(clock=_Clock())
    with pytest.raises(KeyError):
        obs.counter("repro_totally_undocumented_total")


def test_observability_rejects_a_metric_asked_for_as_the_wrong_kind():
    obs = Observability(clock=_Clock())
    with pytest.raises(ValueError, match="declared as a counter, not a gauge"):
        obs.gauge("repro_resolver_queries_total")
    with pytest.raises(ValueError, match="declared as a histogram, not a counter"):
        obs.counter("repro_resolver_resolve_virtual_seconds")
    assert obs.registry.snapshot()["metrics"] == []


#: A literal instrument request in source: ``obs.counter("repro_...")``.
_REQUEST = re.compile(r'\.(?:counter|gauge|histogram)\(\s*"([a-zA-Z_:][a-zA-Z0-9_:]*)"')


def unrequested_metrics() -> set[str]:
    """Documented metrics that no module of ``src/repro`` requests."""
    src = Path(repro.__file__).parent
    requested = {name for path in src.rglob("*.py") for name in _REQUEST.findall(path.read_text())}
    return set(METRICS) - requested


def test_every_documented_metric_is_requested_somewhere():
    assert unrequested_metrics() == set()


def test_a_documented_metric_no_code_requests_is_caught(monkeypatch):
    monkeypatch.setitem(METRICS, "repro_never_requested_total", MetricSpec("counter", "dead"))
    assert unrequested_metrics() == {"repro_never_requested_total"}


def test_every_documented_metric_spec_instantiates():
    obs = Observability(clock=_Clock())
    for name, spec in METRICS.items():
        instrument = getattr(obs, spec.kind)(name)
        assert instrument is not None, name
    rendered = obs.registry.render_prometheus()
    for name in METRICS:
        assert f"# TYPE {name} " in rendered


# ---------------------------------------------------------------------------
# Prometheus escaping / round-trip properties
# ---------------------------------------------------------------------------


@given(st.text(max_size=200))
def test_label_escape_round_trip(value):
    assert unescape_label_value(escape_label_value(value)) == value


#: Label values must survive a full render -> parse cycle.  Raw line
#: separators other than "\n" (e.g. "\r", " ") are excluded: the
#: text format has no escape for them and ``splitlines`` would split
#: mid-value — the emitting side never produces such values.
_LABEL_VALUES = st.text(
    alphabet=st.characters(
        blacklist_characters="\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    ),
    max_size=80,
)


@given(_LABEL_VALUES, _LABEL_VALUES)
@settings(max_examples=100)
def test_exposition_round_trip_preserves_label_values(first, second):
    registry = MetricsRegistry()
    counter = registry.counter("series_total", "help \\ with\nnewline", ("tag",))
    counter.labels(tag=first).inc(1)
    if second != first:
        counter.labels(tag=second).inc(2)

    parsed = parse_prometheus(registry.render_prometheus())
    assert parsed.value("series_total", tag=first) == 1
    if second != first:
        assert parsed.value("series_total", tag=second) == 2
    assert parsed.helps["series_total"] == "help \\ with\nnewline"


# ---------------------------------------------------------------------------
# Trace NDJSON round-trip
# ---------------------------------------------------------------------------

_ATTR_NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
).filter(lambda name: name not in RESERVED_ATTRS)

_ATTR_VALUES = st.one_of(
    st.text(max_size=40),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)

_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(list(TraceEventKind)),
        st.dictionaries(_ATTR_NAMES, _ATTR_VALUES, max_size=4),
    ),
    max_size=8,
)


@given(_EVENTS, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100)
def test_ndjson_round_trip_is_lossless(events, trace_id):
    clock = _Clock(start=1684108800.0)
    trace = QueryTrace(
        trace_id=trace_id,
        qname="example.com.",
        rdtype="A",
        profile="bind",
        start=clock.now(),
    )
    for kind, attrs in events:
        clock.advance(0.25)
        trace.add(clock, kind, **attrs)

    (reparsed,) = parse_ndjson(trace.to_ndjson()) if trace.events else [trace]
    assert reparsed == trace


def test_ndjson_attrs_cannot_shadow_trace_head():
    """An event's own qname/rdtype must not clobber the trace identity."""
    clock = _Clock()
    trace = QueryTrace(
        trace_id=1, qname="client.example.", rdtype="A",
        profile="bind", start=clock.now(),
    )
    trace.add(
        clock, TraceEventKind.UPSTREAM_QUERY,
        server="198.51.100.1:53", qname="ns.example.", rdtype="AAAA",
    )
    (reparsed,) = parse_ndjson(traces_to_ndjson([trace]))
    assert reparsed.qname == "client.example."
    assert reparsed.rdtype == "A"
    assert reparsed.events[0].attrs["qname"] == "ns.example."


def test_reserved_attr_names_rejected():
    clock = _Clock()
    trace = QueryTrace(trace_id=1, qname="a.", rdtype="A", profile="p", start=0.0)
    for name in sorted(RESERVED_ATTRS):
        # "kind" collides with add()'s own parameter, so Python raises
        # TypeError at the call site; the others hit the explicit guard.
        with pytest.raises((TypeError, ValueError)):
            trace.add(clock, TraceEventKind.EVENT, **{name: "x"})


def test_normalize_trace_replaces_timestamps_with_ordinals():
    clock = _Clock(start=500.0)
    trace = QueryTrace(trace_id=1, qname="a.", rdtype="A", profile="p", start=500.0)
    trace.add(clock, TraceEventKind.BEGIN, qname="a.")
    clock.advance(3.7)
    trace.add(clock, TraceEventKind.END, rcode=0)
    normalized = normalize_trace(trace)
    assert [event["t"] for event in normalized["events"]] == [0, 1]
    assert normalized["events"][1]["kind"] == "end"
    assert json.dumps(normalized)  # snapshot-serializable


# ---------------------------------------------------------------------------
# Observability lifecycle
# ---------------------------------------------------------------------------


def test_null_obs_is_inert():
    assert NULL_OBS.begin_trace("a.", "A", "bind") is None
    NULL_OBS.trace_event(TraceEventKind.EVENT, event="X")  # no-op
    NULL_OBS.end_trace(None)
    assert NULL_OBS.registry.render_prometheus() == ""


def test_trace_lifecycle_and_nesting():
    clock = _Clock()
    sink = CollectingSink()
    obs = Observability(clock=clock, sink=sink)

    trace = obs.begin_trace("a.example.", "A", "bind")
    assert trace is not None and obs.active_trace is trace
    # A nested resolution folds into the parent: no second trace.
    assert obs.begin_trace("_er.1.a.example.", "TXT", "bind") is None
    obs.trace_event(TraceEventKind.CACHE_HIT, hit="positive")
    obs.end_trace(trace)

    assert obs.active_trace is None
    assert sink.traces == [trace]
    assert [event.kind for event in trace.events] == [
        TraceEventKind.BEGIN, TraceEventKind.CACHE_HIT,
    ]
    # Events without an active trace vanish silently.
    obs.trace_event(TraceEventKind.EVENT, event="LATE")
    assert sink.traces == [trace]


def test_event_record_mirrors_onto_trace():
    clock = _Clock()
    obs = Observability(clock=clock, sink=CollectingSink())
    trace = obs.begin_trace("a.example.", "A", "bind")
    obs.trace_event_record(
        EventRecord(
            ResolutionEvent.SERVER_TIMEOUT,
            server="198.51.100.1:53",
            qname=Name.from_text("a.example."),
            rdtype="A",
        )
    )
    obs.end_trace(trace)
    event = trace.events_of(TraceEventKind.EVENT)[0]
    assert event.attrs == {
        "event": "SERVER_TIMEOUT",
        "server": "198.51.100.1:53",
        "qname": "a.example.",
        "rdtype": "A",
    }


# ---------------------------------------------------------------------------
# Pinned regressions in repro.dnssec.trace
# ---------------------------------------------------------------------------


def test_events_of_preserves_insertion_order():
    """Filtering by kind must never reorder the chronological stream."""
    outcome = ResolutionOutcome()
    sequence = [
        EventRecord(ResolutionEvent.SERVER_TIMEOUT, server="s1"),
        EventRecord(ResolutionEvent.SERVER_SERVFAIL, server="s2"),
        EventRecord(ResolutionEvent.SERVER_TIMEOUT, server="s3"),
        EventRecord(ResolutionEvent.SERVER_REFUSED, server="s4"),
        EventRecord(ResolutionEvent.SERVER_TIMEOUT, server="s5"),
    ]
    outcome.events.extend(sequence)

    timeouts = outcome.events_of(ResolutionEvent.SERVER_TIMEOUT)
    assert [record.server for record in timeouts] == ["s1", "s3", "s5"]
    mixed = outcome.events_of(
        ResolutionEvent.SERVER_SERVFAIL, ResolutionEvent.SERVER_TIMEOUT
    )
    assert [record.server for record in mixed] == ["s1", "s2", "s3", "s5"]


def test_event_record_str_includes_rdtype():
    """Render order is EVENT [server] [qname] [rdtype] [detail].

    Regression: rdtype used to be dropped, so records for different
    query types rendered identically.
    """
    record = EventRecord(
        ResolutionEvent.SERVER_TIMEOUT,
        server="198.51.100.1:53",
        qname=Name.from_text("a.example."),
        rdtype="AAAA",
        detail="udp",
    )
    assert str(record) == "SERVER_TIMEOUT 198.51.100.1:53 a.example. AAAA udp"
    assert str(EventRecord(ResolutionEvent.ALL_SERVERS_FAILED)) == (
        "ALL_SERVERS_FAILED"
    )
    assert str(
        EventRecord(ResolutionEvent.SERVER_SERVFAIL, rdtype="DS", detail="zone x")
    ) == "SERVER_SERVFAIL DS zone x"
