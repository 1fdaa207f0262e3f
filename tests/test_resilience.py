"""Graceful-degradation layer: breakers, deadlines, refresh, shedding.

Unit tests for the primitives in :mod:`repro.resolver.resilience`, plus
chaos-marked end-to-end coverage of serve-stale through a scheduled
outage (the behaviour the paper measured on Cloudflare: Stale Answer
(3) / Stale NXDOMAIN Answer (19) while an authoritative is down, fresh
answers right after recovery), and the exact-counter outage drill that
walks warm -> expire -> outage -> recovery -> overload on the same
three-zone world under two seeds.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import random
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NS
from repro.dns.render import header_reply
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.chaos import ChaosPolicy, Outage
from repro.net.clock import SimulatedClock
from repro.net.fabric import NetworkFabric
from repro.net.lanes import run_in_lanes
from repro.resolver.cache import STALE_TTL, default_cache_config
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import (
    BreakerBook,
    BreakerConfig,
    BreakerState,
    DeadlineBudget,
    FrontendConfig,
    RefreshQueue,
    ResilienceConfig,
    ResilientFrontend,
    TokenBucket,
)
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.infra import build_testbed
from repro.testbed.subdomains import ALL_CASES
from repro.zones.builder import ZoneBuilder, address_rrset
from repro.zones.mutations import ZoneMutation

from .fabric_arms import render_off

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

ROOT_IP, TLD_IP, DOM_IP = "192.0.9.1", "192.0.9.2", "192.0.9.3"
WWW = "www.drill.test."
GONE = "gone.drill.test."


def _build_world() -> NetworkFabric:
    """root -> test. -> drill.test. (one server each, unsigned)."""
    fabric = NetworkFabric(clock=SimulatedClock())
    below = None  # (builder, nameservers) of the zone hosted last
    for origin_text, ip in (("drill.test.", DOM_IP), ("test.", TLD_IP), (".", ROOT_IP)):
        origin = Name.from_text(origin_text)
        ns1 = Name.from_text("ns1", origin=origin)
        builder = ZoneBuilder(
            origin,
            now=int(fabric.clock.now()),
            mutation=ZoneMutation(algorithm=13, signed=False),
        )
        builder.add(RRset.of(origin, RdataType.NS, NS(target=ns1)))
        builder.add(address_rrset(ns1, ip))
        builder.ensure_soa()
        if below is None:
            builder.add(RRset.of(Name.from_text(WWW), RdataType.A, A(address="192.0.2.80")))
        else:
            builder.delegate(*below)
        server = AuthoritativeServer(f"ns1.{origin_text}")
        server.add_zone(builder.build().zone)
        fabric.register(ip, server)
        below = (builder, [(ns1, ip)])
    return fabric


class _JumpClock:
    """A clock whose time the test sets directly — even backwards, the
    way a shared TokenBucket sees time when read from concurrent lanes."""

    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t


class TestBreakerBook:
    def test_disabled_book_is_a_no_op(self):
        book = BreakerBook(SimulatedClock())
        assert not book.enabled
        book.on_failure("203.0.113.1")
        book.on_failure("203.0.113.1")
        book.on_failure("203.0.113.1")
        assert book.allow("203.0.113.1")
        assert len(book) == 0

    def test_opens_after_consecutive_failures(self):
        clock = SimulatedClock()
        book = BreakerBook(clock, BreakerConfig(failure_threshold=3, cooldown=10.0))
        for _ in range(2):
            book.on_failure("srv")
        assert book.state_of("srv") is BreakerState.CLOSED
        book.on_failure("srv")
        assert book.state_of("srv") is BreakerState.OPEN
        assert book.stats.opened == 1
        assert not book.allow("srv")
        assert book.stats.short_circuits == 1
        assert book.open_keys() == ["srv"]

    def test_success_resets_the_failure_streak(self):
        book = BreakerBook(SimulatedClock(), BreakerConfig(failure_threshold=3))
        book.on_failure("srv")
        book.on_failure("srv")
        book.on_success("srv")
        book.on_failure("srv")
        book.on_failure("srv")
        assert book.state_of("srv") is BreakerState.CLOSED

    def test_half_open_single_probe_then_close(self):
        clock = SimulatedClock()
        book = BreakerBook(clock, BreakerConfig(failure_threshold=1, cooldown=10.0))
        book.on_failure("srv")
        assert not book.allow("srv")
        clock.advance(10.0)
        # First caller after the cooldown gets the probe slot...
        assert book.allow("srv")
        assert book.state_of("srv") is BreakerState.HALF_OPEN
        assert book.stats.probes == 1
        # ...and nobody else does while it is in flight.
        assert not book.allow("srv")
        book.on_success("srv")
        assert book.state_of("srv") is BreakerState.CLOSED
        assert book.stats.probe_successes == 1
        assert book.allow("srv")

    def test_half_open_probe_failure_reopens(self):
        clock = SimulatedClock()
        book = BreakerBook(clock, BreakerConfig(failure_threshold=1, cooldown=10.0))
        book.on_failure("srv")
        clock.advance(10.0)
        assert book.allow("srv")
        book.on_failure("srv")
        assert book.state_of("srv") is BreakerState.OPEN
        assert book.stats.probe_failures == 1
        assert not book.allow("srv")

    def test_lost_probe_expires_instead_of_wedging(self):
        # A probe whose query path died without reporting back must not
        # block the breaker forever: after one cooldown a new probe runs.
        clock = SimulatedClock()
        book = BreakerBook(clock, BreakerConfig(failure_threshold=1, cooldown=10.0))
        book.on_failure("srv")
        clock.advance(10.0)
        assert book.allow("srv")  # probe 1, never reports
        clock.advance(10.0)
        assert book.allow("srv")  # probe 2 allowed
        assert book.stats.probes == 2


class TestDeadlineBudget:
    def test_remaining_drains_with_the_clock(self):
        clock = SimulatedClock()
        budget = DeadlineBudget.after(clock, 5.0)
        assert budget.remaining() == pytest.approx(5.0)
        clock.advance(3.0)
        assert budget.remaining() == pytest.approx(2.0)
        assert not budget.expired
        clock.advance(2.0)
        assert budget.expired
        assert budget.remaining() == 0.0

    def test_clamp_shrinks_timeouts_with_a_floor(self):
        clock = SimulatedClock()
        budget = DeadlineBudget.after(clock, 1.0)
        assert budget.clamp(2.0) == pytest.approx(1.0)
        assert budget.clamp(0.5) == pytest.approx(0.5)
        clock.advance(1.0)
        # Even a spent budget buys one very impatient query.
        assert budget.clamp(2.0) == DeadlineBudget.MIN_TIMEOUT


def _dropping_wake_at(function):
    """``function`` recompiled with the ``wake_at`` keyword removed from
    each ``wait_virtual`` call: the one-line mutation the spy row below
    exists to catch, and which a syntactic check passed."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "wait_virtual":
            node.keywords = [kw for kw in node.keywords if kw.arg != "wake_at"]
    namespace: dict = {}
    exec(compile(tree, inspect.getsourcefile(function), "exec"), function.__globals__, namespace)
    return namespace[function.__name__]


class TestDeadlineBoundedWaits:
    """A lane parked on another lane's in-flight resolution wakes no later
    than its client's deadline: every wait made under an active
    :class:`DeadlineBudget` carries ``wake_at == budget.deadline``."""

    CLIENT = "198.51.100.9"

    @pytest.fixture(scope="class")
    def testbed(self):
        return build_testbed(cases=ALL_CASES[:8])

    def _waits(self, testbed, monkeypatch, sanitizer_if_requested) -> list[tuple]:
        """(wake_at, active budget's deadline) of every budgeted wait while
        eight lanes resolve eight signed cases, two clients each."""
        active = threading.local()

        def carrying_budget(method):
            signature = inspect.signature(method)

            def wrapper(self, *args, **kwargs):
                outer = getattr(active, "budget", None)
                active.budget = signature.bind(self, *args, **kwargs).arguments.get("deadline")
                try:
                    return method(self, *args, **kwargs)
                finally:
                    active.budget = outer

            return wrapper

        for name in ("_resolve_outcome", "_resolve_uncached"):
            method = getattr(RecursiveResolver, name)
            monkeypatch.setattr(RecursiveResolver, name, carrying_budget(method))
        waits = []
        wait_virtual = SimulatedClock.wait_virtual

        def spy(clock, predicate, wake_at=None):
            budget = getattr(active, "budget", None)
            if budget is not None:
                waits.append((wake_at, budget.deadline))
            return wait_virtual(clock, predicate, wake_at)

        monkeypatch.setattr(SimulatedClock, "wait_virtual", spy)
        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=CLOUDFLARE, root_hints=testbed.root_hints,
            trust_anchors=testbed.trust_anchors,
            resilience=ResilienceConfig(client_deadline=1.5),
        )
        wires = [
            Message.make_query(case.query_name, RdataType.A, want_dnssec=True).to_wire()
            for case in testbed.cases.values()
        ]
        with sanitizer_if_requested():
            run_in_lanes(
                testbed.fabric.clock, 8, wires * 2,
                lambda wire: resolver.handle_datagram(wire, self.CLIENT),
            )
        # Clients coalesced on a question and on a zone's DNSKEY/DS set.
        assert resolver.stats.coalesced > 0 and resolver.stats.coalesced_infra > 0
        return waits

    @staticmethod
    def _assert_bounded(waits: list[tuple]) -> None:
        # A gate that compared nothing is a failing gate.
        assert waits
        assert all(wake_at == deadline for wake_at, deadline in waits), waits

    def test_every_coalesced_wait_wakes_at_the_client_deadline(
        self, testbed, monkeypatch, sanitizer_if_requested
    ):
        self._assert_bounded(self._waits(testbed, monkeypatch, sanitizer_if_requested))

    def test_a_wait_without_wake_at_fails_the_row(
        self, testbed, monkeypatch, sanitizer_if_requested
    ):
        for name, member in vars(RecursiveResolver).items():
            if inspect.isfunction(member) and "wait_virtual(" in inspect.getsource(member):
                monkeypatch.setattr(RecursiveResolver, name, _dropping_wake_at(member))
        waits = self._waits(testbed, monkeypatch, sanitizer_if_requested)
        with pytest.raises(AssertionError):
            self._assert_bounded(waits)


class TestRefreshQueue:
    def test_enqueue_dedup_and_capacity(self):
        queue = RefreshQueue(SimulatedClock(), capacity=2)
        assert queue.enqueue(("a", 1))
        assert not queue.enqueue(("a", 1))  # dedup
        assert queue.enqueue(("b", 1))
        assert not queue.enqueue(("c", 1))  # full: shed, not grown
        assert len(queue) == 2
        assert queue.stats.enqueued == 2
        assert queue.stats.deduplicated == 1
        assert queue.stats.shed_full == 1

    def test_reschedule_delays_and_done_removes(self):
        clock = SimulatedClock()
        queue = RefreshQueue(clock, retry_interval=30.0)
        queue.enqueue(("a", 1))
        queue.enqueue(("b", 1))
        assert queue.due(10) == [("a", 1), ("b", 1)]
        assert queue.due(1) == [("a", 1)]
        queue.reschedule(("a", 1))
        assert queue.due(10) == [("b", 1)]  # a's not-before moved out
        clock.advance(30.0)
        assert ("a", 1) in queue.due(10)
        queue.done(("b", 1))
        assert len(queue) == 1
        assert queue.stats.refreshed == 1
        assert queue.stats.retried == 1


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = SimulatedClock()
        bucket = TokenBucket(clock, rate=2.0, burst=3.0)
        assert all(bucket.take() for _ in range(3))
        assert not bucket.take()
        clock.advance(1.0)  # +2 tokens
        assert bucket.take() and bucket.take()
        assert not bucket.take()

    def test_rate_zero_is_a_pure_burst_counter(self):
        clock = SimulatedClock()
        bucket = TokenBucket(clock, rate=0.0, burst=2.0)
        assert bucket.take() and bucket.take() and not bucket.take()
        clock.advance(3600)
        assert not bucket.take()

    def test_backwards_clock_does_not_rewind_refill_anchor(self):
        # A shared bucket can be read from a lane whose virtual time is
        # behind the lane that last touched it; the anchor must hold so
        # the next forward observation cannot double-refill.
        clock = _JumpClock()
        bucket = TokenBucket(clock, rate=1.0, burst=10.0)
        assert bucket.take(10.0)  # drained at t=0
        clock.t = -100.0
        assert not bucket.take()  # no tokens conjured from negative time
        assert bucket.last == 0.0
        clock.t = 5.0
        bucket.take(0.0)
        assert bucket.tokens == pytest.approx(5.0)  # refilled 5s, not 105s

    @given(
        rate=st.floats(0.0, 1000.0, allow_nan=False),
        burst=st.floats(0.0, 100.0, allow_nan=False),
        steps=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),  # clock jump
                st.floats(0.0, 200.0, allow_nan=False),  # tokens requested
            ),
            max_size=60,
        ),
    )
    @settings(deadline=None, max_examples=200)
    def test_tokens_bounded_under_arbitrary_clock_jumps(self, rate, burst, steps):
        # The invariant promised in the TokenBucket docstring: across
        # any sequence of forward leaps and backwards observations,
        # 0 <= tokens <= burst and the refill anchor never rewinds.
        clock = _JumpClock()
        bucket = TokenBucket(clock, rate=rate, burst=burst)
        anchor = bucket.last
        for jump, want in steps:
            clock.t += jump
            bucket.take(want)
            assert 0.0 <= bucket.tokens <= burst * (1.0 + 1e-12)
            assert bucket.last >= anchor
            anchor = bucket.last


class TestBreakerHalfOpenUnderLanes:
    """Regression: the half-open probe slot must stay exclusive when
    many lanes hit an expired OPEN breaker in the same virtual window."""

    def test_exactly_one_probe_across_concurrent_lanes(self):
        from repro.net.lanes import run_in_lanes
        from repro.obs import Observability

        clock = SimulatedClock()
        obs = Observability(clock=clock)
        book = BreakerBook(
            clock, BreakerConfig(failure_threshold=1, cooldown=10.0), obs=obs
        )
        book.on_failure("srv")
        assert book.state_of("srv") is BreakerState.OPEN
        clock.advance(10.0)  # cooldown elapsed: next caller may probe

        attempts = []

        def attempt(i):
            clock.advance(0.01 * (i + 1))  # lanes spread over virtual time
            attempts.append((i, book.allow("srv")))

        run_in_lanes(clock, 4, range(8), attempt)
        granted = [i for i, allowed in attempts if allowed]
        assert len(granted) == 1  # one probe slot, seven short-circuits
        assert book.stats.probes == 1
        assert book.stats.short_circuits == 7
        assert book.state_of("srv") is BreakerState.HALF_OPEN

        # The winning lane's probe reports back: breaker re-closes and
        # the transition counters tell the whole story.
        book.on_success("srv")
        assert book.state_of("srv") is BreakerState.CLOSED
        assert book.stats.probe_successes == 1

        from repro.load.report import counter_values, sum_by_label

        transitions = sum_by_label(
            counter_values(obs.registry),
            "repro_breaker_transitions_total",
            "transition",
        )
        assert transitions == {
            "open": 1, "half_open": 1, "probe": 1, "close": 1,
        }

    def test_losers_are_deterministic_across_worker_counts(self):
        from repro.net.lanes import run_in_lanes

        def trace(workers):
            clock = SimulatedClock()
            book = BreakerBook(
                clock, BreakerConfig(failure_threshold=1, cooldown=5.0)
            )
            book.on_failure("srv")
            clock.advance(5.0)
            out = []

            def attempt(i):
                clock.advance(0.001)
                out.append((i, book.allow("srv")))

            run_in_lanes(clock, workers, range(6), attempt)
            return out

        assert trace(2) == trace(2)
        # The grant goes to the first attempt in virtual-time order for
        # every lane count.
        for workers in (1, 2, 4):
            granted = [i for i, ok in trace(workers) if ok]
            assert granted == [0]


class _FakeResolver:
    """The duck-typed surface ResilientFrontend needs from a resolver."""

    def __init__(self, clock, cached=(), explode=False):
        self.clock = clock
        self.cached = set(cached)
        self.explode = explode
        self.handled = 0

    def handle_query(self, query, source):
        if self.explode:
            raise RuntimeError("boom")
        self.handled += 1
        response = query.make_response()
        response.rcode = Rcode.NOERROR
        return response

    def answer_from_cache(self, query):
        if str(query.question[0].name) not in self.cached:
            return None
        response = query.make_response()
        response.rcode = Rcode.NOERROR
        return response

    def run_refreshes(self, limit=None):
        return 0

    def render_hit(self, wire):
        return None  # keeps no rendered replies

    def keep_reply(self, wire, reply, encoded):
        pass


def _query_wire(qname: str) -> bytes:
    return Message.make_query(qname, RdataType.A).to_wire()


class TestResilientFrontend:
    def test_bucket_shed_is_refused_with_prohibited(self):
        clock = SimulatedClock()
        frontend = ResilientFrontend(
            _FakeResolver(clock),
            FrontendConfig(client_rate=0.0, client_burst=2.0),
            clock=clock,
        )
        for _ in range(2):
            wire = frontend.handle_datagram(_query_wire("miss.test."), "198.51.100.1")
            assert Message.from_wire(wire).rcode == Rcode.NOERROR
        shed = Message.from_wire(
            frontend.handle_datagram(_query_wire("miss.test."), "198.51.100.1")
        )
        assert shed.rcode == Rcode.REFUSED
        assert 18 in shed.ede_codes
        assert frontend.stats.bucket_sheds == 1
        # A different client has its own bucket.
        other = frontend.handle_datagram(_query_wire("miss.test."), "198.51.100.2")
        assert Message.from_wire(other).rcode == Rcode.NOERROR

    def test_shedding_still_serves_cache_hits(self):
        clock = SimulatedClock()
        frontend = ResilientFrontend(
            _FakeResolver(clock, cached={"hit.test."}),
            FrontendConfig(max_inflight=0),
            clock=clock,
        )
        hit = Message.from_wire(
            frontend.handle_datagram(_query_wire("hit.test."), "198.51.100.1")
        )
        miss = Message.from_wire(
            frontend.handle_datagram(_query_wire("miss.test."), "198.51.100.1")
        )
        assert hit.rcode == Rcode.NOERROR
        assert miss.rcode == Rcode.REFUSED
        assert frontend.stats.inflight_sheds == 2
        assert frontend.stats.served_cached == 1
        assert frontend.stats.shed_refused == 1

    def test_truncate_slip(self):
        clock = SimulatedClock()
        frontend = ResilientFrontend(
            _FakeResolver(clock),
            FrontendConfig(client_rate=0.0, client_burst=0.0, truncate_every=2),
            clock=clock,
        )
        first = Message.from_wire(
            frontend.handle_datagram(_query_wire("a.test."), "198.51.100.1")
        )
        second = Message.from_wire(
            frontend.handle_datagram(_query_wire("b.test."), "198.51.100.1")
        )
        assert first.rcode == Rcode.REFUSED and not first.tc
        assert second.tc  # every 2nd shed is a truncate-to-TCP nudge
        assert frontend.stats.shed_truncated == 1

    def test_exploding_handler_degrades_to_servfail(self):
        clock = SimulatedClock()
        frontend = ResilientFrontend(_FakeResolver(clock, explode=True), clock=clock)
        query = Message.make_query("kaboom.test.", RdataType.A)
        wire = frontend.handle_datagram(query.to_wire(), "198.51.100.1")
        response = Message.from_wire(wire)
        assert response.id == query.id
        assert response.rcode == Rcode.SERVFAIL
        assert frontend.stats.handler_errors == 1

    def test_garbage_datagrams_get_formerr(self):
        clock = SimulatedClock()
        frontend = ResilientFrontend(_FakeResolver(clock), clock=clock)
        short = frontend.handle_datagram(b"\x07", "198.51.100.1")
        assert Message.from_wire(short).rcode == Rcode.FORMERR
        garbage = bytes([0xAB] * 16)
        echoed = frontend.handle_datagram(garbage, "198.51.100.1")
        assert echoed[:2] == garbage[:2]  # message ID survives
        assert echoed[2] & 0x80  # QR
        assert (echoed[3] & 0x0F) == Rcode.FORMERR
        assert frontend.stats.formerr == 2

    def test_every_door_counts_and_drains_alike(self):
        """The cluster routes to the paved and stream doors and the
        fabric takes the stream door for TCP: each receives, counts and
        drains refreshes exactly as the datagram door does."""
        clock = SimulatedClock()

        def run(door, explode):
            resolver = _FakeResolver(clock, explode=explode)
            drained = []
            resolver.run_refreshes = lambda: drained.append(1)
            frontend = ResilientFrontend(resolver, clock=clock)
            for query in (Message.make_query("a.test.", RdataType.A), Message(id=7)):
                wire = query.to_wire()
                if door == "paved":
                    frontend.handle_paved(wire, "198.51.100.1", query)
                else:
                    getattr(frontend, f"handle_{door}")(wire, "198.51.100.1")
            return frontend.stats, len(drained)

        for explode in (False, True):
            runs = [run(door, explode) for door in ("datagram", "paved", "stream")]
            assert all(each == runs[0] for each in runs)
            stats, drains = runs[0]
            assert (stats.datagrams, drains, stats.formerr) == (2, 2, 1)
            assert (stats.answered, stats.handler_errors) == ((0, 1) if explode else (1, 0))

    def test_a_raising_rule_0_is_one_counted_servfail(self):
        """Rule 0 runs under the datagram door's catch: a resolver whose
        rendered-wire lookup raises gets a header-echoed SERVFAIL,
        counted once as a handler error, before the query was received."""
        clock = SimulatedClock()
        resolver = _FakeResolver(clock)

        def broken(wire):
            raise RuntimeError("boom")

        resolver.render_hit = broken
        frontend = ResilientFrontend(resolver, clock=clock)
        seen = []
        counted = frontend.on_door_reply
        frontend.on_door_reply = lambda rcode: (seen.append(rcode), counted(rcode))
        query = Message.make_query("a.test.", RdataType.A)
        reply = Message.from_wire(frontend.handle_datagram(query.to_wire(), "198.51.100.1"))
        assert (reply.id, reply.qr, reply.rcode) == (query.id, True, Rcode.SERVFAIL)
        assert seen == [Rcode.SERVFAIL]
        stats = frontend.stats
        assert (stats.handler_errors, stats.datagrams, stats.answered) == (1, 0, 0)

    def test_bucket_table_stays_bounded(self):
        clock = SimulatedClock()
        frontend = ResilientFrontend(
            _FakeResolver(clock), FrontendConfig(max_clients=4), clock=clock
        )
        for i in range(10):
            frontend.handle_datagram(_query_wire("x.test."), f"198.51.100.{i}")
        assert len(frontend._buckets) <= 4


class TestFrontendRenderPath:
    """The frontend serves repeat wire queries from its resolver's
    rendered-response cache, received, charged, shed and counted exactly
    as the body would answer the cache hit each one replays."""

    CLIENT = "198.51.100.1"

    @classmethod
    def _warm(cls, off: bool = False) -> RecursiveResolver:
        """A resolver holding one rendered wire for WWW (cold resolution,
        then the answer-cache hit that stores it) — none on the
        render-off arm."""
        resolver = RecursiveResolver(
            fabric=_build_world(), profile=CLOUDFLARE, root_hints=[ROOT_IP],
            validate=False,
        )
        if off:
            render_off(resolver)
        for _ in range(2):
            resolver.handle_datagram(_query_wire(str(WWW)), cls.CLIENT)
        assert resolver.stats.render_stores == (0 if off else 1)
        assert resolver.stats.render_hits == 0
        return resolver

    @pytest.fixture()
    def resolver(self):
        return self._warm()

    def test_hit_is_charged_and_shed_like_the_off_arm(self):
        """In-flight cap first, without a charge; then the bucket; a shed
        hit is served from cache — for a render hit as for the body."""
        arms = {}
        for off in (False, True):
            resolver = self._warm(off)
            frontend = ResilientFrontend(
                resolver, FrontendConfig(client_rate=0.0, client_burst=1.0)
            )
            query = Message.make_query(WWW, RdataType.A, msg_id=4242)
            replies = []
            # capped, then charged, then the empty bucket sheds
            for max_inflight in (0, 64, 64):
                frontend.config.max_inflight = max_inflight
                replies.append(frontend.handle_datagram(query.to_wire(), self.CLIENT))
            stats = frontend.stats.snapshot()
            served = {
                name: value for name, value in dataclasses.asdict(resolver.stats).items()
                if name not in ("render_hits", "render_stores")
            }
            tokens = frontend._bucket(self.CLIENT).tokens
            arms[off] = (replies, stats.pop("render_hits"), stats, served, tokens)
        (on_replies, on_hits, on, on_served, on_tokens) = arms[False]
        (off_replies, off_hits, off, off_served, off_tokens) = arms[True]
        assert on_replies == off_replies
        assert all(Message.from_wire(reply).answer for reply in on_replies)
        assert (on_hits, off_hits) == (3, 0)
        assert on == off and on_served == off_served
        assert on_tokens == off_tokens == 0.0
        assert (on["answered"], on["served_cached"]) == (1, 2)
        assert on["shed_by_reason"] == {"rrl": 1, "inflight-cap": 1, "garbage": 0}

    def test_hit_still_drains_inline_refreshes(self, resolver, monkeypatch):
        drained = []
        monkeypatch.setattr(resolver, "run_refreshes", lambda: drained.append(1) or 0)
        wire = _query_wire(str(WWW))
        ResilientFrontend(resolver).handle_datagram(wire, self.CLIENT)
        assert drained == [1]
        quiet = ResilientFrontend(resolver, FrontendConfig(inline_refreshes=False))
        quiet.handle_datagram(wire, self.CLIENT)
        assert drained == [1] and quiet.stats.render_hits == 1

    def test_refresh_error_never_turns_served_bytes_into_servfail(
        self, resolver, monkeypatch
    ):
        def explode():
            raise RuntimeError("refresh blew up")

        wire = _query_wire(str(WWW))
        want = ResilientFrontend(resolver).handle_datagram(wire, self.CLIENT)
        monkeypatch.setattr(resolver, "run_refreshes", explode)
        frontend = ResilientFrontend(resolver)
        assert frontend.handle_datagram(wire, self.CLIENT) == want
        assert Message.from_wire(want).rcode == Rcode.NOERROR
        assert (frontend.stats.handler_errors, frontend.stats.answered) == (1, 1)


class TestHeaderSynthesis:
    def test_short_datagram_gets_minimal_formerr(self):
        wire = header_reply(b"\x01\x02", Rcode.FORMERR)
        assert Message.from_wire(wire).rcode == Rcode.FORMERR

    def test_full_header_is_echoed(self):
        query = Message.make_query("echo.test.", RdataType.A)
        wire = header_reply(query.to_wire(), Rcode.SERVFAIL)
        response = Message.from_wire(wire)
        assert response.id == query.id
        assert response.qr
        assert response.rcode == Rcode.SERVFAIL


@pytest.mark.chaos
class TestServeStaleThroughOutage:
    """Serve-stale × chaos: EDE 3/19 during a scheduled outage, fresh
    after recovery, RFC 8767 30-second TTLs on the wire — for any seed."""

    def _resolver(self, world, resilience=None):
        return RecursiveResolver(
            fabric=world, profile=CLOUDFLARE, root_hints=[ROOT_IP], validate=False,
            resilience=resilience, cache_config=default_cache_config(),
        )

    def _warm(self, resolver):
        assert resolver.resolve(WWW, RdataType.A).rcode == Rcode.NOERROR
        assert resolver.resolve(GONE, RdataType.A).rcode == Rcode.NXDOMAIN

    def test_stale_positive_and_negative_during_outage(self):
        world = _build_world()
        resolver = self._resolver(world)
        self._warm(resolver)
        world.clock.advance(7200)
        world.install_chaos(ChaosPolicy(
            seed=CHAOS_SEED, outages=[Outage(0.0, 300.0, target="192.0.9.3")],
        ))
        stale = resolver.resolve(WWW, RdataType.A)
        assert stale.rcode == Rcode.NOERROR
        assert 3 in stale.ede_codes
        assert all(r.ttl == STALE_TTL for r in stale.answer)
        nx = resolver.resolve(GONE, RdataType.A)
        assert nx.rcode == Rcode.NXDOMAIN
        assert 19 in nx.ede_codes
        assert all(r.ttl <= STALE_TTL for r in nx.authority)
        assert resolver.stats.stale_served == 1
        assert resolver.stats.stale_nxdomain_served == 1

    def test_fresh_again_after_recovery(self):
        world = _build_world()
        resolver = self._resolver(world)
        self._warm(resolver)
        world.clock.advance(7200)
        world.install_chaos(ChaosPolicy(
            seed=CHAOS_SEED, outages=[Outage(0.0, 60.0, target="192.0.9.3")],
        ))
        assert 3 in resolver.resolve(WWW, RdataType.A).ede_codes
        world.clock.advance(120)  # past the outage window
        fresh = resolver.resolve(WWW, RdataType.A)
        assert fresh.rcode == Rcode.NOERROR and not fresh.ede_codes
        nx = resolver.resolve(GONE, RdataType.A)
        assert nx.rcode == Rcode.NXDOMAIN and not nx.ede_codes

    def test_deadline_budget_bounds_degraded_answers(self):
        world = _build_world()
        resolver = self._resolver(world, ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=3, cooldown=30.0),
            client_deadline=1.5,
        ))
        self._warm(resolver)
        world.clock.advance(7200)
        world.install_chaos(ChaosPolicy(
            seed=CHAOS_SEED, outages=[Outage(0.0, 300.0, target="192.0.9.3")],
        ))
        for _ in range(4):
            started = world.clock.now()
            stale = resolver.resolve(WWW, RdataType.A)
            assert world.clock.now() - started <= 1.5 + 1e-9
            assert stale.rcode == Rcode.NOERROR and 3 in stale.ede_codes
            world.clock.advance(1.0)
        assert resolver.stats.deadline_hits >= 1
        assert resolver.engine.stats.breaker_skips >= 1

    def test_answer_from_cache_never_goes_upstream(self):
        world = _build_world()
        resolver = self._resolver(world)
        self._warm(resolver)
        upstream_before = resolver.engine.stats.queries
        query = Message.make_query(WWW, RdataType.A)
        cached = resolver.answer_from_cache(query)
        assert cached is not None and cached.rcode == Rcode.NOERROR
        # A name that was never resolved has nothing cached: None, and
        # still no upstream packets.
        assert resolver.answer_from_cache(
            Message.make_query("absent.drill.test.", RdataType.A)
        ) is None
        world.clock.advance(7200)
        # Expired-but-stale entries are still served from here (EDE 3).
        stale = resolver.answer_from_cache(query)
        assert stale is not None and 3 in stale.ede_codes
        assert resolver.engine.stats.queries == upstream_before


# -- the exact-counter outage drill ------------------------------------------
#
# Warm -> expire -> outage -> recovery -> overload on the three-zone
# world above, next to a PR-1-behaviour baseline (retries, serve-stale,
# no breakers or deadlines) drilled through the same outage.  Every
# counter must be identical for every seed: the seed only reorders the
# overload interleaving and feeds the chaos RNG, which a pure
# time-windowed outage never consults.

CLIENT_DEADLINE = 1.5
OUTAGE_ROUNDS = 6
OUTAGE_WINDOW = (0.0, 300.0)
DRILL_SEEDS = (1, 20230524)

#: Expected phase counters — identical for every seed; CI fails on any
#: drift.  Derivation: during the outage the resilient resolver spends
#: exactly 3 upstream queries — three deadline-clamped client attempts
#: (www, gone, www again), each a deadline hit — before the server
#: breaker (failure threshold 3) and then the zone breaker open; every
#: later round and every background refresh attempt short-circuits with
#: no packets.  The baseline resolver re-times-out twice per query,
#: every round.
EXPECTED = {
    "ede3": OUTAGE_ROUNDS,
    "ede19": OUTAGE_ROUNDS,
    "stale_served": OUTAGE_ROUNDS + 1,  # +1 via the shed frontend check
    "stale_nxdomain_served": OUTAGE_ROUNDS,
    "deadline_hits": 3,
    "refresh_attempts_during_outage": 2,
    "refreshed_ok": 2,
    "breaker_opened": 2,  # the server breaker and the zone breaker
    "probe_successes": 2,  # both half-open probes succeed on recovery
    "outage_upstream_queries": 3,
    "baseline_upstream_queries": 24,
    "fe_datagrams": 42,
    "fe_answered": 16,
    "fe_served_cached": 12,
    "fe_shed_refused": 12,
    "fe_bucket_sheds": 24,
    "fe_formerr": 2,
    "fe_handler_errors": 0,
    "fe0_inflight_sheds": 2,
    "fe0_served_cached": 1,
    "fe0_shed_refused": 1,
    # pass/fail facts, recorded as 0/1
    "deadline_ok": 1,
    "stale_ttl_ok": 1,
    "breakers_closed_after_recovery": 1,
    "fe_refused_with_ede18": 1,
    "fe_short_garbage_formerr": 1,
    "fe_garbage_id_echoed": 1,
}

def _make_query(qname: str, rng: random.Random) -> bytes:
    return Message.make_query(
        Name.from_text(qname), RdataType.A, want_dnssec=False,
        recursion_desired=True, rng=rng,
    ).to_wire()


def _run_drill(seed: int) -> dict:
    counters: dict[str, int] = {}

    # Two identical worlds: the resilient resolver under test, and a
    # PR-1-behaviour baseline (retries, serve-stale, no breakers or
    # deadlines) to measure the upstream query volume it would burn.
    world = _build_world()
    resolver = RecursiveResolver(
        fabric=world, profile=CLOUDFLARE, root_hints=[ROOT_IP], validate=False,
        resilience=ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=3, cooldown=30.0),
            client_deadline=CLIENT_DEADLINE,
        ),
        cache_config=default_cache_config(),
    )
    baseline_world = _build_world()
    baseline = RecursiveResolver(
        fabric=baseline_world, profile=CLOUDFLARE, root_hints=[ROOT_IP],
        validate=False, cache_config=default_cache_config(),
    )

    # Phase 1 — warm both caches (positive + negative).
    for res in (resolver, baseline):
        fresh = res.resolve(WWW, RdataType.A)
        assert fresh.rcode == Rcode.NOERROR and not fresh.ede_codes
        negative = res.resolve(GONE, RdataType.A)
        assert negative.rcode == Rcode.NXDOMAIN

    # Phase 2 — everything expires (but stays within the stale window).
    world.clock.advance(7200)
    baseline_world.clock.advance(7200)

    # Phase 3 — scheduled outage of the domain's only authoritative.
    world.install_chaos(ChaosPolicy(
        seed=seed, outages=[Outage(*OUTAGE_WINDOW, target=DOM_IP)],
    ))
    baseline_world.install_chaos(ChaosPolicy(
        seed=seed, outages=[Outage(*OUTAGE_WINDOW, target=DOM_IP)],
    ))
    resilient_before = resolver.engine.stats.queries
    baseline_before = baseline.engine.stats.queries
    ede3 = ede19 = 0
    deadline_ok = True
    stale_ttl_ok = True
    for _ in range(OUTAGE_ROUNDS):
        started = world.clock.now()
        stale = resolver.resolve(WWW, RdataType.A)
        deadline_ok &= (world.clock.now() - started) <= CLIENT_DEADLINE + 1e-9
        if stale.rcode == Rcode.NOERROR and 3 in stale.ede_codes:
            ede3 += 1
        stale_ttl_ok &= all(r.ttl == STALE_TTL for r in stale.answer)

        started = world.clock.now()
        nx = resolver.resolve(GONE, RdataType.A)
        deadline_ok &= (world.clock.now() - started) <= CLIENT_DEADLINE + 1e-9
        if nx.rcode == Rcode.NXDOMAIN and 19 in nx.ede_codes:
            ede19 += 1
        stale_ttl_ok &= all(r.ttl <= STALE_TTL for r in nx.authority)

        baseline.resolve(WWW, RdataType.A)
        baseline.resolve(GONE, RdataType.A)
        world.clock.advance(2.0)
        baseline_world.clock.advance(2.0)

    # Stale is always served, even through a fully-shedding frontend.
    rng = random.Random(seed)
    shed_all = ResilientFrontend(resolver, FrontendConfig(max_inflight=0))
    wire = shed_all.handle_datagram(_make_query(WWW, rng), "203.0.113.99")
    shed_stale = Message.from_wire(wire)
    assert shed_stale.rcode == Rcode.NOERROR and 3 in shed_stale.ede_codes
    stale_ttl_ok &= all(r.ttl == STALE_TTL for r in shed_stale.answer)

    # Stale-while-revalidate under fire: the frontend answer above already
    # drained one background refresh attempt; drain the rest explicitly.
    # With the zone breaker open every attempt fails fast (no upstream
    # packets) and is rescheduled with a back-off rather than dropped.
    resolver.run_refreshes(limit=4)
    counters["refresh_attempts_during_outage"] = resolver.stats.refreshes

    counters["ede3"] = ede3
    counters["ede19"] = ede19
    counters["deadline_ok"] = int(deadline_ok)
    counters["stale_ttl_ok"] = int(stale_ttl_ok)
    counters["outage_upstream_queries"] = (
        resolver.engine.stats.queries - resilient_before
    )
    counters["baseline_upstream_queries"] = (
        baseline.engine.stats.queries - baseline_before
    )
    counters["breaker_opened"] = resolver.engine.breakers.stats.opened
    counters["short_circuits_during_outage"] = (
        resolver.engine.breakers.stats.short_circuits
    )

    # Phase 4 — recovery: past the outage window and the cooldown, a
    # single half-open probe per breaker restores fresh resolution.
    world.clock.advance(400)
    baseline_world.clock.advance(400)
    fresh = resolver.resolve(WWW, RdataType.A)
    assert fresh.rcode == Rcode.NOERROR and not fresh.ede_codes
    nx = resolver.resolve(GONE, RdataType.A)
    assert nx.rcode == Rcode.NXDOMAIN and not nx.ede_codes
    counters["probe_successes"] = resolver.engine.breakers.stats.probe_successes
    counters["breakers_closed_after_recovery"] = int(
        not resolver.engine.breakers.open_keys()
    )
    # The rescheduled refreshes are now due and the breakers are closed:
    # both names come back fresh and leave the revalidation queue.
    resolver.run_refreshes(limit=4)
    counters["stale_served"] = resolver.stats.stale_served
    counters["stale_nxdomain_served"] = resolver.stats.stale_nxdomain_served
    counters["deadline_hits"] = resolver.stats.deadline_hits
    counters["refreshed_ok"] = resolver.stats.refreshed_ok

    # Phase 5 — seeded overload burst through the shedding frontend.
    # Each client's sequence is fixed; only the cross-client
    # interleaving varies with the seed, so every counter is
    # seed-independent (per-client token buckets, rate 0 = pure burst).
    frontend = ResilientFrontend(resolver, FrontendConfig(
        client_rate=0.0, client_burst=4.0, max_inflight=8,
    ))
    pending: dict[str, list[bytes]] = {}
    for i in range(4):
        client = f"203.0.113.{10 + i}"
        names = [WWW if j % 2 == 0 else f"m{i}-{j}.drill.test." for j in range(10)]
        pending[client] = [_make_query(name, rng) for name in names]
    shed_wires = []
    while pending:
        client = sorted(pending)[rng.randrange(len(pending))]
        wire = frontend.handle_datagram(pending[client].pop(0), client)
        assert wire is not None
        response = Message.from_wire(wire)
        if response.rcode == Rcode.REFUSED:
            shed_wires.append(response)
        if not pending[client]:
            del pending[client]
    # Every shed answer carries Prohibited (18).
    refused_with_18 = sum(1 for r in shed_wires if 18 in r.ede_codes)
    counters["fe_refused_with_ede18"] = int(refused_with_18 == len(shed_wires))
    # Garbage datagrams: FORMERR, never an exception.
    short = frontend.handle_datagram(b"\x07", "203.0.113.66")
    counters["fe_short_garbage_formerr"] = int(
        Message.from_wire(short).rcode == Rcode.FORMERR
    )
    garbage = bytes([0xAB] * 16)
    echoed = frontend.handle_datagram(garbage, "203.0.113.66")
    counters["fe_garbage_id_echoed"] = int(
        echoed[:2] == garbage[:2] and (echoed[3] & 0x0F) == Rcode.FORMERR
        and bool(echoed[2] & 0x80)
    )
    counters["fe_datagrams"] = frontend.stats.datagrams
    counters["fe_answered"] = frontend.stats.answered
    counters["fe_served_cached"] = frontend.stats.served_cached
    counters["fe_shed_refused"] = frontend.stats.shed_refused
    counters["fe_bucket_sheds"] = frontend.stats.bucket_sheds
    counters["fe_formerr"] = frontend.stats.formerr
    counters["fe_handler_errors"] = frontend.stats.handler_errors

    # A zero-inflight frontend sheds every cache miss but still serves hits.
    fe0 = ResilientFrontend(resolver, FrontendConfig(max_inflight=0))
    hit = Message.from_wire(fe0.handle_datagram(_make_query(WWW, rng), "203.0.113.77"))
    miss = Message.from_wire(
        fe0.handle_datagram(_make_query("never.drill.test.", rng), "203.0.113.77")
    )
    assert hit.rcode == Rcode.NOERROR
    assert miss.rcode == Rcode.REFUSED
    counters["fe0_inflight_sheds"] = fe0.stats.inflight_sheds
    counters["fe0_served_cached"] = fe0.stats.served_cached
    counters["fe0_shed_refused"] = fe0.stats.shed_refused
    return counters


class TestOutageDrill:
    @pytest.fixture(scope="class")
    def runs(self, sanitizer_if_requested):
        with sanitizer_if_requested():
            return {seed: _run_drill(seed) for seed in DRILL_SEEDS}

    def test_counters_identical_across_seeds(self, runs):
        assert len(runs) >= 2
        first = runs[DRILL_SEEDS[0]]
        assert all(run == first for run in runs.values())

    def test_every_phase_counter_is_exact(self, runs):
        first = runs[DRILL_SEEDS[0]]
        assert {metric: first[metric] for metric in EXPECTED} == EXPECTED

    def test_open_breakers_collapse_upstream_volume(self, runs):
        """>= 5x fewer upstream queries than PR-1 retry behaviour
        through the same outage."""
        first = runs[DRILL_SEEDS[0]]
        assert first["baseline_upstream_queries"] >= 5 * first["outage_upstream_queries"]
