"""Rendered-response wire cache: keys, patching, expiry, paved path.

The cache's whole contract is byte-level: a hit must be
indistinguishable from re-encoding the answer — the message ID comes
from the incoming query and every decrementing TTL is recomputed with
the exact ``max(1, int(expires_at - now))`` formula the answer cache
uses.  The properties here pin that contract under random TTL/advance
schedules, prove the key can never alias two queries that may legally
receive different answers (DO/CD bits included), and pin the
exactly-once stats accounting for render hits through a
:class:`~repro.cluster.ResolverCluster`.
"""

from __future__ import annotations

import dataclasses
import random
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, ResolverCluster, ShardChaosPolicy
from repro.dns.edns import Edns
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, SOA
from repro.dns.render import (
    HEADER_LENGTH,
    LazyWire,
    parse_equivalent,
    paved_reply,
    read_reply,
    response_ttl_offsets,
    wire_key,
)
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.load import ZipfMix, build_clients
from repro.net.chaos import ChaosPolicy
from repro.net.clock import SimulatedClock
from repro.obs import Observability
from repro.resolver.cache import CacheConfig, RenderedWireCache, default_cache_config
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import FrontendConfig, ResilientFrontend
from repro.scan.population import Profile, generate_population, population_config_for
from repro.scan.wild import MISMATCH_HOST, WildInternet
from repro.testbed.replicas import register_replicas

from .fabric_arms import handed_back, render_off


def make_response(
    qname: str = "cache.test.",
    *,
    msg_id: int = 1000,
    answer_ttls: tuple[int, ...] = (300,),
    authority_ttl: int | None = None,
    want_dnssec: bool = False,
) -> tuple[Message, Message]:
    """(query, response) pair with one answer RRset per requested TTL."""
    query = Message.make_query(qname, RdataType.A, msg_id=msg_id, want_dnssec=want_dnssec)
    response = query.make_response()
    name = Name.from_text(qname)
    for index, ttl in enumerate(answer_ttls):
        response.answer.append(
            RRset.of(name, RdataType.A, A(address=f"192.0.2.{index + 1}"), ttl=ttl)
        )
    if authority_ttl is not None:
        response.authority.append(
            RRset.of(
                Name.from_text("test."),
                RdataType.SOA,
                SOA(mname=Name.from_text("ns.test."), rname=Name.from_text("h.test.")),
                ttl=authority_ttl,
            )
        )
    return query, response


class TestWireKey:
    def test_short_datagram_has_no_key(self):
        assert wire_key(b"\x00" * HEADER_LENGTH) is None
        assert wire_key(b"") is None

    def test_message_id_is_excluded(self):
        a = Message.make_query("key.test.", RdataType.A, msg_id=1).to_wire()
        b = Message.make_query("key.test.", RdataType.A, msg_id=65535).to_wire()
        assert a != b
        assert wire_key(a) == wire_key(b)

    def test_do_bit_never_aliases(self):
        plain = Message.make_query("do.test.", RdataType.A, msg_id=7).to_wire()
        do = Message.make_query(
            "do.test.", RdataType.A, msg_id=7, want_dnssec=True
        ).to_wire()
        assert wire_key(plain) != wire_key(do)

    def test_cd_bit_never_aliases(self):
        query = Message.make_query("cd.test.", RdataType.A, msg_id=7)
        plain = query.to_wire()
        query.cd = True
        assert wire_key(plain) != wire_key(query.to_wire())

    @given(
        qname=st.sampled_from(["a.test.", "b.test.", "sub.a.test."]),
        rdtype=st.sampled_from([RdataType.A, RdataType.AAAA, RdataType.TXT]),
        dnssec_ok=st.booleans(),
        cd=st.booleans(),
        msg_id=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_key_is_everything_but_the_id(self, qname, rdtype, dnssec_ok, cd, msg_id):
        """Two queries alias iff their wires agree beyond the ID — so
        qname, qtype, DO, and CD can never collide onto one entry."""
        query = Message.make_query(qname, rdtype, msg_id=msg_id, want_dnssec=dnssec_ok)
        query.cd = cd
        wire = query.to_wire()
        assert wire_key(wire) == bytes(wire[2:])


class TestTtlPatching:
    @given(
        ttls=st.lists(
            st.integers(min_value=1, max_value=86400), min_size=1, max_size=3
        ),
        fraction=st.floats(min_value=0.0, max_value=0.999),
        advance=st.floats(min_value=0.0, max_value=86400.0),
        hit_id=st.integers(min_value=0, max_value=0xFFFF),
        authority_ttl=st.none() | st.integers(min_value=1, max_value=3600),
    )
    @settings(max_examples=80, deadline=None)
    def test_served_bytes_reencode_the_decremented_answer(
        self, ttls, fraction, advance, hit_id, authority_ttl
    ):
        """A hit is byte-identical to re-encoding the response with the
        answer TTLs set to ``max(1, int(expires_at - now))`` and the ID
        taken from the incoming query — the modulo-ID identity."""
        clock = SimulatedClock()
        cache = RenderedWireCache(clock=clock)
        query, response = make_response(
            answer_ttls=tuple(ttls), authority_ttl=authority_ttl
        )
        stored = response.to_wire()
        expires_at = clock.now() + min(ttls) + fraction
        key = wire_key(query.to_wire())
        assert cache.store(
            key, stored, expires_at=expires_at, decrement_answers_until=expires_at
        )

        clock.advance(min(advance, min(ttls) + fraction - 1e-6))
        hit_query = Message.make_query("cache.test.", RdataType.A, msg_id=hit_id)
        served, _note = cache.serve(key, hit_query.to_wire())

        expected_ttl = max(1, int(expires_at - clock.now()))
        _q, expected = make_response(
            msg_id=hit_id,
            answer_ttls=(expected_ttl,) * len(ttls),
            authority_ttl=authority_ttl,
        )
        assert served == expected.to_wire()

        reparsed = Message.from_wire(served)
        assert reparsed.id == hit_id
        assert all(rrset.ttl == expected_ttl for rrset in reparsed.answer)
        if authority_ttl is not None:
            # Authority TTLs replay verbatim, like the negative cache.
            assert reparsed.authority[0].ttl == authority_ttl

    def test_ttl_floor_is_one(self):
        clock = SimulatedClock()
        cache = RenderedWireCache(clock=clock)
        query, response = make_response(answer_ttls=(10,))
        key = wire_key(query.to_wire())
        # Entry outlives the fractional answer expiry on purpose.
        start = clock.now()
        cache.store(
            key,
            response.to_wire(),
            expires_at=start + 100.0,
            decrement_answers_until=start + 10.5,
        )
        clock.advance(10.4)
        served, _note = cache.serve(key, query.to_wire())
        assert Message.from_wire(served).answer[0].ttl == 1


class TestExpiry:
    @given(
        ttl=st.integers(min_value=1, max_value=600),
        advances=st.lists(
            st.floats(min_value=0.01, max_value=400.0), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_served_at_or_past_expiry(self, ttl, advances):
        """Under any advance schedule, a serve at ``now >= expires_at``
        misses (and drops the entry) — never returns stale bytes."""
        clock = SimulatedClock()
        cache = RenderedWireCache(clock=clock)
        query, response = make_response(answer_ttls=(ttl,))
        key = wire_key(query.to_wire())
        start = clock.now()
        expires_at = start + float(ttl)
        assert cache.store(key, response.to_wire(), expires_at=expires_at)

        for advance in advances:
            clock.advance(advance)
            served = cache.serve(key, query.to_wire())
            if clock.now() >= expires_at:
                assert served is None
                assert len(cache) == 0
            else:
                assert served is not None

    def test_expiry_boundary_is_closed(self):
        """Exactly at ``expires_at`` the entry is already dead."""
        clock = SimulatedClock()
        cache = RenderedWireCache(clock=clock)
        query, response = make_response(answer_ttls=(30,))
        key = wire_key(query.to_wire())
        cache.store(key, response.to_wire(), expires_at=clock.now() + 30.0)
        clock.advance(30.0)
        assert cache.serve(key, query.to_wire()) is None
        assert cache.stats.expired == 1


class TestParseEquivalent:
    """A pure predicate of the Message: True only when parsing its own
    encoding gives it back."""

    def test_simple_response_is_equivalent_and_reparses(self):
        _query, response = make_response(answer_ttls=(300,), authority_ttl=60)
        wire = response.to_wire()
        assert parse_equivalent(response)
        assert Message.from_wire(wire).to_wire() == wire

    def test_truncated_encode_refused(self):
        # Past the limit the reply is the rendered TC=1 form and the
        # sender gets no Message: it is about to retry over TCP.
        query = Message.make_query("big.test.", RdataType.A, msg_id=5)
        big = query.make_response()
        for index in range(40):
            name = Name.from_text(f"a{index}.big.test.")
            big.answer.append(
                RRset.of(name, RdataType.A, A(address=f"192.0.2.{index + 1}"))
            )
        wire = paved_reply(big, 512)
        assert wire == big.to_wire(max_size=512) and len(wire) <= 512
        assert read_reply(wire).tc and not big.tc
        wire = paved_reply(big, 4096)
        assert read_reply(wire) is big and bytes(wire) == big.to_wire()

    def test_edns_options_refused(self):
        _query, response = make_response()
        response.add_ede(22, "not proven to round-trip")
        assert not parse_equivalent(response)

    def test_duplicate_rrset_key_refused(self):
        """The parser folds same-(name,type,class) rows with min-TTL, so
        a response carrying the duplicate is not parse-stable."""
        _query, response = make_response(answer_ttls=(300,))
        response.answer.append(response.answer[0].copy(ttl=5))
        assert not parse_equivalent(response)

    def test_extended_rcode_without_opt_refused(self):
        query = Message.make_query("x.test.", RdataType.A, msg_id=3, use_edns=False)
        response = query.make_response()
        response.rcode = Rcode.BADVERS  # 16: needs OPT extended bits
        assert not parse_equivalent(response)
        # Encoding puts the bits on the wire, not into the Edns; a parse
        # would store them there, so this Message is not what comes back.
        response.edns = Edns()
        assert not parse_equivalent(response)
        response.edns = Edns(extended_rcode_bits=1)
        assert parse_equivalent(response)
        reparsed = Message.from_wire(response.to_wire())
        assert reparsed.rcode == Rcode.BADVERS and reparsed.edns == response.edns

    def test_empty_rrset_refused(self):
        _query, response = make_response(answer_ttls=(300,))
        response.answer.append(RRset(Name.from_text("ghost.test."), RdataType.A))
        assert not parse_equivalent(response)


class TestLazyWire:
    def test_len_does_not_render_and_bytes_renders_once(self, monkeypatch):
        _query, response = make_response(answer_ttls=(300, 60), authority_ttl=60)
        want = response.to_wire()
        calls = []
        real = Message.to_wire
        monkeypatch.setattr(
            Message, "to_wire", lambda self, max_size=0: calls.append(1) or real(self, max_size)
        )
        wire = LazyWire(response)
        assert len(wire) == len(want) and not calls
        assert bytes(wire) == want and bytes(wire) is bytes(wire)
        assert len(calls) == 1

    def test_len_renders_when_the_sizer_refuses(self):
        relative = Message(question=[])
        relative.answer.append(
            RRset.of(Name.from_text("relative"), RdataType.A, A(address="192.0.2.1"))
        )
        with pytest.raises(ValueError):  # exactly what to_wire() raises
            len(LazyWire(relative))

    def test_comparing_with_bytes_raises(self):
        _query, response = make_response()
        wire = LazyWire(response)
        for other in (response.to_wire(), bytearray(b"x"), memoryview(b"x")):
            with pytest.raises(TypeError):
                wire == other
            with pytest.raises(TypeError):
                other != wire
        assert wire == wire and wire != LazyWire(response)
        assert wire is not None and wire != None  # noqa: E711


class TestPavedFabric:
    """The in-process hand-off must change bytes for nobody, and must
    step aside wherever an observable property demands the byte path."""

    @pytest.fixture()
    def universe(self):
        population = generate_population(population_config_for(40))
        return WildInternet(population), population

    def test_paved_send_matches_plain_send(self, universe):
        wild, population = universe
        server_ip = wild.root_hints[0]
        query = Message.make_query(".", RdataType.NS, msg_id=77)
        wire = query.to_wire()

        plain = wild.fabric.send(server_ip, wire, source="198.51.100.9")
        before = wild.fabric.stats.bytes_received
        paved = wild.fabric.send(
            server_ip, LazyWire(query), source="198.51.100.9", message=query
        )
        assert isinstance(plain, bytes) and isinstance(paved, LazyWire)
        assert bytes(paved) == plain
        assert wild.fabric.stats.bytes_received - before == len(plain)

        parsed = handed_back(paved)
        if parsed is not None:
            # The handed-back Message re-encodes to the exact wire.
            assert parsed.to_wire() == bytes(paved)

    def _offer(self, wild, destination, query, **kwargs):
        """Paved-capable send as the engine makes it; returns (bytes
        back, Message handed back)."""
        raw = wild.fabric.send(
            destination, LazyWire(query), source="198.51.100.9",
            message=query, **kwargs,
        )
        return bytes(raw), handed_back(raw)

    def test_hand_back_is_the_parse_of_the_wire(self, universe):
        wild, _population = universe
        query = Message.make_query(".", RdataType.NS, msg_id=79)
        raw, parsed = self._offer(wild, wild.root_hints[0], query)
        assert parsed is not None
        reparsed = Message.from_wire(raw)
        assert parsed.to_wire() == raw == reparsed.to_wire()
        assert str(parsed) == str(reparsed)

    def test_chaos_policy_forces_the_byte_path(self, universe):
        wild, _population = universe
        query = Message.make_query(".", RdataType.NS, msg_id=80)
        want, _parsed = self._offer(wild, wild.root_hints[0], query)
        wild.fabric.install_chaos(ChaosPolicy(seed=1))
        got, parsed = self._offer(wild, wild.root_hints[0], query)
        assert parsed is None and got == want
        wild.fabric.remove_chaos()
        assert self._offer(wild, wild.root_hints[0], query)[1] is not None

    def test_tcp_forces_the_byte_path(self, universe):
        wild, _population = universe
        query = Message.make_query(".", RdataType.NS, msg_id=81)
        raw, parsed = self._offer(wild, wild.root_hints[0], query, transport="tcp")
        assert parsed is None
        assert Message.from_wire(raw).answer

    def test_behaviour_and_replica_endpoints_are_paved(self, universe):
        """The wrappers hand the parsed query through and the Message
        back: a behaviour profile or a replicated tier costs no codec."""
        wild, _population = universe
        query = Message.make_query("x.example.", RdataType.A, msg_id=84)
        raw, parsed = self._offer(wild, MISMATCH_HOST, query)
        assert parsed is not None and parsed.to_wire() == raw
        assert str(parsed.question[0].name) == "wrong.invalid."
        replicas = register_replicas(
            wild.fabric, "root", ["192.0.9.78"], wild.root_server
        )
        query = Message.make_query(".", RdataType.NS, msg_id=85)
        raw, parsed = self._offer(wild, "192.0.9.78", query)
        assert parsed is not None and parsed.to_wire() == raw
        assert replicas.query_counts() == {"192.0.9.78": 1}

    def test_equivalence_refusal_gets_bytes(self, universe):
        wild, _population = universe
        wild.root_server.report_agent = Name.from_text("agent.example.")
        query = Message.make_query(".", RdataType.NS, msg_id=83)
        raw, parsed = self._offer(wild, wild.root_hints[0], query)
        assert parsed is None
        assert Message.from_wire(raw).edns.options


class TestClusterRenderExactlyOnce:
    """Regression: a render hit is one served query and one render hit in
    the cluster's summed stats — it must NOT also count as an
    answer-cache hit (the answer cache was never consulted)."""

    @pytest.fixture(scope="class")
    def served(self):
        population = generate_population(population_config_for(40))
        wild = WildInternet(population)
        cluster = ResolverCluster(
            fabric=wild.fabric,
            profile=CLOUDFLARE,
            root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors,
            config=ClusterConfig(shards=2),
        )
        qname = population.domains[0].name
        responses = []
        checkpoints = []
        for msg_id in (11, 12, 13):
            wire = Message.make_query(qname, RdataType.A, msg_id=msg_id).to_wire()
            responses.append(cluster.handle_datagram(wire, "203.0.113.5"))
            cache = cluster.cache_stats()
            checkpoints.append(
                (
                    cluster.stats.queries,
                    cluster.stats.render_hits,
                    cluster.stats.render_stores,
                    # Every flavour of answer-cache hit: a render hit
                    # must not move any of them.
                    cache.hits
                    + cache.stale_hits
                    + cache.negative_hits
                    + cache.error_hits,
                )
            )
        return responses, checkpoints

    def test_three_datagrams_three_queries(self, served):
        _responses, checkpoints = served
        assert [row[0] for row in checkpoints] == [1, 2, 3]

    def test_third_datagram_is_the_render_hit(self, served):
        _responses, checkpoints = served
        # 1st: cold resolution (nothing wire-cacheable), 2nd: answer-cache
        # hit that seeds the wire cache, 3rd: served from patched bytes.
        assert [row[1] for row in checkpoints] == [0, 0, 1]
        assert checkpoints[1][2] == 1  # stored exactly once, on the 2nd

    def test_render_hit_is_not_an_answer_cache_hit(self, served):
        _responses, checkpoints = served
        # The answer cache moved on the 2nd datagram and not on the 3rd.
        assert checkpoints[1][3] > checkpoints[0][3]
        assert checkpoints[2][3] == checkpoints[1][3]

    def test_render_hit_bytes_match_the_cached_answer(self, served):
        """No virtual time passes between the seeding hit and the render
        hit, so the patched bytes must equal the answer-cache response
        modulo the two message-ID octets."""
        responses, _checkpoints = served
        assert responses[2][2:] == responses[1][2:]
        assert Message.from_wire(responses[2]).id == 13
        assert Message.from_wire(responses[1]).id == 12


class TestFlushForgetsRenderedWires:
    """Regression: ``flush_caches`` used to clear the answer and infra
    caches but leave the rendered wires, so a "cold" resolver kept
    answering repeat datagrams from bytes with no upstream work."""

    @staticmethod
    def _warm(endpoint, qname) -> bytes:
        """Cold resolution, the answer-cache hit that stores the wire,
        then one render hit; returns the repeat datagram."""
        for msg_id in (21, 22, 23):
            wire = Message.make_query(qname, RdataType.A, msg_id=msg_id).to_wire()
            assert endpoint.handle_datagram(wire, "203.0.113.5") is not None
        return Message.make_query(qname, RdataType.A, msg_id=24).to_wire()

    def test_resolver_flush_goes_back_upstream(self):
        population = generate_population(population_config_for(40))
        wild = WildInternet(population)
        resolver = RecursiveResolver(
            fabric=wild.fabric,
            profile=CLOUDFLARE,
            root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors,
        )
        wire = self._warm(resolver, population.domains[0].name)
        assert resolver.stats.render_hits == 1 and len(resolver.render_cache) == 1
        sent = wild.fabric.stats.datagrams_sent

        resolver.flush_caches()
        assert len(resolver.render_cache) == 0
        assert resolver.handle_datagram(wire, "203.0.113.5") is not None
        assert resolver.stats.render_hits == 1
        assert wild.fabric.stats.datagrams_sent > sent

    def test_cold_shard_restart_goes_back_upstream(self):
        population = generate_population(population_config_for(40))
        wild = WildInternet(population)
        cluster = ResolverCluster(
            fabric=wild.fabric,
            profile=CLOUDFLARE,
            root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors,
            config=ClusterConfig(shards=2),
        )
        qname = population.domains[0].name
        wire = self._warm(cluster, qname)
        assert cluster.stats.render_hits == 1
        sent = wild.fabric.stats.datagrams_sent

        policy = ShardChaosPolicy()
        policy.restart(
            cluster.shard_index_for(qname), at=wild.fabric.clock.now(), cold_cache=True
        )
        cluster.install_shard_chaos(policy)
        assert cluster.handle_datagram(wire, "203.0.113.5") is not None
        assert policy.stats.restarts_applied == 1
        assert cluster.stats.render_hits == 1
        assert wild.fabric.stats.datagrams_sent > sent


class TestReplayDifferential:
    """What rule 0 of the datagram door stands on: the same seeded client
    trace through two fresh frontends, the render cache on vs the
    test-only off arm, gets byte-identical replies for the same upstream
    traffic — on a Zipf-hot mix (nearly all render hits) and on a
    uniform mix whose 400 s clock jumps expire every TTL (nearly none) —
    and, with observability on, moves every counter alike, through one
    frontend and through a 2-shard cluster of them."""

    PASSES, QUERIES, SEED = 3, 3000, 20230524
    #: All a render hit may move differently: its own counters, and the
    #: answer-cache hits it never consulted.
    RENDER_ONLY = {
        "render_hits", "render_stores",
        "repro_resolver_render_hits_total", "repro_resolver_cache_hits_total",
    }

    @pytest.fixture(scope="class")
    def population(self):
        return generate_population(population_config_for(500, self.SEED))

    @pytest.fixture(scope="class")
    def replays(self, population):
        """``replay(hot, shards, off)``: each arm replayed once per class."""
        traces, runs = {}, {}

        def replay(hot: bool, shards: int, off: bool):
            if hot not in traces:
                traces[hot] = self._trace(population, hot)
            if (hot, shards, off) not in runs:
                runs[hot, shards, off] = self._replay(population, traces[hot], shards, off)
            return runs[hot, shards, off]

        return replay

    def _trace(self, population, hot: bool) -> list[tuple[bytes, str, float]]:
        """(query wire, client address, clock advance) per query."""
        rng = random.Random(self.SEED)
        clients = build_clients(64, self.SEED)
        if hot:
            ranked = [
                d.name + "." for d in population.tranco_domains()
                if d.profile in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
            ][:40]
            mix = ZipfMix(ranked, s=1.1, hot=tuple(ranked[:16]), hot_weight=0.5)
            names = [mix.sample(rng) for _ in range(self.QUERIES)]
            gaps = [0.03] * self.QUERIES
        else:
            every = [d.name + "." for d in population.domains]
            names = (every * -(-self.QUERIES // len(every)))[: self.QUERIES]
            rng.shuffle(names)
            gaps = [400.0 if i % 200 == 0 else 0.005 for i in range(self.QUERIES)]
        return [
            (
                Message.make_query(qname, RdataType.A, rng=rng).to_wire(),
                clients[rng.randrange(len(clients))].address,
                gap,
            )
            for qname, gap in zip(names, gaps)
        ]

    def _replay(self, population, trace, shards: int, off: bool) -> SimpleNamespace:
        wild = WildInternet(population)
        obs = Observability(clock=wild.fabric.clock)
        world = dict(
            fabric=wild.fabric,
            profile=CLOUDFLARE,
            root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors,
            cache_config=default_cache_config(),
            obs=obs,
        )
        if shards == 1:
            resolver = RecursiveResolver(**world)
            door = ResilientFrontend(resolver)
            resolvers, frontends = [resolver], [door]
        else:
            door = ResolverCluster(**world, shards=shards, frontend_config=FrontendConfig())
            resolvers, frontends = door.shards, door.frontends
        if off:
            render_off(*resolvers)
        replies = []
        for _ in range(self.PASSES):
            for wire, source, gap in trace:
                wild.fabric.clock.advance(gap)
                replies.append(door.handle_datagram(wire, source))
        return SimpleNamespace(
            replies=replies,
            sent=wild.fabric.stats.datagrams_sent,
            frontends=[frontend.stats for frontend in frontends],
            resolvers=[resolver.stats for resolver in resolvers],
            metrics=obs.registry.snapshot()["metrics"],
        )

    @pytest.mark.parametrize("hot", [True, False], ids=["zipf-hot", "uniform-churn"])
    def test_replies_and_upstream_traffic_identical(self, replays, hot):
        off, off_sent, off_stats = self._frontend_arm(replays(hot, 1, off=True))
        on, on_sent, on_stats = self._frontend_arm(replays(hot, 1, off=False))
        differing = sum(1 for a, b in zip(on, off) if a != b)
        assert len(on) == len(off) == self.PASSES * self.QUERIES
        assert differing == 0
        assert on_sent == off_sent
        assert on_stats.render_hits > 0 and off_stats.render_hits == 0
        assert on_stats.answered == off_stats.answered == len(on)

    @staticmethod
    def _frontend_arm(run):
        return run.replies, run.sent, run.frontends[0]

    @pytest.mark.parametrize("shards", [1, 2], ids=["frontend", "2-shard-cluster"])
    @pytest.mark.parametrize("hot", [True, False], ids=["zipf-hot", "uniform-churn"])
    def test_every_counter_moves_alike(self, replays, hot, shards):
        """Frontend snapshots, resolver stats and every metric series are
        equal between the arms but for :attr:`RENDER_ONLY`."""
        on, off = replays(hot, shards, off=False), replays(hot, shards, off=True)
        assert on.replies == off.replies and on.sent == off.sent
        assert sum(stats.render_hits for stats in on.frontends) > 0

        def counters(run):
            return (
                [self._without(stats.snapshot()) for stats in run.frontends],
                [self._without(dataclasses.asdict(stats)) for stats in run.resolvers],
                [family for family in run.metrics if family["name"] not in self.RENDER_ONLY],
            )

        assert counters(on) == counters(off)

    def _without(self, counters: dict) -> dict:
        return {name: value for name, value in counters.items() if name not in self.RENDER_ONLY}


class TestRenderHitNeedsItsEntry:
    """A kept reply is served only while the answer-cache entry it was
    rendered from would still answer: once that entry is evicted, the
    query goes back to the body like the off arm's."""

    def test_evicted_entry_is_not_replayed(self):
        population = generate_population(population_config_for(40))
        first, second = [
            d.fqdn for d in population.domains if d.profile is Profile.VALID_UNSIGNED
        ][:2]
        arms = []
        for off in (False, True):
            wild = WildInternet(population)
            resolver = RecursiveResolver(
                fabric=wild.fabric,
                profile=CLOUDFLARE,
                root_hints=wild.root_hints,
                trust_anchors=wild.trust_anchors,
                cache_config=CacheConfig(max_entries=1),
            )
            if off:
                render_off(resolver)
            replies = []
            # cold, the hit that keeps a render, then a second name whose
            # answer evicts the first's, then the first name again
            for msg_id, qname in enumerate((first, first, second, second, first)):
                wire = Message.make_query(qname, RdataType.A, msg_id=msg_id).to_wire()
                replies.append(resolver.handle_datagram(wire, "203.0.113.5"))
            arms.append((replies, wild.fabric.stats.datagrams_sent, resolver.stats))
        (on, on_sent, on_stats), (off, off_sent, _off_stats) = arms
        assert on == off and on_sent == off_sent
        assert (on_stats.render_stores, on_stats.render_hits) == (2, 0)


def test_offsets_patch_exactly_the_ttl_fields():
    """Sanity anchor for the fuzz suite: rewriting every reported offset
    changes each record's TTL and nothing else."""
    _query, response = make_response(answer_ttls=(300, 200), authority_ttl=60)
    wire = response.to_wire()
    offsets = response_ttl_offsets(wire)
    # 2 answer records + 1 authority SOA; the OPT's TTL field is never
    # reported (it holds the extended RCODE, not a TTL).
    assert len(offsets) == 3
    patched = bytearray(wire)
    for offset in offsets:
        struct.pack_into(">I", patched, offset, 7)
    reparsed = Message.from_wire(bytes(patched))
    assert all(rrset.ttl == 7 for rrset in reparsed.answer)
    assert all(rrset.ttl == 7 for rrset in reparsed.authority)
    # Everything but the TTLs survives untouched.
    original = Message.from_wire(wire)
    assert reparsed.id == original.id
    assert [r.name for r in reparsed.answer] == [r.name for r in original.answer]
