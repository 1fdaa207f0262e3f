"""Remembered validation verdicts (:class:`repro.dnssec.validator.Verdict`).

A successful chain-link validation is kept on the ``FetchResult`` it
was proved from and answers the next validation that reaches the same
link with the same trusted input, config and an in-window ``now``.
The claim gated here is that remembering is *invisible*: against a
test-only arm that forgets every verdict before each ``validate()``,
every ``ValidationTrace``, outcome, datagram and virtual second is
identical over the 63×7 matrix and the ledger's 500-domain population
— and that each thing a verdict depends on, when it changes, makes the
validator prove the link again.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import pytest

from repro.cluster import ClusterConfig, ResolverCluster, ShardChaosPolicy
from repro.cluster.cluster import SharedL2Cache, _ShardL2View
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec import validator as validator_module
from repro.dnssec.ds import make_ds
from repro.dnssec.keys import ZSK_FLAGS, KeyPair
from repro.dnssec.signer import SigningPolicy, sign_rrset
from repro.dnssec.trace import FailureReason, Role, ValidationState
from repro.dnssec.validator import FetchResult, Validator
from repro.net.fabric import NetworkFabric
from repro.resolver.profiles import BIND, CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.scan.population import Profile, generate_population, population_config_for
from repro.scan.scanner import WildScanner, categorization_of
from repro.scan.wild import WildInternet
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.runner import run_matrix
from repro.zones.builder import ZoneBuilder, address_rrset
from repro.zones.mutations import ZoneMutation

from .test_signer_validator import NOW, ZONE, DictSource, build_world, set_dnskey_sigs

ROOT = Name.root()
WWW = Name.from_text("www.example.com.")
HOUR = 3600


# ---------------------------------------------------------------------------
# the two arms
# ---------------------------------------------------------------------------


def trace_row(trace) -> tuple:
    return (
        trace.state, trace.reason, trace.role, trace.zone, trace.detail,
        tuple(trace.warnings), trace.algorithm, trace.key_size, trace.expired_at,
    )


@contextmanager
def validation_arm(forget: bool):
    """Record every ``validate()`` outcome; with ``forget``, drop every
    verdict remembered so far before each one (the arm with no memory).
    Yields ``(traces, recalls)``: the outcome rows in call order and a
    one-element count of verdicts that answered a link."""
    traces: list[tuple] = []
    recalls = [0]
    remembered: list[FetchResult] = []
    real_validate = Validator.validate
    real_remember = Validator._remember
    real_recall = Validator._recall

    def validate(self, *args, **kwargs):
        if forget:
            for result in remembered:
                result.verdict = None
            remembered.clear()
        trace = real_validate(self, *args, **kwargs)
        traces.append(trace_row(trace))
        return trace

    def remember(self, result, *args, **kwargs):
        real_remember(self, result, *args, **kwargs)
        remembered.append(result)

    def recall(self, result, now):
        verdict = real_recall(self, result, now)
        recalls[0] += verdict is not None
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Validator, "validate", validate)
        patch.setattr(Validator, "_remember", remember)
        patch.setattr(Validator, "_recall", recall)
        yield traces, recalls


class TestRememberingIsInvisible:
    @pytest.fixture(scope="class")
    def population(self):
        # perf/workloads.py: WILD_DOMAINS = 500 at the ledger's seed.
        return generate_population(population_config_for(500, 20230524))

    def scan(self, population, forget: bool):
        wild = WildInternet(population)
        with validation_arm(forget) as (traces, recalls):
            result = WildScanner(wild, seed=7).scan(use_lanes=False)
        return wild, result, traces, recalls[0]

    def test_scan_of_the_ledger_population(self, population):
        wild, result, traces, recalls = self.scan(population, forget=False)
        blank, want, want_traces, never = self.scan(population, forget=True)
        assert traces == want_traces and len(traces) > 300
        assert [
            (r.name, r.rcode, r.ede_codes, r.extra_texts) for r in result.records
        ] == [(r.name, r.rcode, r.ede_codes, r.extra_texts) for r in want.records]
        assert categorization_of(result) == categorization_of(want)
        assert wild.fabric.stats == blank.fabric.stats
        assert result.queries_sent == want.queries_sent
        assert result.duration_virtual == want.duration_virtual
        assert wild.fabric.clock.now() == blank.fabric.clock.now()
        # Not vacuous: one arm was answered from memory, the other never.
        assert recalls > len(traces) and never == 0

    def test_matrix(self, testbed, matrix):
        """Every cell flushes its resolver, so the matrix remembers
        nothing across cells ("no cache help" stays true) — the arms
        must still agree on every trace of every cell."""

        def arm(forget: bool):
            before = dataclasses.replace(testbed.fabric.stats)
            started = testbed.fabric.clock.now()
            with validation_arm(forget) as (traces, _recalls):
                result = run_matrix(testbed)
            after = testbed.fabric.stats
            sent = after.datagrams_sent - before.datagrams_sent
            octets = after.bytes_received - before.bytes_received
            return result, traces, sent, octets, testbed.fabric.clock.now() - started

        result, traces, sent, octets, virtual = arm(forget=False)
        want, want_traces, want_sent, want_octets, want_virtual = arm(forget=True)
        assert traces == want_traces and len(traces) > len(result.cells) // 2
        assert (sent, octets) == (want_sent, want_octets)
        # Same schedule from two different clock origins: equal up to
        # the rounding of the additions.
        assert virtual == pytest.approx(want_virtual, rel=1e-9)
        for key, cell in matrix.cells.items():
            for other in (result.cells[key], want.cells[key]):
                assert (other.rcode, other.ede_codes, other.extra_texts) == (
                    cell.rcode, cell.ede_codes, cell.extra_texts,
                ), key


# ---------------------------------------------------------------------------
# what a verdict depends on
# ---------------------------------------------------------------------------


class CachingSource(DictSource):
    """Hands back the same ``FetchResult`` for the same fetch until it
    is dropped — what the resolver's infra cache does."""

    def __init__(self, zones):
        super().__init__(zones)
        self.cache: dict[tuple, FetchResult] = {}

    def fetch_from_zone(self, zone, qname, rdtype):
        key = (zone, qname, rdtype)
        if key not in self.cache:
            self.cache[key] = super().fetch_from_zone(zone, qname, rdtype)
        else:
            self.fetches.append(key)
        return self.cache[key]


def caching_world(mutation: ZoneMutation | None = None):
    source, config, child = build_world(mutation)
    return CachingSource(source.zones), config, child


def validate_www(source, config, now=NOW):
    zone = source.zones[ZONE]
    answer = [
        zone.find(WWW, RdataType.A), zone.rrsigs_for(WWW, RdataType.A)
    ]
    return Validator(config, source).validate(
        WWW, RdataType.A, [ROOT, ZONE], answer, [], Rcode.NOERROR, now
    )


@pytest.fixture()
def verifies(monkeypatch):
    """Count signature checks made by the validator."""
    calls = []
    real = validator_module.verify_signature
    monkeypatch.setattr(
        validator_module, "verify_signature",
        lambda *args: calls.append(1) or real(*args),
    )
    return calls


DNSKEY_ROOT = (ROOT, ROOT, RdataType.DNSKEY)
DS_CHILD = (ROOT, ZONE, RdataType.DS)
DNSKEY_CHILD = (ZONE, ZONE, RdataType.DNSKEY)


class TestWhatIsRemembered:
    def test_three_links_are_remembered_and_the_leaf_is_not(self, verifies):
        source, config, _child = caching_world()
        assert validate_www(source, config).is_secure
        first = len(verifies)
        assert first == 4  # root DNSKEY, DS, child DNSKEY, the answer
        assert validate_www(source, config).is_secure
        assert len(verifies) - first == 1
        # Every link was still fetched: the memory is of the proof only.
        assert source.fetches[3:] == source.fetches[:3] == [
            DNSKEY_ROOT, DS_CHILD, DNSKEY_CHILD
        ]
        root_ring = source.cache[DNSKEY_ROOT].verdict.value
        assert source.cache[DS_CHILD].verdict.trusted is root_ring
        assert source.cache[DNSKEY_CHILD].verdict.trusted == tuple(
            source.cache[DS_CHILD].verdict.value
        )

    def test_failures_are_never_remembered(self, verifies):
        from repro.zones.mutations import SigScope

        source, config, _child = caching_world(
            ZoneMutation(algorithm=13, corrupt_sigs=SigScope.KSK_SIG)
        )
        first = validate_www(source, config)
        assert first.reason is FailureReason.KSK_SIG_INVALID
        assert source.cache[DNSKEY_CHILD].verdict is None
        spent = len(verifies)
        again = validate_www(source, config)
        assert trace_row(again) == trace_row(first)
        # The two links above it are recalled; the broken one is proved
        # broken again, signature by signature.
        assert len(verifies) - spent == spent - 2

    def test_insecure_delegation_is_never_remembered(self):
        source, config, _child = caching_world(ZoneMutation(signed=False))
        source.zones[ROOT].remove(ZONE, RdataType.DS)
        for _ in range(2):
            assert validate_www_unsigned(source, config).state is ValidationState.INSECURE
            assert source.cache[DS_CHILD].verdict is None

    def test_standby_ksk_warning_is_replayed_on_every_hit(self, verifies):
        source, config, _child = caching_world(
            ZoneMutation(algorithm=13, add_standby_ksk=True)
        )
        rows = [trace_row(validate_www(source, config)) for _ in range(3)]
        assert rows[0] == rows[1] == rows[2]
        assert rows[0][5] == (FailureReason.STANDBY_KSK_UNSIGNED,)
        assert source.cache[DNSKEY_CHILD].verdict.standby_ksk_unsigned
        assert not source.cache[DNSKEY_ROOT].verdict.standby_ksk_unsigned
        assert len(verifies) == 4 + 1 + 1


def validate_www_unsigned(source, config):
    zone = source.zones[ZONE]
    return Validator(config, source).validate(
        WWW, RdataType.A, [ROOT, ZONE], [zone.find(WWW, RdataType.A)], [],
        Rcode.NOERROR, NOW,
    )


class TestWhatMakesItProveAgain:
    def short_lived(self, rrset, key, signer):
        return sign_rrset(
            rrset, key, signer, SigningPolicy(inception=NOW - HOUR, expiration=NOW + HOUR)
        )

    def test_now_past_a_dnskey_signature_expiration(self):
        source, config, child = caching_world()
        dnskeys = child.zone.find(ZONE, RdataType.DNSKEY)
        set_dnskey_sigs(child, self.short_lived(dnskeys, child.ksk, ZONE))
        assert validate_www(source, config).is_secure
        verdict = source.cache[DNSKEY_CHILD].verdict
        assert (verdict.not_before, verdict.not_after) == (NOW - HOUR, NOW + HOUR)
        assert validate_www(source, config, now=NOW + HOUR).is_secure  # closed interval
        late = validate_www(source, config, now=NOW + HOUR + 1)
        assert (late.reason, late.role, late.zone, late.expired_at) == (
            FailureReason.DNSKEY_SIG_EXPIRED, Role.DNSKEY, ZONE, NOW + HOUR
        )
        # ... which is today's trace: what a validator with no memory says.
        blank = DictSource(source.zones)
        assert trace_row(late) == trace_row(validate_www(blank, config, now=NOW + HOUR + 1))
        early = validate_www(source, config, now=NOW - HOUR - 1)
        assert early.reason is FailureReason.DNSKEY_SIG_NOT_YET_VALID

    def test_now_past_a_ds_signature_expiration(self, root_zsk):
        source, config, _child = caching_world()
        root = source.zones[ROOT]
        ds = root.find(ZONE, RdataType.DS)
        sigs = root.find(ZONE, RdataType.RRSIG)
        others = [rd for rd in sigs.rdatas if rd.type_covered != RdataType.DS]
        root.replace(RRset.of(
            ZONE, RdataType.RRSIG, self.short_lived(ds, root_zsk, ROOT), *others,
            ttl=sigs.ttl,
        ))
        assert validate_www(source, config).is_secure
        assert source.cache[DS_CHILD].verdict.not_after == NOW + HOUR
        late = validate_www(source, config, now=NOW + HOUR + 1)
        assert (late.reason, late.role, late.expired_at) == (
            FailureReason.LEAF_SIG_EXPIRED, Role.DS, NOW + HOUR
        )
        blank = DictSource(source.zones)
        assert trace_row(late) == trace_row(validate_www(blank, config, now=NOW + HOUR + 1))

    def test_window_is_the_intersection_of_the_live_candidates(self):
        source, config, child = caching_world()
        dnskeys = child.zone.find(ZONE, RdataType.DNSKEY)
        wide = sign_rrset(dnskeys, child.ksk, ZONE, SigningPolicy.window(NOW))
        expired = sign_rrset(
            dnskeys, child.ksk, ZONE, SigningPolicy(inception=NOW - 9 * HOUR, expiration=NOW - HOUR)
        )
        set_dnskey_sigs(child, expired, self.short_lived(dnskeys, child.ksk, ZONE), wide)
        assert validate_www(source, config).is_secure
        verdict = source.cache[DNSKEY_CHILD].verdict
        # The expired one was no candidate; of the two live ones the
        # narrower bounds the proof on both sides.
        assert (verdict.not_before, verdict.not_after) == (NOW - HOUR, NOW + HOUR)

    def test_refetched_parent_dnskey_is_a_new_key_ring(self, verifies):
        source, config, _child = caching_world()
        assert validate_www(source, config).is_secure
        old_ring = source.cache[DNSKEY_ROOT].verdict.value
        del source.cache[DNSKEY_ROOT]  # the entry expired; the next fetch is fresh
        spent = len(verifies)
        assert validate_www(source, config).is_secure
        new_ring = source.cache[DNSKEY_ROOT].verdict.value
        assert new_ring is not old_ring and new_ring == old_ring
        assert source.cache[DS_CHILD].verdict.trusted is new_ring
        # Root DNSKEY and the DS under it were proved again; the child's
        # DNSKEY set hangs on the DS *values*, which did not change.
        assert len(verifies) - spent == 2 + 1

    def test_ds_verdict_does_not_survive_a_parent_key_roll(self, root_ksk):
        """Soundness, not just bookkeeping: the re-fetched root DNSKEY
        set no longer holds the key that signed the cached DS."""
        source, config, _child = caching_world()
        assert validate_www(source, config).is_secure
        root = source.zones[ROOT]
        rolled = KeyPair.generate(13, ZSK_FLAGS, seed=4242)
        dnskeys = RRset.of(ROOT, RdataType.DNSKEY, root_ksk.dnskey(), rolled.dnskey(), ttl=300)
        sigs = root.find(ROOT, RdataType.RRSIG)
        others = [rd for rd in sigs.rdatas if rd.type_covered != RdataType.DNSKEY]
        root.replace(dnskeys)
        root.replace(RRset.of(
            ROOT, RdataType.RRSIG,
            sign_rrset(dnskeys, root_ksk, ROOT, SigningPolicy.window(NOW)), *others,
            ttl=sigs.ttl,
        ))
        del source.cache[DNSKEY_ROOT]
        trace = validate_www(source, config)
        assert trace.is_bogus and trace.role is Role.DS and trace.zone == ROOT
        assert source.cache[DS_CHILD].verdict.trusted is not source.cache[DNSKEY_ROOT].verdict.value

    def test_different_ds_set_for_the_same_dnskey_fetch(self):
        source, config, child = caching_world()
        assert validate_www(source, config).is_secure
        validator = Validator(config, source)
        ring = validator._validate_dnskey(ZONE, list(child.ds_rdatas), NOW)
        assert ring is source.cache[DNSKEY_CHILD].verdict.value
        wrong = [dataclasses.replace(child.ds_rdatas[0], key_tag=child.ds_rdatas[0].key_tag ^ 1)]
        trace = validator._validate_dnskey(ZONE, wrong, NOW)
        assert trace.reason is FailureReason.DS_DNSKEY_MISMATCH

    def test_config_edited_in_place(self):
        source, config, _child = caching_world(ZoneMutation(algorithm=8, key_bits=512))
        assert validate_www(source, config).is_secure
        assert source.cache[DNSKEY_CHILD].verdict is not None
        config.min_rsa_bits = 1024
        trace = validate_www(source, config)
        assert trace.reason is FailureReason.KEY_SIZE_UNSUPPORTED and trace.key_size == 512
        config.min_rsa_bits = 0
        assert validate_www(source, config).is_secure


@pytest.fixture()
def root_keys():
    """The root keys ``build_world`` signs with (``key_seed=51``)."""
    from repro.zones.builder import ZoneBuilder

    return ZoneBuilder(
        ROOT, now=NOW, mutation=ZoneMutation(algorithm=13), key_seed=51
    ).keys()


@pytest.fixture()
def root_ksk(root_keys):
    return root_keys[0]


@pytest.fixture()
def root_zsk(root_keys):
    return root_keys[1]


# ---------------------------------------------------------------------------
# lifetime: the verdict's is the cache entry's
# ---------------------------------------------------------------------------


def signed_domain(population) -> str:
    return next(d.name for d in population.domains if d.profile is Profile.VALID_SIGNED)


class TestLifetimeIsTheCacheEntrys:
    @pytest.fixture()
    def universe(self):
        population = generate_population(population_config_for(300))
        return WildInternet(population), population

    def test_flush_caches_forgets(self, universe, verifies):
        wild, population = universe
        resolver = RecursiveResolver(
            fabric=wild.fabric, profile=CLOUDFLARE, root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors,
        )
        qname = signed_domain(population)
        resolver.resolve(qname, RdataType.A)
        cold = len(verifies)
        resolver.resolve(qname, RdataType.DNSKEY)  # same chain, answer not cached
        warm = len(verifies) - cold
        assert warm < cold
        resolver.flush_caches()
        before = len(verifies)
        resolver.resolve(qname, RdataType.A)
        assert len(verifies) - before == cold

    def test_cluster_cold_restart_forgets(self, universe, verifies):
        wild, population = universe
        cluster = ResolverCluster(
            fabric=wild.fabric, profile=CLOUDFLARE, root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors, config=ClusterConfig(shards=2),
        )
        qname = signed_domain(population)
        cluster.resolve(qname, RdataType.A)
        cold = len(verifies)
        policy = ShardChaosPolicy()
        policy.restart(
            cluster.shard_index_for(qname), at=wild.fabric.clock.now(), cold_cache=True
        )
        cluster.install_shard_chaos(policy)
        cluster.resolve(qname, RdataType.A)
        assert policy.stats.restarts_applied == 1
        assert len(verifies) == 2 * cold

    def test_l2_adoption_never_crosses_validator_configs(self):
        """One ``FetchResult`` in two shards' infra caches, two configs
        that disagree about its keys: each shard gets its own verdict."""
        fabric = NetworkFabric()
        now = int(fabric.clock.now())
        child = ZoneBuilder(
            ZONE, now=now, mutation=ZoneMutation(algorithm=8, key_bits=512), key_seed=3
        )
        child.add(RRset.of(ZONE, RdataType.NS, NS(target=Name.from_text("ns1.example.com."))))
        child.add(address_rrset(Name.from_text("ns1.example.com."), "192.0.9.20"))
        child.add(address_rrset(WWW, "192.0.2.80"))
        child.ensure_soa()
        root = ZoneBuilder(ROOT, now=now, mutation=ZoneMutation(algorithm=13), key_seed=4)
        root.ensure_soa()
        root.delegate(child, [(Name.from_text("ns1.example.com."), "192.0.9.20")])
        for address, builder in (("192.0.9.10", root), ("192.0.9.20", child)):
            server = AuthoritativeServer(str(builder.origin))
            server.add_zone(builder.build().zone)
            fabric.register(address, server)
        anchors = [make_ds(ROOT, root.keys()[0].dnskey(), 2)]
        assert BIND.validator.min_rsa_bits < 512 < CLOUDFLARE.validator.min_rsa_bits

        def resolver(profile, l2=None):
            return RecursiveResolver(
                fabric=fabric, profile=profile, root_hints=["192.0.9.10"],
                trust_anchors=anchors, l2=l2,
            )

        def outcome(resolver):
            response = resolver.resolve(WWW, RdataType.A, want_dnssec=True)
            return response.rcode, response.ad, response.ede_codes

        solo = {p.name: outcome(resolver(p)) for p in (BIND, CLOUDFLARE)}
        assert solo[BIND.name][1] and not solo[CLOUDFLARE.name][1]

        l2 = SharedL2Cache(fabric.clock)
        lenient = resolver(BIND, _ShardL2View(l2, 0))
        strict = resolver(CLOUDFLARE, _ShardL2View(l2, 1))
        with validation_arm(forget=False) as (traces, _recalls):
            assert outcome(lenient) == solo[BIND.name]
            assert outcome(strict) == solo[CLOUDFLARE.name]
        assert l2.stats.hits > 0 and strict.stats.infra_misses == 0
        key = (ZONE, ZONE, int(RdataType.DNSKEY))
        shared = strict._infra_cache.fresh(key)[0]
        assert shared is lenient._infra_cache.fresh(key)[0]
        # The lenient shard trusted the 512-bit key; the strict one,
        # reading the very same object, did not — and left the verdict
        # it could not use where it was.
        assert [row[:2] for row in traces] == [
            (ValidationState.SECURE, None),
            (ValidationState.INSECURE, FailureReason.KEY_SIZE_UNSUPPORTED),
        ]
        assert shared.verdict.config == lenient.validator.config.snapshot()
        # A third shard configured like the first is answered from that
        # verdict (the two links above it now carry the strict shard's,
        # and are proved again); one like the second, from none.
        with validation_arm(forget=False) as (traces, recalls):
            assert outcome(resolver(BIND, _ShardL2View(l2, 2))) == solo[BIND.name]
            assert recalls[0] == 1
            assert outcome(resolver(CLOUDFLARE, _ShardL2View(l2, 3))) == solo[CLOUDFLARE.name]
            assert recalls[0] == 1
