"""Resolver cache: TTL decay, serve-stale, negative and error caches."""

import dataclasses

import pytest

from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, SOA
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.clock import SimulatedClock
from repro.resolver.cache import CacheConfig, ResolverCache

NAME = Name.from_text("cached.test.")


def rrset(ttl=300):
    return RRset.of(NAME, RdataType.A, A(address="192.0.2.1"), ttl=ttl)


@pytest.fixture()
def clock():
    return SimulatedClock(start=1000.0)


@pytest.fixture()
def cache(clock):
    return ResolverCache(clock, CacheConfig(serve_stale=True, stale_window=3600))


class TestPositive:
    def test_hit(self, cache):
        cache.put_rrset(rrset())
        assert cache.get_rrset(NAME, RdataType.A) is not None
        assert cache.stats.hits == 1

    def test_miss(self, cache):
        assert cache.get_rrset(NAME, RdataType.A) is None
        assert cache.stats.misses == 1

    def test_ttl_decays(self, cache, clock):
        cache.put_rrset(rrset(ttl=300))
        clock.advance(100)
        entry = cache.get_rrset(NAME, RdataType.A)
        assert entry.ttl == 200

    def test_expiry(self, cache, clock):
        cache.put_rrset(rrset(ttl=300))
        clock.advance(301)
        assert cache.get_rrset(NAME, RdataType.A) is None

    def test_copy_semantics(self, cache):
        # Value semantics without a copy: the cache keeps the RRset it
        # was given, which nobody can change.
        original = rrset()
        cache.put_rrset(original)
        with pytest.raises(dataclasses.FrozenInstanceError):
            original.rdatas = (A(address="192.0.2.2"),)
        assert cache.get_rrset(NAME, RdataType.A) is original

    def test_eviction_when_full(self, clock):
        cache = ResolverCache(clock, CacheConfig(max_entries=10))
        for i in range(12):
            cache.put_rrset(
                RRset.of(Name.from_text(f"n{i}.test."), RdataType.A, A(address="192.0.2.1"))
            )
        assert cache.stats.evictions > 0


class TestServeStale:
    def test_stale_available_after_expiry(self, cache, clock):
        cache.put_rrset(rrset(ttl=300))
        clock.advance(500)
        assert cache.get_rrset(NAME, RdataType.A) is None
        stale = cache.get_stale_rrset(NAME, RdataType.A)
        assert stale is not None
        assert stale.ttl == 30  # RFC 8767 recommendation

    def test_not_stale_while_fresh(self, cache):
        cache.put_rrset(rrset(ttl=300))
        assert cache.get_stale_rrset(NAME, RdataType.A) is None

    def test_stale_window_closes(self, cache, clock):
        cache.put_rrset(rrset(ttl=300))
        clock.advance(300 + 3600 + 1)
        assert cache.get_stale_rrset(NAME, RdataType.A) is None

    def test_disabled_by_config(self, clock):
        cache = ResolverCache(clock, CacheConfig(serve_stale=False))
        cache.put_rrset(rrset(ttl=1))
        clock.advance(5)
        assert cache.get_stale_rrset(NAME, RdataType.A) is None


class TestNegative:
    def test_negative_hit(self, cache):
        cache.put_negative(NAME, RdataType.A, Rcode.NXDOMAIN, [], ttl=300)
        entry = cache.get_negative(NAME, RdataType.A)
        assert entry is not None and entry.rcode == Rcode.NXDOMAIN
        assert cache.stats.negative_hits == 1

    def test_negative_ttl_capped(self, cache, clock):
        cache.put_negative(NAME, RdataType.A, Rcode.NXDOMAIN, [], ttl=100_000)
        clock.advance(901)  # default cap is 900
        assert cache.get_negative(NAME, RdataType.A) is None

    def test_negative_expiry(self, cache, clock):
        cache.put_negative(NAME, RdataType.A, Rcode.NXDOMAIN, [], ttl=60)
        clock.advance(61)
        assert cache.get_negative(NAME, RdataType.A) is None

    @staticmethod
    def _soa_authority(soa_ttl=300, minimum=60):
        soa = SOA(
            mname=Name.from_text("ns1.test."),
            rname=Name.from_text("hostmaster.test."),
            minimum=minimum,
        )
        return [RRset.of(Name.from_text("test."), RdataType.SOA, soa, ttl=soa_ttl)]

    def test_rfc2308_soa_minimum_caps_negative_ttl(self, cache, clock):
        """RFC 2308 section 5: negative TTL = min(SOA TTL, SOA MINIMUM).
        SOA record TTL 300 but MINIMUM 60 => entry dies after 60s."""
        cache.put_negative(
            NAME, RdataType.A, Rcode.NXDOMAIN,
            self._soa_authority(soa_ttl=300, minimum=60), ttl=300,
        )
        clock.advance(59)
        assert cache.get_negative(NAME, RdataType.A) is not None
        clock.advance(2)
        assert cache.get_negative(NAME, RdataType.A) is None

    def test_rfc2308_soa_ttl_still_binds_when_smaller(self, cache, clock):
        """The SOA record's own TTL wins when it is below MINIMUM."""
        cache.put_negative(
            NAME, RdataType.A, Rcode.NXDOMAIN,
            self._soa_authority(soa_ttl=30, minimum=600), ttl=30,
        )
        clock.advance(31)
        assert cache.get_negative(NAME, RdataType.A) is None

    def test_rfc2308_config_cap_beats_large_minimum(self, cache, clock):
        """The configured cap still bounds SOA-derived TTLs (default 900)."""
        cache.put_negative(
            NAME, RdataType.A, Rcode.NXDOMAIN,
            self._soa_authority(soa_ttl=100_000, minimum=100_000), ttl=100_000,
        )
        clock.advance(901)
        assert cache.get_negative(NAME, RdataType.A) is None


class TestErrorCache:
    def test_error_hit(self, cache):
        cache.put_error(NAME, RdataType.A, Rcode.SERVFAIL, detail="validation")
        entry = cache.get_error(NAME, RdataType.A)
        assert entry is not None
        assert entry.rcode == Rcode.SERVFAIL
        assert entry.detail == "validation"

    def test_error_expiry(self, cache, clock):
        cache.put_error(NAME, RdataType.A, Rcode.SERVFAIL)
        clock.advance(31)  # default error TTL 30s
        assert cache.get_error(NAME, RdataType.A) is None

    def test_flush(self, cache):
        cache.put_rrset(rrset())
        cache.put_error(NAME, RdataType.A, Rcode.SERVFAIL)
        cache.put_negative(NAME, RdataType.AAAA, Rcode.NXDOMAIN, [], 60)
        cache.flush()
        assert len(cache) == 0
