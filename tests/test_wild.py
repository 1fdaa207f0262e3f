"""The wild-Internet tier: virtual TLD servers, lazy hosting, mutations."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.scan import wild as wild_module
from repro.scan.population import Profile
from repro.scan.wild import (
    WILD_ALGORITHM,
    VirtualTldServer,
    WildInternet,
    domain_mutation,
    hosting_address,
    tld_server_address,
)
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import SigScope, Window, ZoneMutation
from tests.zone_digest import zone_rows


def first_domain(population, profile: Profile):
    for domain in population.domains:
        if domain.profile is profile:
            return domain
    pytest.skip(f"no {profile.name} domain in this universe")


class TestDomainMutation:
    def _domain(self, small_population, profile):
        return first_domain(small_population, profile)

    def test_valid_signed(self, small_population):
        mutation = domain_mutation(self._domain(small_population, Profile.VALID_SIGNED))
        assert mutation.signed
        assert mutation.algorithm == WILD_ALGORITHM
        assert not mutation.is_mutated() or mutation.nsec3_iterations == 0

    def test_standby(self, small_population):
        mutation = domain_mutation(self._domain(small_population, Profile.STANDBY_KSK))
        assert mutation.add_standby_ksk

    def test_dnskey_missing(self, small_population):
        mutation = domain_mutation(self._domain(small_population, Profile.DNSKEY_MISSING))
        assert mutation.ds_tag_offset == 1

    def test_bogus(self, small_population):
        mutation = domain_mutation(self._domain(small_population, Profile.BOGUS))
        assert mutation.corrupt_sigs is SigScope.DNSKEY_SIGS

    def test_sig_windows(self, small_population):
        assert (
            domain_mutation(self._domain(small_population, Profile.SIG_EXPIRED)).window_all
            is Window.EXPIRED
        )
        assert (
            domain_mutation(self._domain(small_population, Profile.SIG_NOT_YET)).window_all
            is Window.NOT_YET_VALID
        )

    def test_lame_profiles_unsigned(self, small_population):
        for profile in (Profile.LAME_REFUSED, Profile.LAME_UNREACHABLE):
            mutation = domain_mutation(self._domain(small_population, profile))
            assert not mutation.signed


class TestWildDeployment:
    def test_root_trust_anchor(self, small_wild):
        assert small_wild.trust_anchors

    def test_tld_servers_for_every_tld(self, small_wild):
        assert len(small_wild.tld_servers) == len(small_wild.population.tlds)

    def test_addresses_routable(self):
        from repro.net.addresses import is_globally_routable

        for index in (0, 100, 1474):
            assert is_globally_routable(tld_server_address(index))
        for index in (0, 50):
            assert is_globally_routable(hosting_address(index))

    def test_registered_domain_lookup(self, small_wild):
        domain = small_wild.population.domains[0]
        qname = Name.from_text(domain.fqdn)
        assert small_wild.registered_domain_of(qname) is domain
        sub = qname.prepend(b"www")
        assert small_wild.registered_domain_of(sub) is domain
        assert small_wild.registered_domain_of(Name.from_text("unknown.zz.")) is None

    @pytest.mark.parametrize("upper_first", [False, True])
    def test_registered_domain_lookup_ignores_case(self, small_population, upper_first):
        """RFC 4343: every spelling finds the domain, whichever arrives
        first (the memo is keyed by a case-blind Name)."""
        wild = WildInternet(small_population)
        domain = small_population.domains[0]
        spellings = [f"www.{domain.fqdn}", f"WWW.{domain.fqdn.upper()}", f"www.{domain.fqdn.title()}"]
        if upper_first:
            spellings.reverse()
        for spelling in spellings * 2:
            assert wild.registered_domain_of(Name.from_text(spelling)) is domain

    def test_domain_keys_deterministic(self, small_wild, small_population):
        """Every builder of a domain derives the same keys — the DS the
        TLD publishes and the DNSKEY a rebuilt zone serves agree."""
        domain = first_domain(small_population, Profile.VALID_SIGNED)
        first = small_wild.builder_for(domain)
        again = small_wild.builder_for(domain)
        assert first is not again
        assert [k.dnskey() for k in first.keys()] == [k.dnskey() for k in again.keys()]
        assert list(small_wild.delegation_for(domain).ds.rdatas) == first.ds_rdatas()

    def test_delegation_signed_has_ds(self, small_wild, small_population):
        domain = first_domain(small_population, Profile.VALID_SIGNED)
        delegation = small_wild.delegation_for(domain)
        assert delegation.ds is not None and delegation.ds.rdatas

    def test_delegation_unsigned_has_no_ds(self, small_wild, small_population):
        domain = first_domain(small_population, Profile.VALID_UNSIGNED)
        assert small_wild.delegation_for(domain).ds is None

    def test_partial_refused_has_two_ns(self, small_wild, small_population):
        domain = first_domain(small_population, Profile.PARTIAL_REFUSED)
        delegation = small_wild.delegation_for(domain)
        assert len(delegation.ns) == 2
        assert len(delegation.glue) == 2

    def test_unreachable_glue_is_special(self, small_wild, small_population):
        from repro.net.addresses import classify

        domain = first_domain(small_population, Profile.LAME_UNREACHABLE)
        delegation = small_wild.delegation_for(domain)
        assert classify(delegation.glue[0].rdatas[0].address).special


class TestVirtualTldServer:
    def _query(self, small_wild, qname, rdtype=RdataType.A, tld=None):
        if tld is None:
            domain = small_wild.registered_domain_of(Name.from_text(qname))
            tld = domain.tld
        server = small_wild.tld_servers[tld]
        query = Message.make_query(qname, rdtype, want_dnssec=True)
        return server.handle_query(query)

    def test_referral(self, small_wild, small_population):
        domain = first_domain(small_population, Profile.VALID_UNSIGNED)
        response = self._query(small_wild, domain.fqdn)
        assert not response.aa
        assert any(r.rdtype == RdataType.NS for r in response.authority)
        assert any(r.rdtype == RdataType.A for r in response.additional)

    def test_unsigned_referral_has_optout_denial(self, small_wild, small_population):
        domain = first_domain(small_population, Profile.VALID_UNSIGNED)
        response = self._query(small_wild, domain.fqdn)
        nsec3 = [r for r in response.authority if r.rdtype == RdataType.NSEC3]
        assert nsec3
        assert nsec3[0].rdatas[0].opt_out

    def test_signed_referral_has_ds(self, small_wild, small_population):
        domain = first_domain(small_population, Profile.VALID_SIGNED)
        response = self._query(small_wild, domain.fqdn)
        assert any(r.rdtype == RdataType.DS for r in response.authority)

    def test_ds_query_answered_with_signature(self, small_wild, small_population):
        domain = first_domain(small_population, Profile.VALID_SIGNED)
        response = self._query(small_wild, domain.fqdn, RdataType.DS)
        assert response.aa
        assert any(r.rdtype == RdataType.DS for r in response.answer)
        assert any(r.rdtype == RdataType.RRSIG for r in response.answer)

    def test_apex_dnskey(self, small_wild, small_population):
        domain = small_population.domains[0]
        response = self._query(
            small_wild, domain.tld + ".", RdataType.DNSKEY, tld=domain.tld
        )
        assert response.aa
        assert any(r.rdtype == RdataType.DNSKEY for r in response.answer)

    def test_referral_ignores_case(self, small_wild, small_population):
        """RFC 4343: ``D1.DP.`` is referred like ``d1.dp.``, not denied."""
        domain = first_domain(small_population, Profile.VALID_UNSIGNED)
        spellings = (domain.fqdn, domain.fqdn.upper(), f"www.{domain.fqdn.title()}")
        for spelling in spellings:
            response = self._query(small_wild, spelling, tld=domain.tld)
            assert response.rcode == Rcode.NOERROR and not response.aa
            (ns,) = [r for r in response.authority if r.rdtype == RdataType.NS]
            assert ns.name == Name.from_text(domain.fqdn)

    def test_unknown_child_nxdomain(self, small_wild, small_population):
        domain = small_population.domains[0]
        response = self._query(
            small_wild, f"never-registered-zzz.{domain.tld}.", tld=domain.tld
        )
        assert response.rcode == Rcode.NXDOMAIN


    def test_question_less_query_gets_formerr(self, small_wild):
        """A bare header (QDCOUNT 0) is answered FORMERR by datagram, by
        stream and through the fabric, like every other host does."""
        server = next(iter(small_wild.tld_servers.values()))
        address = small_wild.tld_addresses[server.tld]
        wire = Message(id=7).to_wire()
        assert len(wire) == 12
        for raw in (
            server.handle_datagram(wire, "198.51.100.1"),
            server.handle_stream(wire, "198.51.100.1"),
            small_wild.fabric.send(address, wire),
            small_wild.fabric.send(address, wire, transport="tcp"),
        ):
            response = Message.from_wire(raw)
            assert response.rcode == Rcode.FORMERR
            assert response.id == 7 and response.qr


class TestHostingLaziness:
    @pytest.fixture()
    def wild(self, small_population):
        return WildInternet(small_population)

    def test_zone_built_on_first_query(self, wild, small_population, monkeypatch):
        built = []
        real_build = ZoneBuilder.build
        monkeypatch.setattr(
            ZoneBuilder, "build",
            lambda self: built.append(self.origin) or real_build(self),
        )
        domain = first_domain(small_population, Profile.VALID_UNSIGNED)
        apex = Name.from_text(domain.fqdn)
        server = wild.hosting_servers[domain.hosting_index]
        wild.delegation_for(domain)  # the DS needs keys, not the zone
        assert built == []
        query = Message.make_query(domain.fqdn, RdataType.A, want_dnssec=True)
        raw = server.handle_datagram(query.to_wire(), "198.51.100.1")
        response = Message.from_wire(raw)
        assert response.rcode == Rcode.NOERROR
        assert built == [apex]
        # repeated queries do not rebuild
        server.handle_datagram(query.to_wire(), "198.51.100.1")
        assert built == [apex]

    def test_zone_cache_reused_across_servers(self, wild, small_population):
        """One store: every hosting endpoint reads the same built zone."""
        domain = first_domain(small_population, Profile.VALID_SIGNED)
        zone = wild.zone_for(domain)
        assert wild.zone_for(domain) is zone
        qname = Name.from_text(domain.fqdn)
        assert {id(server.find_zone(qname)) for server in wild.hosting_servers} == {id(zone)}
        assert wild.stale_server.find_zone(qname.prepend(b"www")) is zone

    def test_evicted_zone_rebuilds_identically(self, wild, small_population, monkeypatch):
        """Fill the store past its one capacity: the older half goes, and
        an evicted domain's next query rebuilds the same zone and gets
        the same bytes."""
        capacity = 8
        monkeypatch.setattr(wild_module, "MAX_CACHED_ZONES", capacity)
        signed = first_domain(small_population, Profile.VALID_SIGNED)
        server = wild.hosting_servers[signed.hosting_index]
        query = Message.make_query(signed.fqdn, RdataType.DNSKEY, want_dnssec=True)
        query.id = 4242
        before_wire = server.handle_datagram(query.to_wire(), "198.51.100.1")
        before_zone = wild.zone_for(signed)
        before_rows = zone_rows(before_zone)

        others = [d for d in small_population.domains if d is not signed][:capacity]
        for domain in others:
            wild.zone_for(domain)
        assert len(wild._zones) <= capacity
        assert signed.name not in wild._zones  # the oldest went first
        assert others[-1].name in wild._zones

        after_wire = server.handle_datagram(query.to_wire(), "198.51.100.1")
        after_zone = wild.zone_for(signed)
        assert after_zone is not before_zone
        assert zone_rows(after_zone) == before_rows
        assert after_wire == before_wire


class TestLazyTldApex:
    """A TLD's apex zone is built on the first query that reads it.
    Whenever that is, it — and everything derived from its keys — must
    be what building it up front gives."""

    @pytest.fixture()
    def wild(self, small_population):
        return WildInternet(small_population)

    @staticmethod
    def _loaded_builder(wild, tld):
        index = sorted(wild.population.tlds).index(tld)
        origin = Name.from_text(tld + ".")
        builder = ZoneBuilder(
            origin, now=wild.now, key_seed=100 + index,
            mutation=ZoneMutation(algorithm=WILD_ALGORITHM, nsec3_iterations=0, nsec3_salt=b""),
        )
        ns_name = Name.from_text("a.nic", origin=origin)
        builder.add(RRset.of(origin, RdataType.NS, NS(target=ns_name), ttl=300))
        builder.add(RRset.of(ns_name, RdataType.A, A(address=wild.tld_addresses[tld]), ttl=300))
        return builder

    @staticmethod
    def _ask(server, rdtype):
        query = Message.make_query(str(server.origin), rdtype, want_dnssec=True)
        response = server.handle_query(query)
        return [(section, r.name, r.rdtype, r.ttl, r.rdatas)
                for section in ("answer", "authority")
                for r in getattr(response, section)]

    @pytest.mark.parametrize("queried_first", [False, True])
    def test_lazy_equals_eager(self, wild, small_population, queried_first):
        domain = first_domain(small_population, Profile.VALID_SIGNED)
        tld = domain.tld if queried_first else next(
            name for name in sorted(small_population.tlds)
            if all(d.tld != name for d in small_population.domains)
        )
        server = wild.tld_servers[tld]
        assert server._apex_zone is None
        if queried_first:
            # A signed referral needs the ZSK but not the zone ...
            referral = server.handle_query(
                Message.make_query(domain.fqdn, RdataType.A, want_dnssec=True))
            assert any(r.rdtype == RdataType.RRSIG for r in referral.authority)
            assert server._apex_zone is None
            # ... the validator's DNSKEY fetch is what builds it.
            self._ask(server, RdataType.DNSKEY)
            assert server._apex_zone is not None

        builder = self._loaded_builder(wild, tld)
        eager = builder.build()  # up front, as every TLD used to be
        eager_server = VirtualTldServer(
            wild, tld, server.index, broken_denial=server.broken_denial, now=wild.now
        )
        eager_server._apex_zone = eager.zone  # nothing left to be lazy about

        root = wild.root_built.zone
        assert list(root.find(server.origin, RdataType.DS).rdatas) == eager.ds_rdatas
        assert (server.ksk.dnskey(), server.zsk.dnskey()) == (
            eager.ksk.dnskey(), eager.zsk.dnskey())
        for rdtype in (RdataType.DNSKEY, RdataType.SOA, RdataType.NS, RdataType.TXT):
            # TXT is NODATA: SOA + its RRSIG + the opt-out NSEC3 + its RRSIG.
            assert self._ask(server, rdtype) == self._ask(eager_server, rdtype), rdtype
        assert zone_rows(server.apex_zone) == zone_rows(eager.zone)

        server.axfr_allowed = eager_server.axfr_allowed = True
        transfer = Message.make_query(str(server.origin), RdataType.AXFR)
        lazy_axfr = server.handle_axfr(transfer).answer
        assert [(r.name, r.rdtype, r.rdatas) for r in lazy_axfr] == [
            (r.name, r.rdtype, r.rdatas) for r in eager_server.handle_axfr(transfer).answer
        ]
        assert lazy_axfr[0].rdtype == lazy_axfr[-1].rdtype == RdataType.SOA

    def test_a_fresh_universe_holds_no_tld_builder_until_queried(self, wild, small_population):
        assert all(s._apex is None for s in wild.tld_servers.values())
        domain = first_domain(small_population, Profile.VALID_SIGNED)
        server = wild.tld_servers[domain.tld]
        server.handle_query(Message.make_query(domain.fqdn, RdataType.A, want_dnssec=True))
        holding = [s for s in wild.tld_servers.values() if s._apex is not None]
        assert holding == [server] and server._apex_zone is None

    def test_a_scan_builds_only_the_apexes_it_reads(self, wild):
        from repro.scan.scanner import WildScanner

        WildScanner(wild).scan()
        built = [s for s in wild.tld_servers.values() if s._apex_zone is not None]
        assert 0 < len(built) < len(wild.tld_servers) / 2


class TestBytePathDecodesOnce:
    """Every wild tier answers a byte-path datagram with exactly one
    ``Message.from_wire``: ``handle_datagram`` decodes, the one answer
    body (``handle_paved``) takes it from there.  The stale-flipping and
    CNAME-loop hosts used to decode, then defer to a parent that decoded
    the same wire again."""

    @pytest.fixture(scope="class")
    def wild(self, small_population):
        """Own universe: the stale host's per-zone flip state is written."""
        return WildInternet(small_population)

    @pytest.fixture()
    def decodes(self, monkeypatch):
        calls = []
        real = Message.from_wire.__func__

        def counting(cls, wire):
            calls.append(bytes(wire))
            return real(cls, wire)

        monkeypatch.setattr(Message, "from_wire", classmethod(counting))
        return calls

    def _wire(self, population, profile, rdtype=RdataType.A):
        domain = first_domain(population, profile)
        return Message.make_query(domain.fqdn, rdtype, want_dnssec=True).to_wire()

    def test_tld_and_hosting(self, wild, small_population, decodes):
        domain = first_domain(small_population, Profile.VALID_UNSIGNED)
        wire = self._wire(small_population, Profile.VALID_UNSIGNED)
        for server in (
            wild.tld_servers[domain.tld],
            wild.hosting_servers[domain.hosting_index],
            wild.root_server,
        ):
            del decodes[:]
            assert server.handle_datagram(wire, "198.51.100.1") is not None
            assert decodes == [wire], type(server).__name__

    def test_stale_flipping_defer_and_flip(self, wild, small_population, decodes):
        wire = self._wire(small_population, Profile.STALE)
        # First query per zone defers to the hosting body, later ones flip.
        for expected in (Rcode.NOERROR, Rcode.REFUSED):
            del decodes[:]
            raw = wild.stale_server.handle_datagram(wire, "198.51.100.1")
            assert decodes == [wire]
            assert Message.from_wire(raw).rcode == expected

    def test_cname_loop_bounce_and_defer(self, wild, small_population, decodes):
        # A bounces in-domain; any other type defers to the hosting body.
        for rdtype in (RdataType.A, RdataType.NS):
            wire = self._wire(small_population, Profile.OTHER_LOOP, rdtype)
            del decodes[:]
            assert wild.loop_server.handle_datagram(wire, "198.51.100.1")
            assert decodes == [wire]

    def test_garbage_is_formerr_everywhere(self, wild):
        for server in (wild.stale_server, wild.loop_server, wild.root_server):
            raw = server.handle_datagram(b"\x00\x01garbage", "198.51.100.1")
            assert Message.from_wire(raw).rcode == Rcode.FORMERR
