"""Zone data model: lookups, delegations, wildcards, denial selection."""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import A, CNAME, NS, SOA
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation
from repro.zones.zone import LookupStatus, Zone

ORIGIN = Name.from_text("example.com.")


def name(text: str) -> Name:
    return Name.from_text(text, origin=ORIGIN)


@pytest.fixture()
def zone() -> Zone:
    z = Zone(ORIGIN)
    z.add(RRset.of(ORIGIN, RdataType.SOA, SOA(mname=name("ns1"), rname=name("admin"))))
    z.add(RRset.of(ORIGIN, RdataType.NS, NS(target=name("ns1"))))
    z.add(RRset.of(name("ns1"), RdataType.A, A(address="192.0.2.53")))
    z.add(RRset.of(name("www"), RdataType.A, A(address="192.0.2.1")))
    z.add(RRset.of(name("alias"), RdataType.CNAME, CNAME(target=name("www"))))
    z.add(RRset.of(name("sub"), RdataType.NS, NS(target=name("ns1.sub"))))
    z.add(RRset.of(name("ns1.sub"), RdataType.A, A(address="192.0.2.99")))
    z.add(RRset.of(name("*.wild"), RdataType.A, A(address="192.0.2.42")))
    z.add(RRset.of(name("a.b.deep"), RdataType.A, A(address="192.0.2.77")))
    return z


class TestContent:
    def test_add_outside_zone_rejected(self, zone):
        with pytest.raises(ValueError):
            zone.add(RRset.of(Name.from_text("other.org."), RdataType.A, A()))

    def test_add_merges_rdatas(self, zone):
        zone.add(RRset.of(name("www"), RdataType.A, A(address="192.0.2.2")))
        assert len(zone.find(name("www"), RdataType.A)) == 2

    def test_add_shares_and_merges_into_a_new_rrset(self, zone):
        rrset = RRset.of(name("x"), RdataType.A, A(address="192.0.2.5"))
        zone.add(rrset)
        assert zone.find(name("x"), RdataType.A) is rrset
        zone.add(RRset.of(name("x"), RdataType.A, A(address="192.0.2.6")))
        assert len(zone.find(name("x"), RdataType.A)) == 2 and len(rrset) == 1

    def test_remove(self, zone):
        assert zone.remove(name("www"), RdataType.A) is not None
        assert zone.find(name("www"), RdataType.A) is None

    def test_relative_origin_rejected(self):
        with pytest.raises(ValueError):
            Zone(Name.from_text("relative"))

    def test_rrsets_at(self, zone):
        assert len(zone.rrsets_at(ORIGIN)) == 2  # SOA + NS


class TestLookup:
    def test_exact_answer(self, zone):
        result = zone.lookup(name("www"), RdataType.A)
        assert result.status is LookupStatus.ANSWER
        assert result.rrsets[0].rdatas == (A(address="192.0.2.1"),)

    def test_nodata(self, zone):
        result = zone.lookup(name("www"), RdataType.AAAA)
        assert result.status is LookupStatus.NODATA

    def test_nxdomain(self, zone):
        assert zone.lookup(name("nope"), RdataType.A).status is LookupStatus.NXDOMAIN

    def test_out_of_zone_nxdomain(self, zone):
        result = zone.lookup(Name.from_text("www.other.org."), RdataType.A)
        assert result.status is LookupStatus.NXDOMAIN

    def test_cname(self, zone):
        result = zone.lookup(name("alias"), RdataType.A)
        assert result.status is LookupStatus.CNAME
        assert result.rrsets[0].rdtype == RdataType.CNAME

    def test_cname_query_returns_answer(self, zone):
        result = zone.lookup(name("alias"), RdataType.CNAME)
        assert result.status is LookupStatus.ANSWER

    def test_delegation(self, zone):
        result = zone.lookup(name("host.sub"), RdataType.A)
        assert result.status is LookupStatus.DELEGATION
        assert result.node_name == name("sub")

    def test_delegation_at_cut_itself(self, zone):
        result = zone.lookup(name("sub"), RdataType.A)
        assert result.status is LookupStatus.DELEGATION

    def test_ds_at_cut_answered_by_parent(self, zone):
        # DS belongs to the parent side: must not be a referral.
        result = zone.lookup(name("sub"), RdataType.DS)
        assert result.status is LookupStatus.NODATA

    def test_apex_not_delegation(self, zone):
        result = zone.lookup(ORIGIN, RdataType.NS)
        assert result.status is LookupStatus.ANSWER

    def test_wildcard_synthesis(self, zone):
        result = zone.lookup(name("anything.wild"), RdataType.A)
        assert result.status is LookupStatus.ANSWER
        assert result.rrsets[0].name == name("anything.wild")
        assert result.rrsets[0].rdatas == (A(address="192.0.2.42"),)

    def test_wildcard_nodata(self, zone):
        result = zone.lookup(name("anything.wild"), RdataType.AAAA)
        assert result.status is LookupStatus.NODATA

    def test_empty_non_terminal_is_nodata(self, zone):
        # "b.deep" exists only as an interior node above a.b.deep.
        result = zone.lookup(name("b.deep"), RdataType.A)
        assert result.status is LookupStatus.NODATA

    def test_name_exists_semantics(self, zone):
        assert zone.name_exists(name("www"))
        assert zone.name_exists(name("b.deep"))  # empty non-terminal
        assert not zone.name_exists(name("zzz"))

    def test_find_zone_cut(self, zone):
        assert zone.find_zone_cut(name("x.sub")) == name("sub")
        assert zone.find_zone_cut(name("www")) is None


class TestDenialSelection:
    @pytest.fixture()
    def signed(self):
        builder = ZoneBuilder(ORIGIN, now=1_684_108_800, mutation=ZoneMutation(algorithm=13))
        builder.add(RRset.of(ORIGIN, RdataType.NS, NS(target=name("ns1"))))
        builder.add(RRset.of(name("ns1"), RdataType.A, A(address="192.0.2.53")))
        builder.add(RRset.of(name("www"), RdataType.A, A(address="192.0.2.1")))
        builder.ensure_soa()
        return builder.build().zone

    def test_denial_includes_nsec3_and_sigs(self, signed):
        rrsets = signed.denial_rrsets(name("nx"))
        types = {r.rdtype for r in rrsets}
        assert RdataType.NSEC3 in types
        assert RdataType.RRSIG in types

    def test_denial_covers_target_hash(self, signed):
        from repro.dnssec.nsec3 import base32hex_decode, hash_covers, nsec3_hash

        rrsets = [r for r in signed.denial_rrsets(name("nx")) if r.rdtype == RdataType.NSEC3]
        target = nsec3_hash(name("nx"), b"\xab\xcd", 10)
        covered = False
        for rrset in rrsets:
            owner_hash = base32hex_decode(rrset.name.labels[0].decode())
            for rdata in rrset.rdatas:
                if hash_covers(owner_hash, rdata.next_hash, target):
                    covered = True
        assert covered

    def test_denial_empty_for_unsigned(self, zone):
        assert zone.denial_rrsets(name("nx")) == []

    def test_nsec3_chain_closes(self, signed):
        records = signed.nsec3_records()
        owners = sorted(
            rrset_name.labels[0].decode() for rrset_name, _ in records
        )
        next_labels = sorted(
            __import__("repro.dnssec.nsec3", fromlist=["base32hex_encode"]).base32hex_encode(
                rd.next_hash
            )
            for _, rd in records
        )
        assert owners == next_labels  # a permutation: the chain is a cycle


class TestDelegation:
    """A delegation is derived from the child's builder, never typed."""

    CHILD = name("sub")

    def _child(self, **mutation) -> ZoneBuilder:
        return ZoneBuilder(
            self.CHILD, now=1_684_108_800, key_seed=5,
            mutation=ZoneMutation(algorithm=13, **mutation),
        )

    def test_ns_glue_by_family_and_ds(self):
        child = self._child()
        ns1, ns2, ns3 = (name(f"ns{i}.sub") for i in (1, 2, 3))
        delegation = child.delegation(
            [(ns1, "192.0.2.53"), (ns2, "2001:db8::53"), (ns3, None)]
        )
        assert delegation.ns == RRset.of(
            self.CHILD, RdataType.NS, NS(target=ns1), NS(target=ns2), NS(target=ns3)
        )
        assert [(g.name, g.rdtype, g.rdatas[0].address) for g in delegation.glue] == [
            (ns1, RdataType.A, "192.0.2.53"),
            (ns2, RdataType.AAAA, "2001:db8::53"),
        ]
        # Callable before build(), and equal to what build() reports.
        assert list(delegation.ds.rdatas) == child.build().ds_rdatas

    def test_unsigned_child_is_an_insecure_delegation(self):
        delegation = self._child(signed=False).delegation([(name("ns1.sub"), "192.0.2.53")])
        assert delegation.ds is None
        assert [r.rdtype for r in delegation.rrsets()] == [RdataType.NS, RdataType.A]

    def test_ds_mutations_reach_the_parent(self):
        honest = self._child().delegation([]).ds.rdatas[0]
        shifted = self._child(ds_tag_offset=1).delegation([]).ds.rdatas[0]
        assert shifted.key_tag == (honest.key_tag + 1) & 0xFFFF

    def test_delegate_publishes_it_in_the_parent(self):
        child = self._child()
        servers = [(name("ns1.sub"), "192.0.2.53")]
        parent = ZoneBuilder(ORIGIN, now=1_684_108_800, mutation=ZoneMutation(algorithm=13))
        parent.add(RRset.of(ORIGIN, RdataType.NS, NS(target=name("ns1"))))
        zone = parent.delegate(child, servers).build().zone
        for rrset in child.delegation(servers).rrsets():
            assert zone.find(rrset.name, rrset.rdtype) == rrset
        assert zone.lookup(name("www.sub"), RdataType.A).status is LookupStatus.DELEGATION
