"""The zone store: one owner-indexed dict, checked against naive
references, bounded in work, and pinned in content."""

from hypothesis import given, settings, strategies as st

from repro.dns.dnssec_records import NSEC3
from repro.dns.name import Name
from repro.dns.rdata import A, NS, TXT
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec import rsa
from repro.dnssec.nsec3 import base32hex_decode, base32hex_encode, hash_covers, nsec3_hash
from repro.scan.population import generate_population, population_config_for
from repro.scan.wild import WildInternet
from repro.testbed.infra import build_testbed
from repro.testbed.replicas import ReplicaTopology
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation
from repro.zones.zone import Zone
from tests.zone_digest import content_digest, delegation_digest, served_zones

ORIGIN = Name.from_text("store.test.")
NOW = 1_684_108_800


# -- model test ---------------------------------------------------------------


class FlatZone:
    """The reference: one list, every question answered by scanning it."""

    def __init__(self) -> None:
        self.rows: list[RRset] = []

    def _index(self, name, rdtype):
        for index, row in enumerate(self.rows):
            if row.name == name and row.rdtype == rdtype:
                return index
        return None

    def add(self, rrset):
        index = self._index(rrset.name, rrset.rdtype)
        if index is None:
            self.rows.append(rrset.copy())
        else:
            for rdata in rrset.rdatas:
                self.rows[index].add(rdata)

    def replace(self, rrset):
        index = self._index(rrset.name, rrset.rdtype)
        if index is None:
            self.rows.append(rrset)
        else:
            self.rows[index] = rrset

    def remove(self, name, rdtype):
        index = self._index(name, rdtype)
        return None if index is None else self.rows.pop(index)

    def find(self, name, rdtype):
        index = self._index(name, rdtype)
        return None if index is None else self.rows[index]


_owners = [
    Name.from_text(text, origin=ORIGIN)
    for text in ("@", "a", "b", "x.a", "y.x.a", "*.w", "deep.er.b")
]
_rdatas = {
    RdataType.A: [A(address="192.0.2.1"), A(address="192.0.2.2")],
    RdataType.NS: [NS(target=_owners[1]), NS(target=_owners[2])],
    RdataType.TXT: [TXT(strings=(b"one",)), TXT(strings=(b"two",))],
    RdataType.NSEC3: [
        NSEC3(hash_algorithm=1, flags=0, iterations=0, salt=b"", next_hash=bytes([n]) * 20,
              types=(1,))
        for n in (1, 2)
    ],
}
_rrset = st.builds(
    lambda owner, rdtype, picks: RRset.of(
        owner, rdtype, *[_rdatas[rdtype][pick] for pick in picks]
    ),
    st.sampled_from(_owners),
    st.sampled_from(sorted(_rdatas)),
    st.lists(st.integers(0, 1), min_size=1, max_size=2),
)
_op = st.one_of(
    st.tuples(st.just("add"), _rrset),
    st.tuples(st.just("replace"), _rrset),
    st.tuples(st.just("remove"), _rrset),
)


def _content(rrset):
    return None if rrset is None else (rrset.name, rrset.rdtype, rrset.ttl, list(rrset.rdatas))


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_op, max_size=30))
def test_zone_agrees_with_flat_list_model(ops):
    zone, model = Zone(ORIGIN), FlatZone()
    for verb, rrset in ops:
        if verb == "remove":
            removed = zone.remove(rrset.name, rrset.rdtype)
            assert _content(removed) == _content(model.remove(rrset.name, rrset.rdtype))
        else:
            getattr(zone, verb)(rrset.copy())
            getattr(model, verb)(rrset.copy())

        assert len(zone) == len(model.rows)
        assert set(zone.owners()) == {row.name for row in model.rows}
        for owner in _owners:
            # Same RRsets in the same order: types at one owner keep
            # their first-insertion order in both designs.
            assert [_content(r) for r in zone.rrsets_at(owner)] == [
                _content(row) for row in model.rows if row.name == owner
            ]
            for rdtype in _rdatas:
                assert _content(zone.find(owner, rdtype)) == _content(model.find(owner, rdtype))
            for probe in (owner, owner.parent()):
                assert zone.name_exists(probe) == any(
                    row.name == probe or row.name.is_strict_subdomain_of(probe)
                    for row in model.rows
                )
        # Owners enumerate in first-insertion order of the *owner*, so
        # across owners only the multiset is promised.
        flat_nsec3 = [
            (row.name, rd) for row in model.rows if row.rdtype == RdataType.NSEC3
            for rd in row.rdatas
        ]
        assert sorted(zone.nsec3_records(), key=repr) == sorted(flat_nsec3, key=repr)
        assert sorted(map(_content, zone.all_rrsets()), key=repr) == sorted(
            map(_content, model.rows), key=repr
        )


# -- denial selection against the linear walk ---------------------------------------


def linear_denial_owners(zone: Zone, qname: Name) -> list[Name]:
    """NSEC3 owners ``denial_rrsets`` must select, found the slow way:
    collect, sort, decode and walk the whole chain per question."""
    records = zone.nsec3_records()
    iterations, salt = records[0][1].iterations, records[0][1].salt
    chain = sorted(records, key=lambda pair: pair[0].labels[0].lower())
    chosen: dict[Name, NSEC3] = {}

    def pick_matching(target_hash):
        label = base32hex_encode(target_hash).lower().encode()
        for owner, rd in chain:
            if owner.labels[0].lower() == label:
                chosen[owner] = rd
                return

    def pick_covering(target_hash):
        for owner, rd in chain:
            try:
                owner_hash = base32hex_decode(owner.labels[0].decode())
            except (ValueError, UnicodeDecodeError):
                continue
            if hash_covers(owner_hash, rd.next_hash, target_hash):
                chosen[owner] = rd
                return
        chosen.setdefault(*chain[0])

    candidates = [qname]
    while candidates[-1] != zone.origin:
        candidates.append(candidates[-1].parent())
    closest = next((c for c in candidates if zone.name_exists(c)), zone.origin)
    pick_matching(nsec3_hash(closest, salt, iterations))
    if closest != qname:
        pick_covering(nsec3_hash(candidates[candidates.index(closest) - 1], salt, iterations))
        pick_covering(nsec3_hash(closest.prepend(b"*"), salt, iterations))
    return list(chosen)


def _selected(zone: Zone, qname: Name) -> list[Name]:
    return [r.name for r in zone.denial_rrsets(qname) if r.rdtype == RdataType.NSEC3]


def _probes(zone: Zone) -> list[Name]:
    origin = zone.origin
    labels = ["nx", "0", "zzzz", "a.b.c", "*", "ns1", "www.nx"]
    return [origin, *(Name.from_text(label, origin=origin) for label in labels)]


def test_denial_selection_equals_linear_walk_on_every_testbed_zone(testbed):
    closed, damaged = 0, 0
    for zone in served_zones(testbed.fabric):
        if not zone.nsec3_records():
            continue
        for qname in _probes(zone):
            assert _selected(zone, qname) == linear_denial_owners(zone, qname), (
                zone.origin, qname,
            )
        closed += zone._nsec3_chain.closed
        damaged += not zone._nsec3_chain.closed
    # bad-nsec3-hash and bad-nsec3-next are the damaged ones.
    assert closed > 30 and damaged == 2


def test_denial_selection_equals_linear_walk_on_the_wild_root(small_wild):
    zone = small_wild.root_built.zone
    probes = [Name.from_text(f"nx{n}-{n * 7919}.") for n in range(40)]
    probes += [Name.from_text("a.nic.nosuchtld."), Name.from_text("com.")]
    for qname in probes:
        assert _selected(zone, qname) == linear_denial_owners(zone, qname), qname
    assert zone._nsec3_chain.closed


def test_denial_chain_follows_zone_edits():
    builder = ZoneBuilder(ORIGIN, now=NOW, mutation=ZoneMutation(algorithm=13))
    builder.add(RRset.of(ORIGIN, RdataType.NS, NS(target=_owners[1])))
    builder.add(RRset.of(_owners[1], RdataType.A, A(address="192.0.2.1")))
    zone = builder.build().zone
    qname = Name.from_text("nx", origin=ORIGIN)
    before = _selected(zone, qname)
    assert before == linear_denial_owners(zone, qname)
    victim = before[-1]
    zone.remove(victim, RdataType.NSEC3)
    assert victim not in _selected(zone, qname)
    assert _selected(zone, qname) == linear_denial_owners(zone, qname)
    assert not zone._nsec3_chain.closed


# -- work grows with the zone, not with its square ----------------------------------


def _name_comparisons_to_build(delegations: int, monkeypatch) -> int:
    builder = ZoneBuilder(ORIGIN, now=NOW, mutation=ZoneMutation(algorithm=13))
    builder.add(RRset.of(ORIGIN, RdataType.NS, NS(target=_owners[1])))
    for index in range(delegations):
        child = Name.from_text(f"d{index}", origin=ORIGIN)
        host = Name.from_text("ns", origin=child)
        builder.add(RRset.of(child, RdataType.NS, NS(target=host)))
        builder.add(RRset.of(host, RdataType.A, A(address="192.0.2.1")))
    calls = [0]
    real = Name.__eq__

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Name, "__eq__", counting)
        built = builder.build()
    # The apex and every cut; the glue names are not represented
    # (RFC 5155 section 7.1).
    assert len(built.zone.nsec3_records()) == delegations + 1
    return calls[0]


def test_building_a_signed_zone_compares_names_linearly(monkeypatch):
    """A count, not a time: doubling the delegations must about double
    the ``Name.__eq__`` calls of build + sign (a per-owner scan of the
    zone made it 4x: 17.4 M comparisons for the 2 951-name wild root)."""
    small = _name_comparisons_to_build(1000, monkeypatch)
    large = _name_comparisons_to_build(2000, monkeypatch)
    assert large / small < 2.5, (small, large)


# -- content pins --------------------------------------------------------------------

# Sorted-content digests (tests/zone_digest.py) taken from a cold process
# at the commit before the owner-indexed store, lazy TLD apexes and the
# RSA key memo.  A store, builder or signer change that moves one has
# changed what is served, not just the order it is enumerated in.
# Re-pinned twice since, each time with the row diff classified, and
# the TLD apexes did not move either time:
# - when zones stopped signing delegation NS sets and glue (RFC 4035
#   section 2.2): the diff was those RRSIGs and the NSEC3 rows whose
#   bitmap lost RRSIG, with their signatures;
# - when the NSEC3 chain stopped representing glue and occluded names
#   (RFC 5155 section 7.1): the diff was those names' NSEC3 rows and
#   their RRSIGs, gone, and the NSEC3 rows before them in the chain,
#   whose next hash moved, with their RRSIGs.
TESTBED_DIGEST = "e5c461204fa2fa6f5349f0656869fd839c08ac74786067c0a004847f79e30fc4"
WILD_ROOT_DIGEST = "762d79e7281bb7799cc1e43e8f083565a789e257f39937779a6aab600072a069"
WILD_TLD_APEXES_DIGEST = "c0985f4f85b337663ff25ca2b71175a08b30626f6919431bf8975dbf7e0c256c"


def test_testbed_zone_content_is_pinned(testbed):
    zones = served_zones(testbed.fabric)
    assert len(zones) == 48
    assert content_digest(zones) == TESTBED_DIGEST


def test_wild_root_and_tld_apex_content_is_pinned(small_population):
    wild = WildInternet(small_population)  # own universe: reading apex_zone builds it
    assert content_digest([wild.root_built.zone]) == WILD_ROOT_DIGEST
    apexes = [server.apex_zone for server in wild.tld_servers.values()]
    assert len(apexes) == 1475
    assert content_digest(apexes) == WILD_TLD_APEXES_DIGEST


# Taken at the commit before delegations became a value derived by
# ``ZoneBuilder.delegation`` and child zones moved to the universe's one
# lazy store: what a TLD publishes for a child, and the child zone a
# hosting server builds, for every domain of two populations.  The
# delegation rows are NS names, glue owner/family/address and DS rdatas
# (``tests/zone_digest.delegation_digest``).  The replicated tiers were
# re-pinned with the testbed and the wild root when glue names left the
# NSEC3 chain; the child zones and delegations did not move.
REPLICATED_TIERS_DIGEST = "e6707cdec72fe86f89950602cf9c8ddec29b9eb3571e0dfe83a9162e232f11f7"
LEDGER_CHILD_ZONES_DIGEST = "80d09be1e98c44b8d7df6cdec55f20f8dc446ab7ab5f069a22199523ee70d198"
LEDGER_DELEGATIONS_DIGEST = "766840d0b9a09177e45a040e024fcdb9985307669f46cec169d5bd8aeafc0137"
SMALL_CHILD_ZONES_DIGEST = "d23d562561d38e35efa8b269bb0cc393091a6c9c3c4f5c582ea638802a449f6f"
SMALL_DELEGATIONS_DIGEST = "270906ce7cef665fba8e8b97a3765b4af3509f630cf6a0e763d15a63f9973d5d"


def _child_zones_and_delegations(population) -> tuple[int, str, str]:
    wild = WildInternet(population)
    zones = [wild.zone_for(domain) for domain in population.domains]
    return len(zones), content_digest(zones), delegation_digest(wild)


def test_ledger_population_child_zones_and_delegations_are_pinned():
    """The 500 domains ``perf/`` scans and serves (default seed)."""
    population = generate_population(population_config_for(500, 20230524))
    assert _child_zones_and_delegations(population) == (
        500, LEDGER_CHILD_ZONES_DIGEST, LEDGER_DELEGATIONS_DIGEST,
    )


def test_small_population_child_zones_and_delegations_are_pinned(small_population):
    assert _child_zones_and_delegations(small_population) == (
        1515, SMALL_CHILD_ZONES_DIGEST, SMALL_DELEGATIONS_DIGEST,
    )


def test_replicated_tier_zone_content_is_pinned():
    """Root, ``com`` and the parent under the default replica topology:
    one ``ns{i}``/glue pair per replica, delegated tier to tier."""
    testbed = build_testbed(topology=ReplicaTopology())
    tiers = [testbed.root_built.zone, testbed.com_built.zone, testbed.parent_built.zone]
    assert content_digest(tiers) == REPLICATED_TIERS_DIGEST


def _delegation_data(zone: Zone) -> list[RRset]:
    """What a zone must not sign (RFC 4035 section 2.2): an NS set below
    the apex, and an address set at or below such a name (glue)."""
    cuts = {
        rrset.name for rrset in zone.all_rrsets()
        if rrset.rdtype == RdataType.NS and rrset.name != zone.origin
    }

    def below_a_cut(name: Name) -> bool:
        while name != zone.origin:
            if name in cuts:
                return True
            name = name.parent()
        return False

    return [
        rrset for rrset in zone.all_rrsets()
        if (rrset.rdtype == RdataType.NS and rrset.name in cuts)
        or (rrset.rdtype in (RdataType.A, RdataType.AAAA) and below_a_cut(rrset.name))
    ]


def test_no_built_zone_signs_a_delegation_ns_set_or_glue(testbed, small_wild):
    """The builder signed all 130 such RRsets of the testbed's zones (63
    child delegations in the parent, one in com, one in the root)."""
    zones = [*served_zones(testbed.fabric), small_wild.root_built.zone]
    signed = [
        f"{rrset.name} {rrset.rdtype}"
        for zone in zones for rrset in _delegation_data(zone)
        if zone.rrsigs_for(rrset.name, rrset.rdtype) is not None
    ]
    assert signed == []


def test_nsec3_bitmaps_list_rrsig_only_where_something_is_signed(testbed, small_wild):
    """RFC 5155 section 3.2.1: the bitmap names the types at the original
    owner, so a cut holding only delegation data — an insecure cut — has
    no RRSIG bit.  A glue name has no NSEC3 at all (section 7.1)."""
    zones = [testbed.root_built.zone, testbed.com_built.zone, testbed.parent_built.zone,
             small_wild.root_built.zone]
    glue = insecure_cuts = 0
    for zone in zones:
        unsigned = {(rrset.name, rrset.rdtype) for rrset in _delegation_data(zone)}
        cuts = {rrset.name for rrset in _delegation_data(zone) if rrset.rdtype == RdataType.NS}
        by_owner = dict(zone.nsec3_records())
        param = zone.find(zone.origin, RdataType.NSEC3PARAM).rdatas[0]
        data = {
            name: [r.rdtype for r in zone.rrsets_at(name) if r.rdtype != RdataType.RRSIG]
            for name in zone.owners() if zone.find(name, RdataType.NSEC3) is None
        }
        signs = {
            name: any((name, rdtype) not in unsigned for rdtype in rdtypes)
            for name, rdtypes in data.items()
        }
        for name in data:
            digest = nsec3_hash(name, param.salt, param.iterations)
            record = by_owner.get(Name.from_text(base32hex_encode(digest), origin=zone.origin))
            if not (signs[name] or name in cuts):
                assert record is None, (zone.origin, name)
                glue += 1
                continue
            assert (int(RdataType.RRSIG) in record.types) == signs[name], (zone.origin, name)
            insecure_cuts += not signs[name]
    assert glue and insecure_cuts, (glue, insecure_cuts)


def test_second_testbed_in_a_process_reuses_keys_and_builds_the_same_bytes(
    testbed, monkeypatch
):
    """``testbed`` paid for the RSA keys (or an earlier fixture did);
    this build must find every one memoised and still produce the
    cold-process content pinned above."""
    computed = []
    generate = rsa._generate_keypair
    monkeypatch.setattr(
        rsa, "_generate_keypair", lambda *pair: computed.append(pair) or generate(*pair)
    )
    again = build_testbed()
    assert computed == []
    assert content_digest(served_zones(again.fabric)) == TESTBED_DIGEST


def test_all_rrsets_groups_by_owner_in_insertion_order():
    zone = Zone(ORIGIN)
    a, b = _owners[1], _owners[2]
    zone.add(RRset.of(a, RdataType.A, A(address="192.0.2.1")))
    zone.add(RRset.of(b, RdataType.A, A(address="192.0.2.2")))
    zone.add(RRset.of(a, RdataType.TXT, TXT(strings=(b"t",))))
    assert [(r.name, r.rdtype) for r in zone.all_rrsets()] == [
        (a, RdataType.A), (a, RdataType.TXT), (b, RdataType.A),
    ]
    zone.remove(a, RdataType.A)
    zone.remove(a, RdataType.TXT)
    zone.add(RRset.of(a, RdataType.A, A(address="192.0.2.1")))
    assert [r.name for r in zone.all_rrsets()] == [b, a]
