"""Signatures are made when first read, and that is invisible.

A zone's RRSIGs are :class:`~repro.dnssec.signer.SignatureSlot` s until
something reads them (``src/`` has no switch).  The "sign everything at
build" arm exists only here: :func:`eager_arm` reads every RRSIG set the
moment a zone is built, and every slot a TLD server hands out the moment
it does.  Three claims:

* (a) both arms serve the same bytes — the 63×7 matrix, a 500-domain
  scan's categorisation, and the fabric's datagram and byte counters;
* (b) how many signatures each step makes, pinned: a testbed or a wild
  universe builds with none, the first matrix makes what its cells read
  and the second none;
* (c) every ``SigScope`` drop and corrupt, applied to slots before any
  signature exists, leaves the zone the old order — sign everything,
  then drop or corrupt what was made — left.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from contextlib import contextmanager

import pytest

from repro.analysis.sanitizer import determinism_sanitizer
from repro.dns.dnssec_records import RRSIG
from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec import signer
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner, categorization_of
from repro.scan.wild import VirtualTldServer, WildInternet
from repro.testbed.infra import build_testbed
from repro.testbed.runner import run_matrix
from repro.zones.builder import ZoneBuilder, _corrupt
from repro.zones.mutations import SigScope, ZoneMutation

from .zone_digest import zone_rows

#: Signatures the first 63×7 matrix makes on a fresh testbed.
FIRST_MATRIX_SIGNATURES = 193


@contextmanager
def counting_signatures() -> Iterator[list[int]]:
    """Count :func:`signer.sign_rrset` calls; slots look it up by name."""
    calls = [0]
    original = signer.sign_rrset

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    signer.sign_rrset = counted
    try:
        yield calls
    finally:
        signer.sign_rrset = original


@contextmanager
def eager_arm() -> Iterator[None]:
    """Every zone reads all its RRSIG sets as it is built; every slot a
    TLD server gives out is made as it is given."""
    build, slot = ZoneBuilder.build, VirtualTldServer.signature_slot

    def eager_build(self):
        built = build(self)
        for rrset in built.zone.all_rrsets():
            rrset.rdatas
        return built

    def eager_slot(self, rrset):
        made = slot(self, rrset)
        made.made()
        return made

    ZoneBuilder.build, VirtualTldServer.signature_slot = eager_build, eager_slot
    try:
        yield
    finally:
        ZoneBuilder.build, VirtualTldServer.signature_slot = build, slot


def cells(matrix) -> dict:
    return {
        key: (cell.rcode, cell.ede_codes, cell.extra_texts)
        for key, cell in matrix.cells.items()
    }


# -- (a) lazy == eager ----------------------------------------------------------------


class TestLazyServesTheEagerBytes:
    def test_matrix(self, testbed):
        with eager_arm():
            eager_testbed = build_testbed()
        lazy_testbed = build_testbed()
        with determinism_sanitizer():
            eager = run_matrix(eager_testbed)
            lazy = run_matrix(lazy_testbed)
        assert lazy.agreement_with_paper() == 1.0
        assert cells(lazy) == cells(eager)
        assert lazy_testbed.fabric.stats == eager_testbed.fabric.stats

    def test_scan(self):
        population = generate_population(population_config_for(500))
        with eager_arm():
            eager_wild = WildInternet(population)
            with determinism_sanitizer():
                eager = WildScanner(eager_wild).scan()
        lazy_wild = WildInternet(population)
        with determinism_sanitizer():
            lazy = WildScanner(lazy_wild).scan()
        assert len(lazy.records) == 500
        assert categorization_of(lazy) == categorization_of(eager)
        assert lazy_wild.fabric.stats == eager_wild.fabric.stats


# -- (b) the counts ---------------------------------------------------------------------


class TestSignaturesMadeWhenRead:
    def test_testbed_builds_and_matrices_sign(self, testbed):
        # ``testbed`` has memoised the keys: this build only signs.
        with counting_signatures() as made, determinism_sanitizer():
            fresh = build_testbed()
            assert made[0] == 0
            run_matrix(fresh)
            assert made[0] == FIRST_MATRIX_SIGNATURES
            run_matrix(fresh)
            assert made[0] == FIRST_MATRIX_SIGNATURES

    def test_wild_universe_builds_without_signing(self, small_population):
        with counting_signatures() as made, determinism_sanitizer():
            wild = WildInternet(small_population)
        assert made[0] == 0
        stored = sum(
            len(rrset.items)
            for rrset in wild.root_built.zone.all_rrsets()
            if rrset.rdtype == RdataType.RRSIG
        )
        assert stored > 0

    def test_a_read_makes_only_what_it_covers(self):
        zone = build_zone(ZoneMutation(algorithm=13))
        with counting_signatures() as made:
            sigs = zone.rrsigs_for(ORIGIN, RdataType.SOA)
            assert [rd.type_covered for rd in sigs.rdatas] == [RdataType.SOA]
            assert made[0] == 1
            zone.rrsigs_for(ORIGIN, RdataType.SOA)
            assert made[0] == 1
            apex = zone.find(ORIGIN, RdataType.RRSIG)
            assert all(isinstance(rd, RRSIG) for rd in apex.rdatas)
            assert made[0] == len(apex.rdatas)


# -- (c) drop and corrupt act on slots --------------------------------------------------

ORIGIN = Name.from_text("lazy.test.")
NOW = 1_684_108_800


def build_zone(mutation: ZoneMutation):
    builder = ZoneBuilder(ORIGIN, now=NOW, mutation=mutation, key_seed=3)
    ns = Name.from_text("ns1", origin=ORIGIN)
    builder.add(RRset.of(ORIGIN, RdataType.NS, NS(target=ns)))
    builder.add(RRset.of(ns, RdataType.A, A(address="192.0.9.61")))
    builder.add(RRset.of(ORIGIN, RdataType.A, A(address="93.184.216.9")))
    www = Name.from_text("www", origin=ORIGIN)
    builder.add(RRset.of(www, RdataType.A, A(address="93.184.216.10")))
    return builder.build().zone


def in_scope(sig: RRSIG, owner: Name, scope: SigScope, ksk_tag: int) -> bool:
    """The scope rule as the signer-first builder applied it to made RRSIGs."""
    covered = sig.type_covered
    return {
        SigScope.ALL: True,
        SigScope.LEAF_A: covered == RdataType.A and owner == ORIGIN,
        SigScope.KSK_SIG: covered == RdataType.DNSKEY and sig.key_tag == ksk_tag,
        SigScope.DNSKEY_SIGS: covered == RdataType.DNSKEY,
        SigScope.NSEC3_SIGS: covered == RdataType.NSEC3,
    }[scope]


def signed_first_rows(mutation: ZoneMutation, drop: SigScope | None, corrupt: SigScope | None):
    """Sign everything, then drop or corrupt the made RRSIGs."""
    builder = ZoneBuilder(ORIGIN, now=NOW, mutation=mutation, key_seed=3)
    ksk_tag = builder.keys()[0].key_tag()
    zone = build_zone(mutation)
    for rrset in zone.all_rrsets():
        if rrset.rdtype != RdataType.RRSIG:
            continue
        kept = [
            rd for rd in rrset.rdatas
            if drop is None or not in_scope(rd, rrset.name, drop, ksk_tag)
        ]
        if not kept:
            zone.remove(rrset.name, RdataType.RRSIG)
            continue
        zone.replace(RRset(rrset.name, RdataType.RRSIG, rrset.ttl, rdatas=[
            dataclasses.replace(rd, signature=_corrupt(rd.signature))
            if corrupt is not None and in_scope(rd, rrset.name, corrupt, ksk_tag)
            else rd
            for rd in kept
        ]))
    return zone_rows(zone)


SCOPE_CASES = [
    pytest.param(algorithm, action, scope, id=f"{action}-{scope.value}-alg{algorithm}")
    for algorithm in (13, 8)
    for action in ("drop", "corrupt")
    for scope in SigScope
]


@pytest.mark.parametrize("algorithm, action, scope", SCOPE_CASES)
def test_mutated_slots_make_the_signed_first_rows(algorithm, action, scope):
    base = ZoneMutation(algorithm=algorithm, key_bits=1024)
    mutated = dataclasses.replace(base, **{f"{action}_sigs": scope})
    with counting_signatures() as made, determinism_sanitizer():
        zone = build_zone(mutated)
        assert made[0] == 0
        lazy = zone_rows(zone)
    expected = signed_first_rows(
        base,
        drop=scope if action == "drop" else None,
        corrupt=scope if action == "corrupt" else None,
    )
    assert lazy == expected
    assert expected != zone_rows(build_zone(base))  # the scope reached something
