"""Public API surface: reprs, stats objects, small helpers.

These pin behaviours users script against (string renderings, stats
counters, convenience helpers) so refactors cannot silently change
them.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dns.ede import ExtendedError
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.rrset import RRset, find_rrset
from repro.dns.types import RdataType
from repro.dnssec.trace import (
    EventRecord,
    FailureReason,
    ResolutionEvent,
    ResolutionOutcome,
    Role,
    ValidationTrace,
)


class TestStringRenderings:
    def test_question_str(self):
        question = Question(Name.from_text("a.test."), RdataType.AAAA)
        assert str(question) == "a.test. IN AAAA"

    def test_rrset_to_text_lines(self):
        rrset = RRset.of(
            Name.from_text("a.test."), RdataType.A,
            A(address="192.0.2.1"), A(address="192.0.2.2"), ttl=60,
        )
        lines = rrset.to_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "a.test. 60 IN A 192.0.2.1"

    def test_message_str_sections(self):
        message = Message.make_query("a.test.", RdataType.A, msg_id=7)
        message.qr = True
        message.answer.append(
            RRset.of(Name.from_text("a.test."), RdataType.A, A(address="192.0.2.1"))
        )
        message.add_ede(22)
        text = str(message)
        assert ";; QUESTION" in text
        assert ";; ANSWER" in text
        assert "No Reachable Authority" in text

    def test_event_record_str(self):
        record = EventRecord(
            ResolutionEvent.SERVER_REFUSED, server="1.2.3.4:53",
            qname=Name.from_text("x.test."), detail="rcode=REFUSED",
        )
        text = str(record)
        assert "SERVER_REFUSED" in text and "1.2.3.4:53" in text

    def test_ede_option_str_without_text(self):
        assert str(ExtendedError.make(9)) == "EDE 9 (DNSKEY Missing)"

    def test_zone_repr(self):
        from repro.zones.zone import Zone

        zone = Zone(Name.from_text("r.test."))
        assert "r.test." in repr(zone)

    def test_name_repr(self):
        assert repr(Name.from_text("x.test.")) == "<Name x.test.>"


class TestTraceHelpers:
    def test_secure_factory(self):
        trace = ValidationTrace.secure()
        assert trace.is_secure and not trace.is_bogus

    def test_bogus_factory(self):
        trace = ValidationTrace.bogus(FailureReason.ZSK_MISSING, Role.LEAF)
        assert trace.is_bogus
        assert trace.reason is FailureReason.ZSK_MISSING

    def test_outcome_event_queries(self):
        outcome = ResolutionOutcome()
        outcome.events.append(EventRecord(ResolutionEvent.SERVER_TIMEOUT))
        outcome.events.append(EventRecord(ResolutionEvent.ALL_SERVERS_FAILED))
        assert outcome.has_event(ResolutionEvent.SERVER_TIMEOUT)
        assert not outcome.has_event(ResolutionEvent.SERVER_REFUSED)
        assert len(outcome.events_of(
            ResolutionEvent.SERVER_TIMEOUT, ResolutionEvent.ALL_SERVERS_FAILED
        )) == 2


class TestRRsetHelpers:
    def test_find_rrset(self):
        rrsets = [
            RRset.of(Name.from_text("a.test."), RdataType.A, A(address="192.0.2.1")),
            RRset.of(Name.from_text("b.test."), RdataType.A, A(address="192.0.2.2")),
        ]
        found = find_rrset(rrsets, Name.from_text("b.test."), RdataType.A)
        assert found is rrsets[1]
        assert find_rrset(rrsets, Name.from_text("c.test."), RdataType.A) is None

    def test_of_deduplicates(self):
        rrset = RRset.of(Name.from_text("x.test."), RdataType.A,
                         A(address="192.0.2.1"), A(address="192.0.2.1"))
        assert len(rrset) == 1 and rrset.rdatas == (A(address="192.0.2.1"),)

    @pytest.mark.parametrize("field, value", [
        ("name", Name.from_text("y.test.")),
        ("ttl", 5),
        ("rdatas", ()),
    ])
    def test_fields_are_frozen(self, field, value):
        rrset = RRset.of(Name.from_text("x.test."), RdataType.A, A(address="192.0.2.1"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rrset, field, value)
        assert rrset.ttl == 300 and len(rrset) == 1


class TestStatsObjects:
    def test_resolver_stats_progression(self, testbed):
        from repro.resolver.profiles import UNBOUND
        from repro.resolver.recursive import RecursiveResolver

        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=UNBOUND,
            root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
        )
        resolver.resolve(testbed.cases["valid"].query_name, RdataType.A)
        resolver.resolve(testbed.cases["rrsig-exp-all"].query_name, RdataType.A)
        stats = resolver.stats
        assert stats.queries == 2
        assert stats.validated_secure >= 1
        assert stats.validated_bogus >= 1
        assert stats.servfail >= 1
        assert stats.with_ede >= 1

    def test_server_stats(self, testbed):
        # Root server has been hammered by the session's experiments.
        root = testbed.fabric._endpoints[(testbed.root_hints[0], 53)]
        assert root.stats.queries > 0
        assert root.stats.referrals > 0

    def test_cache_len(self):
        from repro.net.clock import SimulatedClock
        from repro.resolver.cache import ResolverCache

        cache = ResolverCache(SimulatedClock())
        assert len(cache) == 0


class TestProfilesSurface:
    def test_service_addresses(self):
        from repro.resolver.profiles import CLOUDFLARE, OPENDNS, QUAD9

        assert CLOUDFLARE.service_address == "1.1.1.1"
        assert QUAD9.service_address == "9.9.9.9"
        assert OPENDNS.service_address == "208.67.222.222"

    def test_profile_names_match_paper_versions(self):
        from repro.resolver.profiles import ALL_PROFILES

        names = {p.name for p in ALL_PROFILES}
        assert "BIND 9.19.9" in names
        assert "Unbound 1.16.2" in names
        assert "PowerDNS Recursor 4.8.2" in names
        assert "Knot Resolver 5.6.0" in names


def test_in_process_packages_import_no_socket_stack():
    """asyncio and ssl belong to ``repro.net.udp``: a run that never
    binds a socket (scan, testbed, load, cluster) does not import them."""
    code = (
        "import sys, repro.scan, repro.testbed, repro.load, repro.cluster; "
        "print(sorted({'asyncio', 'ssl'} & set(sys.modules)))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"
