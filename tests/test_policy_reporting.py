"""Local resolver policy (RPZ-style EDEs) and DNS Error Reporting."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.clock import SimulatedClock
from repro.resolver import error_reporting
from repro.resolver.error_reporting import (
    REPORT_CHANNEL,
    ErrorReporter,
    ReportChannelOption,
    ReportingAgent,
    decode_report_qname,
    encode_report_qname,
)
from repro.resolver.policy import (
    ACTION_EDE,
    LocalPolicy,
    PolicyAction,
    spamhaus_style_feed,
)
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.server.authoritative import AuthoritativeServer
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation


class TestLocalPolicy:
    def test_no_match(self):
        policy = LocalPolicy()
        policy.add("bad.test.", PolicyAction.BLOCK)
        assert policy.evaluate(Name.from_text("good.test.")) is None

    def test_subtree_match(self):
        policy = LocalPolicy()
        policy.add("bad.test.", PolicyAction.BLOCK, reason="Malware")
        decision = policy.evaluate(Name.from_text("www.bad.test."))
        assert decision is not None
        assert decision.action is PolicyAction.BLOCK
        assert decision.rcode == Rcode.NXDOMAIN
        assert decision.rule.reason == "Malware"

    def test_longest_match_wins(self):
        policy = LocalPolicy()
        policy.add("test.", PolicyAction.FILTER)
        policy.add("ads.test.", PolicyAction.BLOCK)
        assert policy.evaluate(Name.from_text("x.ads.test.")).action is PolicyAction.BLOCK
        assert policy.evaluate(Name.from_text("other.test.")).action is PolicyAction.FILTER

    def test_action_rcodes(self):
        policy = LocalPolicy()
        for action, rcode in (
            (PolicyAction.BLOCK, Rcode.NXDOMAIN),
            (PolicyAction.CENSOR, Rcode.NXDOMAIN),
            (PolicyAction.FILTER, Rcode.NXDOMAIN),
            (PolicyAction.PROHIBIT, Rcode.REFUSED),
            (PolicyAction.FORGE, Rcode.NOERROR),
        ):
            policy = LocalPolicy()
            policy.add("x.test.", action)
            assert policy.evaluate(Name.from_text("x.test.")).rcode == rcode

    def test_action_ede_codes(self):
        assert ACTION_EDE[PolicyAction.BLOCK] == 15
        assert ACTION_EDE[PolicyAction.CENSOR] == 16
        assert ACTION_EDE[PolicyAction.FILTER] == 17
        assert ACTION_EDE[PolicyAction.PROHIBIT] == 18
        assert ACTION_EDE[PolicyAction.FORGE] == 4

    def test_forge_address_validated(self):
        policy = LocalPolicy()
        with pytest.raises(ValueError):
            policy.add("x.test.", PolicyAction.FORGE, forged_address="nonsense")

    def test_spamhaus_feed(self):
        policy = spamhaus_style_feed({"evil.test.": "Malware", "spam.test.": "Botnet C&C"})
        assert len(policy) == 2
        decision = policy.evaluate(Name.from_text("evil.test."))
        assert decision.rule.reason == "Malware"

    def test_stats(self):
        policy = LocalPolicy()
        policy.add("bad.test.", PolicyAction.BLOCK)
        policy.evaluate(Name.from_text("bad.test."))
        policy.evaluate(Name.from_text("good.test."))
        assert policy.evaluations == 2 and policy.hits == 1


class TestPolicyInResolver:
    @pytest.fixture()
    def resolver(self, fabric):
        policy = LocalPolicy()
        policy.add("blocked.test.", PolicyAction.BLOCK, reason="Malware")
        policy.add("walled.test.", PolicyAction.FORGE, forged_address="192.0.2.200")
        policy.add("noclient.test.", PolicyAction.PROHIBIT)
        return RecursiveResolver(
            fabric=fabric, profile=CLOUDFLARE, root_hints=["192.0.9.1"],
            validate=False, local_policy=policy,
        )

    def test_blocked_query(self, resolver):
        response = resolver.resolve("www.blocked.test.", RdataType.A)
        assert response.rcode == Rcode.NXDOMAIN
        assert response.ede_codes == (15,)
        assert response.extended_errors[0].extra_text == "Malware"

    def test_forged_answer(self, resolver):
        response = resolver.resolve("walled.test.", RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert response.ede_codes == (4,)
        rrset = response.find_answer(Name.from_text("walled.test."), RdataType.A)
        assert rrset.rdatas == [A(address="192.0.2.200")]

    def test_prohibited(self, resolver):
        response = resolver.resolve("noclient.test.", RdataType.A)
        assert response.rcode == Rcode.REFUSED
        assert response.ede_codes == (18,)

    def test_policy_never_touches_network(self, resolver, fabric):
        resolver.resolve("www.blocked.test.", RdataType.A)
        assert fabric.stats.datagrams_sent == 0

    def test_profile_without_policy_codes_stays_silent(self, fabric):
        import dataclasses

        quiet_policy = dataclasses.replace(
            CLOUDFLARE.policy, policy_codes=frozenset()
        )
        profile = dataclasses.replace(CLOUDFLARE, policy=quiet_policy)
        local = LocalPolicy()
        local.add("blocked.test.", PolicyAction.BLOCK)
        resolver = RecursiveResolver(
            fabric=fabric, profile=profile, root_hints=["192.0.9.1"],
            validate=False, local_policy=local,
        )
        response = resolver.resolve("blocked.test.", RdataType.A)
        assert response.rcode == Rcode.NXDOMAIN
        assert response.ede_codes == ()


class TestReportQnameCodec:
    AGENT = Name.from_text("agent.example.")

    def test_encode_shape(self):
        name = encode_report_qname(
            Name.from_text("broken.test."), RdataType.A, 7, self.AGENT
        )
        assert str(name) == "_er.1.broken.test.7._er.agent.example."

    def test_round_trip(self):
        qname = Name.from_text("www.broken.test.")
        encoded = encode_report_qname(qname, RdataType.AAAA, 22, self.AGENT)
        decoded = decode_report_qname(encoded, self.AGENT)
        assert decoded is not None
        assert decoded.qname == qname
        assert decoded.rdtype == int(RdataType.AAAA)
        assert decoded.info_code == 22

    def test_decode_rejects_foreign_name(self):
        assert decode_report_qname(Name.from_text("x.other."), self.AGENT) is None

    def test_decode_rejects_malformed(self):
        for text in ("_er.nonsense._er", "_er.1.7._er", "a.b.c"):
            name = Name.from_text(text, origin=self.AGENT)
            assert decode_report_qname(name, self.AGENT) is None

    def test_option_round_trip(self):
        option = ReportChannelOption.make("agent.example.")
        decoded = ReportChannelOption.from_wire_data(option.to_wire_data())
        assert decoded.agent_domain == self.AGENT
        assert decoded.code == REPORT_CHANNEL


class TestReporterDedup:
    def test_dedup_window(self):
        clock = SimulatedClock(start=0)
        reporter = ErrorReporter(clock, dedup_window=100)
        qname = Name.from_text("x.test.")
        agent = Name.from_text("agent.example.")
        assert reporter.should_report(qname, RdataType.A, 7, agent)
        assert not reporter.should_report(qname, RdataType.A, 7, agent)
        assert reporter.stats.suppressed_duplicates == 1
        clock.advance(101)
        assert reporter.should_report(qname, RdataType.A, 7, agent)

    def test_dedup_memory_is_bounded(self, monkeypatch):
        """One entry per distinct failure used to live for the life of
        the process; now it goes when its window closes or room is needed."""
        monkeypatch.setattr(error_reporting, "DEDUP_CAPACITY", 16)
        clock = SimulatedClock(start=0)
        reporter = ErrorReporter(clock, dedup_window=100)
        agent = Name.from_text("agent.example.")
        for batch in range(3):
            for i in range(16):
                qname = Name.from_text(f"f{batch}-{i}.test.")
                assert reporter.should_report(qname, RdataType.A, 22, agent)
                assert len(reporter._recent) <= 16
            clock.advance(101)
        assert reporter._recent.expired > 0
        assert reporter.stats.suppressed_duplicates == 0

    def test_distinct_failures_not_deduped(self):
        reporter = ErrorReporter(SimulatedClock(start=0))
        qname = Name.from_text("x.test.")
        agent = Name.from_text("agent.example.")
        assert reporter.should_report(qname, RdataType.A, 7, agent)
        assert reporter.should_report(qname, RdataType.A, 9, agent)
        assert reporter.should_report(qname, RdataType.AAAA, 7, agent)


class TestReportingAgentServer:
    def test_collects_reports(self):
        clock = SimulatedClock()
        agent = ReportingAgent("agent.example.", clock)
        report_name = encode_report_qname(
            Name.from_text("broken.test."), RdataType.A, 7,
            Name.from_text("agent.example."),
        )
        query = Message.make_query(report_name, RdataType.TXT)
        response = Message.from_wire(agent.handle_datagram(query.to_wire(), "1.2.3.4"))
        assert response.rcode == Rcode.NOERROR
        assert len(agent.reports) == 1
        record = agent.reports[0]
        assert record.qname == Name.from_text("broken.test.")
        assert record.info_code == 7
        assert record.reporter == "1.2.3.4"

    def test_malformed_gets_nxdomain(self):
        agent = ReportingAgent("agent.example.", SimulatedClock())
        query = Message.make_query("junk.agent.example.", RdataType.TXT)
        response = agent.handle_query(query)
        assert response.rcode == Rcode.NXDOMAIN
        assert agent.malformed == 1

    def test_reports_by_code(self):
        clock = SimulatedClock()
        agent = ReportingAgent("agent.example.", clock)
        for code in (7, 7, 9):
            name = encode_report_qname(
                Name.from_text("b.test."), RdataType.A, code,
                Name.from_text("agent.example."),
            )
            agent.handle_query(Message.make_query(name, RdataType.TXT))
        assert agent.reports_by_code() == {7: 2, 9: 1}


class TestEndToEndErrorReporting:
    """Resolver hits a broken zone whose TLD advertises a report channel;
    the monitoring agent must receive the EDE report."""

    ROOT_IP, TLD_IP, DOM_IP, AGENT_IP = (
        "192.0.9.1", "192.0.9.2", "192.0.9.3", "192.0.9.4",
    )

    @pytest.fixture()
    def world(self, fabric):
        now = int(fabric.clock.now())
        test_name = Name.from_text("test.")
        domain = Name.from_text("broken.test.")
        agent_domain = Name.from_text("agent.test.")

        def zone(origin, ns_ip, extra=()):
            builder = ZoneBuilder(
                origin, now=now, mutation=ZoneMutation(algorithm=13, signed=False)
            )
            ns = Name.from_text("ns1", origin=origin)
            builder.add(RRset.of(origin, RdataType.NS, NS(target=ns)))
            builder.add(RRset.of(ns, RdataType.A, A(address=ns_ip)))
            builder.ensure_soa()
            for rrset in extra:
                builder.add(rrset)
            return builder.build().zone

        # TLD advertises the reporting agent and delegates both children.
        tld_server = AuthoritativeServer("ns1.test", report_agent=agent_domain)
        tld_server.add_zone(zone(test_name, self.TLD_IP, extra=[
            RRset.of(domain, RdataType.NS, NS(target=Name.from_text("ns1.broken.test."))),
            RRset.of(Name.from_text("ns1.broken.test."), RdataType.A, A(address=self.DOM_IP)),
            RRset.of(agent_domain, RdataType.NS, NS(target=Name.from_text("ns1.agent.test."))),
            RRset.of(Name.from_text("ns1.agent.test."), RdataType.A, A(address=self.AGENT_IP)),
        ]))
        fabric.register(self.TLD_IP, tld_server)

        root_server = AuthoritativeServer("root")
        root_server.add_zone(zone(Name.root(), self.ROOT_IP, extra=[
            RRset.of(test_name, RdataType.NS, NS(target=Name.from_text("ns1.test."))),
            RRset.of(Name.from_text("ns1.test."), RdataType.A, A(address=self.TLD_IP)),
        ]))
        fabric.register(self.ROOT_IP, root_server)

        agent = ReportingAgent(agent_domain, fabric.clock)
        fabric.register(self.AGENT_IP, agent)
        # broken.test. has no server at DOM_IP: queries time out.
        return agent

    def test_report_reaches_agent(self, fabric, world):
        resolver = RecursiveResolver(
            fabric=fabric, profile=CLOUDFLARE, root_hints=[self.ROOT_IP],
            validate=False, error_reporting=True,
        )
        response = resolver.resolve("broken.test.", RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert 22 in response.ede_codes
        assert world.reports, "agent received no report"
        codes = {record.info_code for record in world.reports}
        assert codes <= set(response.ede_codes)
        assert all(r.qname == Name.from_text("broken.test.") for r in world.reports)
        assert resolver.reporter.stats.reports_sent == len(world.reports)

    def test_repeat_failure_deduplicated(self, fabric, world):
        resolver = RecursiveResolver(
            fabric=fabric, profile=CLOUDFLARE, root_hints=[self.ROOT_IP],
            validate=False, error_reporting=True,
        )
        resolver.resolve("broken.test.", RdataType.A)
        first = len(world.reports)
        resolver.cache.flush()
        resolver.resolve("broken.test.", RdataType.A)
        assert len(world.reports) == first
        assert resolver.reporter.stats.suppressed_duplicates >= 1

    def test_no_reporting_without_optin(self, fabric, world):
        resolver = RecursiveResolver(
            fabric=fabric, profile=CLOUDFLARE, root_hints=[self.ROOT_IP],
            validate=False, error_reporting=False,
        )
        resolver.resolve("broken.test.", RdataType.A)
        assert world.reports == []
