"""Forwarding resolver: EDE forwarding/annotation/generation (RFC 8914)."""

import pytest

from repro.dns.rcode import Rcode
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.chaos import ChaosPolicy
from repro.net.endpoint import Endpoint
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.policy import LocalPolicy, PolicyAction
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.stub import StubResolver

UPSTREAM_IP = "192.0.9.100"
BACKUP_IP = "192.0.9.101"


@pytest.fixture()
def upstream(testbed):
    """A Cloudflare-profile recursive resolver hosted on the testbed fabric."""
    resolver = RecursiveResolver(
        fabric=testbed.fabric, profile=CLOUDFLARE,
        root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
    )
    try:
        testbed.fabric.register(UPSTREAM_IP, resolver)
    except Exception:
        pass  # already registered by an earlier test in this session
    return resolver


@pytest.fixture()
def forwarder(testbed, upstream):
    return ForwardingResolver(fabric=testbed.fabric, upstreams=[UPSTREAM_IP])


class TestForwarding:
    def test_relays_positive_answers(self, testbed, forwarder):
        deployed = testbed.cases["valid"]
        response = forwarder.resolve(deployed.query_name, RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert response.answer

    def test_forwards_upstream_ede(self, testbed, forwarder):
        deployed = testbed.cases["ds-bad-tag"]
        response = forwarder.resolve(deployed.query_name, RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert response.ede_codes == (9,)
        assert forwarder.stats.ede_forwarded >= 1

    def test_annotation_marks_upstream(self, testbed, upstream):
        forwarder = ForwardingResolver(
            fabric=testbed.fabric, upstreams=[UPSTREAM_IP], annotate_forwarded=True
        )
        deployed = testbed.cases["allow-query-none"]
        response = forwarder.resolve(deployed.query_name, RdataType.A)
        assert response.ede_codes  # 9, 22, 23 relayed
        assert any(
            option.extra_text.startswith(f"[from {UPSTREAM_IP}]")
            for option in response.extended_errors
        )

    def test_caches_answers(self, testbed, forwarder):
        deployed = testbed.cases["valid"]
        forwarder.resolve(deployed.query_name, RdataType.A)
        sent = testbed.fabric.stats.datagrams_sent
        forwarder.resolve(deployed.query_name, RdataType.A)
        assert testbed.fabric.stats.datagrams_sent == sent

    def test_failover_to_backup(self, testbed, upstream):
        # BACKUP_IP works, the primary 192.0.9.102 does not exist.
        try:
            testbed.fabric.register(BACKUP_IP, upstream)
        except Exception:
            pass
        forwarder = ForwardingResolver(
            fabric=testbed.fabric, upstreams=["192.0.9.102", BACKUP_IP], timeout=0.2
        )
        deployed = testbed.cases["valid"]
        response = forwarder.resolve(deployed.query_name, RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert forwarder.stats.upstream_failovers == 1

    def test_all_upstreams_down_generates_own_ede(self, testbed):
        forwarder = ForwardingResolver(
            fabric=testbed.fabric, upstreams=["192.0.9.102"], timeout=0.2
        )
        response = forwarder.resolve("valid.extended-dns-errors.com.", RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert 22 in response.ede_codes and 23 in response.ede_codes
        assert forwarder.stats.upstream_exhausted == 1

    def test_stale_from_forwarder_cache(self, testbed, upstream):
        forwarder = ForwardingResolver(
            fabric=testbed.fabric, upstreams=[UPSTREAM_IP], timeout=0.2
        )
        deployed = testbed.cases["valid"]
        assert forwarder.resolve(deployed.query_name, RdataType.A).rcode == Rcode.NOERROR
        testbed.fabric.clock.advance(400)  # answer TTL expires
        forwarder.upstreams = ["192.0.9.102"]  # upstream gone
        response = forwarder.resolve(deployed.query_name, RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert 3 in response.ede_codes

    def test_local_policy_precedes_forwarding(self, testbed, upstream):
        policy = LocalPolicy()
        policy.add("valid.extended-dns-errors.com.", PolicyAction.BLOCK, reason="test")
        forwarder = ForwardingResolver(
            fabric=testbed.fabric, upstreams=[UPSTREAM_IP], local_policy=policy
        )
        sent = testbed.fabric.stats.datagrams_sent
        response = forwarder.resolve("valid.extended-dns-errors.com.", RdataType.A)
        assert response.rcode == Rcode.NXDOMAIN
        assert response.ede_codes == (15,)
        assert testbed.fabric.stats.datagrams_sent == sent

    def test_requires_upstreams(self, testbed):
        with pytest.raises(ValueError):
            ForwardingResolver(fabric=testbed.fabric, upstreams=[])

    def test_chain_stub_to_forwarder_to_recursive(self, testbed, forwarder):
        """Full three-tier chain over the fabric: stub -> forwarder ->
        recursive -> authoritative, EDE intact end to end."""
        try:
            testbed.fabric.register("192.0.9.110", forwarder)
        except Exception:
            pass
        stub = StubResolver(testbed.fabric, "192.0.9.110")
        answer = stub.query(testbed.cases["ds-bad-tag"].query_name, RdataType.A)
        assert answer.rcode == Rcode.SERVFAIL
        assert answer.ede_codes == (9,)


# -- RFC 5452 section 9.1: a reply that answers another query is no reply --------

ADDRESSES = {"one.test.": "192.0.2.1", "two.test.": "192.0.2.2"}
PRIMARY, BACKUP, RESOLVER = "192.0.9.120", "192.0.9.121", "192.0.9.122"


class _Addresser(Endpoint):
    """A resolver that answers each name in ``ADDRESSES`` with its address."""

    recursion_available = True

    def handle_query(self, query, source):
        response = query.make_response()
        name = query.question[0].name
        response.answer.append(
            RRset.of(name, RdataType.A, A(address=ADDRESSES[str(name)]))
        )
        return response


class _Garbling(ChaosPolicy):
    """Cuts every reply short of a DNS header."""

    def on_response(self, address, wire):
        return wire[:5]


class TestRepliesMustAnswerTheQuery:
    def test_forwarder_fails_over_past_another_querys_reply(self, fabric):
        """Reordering hands the forwarder the reply held for its previous
        query; relaying it would answer ``two.test.`` with ``one.test.``'s
        address.  It is no reply, so the backup is asked."""
        fabric.register(PRIMARY, _Addresser())
        fabric.register(BACKUP, _Addresser())
        fabric.install_chaos(ChaosPolicy.uniform(target=PRIMARY, reorder_rate=1.0))
        forwarder = ForwardingResolver(fabric=fabric, upstreams=[PRIMARY, BACKUP])
        for qname, address in ADDRESSES.items():
            (rrset,) = forwarder.resolve(qname, RdataType.A).answer
            assert str(rrset.name) == qname and rrset.rdatas[0].address == address
        assert fabric.chaos.stats.reordered == 1
        assert forwarder.stats.upstream_failovers == 1

    def test_stub_reports_a_bad_reply_instead_of_using_or_raising_on_it(self, fabric):
        fabric.register(RESOLVER, _Addresser())
        stub = StubResolver(fabric, RESOLVER)
        fabric.install_chaos(ChaosPolicy.uniform(reorder_rate=1.0))
        assert stub.query("one.test.").addresses == [ADDRESSES["one.test."]]
        stale = stub.query("two.test.")  # one.test.'s reply comes back
        assert (stale.transport_error, stale.rcode, stale.addresses) == ("badreply", None, [])
        fabric.install_chaos(_Garbling())
        garbled = stub.query("one.test.")
        assert (garbled.transport_error, garbled.rcode) == ("badreply", None)
