"""The RFC 8914 EDE option, the IANA registry (paper Table 1), and the
rule that an option rides only on a reply to an OPT-bearing query."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.ede import (
    EDE_CATEGORIES,
    EDE_DESCRIPTIONS,
    EdeCategory,
    EdeCode,
    ExtendedError,
    POST_RFC_CODES,
    RFC8914_CODES,
    describe,
)
from repro.dns.edns import Edns, EdnsOption, OptionCode
from repro.dns.exceptions import OptionError
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.types import RdataType
from repro.net.clock import SimulatedClock
from repro.net.fabric import NetworkFabric
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.policy import LocalPolicy, PolicyAction
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import FrontendConfig, ResilientFrontend

from .authorities import make_simple_authority


class TestRegistry:
    def test_thirty_codes_registered(self):
        assert len(EDE_DESCRIPTIONS) == 30

    def test_rfc_codes_are_first_25(self):
        assert RFC8914_CODES == frozenset(EdeCode(code) for code in range(25))

    def test_post_rfc_codes(self):
        assert POST_RFC_CODES == frozenset(EdeCode(code) for code in range(25, 30))

    @pytest.mark.parametrize(
        "code,text",
        [
            (0, "Other"),
            (1, "Unsupported DNSKEY Algorithm"),
            (2, "Unsupported DS Digest Type"),
            (3, "Stale Answer"),
            (4, "Forged Answer"),
            (5, "DNSSEC Indeterminate"),
            (6, "DNSSEC Bogus"),
            (7, "Signature Expired"),
            (8, "Signature Not Yet Valid"),
            (9, "DNSKEY Missing"),
            (10, "RRSIGs Missing"),
            (11, "No Zone Key Bit Set"),
            (12, "NSEC Missing"),
            (13, "Cached Error"),
            (14, "Not Ready"),
            (15, "Blocked"),
            (16, "Censored"),
            (17, "Filtered"),
            (18, "Prohibited"),
            (19, "Stale NXDOMAIN Answer"),
            (20, "Not Authoritative"),
            (21, "Not Supported"),
            (22, "No Reachable Authority"),
            (23, "Network Error"),
            (24, "Invalid Data"),
            (25, "Signature Expired before Valid"),
            (26, "Too Early"),
            (27, "Unsupported NSEC3 Iter. Value"),
            (28, "Unable to conform to policy"),
            (29, "Synthesized"),
        ],
    )
    def test_table1_descriptions(self, code, text):
        assert describe(code) == text

    def test_unassigned_description(self):
        assert "Unassigned" in describe(4711)

    def test_paper_category_taxonomy(self):
        dnssec = {c for c, cat in EDE_CATEGORIES.items() if cat == EdeCategory.DNSSEC_VALIDATION}
        assert dnssec == {EdeCode(c) for c in (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 25, 27)}
        caching = {c for c, cat in EDE_CATEGORIES.items() if cat == EdeCategory.CACHING}
        assert caching == {EdeCode(c) for c in (3, 13, 19, 29)}
        policy = {c for c, cat in EDE_CATEGORIES.items() if cat == EdeCategory.RESOLVER_POLICY}
        assert policy == {EdeCode(c) for c in (4, 15, 16, 17, 18, 20)}
        software = {c for c, cat in EDE_CATEGORIES.items() if cat == EdeCategory.SOFTWARE_OPERATION}
        assert software == {EdeCode(c) for c in (14, 21, 22, 23)}

    def test_every_code_categorized(self):
        assert set(EDE_CATEGORIES) == set(EDE_DESCRIPTIONS)


class TestOption:
    def test_option_code_is_15(self):
        assert ExtendedError.make(6).code == 15 == OptionCode.EDE

    def test_wire_data_layout(self):
        option = ExtendedError.make(EdeCode.DNSSEC_BOGUS, "hi")
        assert option.to_wire_data() == b"\x00\x06hi"

    def test_round_trip(self):
        option = ExtendedError.make(23, "1.2.3.4:53 rcode=REFUSED")
        decoded = ExtendedError.from_wire_data(option.to_wire_data())
        assert decoded.info_code == 23
        assert decoded.extra_text == "1.2.3.4:53 rcode=REFUSED"

    def test_empty_extra_text(self):
        decoded = ExtendedError.from_wire_data(b"\x00\x09")
        assert decoded.info_code == 9
        assert decoded.extra_text == ""

    def test_trailing_nul_stripped(self):
        decoded = ExtendedError.from_wire_data(b"\x00\x03stale\x00")
        assert decoded.extra_text == "stale"

    def test_invalid_utf8_replaced(self):
        decoded = ExtendedError.from_wire_data(b"\x00\x00\xff\xfe")
        assert decoded.info_code == 0
        assert "�" in decoded.extra_text

    def test_too_short_rejected(self):
        with pytest.raises(OptionError):
            ExtendedError.from_wire_data(b"\x01")

    def test_unassigned_code_round_trips(self):
        option = ExtendedError.make(49152)
        decoded = ExtendedError.from_wire_data(option.to_wire_data())
        assert decoded.info_code == 49152
        assert decoded.known_code is None

    def test_known_code_enum(self):
        assert ExtendedError.make(6).known_code is EdeCode.DNSSEC_BOGUS

    def test_category_property(self):
        assert ExtendedError.make(6).category == EdeCategory.DNSSEC_VALIDATION
        assert ExtendedError.make(3).category == EdeCategory.CACHING

    def test_registered_with_edns_parser(self):
        option = EdnsOption.parse(OptionCode.EDE, b"\x00\x16")
        assert isinstance(option, ExtendedError)
        assert option.info_code == 22

    def test_str_rendering(self):
        assert "DNSSEC Bogus" in str(ExtendedError.make(6))
        assert "detail" in str(ExtendedError.make(6, "detail"))

    def test_extra_text_is_utf8_sized_by_option_length(self):
        """RFC 8914 section 2: EXTRA-TEXT is UTF-8, its length is
        OPTION-LENGTH's, no NUL required — the option after it parses."""
        text = "résolveur ✓"
        data = ExtendedError.make(0, text).to_wire_data()
        assert data == b"\x00\x00" + text.encode("utf-8")
        rdata = (
            (15).to_bytes(2, "big") + len(data).to_bytes(2, "big") + data
            + (65001).to_bytes(2, "big") + b"\x00\x02zz"
        )
        ede, after = Edns.from_opt_fields(1232, 0, rdata).options
        assert ede.extra_text == text
        assert (after.code, after.data) == (65001, b"zz")

    def test_invalid_utf8_in_a_message_does_not_raise(self):
        message = _with_opt()
        message.edns.options.append(EdnsOption(code=OptionCode.EDE, data=b"\x00\x06\xc3("))
        (ede,) = Message.from_wire(message.to_wire()).extended_errors
        assert ede.info_code == 6 and "\ufffd" in ede.extra_text

    def test_unassigned_code_round_trips_byte_exactly_in_a_message(self):
        message = _with_opt()
        message.add_ede(4711, "vendor-private")
        wire = message.to_wire()
        parsed = Message.from_wire(wire)
        assert parsed.to_wire() == wire
        (ede,) = parsed.extended_errors
        assert ede.known_code is None
        assert "EDE 4711 (Unassigned EDE code 4711): vendor-private" in str(parsed)

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.text(max_size=80).filter(lambda t: not t.endswith("\x00")),
    )
    def test_property_round_trip(self, code, text):
        option = ExtendedError.make(code, text)
        decoded = ExtendedError.from_wire_data(option.to_wire_data())
        assert (decoded.info_code, decoded.extra_text) == (code, text)


def _with_opt() -> Message:
    return Message.make_query("ede.test.", RdataType.A, msg_id=8914).make_response()


# -- RFC 8914 section 3 / RFC 6891 section 7: an option only with an OPT ------

CLIENT = "198.51.100.7"
UPSTREAM = "192.0.9.140"
DEAD = "192.0.9.141"  # routable, nothing listening
HOST = "192.0.9.142"
VALID = "valid.extended-dns-errors.com."
SMALL = Name.from_text("small.test.")


def _ask(endpoint, qname, edns: bool) -> Message:
    query = Message.make_query(qname, RdataType.A, use_edns=edns, msg_id=8914)
    return Message.from_wire(endpoint.handle_datagram(query.to_wire(), CLIENT))


def _resolver(testbed, **kwargs) -> RecursiveResolver:
    return RecursiveResolver(
        fabric=testbed.fabric, profile=CLOUDFLARE, root_hints=testbed.root_hints,
        trust_anchors=testbed.trust_anchors, **kwargs,
    )


def _blocking() -> LocalPolicy:
    policy = LocalPolicy()
    policy.add(VALID, PolicyAction.BLOCK, reason="blocked here")
    return policy


def _bogus(testbed) -> str:
    return testbed.cases["ds-bad-tag"].query_name


def _stale_answer(testbed, edns):
    fabric = NetworkFabric(clock=SimulatedClock())
    fabric.register(HOST, make_simple_authority(SMALL))
    resolver = RecursiveResolver(
        fabric=fabric, profile=CLOUDFLARE, root_hints=[HOST], validate=False
    )
    _ask(resolver, SMALL, edns)
    fabric.clock.advance(400)  # past the answer's 300 s TTL; then the host goes
    fabric.unregister(HOST)
    return _ask(resolver, SMALL, edns)


def _render_hit(testbed, edns):
    resolver = _resolver(testbed)
    for _ in range(3):  # resolve, keep the cache hit's reply, replay it
        reply = _ask(resolver, _bogus(testbed), edns)
    assert resolver.stats.render_hits == 1
    return reply


def _report_channel(testbed, edns):
    server = make_simple_authority(SMALL)
    server.report_agent = Name.from_text("agent.example.")
    return _ask(server, SMALL, edns)


#: Every world that attaches an EDNS option to a reply: ``(testbed,
#: edns) -> reply`` to a query with an OPT, or without one.
WORLDS = {
    "validation-failure": lambda testbed, edns: _ask(_resolver(testbed), _bogus(testbed), edns),
    "resolver-local-policy": lambda testbed, edns: _ask(
        _resolver(testbed, local_policy=_blocking()), VALID, edns
    ),
    "forwarder-local-policy": lambda testbed, edns: _ask(
        ForwardingResolver(testbed.fabric, [DEAD], local_policy=_blocking()), VALID, edns
    ),
    "frontend-rate-limit-shed": lambda testbed, edns: _ask(
        ResilientFrontend(_resolver(testbed), FrontendConfig(client_burst=0.0)), VALID, edns
    ),
    "stale-answer": _stale_answer,
    "forwarder-relay": lambda testbed, edns: _ask(
        ForwardingResolver(testbed.fabric, [UPSTREAM], annotate_forwarded=True),
        _bogus(testbed), edns,
    ),
    "forwarder-all-upstreams-down": lambda testbed, edns: _ask(
        ForwardingResolver(testbed.fabric, [DEAD], timeout=0.2), VALID, edns
    ),
    "render-hit": _render_hit,
    "authoritative-report-channel": _report_channel,
}


class TestOptionsOnlyWithOpt:
    """RFC 8914 section 3 allows EDE only in a reply to a query that
    carried an OPT, and RFC 6891 section 7 forbids the OPT itself in any
    other.  Each world answers the same question twice, with an OPT and
    without; :meth:`Message.add_option` alone keeps the second reply
    clean."""

    @pytest.fixture()
    def testbed_with_upstream(self, testbed):
        testbed.fabric.register(UPSTREAM, _resolver(testbed))
        yield testbed
        testbed.fabric.unregister(UPSTREAM)

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_an_option_iff_the_query_had_an_opt(self, testbed_with_upstream, world):
        with_opt = WORLDS[world](testbed_with_upstream, True)
        assert with_opt.edns is not None and with_opt.edns.options
        without = WORLDS[world](testbed_with_upstream, False)
        assert without.edns is None
        # EDE is supplementary: the RCODE does not depend on it.
        assert without.rcode == with_opt.rcode
