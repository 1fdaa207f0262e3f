"""Message encode/decode: header flags, sections, EDNS, extended RCODE."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.edns import DEFAULT_PAYLOAD, Edns
from repro.dns.ede import EdeCode, ExtendedError
from repro.dns.exceptions import FormError
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, CNAME
from repro.dns.rrset import RRset
from repro.dns.types import Opcode, RdataType


def rt(message: Message) -> Message:
    return Message.from_wire(message.to_wire())


class TestHeader:
    def test_query_defaults(self):
        query = Message.make_query("example.com.")
        assert not query.qr
        assert query.rd
        assert query.opcode is Opcode.QUERY

    def test_id_round_trip(self):
        query = Message.make_query("example.com.", msg_id=0x1234)
        assert rt(query).id == 0x1234

    def test_all_flags_round_trip(self):
        message = Message(
            id=1, qr=True, aa=True, tc=False, rd=True, ra=True, ad=True, cd=True
        )
        message.question.append(Question(Name.from_text("a."), RdataType.A))
        decoded = rt(message)
        assert (decoded.qr, decoded.aa, decoded.rd, decoded.ra, decoded.ad, decoded.cd) == (
            True, True, True, True, True, True,
        )

    def test_rcode_round_trip(self):
        message = Message(id=1, qr=True, rcode=Rcode.NXDOMAIN)
        assert rt(message).rcode == Rcode.NXDOMAIN

    def test_extended_rcode_via_edns(self):
        message = Message(id=1, qr=True, rcode=Rcode.BADVERS, edns=Edns())
        decoded = rt(message)
        assert decoded.rcode == Rcode.BADVERS  # 16 needs the OPT high bits

    def test_opcode_round_trip(self):
        message = Message(id=1, opcode=Opcode.NOTIFY)
        assert rt(message).opcode is Opcode.NOTIFY

    def test_too_short_rejected(self):
        with pytest.raises(FormError):
            Message.from_wire(b"\x00" * 5)


class TestSections:
    def test_question_round_trip(self):
        query = Message.make_query("www.example.com.", RdataType.AAAA)
        decoded = rt(query)
        assert decoded.question[0].name == Name.from_text("www.example.com.")
        assert decoded.question[0].rdtype is RdataType.AAAA

    def test_answer_round_trip(self):
        message = Message(id=7, qr=True)
        message.question.append(Question(Name.from_text("a.test."), RdataType.A))
        message.answer.append(
            RRset.of(Name.from_text("a.test."), RdataType.A, A(address="192.0.2.1"), ttl=60)
        )
        decoded = rt(message)
        assert decoded.answer[0].rdatas == [A(address="192.0.2.1")]
        assert decoded.answer[0].ttl == 60

    def test_rrset_grouping_on_parse(self):
        message = Message(id=7, qr=True)
        message.question.append(Question(Name.from_text("a.test."), RdataType.A))
        rrset = RRset.of(
            Name.from_text("a.test."),
            RdataType.A,
            A(address="192.0.2.1"),
            A(address="192.0.2.2"),
        )
        message.answer.append(rrset)
        decoded = rt(message)
        assert len(decoded.answer) == 1
        assert len(decoded.answer[0]) == 2

    def test_authority_and_additional(self):
        message = Message(id=7, qr=True)
        message.authority.append(
            RRset.of(Name.from_text("test."), RdataType.NS,
                     # NS rdata
                     __import__("repro.dns.rdata", fromlist=["NS"]).NS(
                         target=Name.from_text("ns.test.")),
                     ttl=300)
        )
        message.additional.append(
            RRset.of(Name.from_text("ns.test."), RdataType.A, A(address="192.0.2.9"))
        )
        decoded = rt(message)
        assert decoded.authority[0].rdtype is RdataType.NS
        assert decoded.additional[0].rdtype is RdataType.A

    def test_find_answer(self):
        message = Message(id=1, qr=True)
        name = Name.from_text("x.test.")
        message.answer.append(RRset.of(name, RdataType.A, A(address="192.0.2.3")))
        assert message.find_answer(name, RdataType.A) is not None
        assert message.find_answer(name, RdataType.AAAA) is None

    def test_cname_in_answer(self):
        message = Message(id=1, qr=True)
        name = Name.from_text("x.test.")
        message.answer.append(
            RRset.of(name, RdataType.CNAME, CNAME(target=Name.from_text("y.test.")))
        )
        decoded = rt(message)
        assert decoded.answer[0].rdatas[0].target == Name.from_text("y.test.")


class TestEdns:
    def test_opt_round_trip(self):
        query = Message.make_query("example.com.", want_dnssec=True)
        decoded = rt(query)
        assert decoded.edns is not None
        assert decoded.edns.dnssec_ok
        assert decoded.edns.payload == DEFAULT_PAYLOAD

    def test_no_edns(self):
        query = Message.make_query("example.com.", use_edns=False, want_dnssec=False)
        assert rt(query).edns is None

    def test_double_opt_rejected(self):
        query = Message.make_query("example.com.")
        wire = bytearray(query.to_wire())
        # duplicate the OPT record bytes and bump ARCOUNT
        opt = wire[-11:]
        wire += opt
        wire[11] = 2
        with pytest.raises(FormError):
            Message.from_wire(bytes(wire))

    def test_opt_owner_must_be_root(self):
        """RFC 6891 section 6.1.2: the OPT's owner is the root name."""
        wire = Message.make_query("example.com.").to_wire()
        assert wire[-11] == 0  # the root owner
        with pytest.raises(FormError):
            Message.from_wire(wire[:-11] + b"\x01a" + wire[-11:])

    def test_make_response_echoes_edns_do(self):
        query = Message.make_query("example.com.", want_dnssec=True)
        response = query.make_response()
        assert response.qr
        assert response.edns is not None and response.edns.dnssec_ok
        assert response.id == query.id

    def test_make_response_without_edns(self):
        query = Message.make_query("example.com.", use_edns=False)
        assert query.make_response().edns is None


class TestEdeOnMessages:
    def test_add_ede_without_opt_attaches_nothing(self):
        """RFC 6891 section 7: no OPT in a reply to a query without one,
        so no option either — the one check, in ``Message``."""
        message = Message(id=1, qr=True)
        assert message.add_ede(EdeCode.STALE_ANSWER) is False
        assert message.add_option(ExtendedError.make(EdeCode.STALE_ANSWER)) is False
        assert message.edns is None and message.ede_codes == ()
        message.edns = Edns()
        assert message.add_ede(EdeCode.STALE_ANSWER) is True
        assert message.ede_codes == (3,)

    def test_ede_round_trip_with_text(self):
        message = Message(id=1, qr=True, edns=Edns())
        message.question.append(Question(Name.from_text("a."), RdataType.A))
        message.add_ede(EdeCode.NETWORK_ERROR, "1.2.3.4:53 rcode=REFUSED for a. A")
        decoded = rt(message)
        assert decoded.ede_codes == (23,)
        assert decoded.extended_errors[0].extra_text == "1.2.3.4:53 rcode=REFUSED for a. A"

    def test_multiple_ede_sorted_dedup(self):
        message = Message(id=1, qr=True, edns=Edns())
        assert [message.add_ede(code) for code in (23, 9, 22, 9)] == [True, True, True, False]
        assert message.ede_codes == (9, 22, 23)

    def test_duplicate_ede_with_same_text_dropped(self):
        message = Message(id=1, qr=True, edns=Edns())
        assert message.add_ede(22, "x") is True
        assert message.add_ede(22, "x") is False
        assert len(message.extended_errors) == 1

    def test_same_code_different_text_kept(self):
        """RFC 8914 allows several EDE options; one code may come back
        with a text per server."""
        message = Message(id=1, qr=True, edns=Edns())
        message.add_ede(23, "server a")
        message.add_ede(23, "server b")
        assert len(message.extended_errors) == 2

    def test_ede_survives_wire(self):
        message = Message(id=1, qr=True, edns=Edns())
        message.question.append(Question(Name.from_text("a."), RdataType.A))
        message.add_ede(EdeCode.DNSSEC_BOGUS)
        message.add_ede(EdeCode.NO_REACHABLE_AUTHORITY)
        assert rt(message).ede_codes == (6, 22)

    def test_three_ede_options_cost_under_200_octets(self):
        """Carrying extended errors is cheap: a one-answer response is
        under 120 octets, and three options with Cloudflare-sized
        EXTRA-TEXT add well under 200."""
        query = Message.make_query("www.extended-dns-errors.com.", want_dnssec=True)
        message = query.make_response()
        message.answer.append(
            RRset.of(message.question[0].name, RdataType.A, A(address="93.184.216.34"))
        )
        bare = len(message.to_wire())
        message.add_ede(22)
        message.add_ede(23, "185.199.0.53:53 rcode=REFUSED for www.extended-dns-errors.com. A")
        message.add_ede(22, "failed to verify an insecure referral proof")
        assert bare < 120
        assert 0 < len(message.to_wire()) - bare < 200


class TestEncodeIsPure:
    """A render writes to nothing the Message holds: wires are rendered
    late, maybe twice, and the truncated form has an ``Edns`` of its own."""

    @pytest.mark.parametrize("rcode", [Rcode.BADVERS, Rcode.NOERROR])
    def test_to_wire_leaves_message_and_edns_as_they_were(self, rcode):
        def build() -> Message:
            message = Message(id=1, qr=True, rcode=rcode, edns=Edns(dnssec_ok=True))
            message.question.append(Question(Name.from_text("pure.test."), RdataType.A))
            return message

        message, before = build(), build()
        edns = message.edns
        first = message.to_wire()
        assert message == before and message.edns is edns and edns == before.edns
        assert message.to_wire() == first == before.to_wire()
        assert message.to_wire(max_size=12) == before.truncated().to_wire()
        assert message == before
        assert message.truncated().edns is not edns

    def test_extended_bits_come_from_the_rcode_not_the_edns(self):
        # A parsed BADVERS whose rcode is then rewritten must not carry
        # the stale high bits out again.
        parsed = rt(Message(id=1, qr=True, rcode=Rcode.BADVERS, edns=Edns()))
        assert parsed.edns.extended_rcode_bits == 1
        parsed.rcode = Rcode.SERVFAIL
        assert rt(parsed).rcode == Rcode.SERVFAIL


class TestTruncation:
    def test_max_size_truncates(self):
        message = Message(id=1, qr=True)
        message.question.append(Question(Name.from_text("big.test."), RdataType.A))
        for i in range(100):
            message.answer.append(
                RRset.of(
                    Name.from_text(f"n{i}.big.test."),
                    RdataType.A,
                    A(address=f"10.0.{i // 256}.{i % 256}"),
                )
            )
        wire = message.to_wire(max_size=512)
        assert len(wire) <= 512
        decoded = Message.from_wire(wire)
        assert decoded.tc
        assert not decoded.answer


@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.booleans(),
    st.booleans(),
    st.sampled_from([Rcode.NOERROR, Rcode.SERVFAIL, Rcode.NXDOMAIN, Rcode.REFUSED]),
)
def test_property_header_round_trip(msg_id, aa, ra, rcode):
    message = Message(id=msg_id, qr=True, aa=aa, ra=ra, rcode=rcode)
    message.question.append(Question(Name.from_text("p.test."), RdataType.A))
    decoded = rt(message)
    assert (decoded.id, decoded.aa, decoded.ra, decoded.rcode) == (
        msg_id, aa, ra, rcode,
    )


@given(st.lists(st.integers(min_value=0, max_value=65535), min_size=0, max_size=6))
def test_property_ede_codes_round_trip(codes):
    message = Message(id=1, qr=True, edns=Edns())
    message.question.append(Question(Name.from_text("p.test."), RdataType.A))
    for code in codes:
        message.add_ede(code)
    assert rt(message).ede_codes == tuple(sorted(set(codes)))
