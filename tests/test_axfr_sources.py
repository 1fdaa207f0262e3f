"""AXFR zone transfers and Section 4.1 input-list assembly."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.resolver.transfer import TransferError, axfr, axfr_domains
from repro.scan.sources import InputListBuilder
from repro.server.acl import Acl
from repro.testbed.infra import PARENT_SERVER

from .authorities import make_simple_authority


class TestAxfrServer:
    @pytest.fixture()
    def open_server(self, fabric):
        server = make_simple_authority(Name.from_text("open.test."))
        server.allow_transfer = Acl.any()
        fabric.register("192.0.9.30", server)
        return server

    def test_axfr_over_tcp(self, fabric, open_server):
        zone = axfr(fabric, "192.0.9.30", "open.test.")
        assert zone.origin == Name.from_text("open.test.")
        assert zone.find(zone.origin, RdataType.SOA) is not None
        assert zone.find(zone.origin, RdataType.A) is not None

    def test_axfr_soa_framing(self, open_server):
        query = Message.make_query("open.test.", RdataType.AXFR, use_edns=False)
        raw = open_server.handle_stream(query.to_wire(), "1.2.3.4")
        response = Message.from_wire(raw)
        # First record on the wire is the SOA; the closing SOA merges into
        # the same RRset under this library's grouping parse model.
        assert response.answer[0].rdtype == RdataType.SOA
        assert {r.rdtype for r in response.answer} >= {
            RdataType.SOA, RdataType.NS, RdataType.A,
        }

    def test_axfr_refused_by_default(self, fabric):
        closed = make_simple_authority(Name.from_text("closed.test."))
        fabric.register("192.0.9.31", closed)
        with pytest.raises(TransferError, match="REFUSED"):
            axfr(fabric, "192.0.9.31", "closed.test.")

    def test_axfr_refused_over_udp(self, open_server):
        query = Message.make_query("open.test.", RdataType.AXFR, use_edns=False)
        response = Message.from_wire(
            open_server.handle_datagram(query.to_wire(), "1.2.3.4")
        )
        assert response.rcode == Rcode.REFUSED

    def test_axfr_unknown_zone_notauth(self, fabric, open_server):
        with pytest.raises(TransferError, match="NOTAUTH"):
            axfr(fabric, "192.0.9.30", "other.test.")

    def test_axfr_acl_by_source(self, fabric, open_server):
        open_server.allow_transfer = Acl(prefixes=["10.0.0.0/8"])
        with pytest.raises(TransferError, match="REFUSED"):
            axfr(fabric, "192.0.9.30", "open.test.", source_ip="198.51.100.2")
        zone = axfr(fabric, "192.0.9.30", "open.test.", source_ip="10.1.2.3")
        assert len(zone) >= 3

    def test_testbed_parent_not_transferable(self, testbed):
        with pytest.raises(TransferError):
            axfr(testbed.fabric, PARENT_SERVER, "extended-dns-errors.com.")


class TestWildAxfr:
    def test_open_cctlds_flagged(self, small_population):
        flagged = sorted(
            name for name, tld in small_population.tlds.items() if tld.axfr_allowed
        )
        assert flagged == ["ch", "li", "nu", "se"]

    def test_wild_tld_transfer(self, small_wild):
        address = small_wild.tld_addresses["se"]
        zone = axfr(small_wild.fabric, address, "se.")
        expected = [
            d.name for d in small_wild.population.domains if d.tld == "se"
        ]
        assert sorted(axfr_domains(zone)) == sorted(expected)

    def test_closed_wild_tld_refuses(self, small_wild):
        address = small_wild.tld_addresses["com"]
        with pytest.raises(TransferError):
            axfr(small_wild.fabric, address, "com.")


class TestInputListAssembly:
    @pytest.fixture(scope="class")
    def input_list(self, small_wild):
        return InputListBuilder(small_wild, seed=5).build(verify_sample=16)

    def test_all_five_sources_present(self, input_list):
        assert [s.name for s in input_list.sources] == [
            "CZDS", "AXFR", "Tranco", "passive DNS", "CT logs",
        ]

    def test_funnel_shrinks(self, input_list):
        assert input_list.raw_entries > input_list.after_dedup > input_list.kept_count

    def test_ratio_near_paper(self, input_list):
        ratio = input_list.raw_entries / input_list.kept_count
        assert 1.3 < ratio < 2.0  # paper: 488/303 = 1.61

    def test_kept_covers_population(self, input_list, small_population):
        assert input_list.kept_count / len(small_population.domains) > 0.97

    def test_kept_entries_are_registered(self, input_list, small_wild):
        for entry in input_list.kept[:200]:
            assert entry in small_wild.domain_by_name

    def test_junk_filtered(self, input_list):
        assert input_list.nonexistent_dropped > 0
        assert not any(entry.startswith("expired") for entry in input_list.kept)

    def test_funnel_rendering(self, input_list):
        text = input_list.funnel()
        assert "CZDS" in text and "kept" in text
