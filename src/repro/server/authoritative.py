"""Authoritative nameserver.

Serves one or more zones over the fabric: answers, referrals with glue
and DS (or the NSEC3 proof of its absence), NXDOMAIN/NODATA with denial
records, DNSSEC records when the client sets DO, and ACL enforcement.
Behaviour quirks (REFUSED-for-everything, dropped OPT, mismatched
answers…) used by the wild-scan tier live in
:mod:`repro.server.behaviors` and wrap this class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..net.endpoint import Endpoint
from ..zones.zone import LookupStatus, Zone
from .acl import Acl


@dataclass
class ServerStats:
    queries: int = 0
    refused: int = 0
    nxdomain: int = 0
    referrals: int = 0


class AuthoritativeServer(Endpoint):
    """An authoritative DNS server endpoint for the fabric."""

    def __init__(
        self,
        name: str = "ns",
        acl: Acl | None = None,
        report_agent: Name | None = None,
        allow_transfer: Acl | None = None,
    ):
        self.name = name
        self.acl = acl or Acl.any()
        #: When set, responses advertise this DNS Error Reporting agent
        #: domain via the EDNS0 Report-Channel option (RFC 9567).
        self.report_agent = report_agent
        #: Who may AXFR (RFC 5936). Registries default to nobody; the
        #: paper's .se/.nu/.ch/.li allow it.
        self.allow_transfer = allow_transfer or Acl.none()
        self._zones: dict[Name, Zone] = {}
        self.stats = ServerStats()

    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.origin] = zone

    def zones(self) -> list[Zone]:
        return list(self._zones.values())

    def find_zone(self, qname: Name) -> Zone | None:
        """Deepest zone this server is authoritative for above ``qname``.

        Walks the qname's suffixes longest-first with dict lookups
        (Name hashes and compares case-folded, the same relation
        ``is_subdomain_of`` uses), so lookup cost tracks the qname's
        label count instead of the number of hosted zones.
        """
        zones = self._zones
        if not zones:
            return None
        labels = qname.labels
        for start in range(len(labels)):
            zone = zones.get(Name(labels[start:]))
            if zone is not None:
                return zone
        return None

    # -- answer bodies (the doors are Endpoint's) ---------------------------------

    def handle_axfr(self, query: Message, source: str = "192.0.2.0") -> Message:
        """Full zone transfer (RFC 5936): SOA, everything, SOA again."""
        self.stats.queries += 1
        if not self.allow_transfer.allows(source):
            self.stats.refused += 1
            return self._reply(query, Rcode.REFUSED)
        zone = self._zones.get(query.question[0].name)
        if zone is None:
            return self._reply(query, Rcode.NOTAUTH)
        soa = zone.find(zone.origin, RdataType.SOA)
        if soa is None:
            return self._reply(query, Rcode.SERVFAIL)
        response = query.make_response(recursion_available=False)
        response.aa = True
        response.answer.append(soa)
        for rrset in zone.all_rrsets():
            if rrset.rdtype == RdataType.SOA:
                continue
            response.answer.append(rrset)
        response.answer.append(soa)
        return response

    def handle_query(self, query: Message, source: str = "192.0.2.0") -> Message | None:
        self.stats.queries += 1
        if not self.acl.allows(source):
            self.stats.refused += 1
            return self._reply(query, Rcode.REFUSED)

        question = query.question[0]
        qname, rdtype = question.name, question.rdtype
        dnssec_ok = query.edns is not None and query.edns.dnssec_ok

        zone = self.find_zone(qname)
        if zone is None:
            self.stats.refused += 1
            return self._reply(query, Rcode.REFUSED)

        response = query.make_response(recursion_available=False)
        response.aa = True
        if self.report_agent is not None:
            from ..resolver.error_reporting import ReportChannelOption

            response.add_option(ReportChannelOption.make(self.report_agent))

        result = zone.lookup(qname, rdtype)

        if result.status is LookupStatus.DELEGATION:
            self.stats.referrals += 1
            response.aa = False
            self._fill_referral(response, zone, result.node_name, dnssec_ok)
            return response

        if result.status in (LookupStatus.ANSWER, LookupStatus.CNAME):
            for rrset in result.rrsets:
                response.answer.append(rrset)
                if dnssec_ok:
                    sigs = zone.rrsigs_for(rrset.name, rrset.rdtype)
                    if sigs is None and result.node_name is not None:
                        # Wildcard synthesis: serve the wildcard's RRSIG
                        # under the synthesized owner name; only the RRSIG
                        # labels field betrays the expansion (RFC 4035).
                        sigs = zone.rrsigs_for(result.node_name, rrset.rdtype)
                        if sigs is not None:
                            sigs = replace(sigs, name=rrset.name)
                    if sigs is not None:
                        response.answer.append(sigs)
            return response

        # Negative answers
        soa = zone.find(zone.origin, RdataType.SOA)
        if soa is not None:
            response.authority.append(soa)
            if dnssec_ok:
                sigs = zone.rrsigs_for(zone.origin, RdataType.SOA)
                if sigs is not None:
                    response.authority.append(sigs)
        if result.status is LookupStatus.NXDOMAIN:
            self.stats.nxdomain += 1
            response.rcode = Rcode.NXDOMAIN
        if dnssec_ok:
            response.authority.extend(zone.denial_rrsets(qname))
        return response

    # -- helpers -------------------------------------------------------------------------

    def _fill_referral(
        self, response: Message, zone: Zone, cut: Name | None, dnssec_ok: bool
    ) -> None:
        if cut is None:
            return
        ns = zone.find(cut, RdataType.NS)
        if ns is not None:
            response.authority.append(ns)
            self._add_glue(response, zone, ns)
        ds = zone.find(cut, RdataType.DS)
        if ds is not None:
            response.authority.append(ds)
            if dnssec_ok:
                sigs = zone.rrsigs_for(cut, RdataType.DS)
                if sigs is not None:
                    response.authority.append(sigs)
        elif dnssec_ok:
            # Prove the delegation is unsigned (insecure referral proof).
            response.authority.extend(zone.denial_rrsets(cut))

    def _add_glue(self, response: Message, zone: Zone, ns_rrset: RRset) -> None:
        from ..dns.rdata import NS as NsRdata

        for rdata in ns_rrset.rdatas:
            if not isinstance(rdata, NsRdata):
                continue
            target = rdata.target
            if not target.is_subdomain_of(zone.origin):
                continue
            for glue_type in (RdataType.A, RdataType.AAAA):
                glue = zone.find(target, glue_type)
                if glue is not None:
                    response.additional.append(glue)
