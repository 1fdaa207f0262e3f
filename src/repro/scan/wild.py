"""The simulated wild Internet for the Section 4 scan.

Three server tiers keep a 300k-domain universe tractable:

* a real signed **root zone** delegating to every TLD;
* one :class:`VirtualTldServer` per TLD — a real signed apex zone (with
  a single wrap-around *opt-out* NSEC3 covering all children, like
  ``com`` does in reality), built and signed on the first query that
  reads it, plus referral/DS answers synthesized straight from the
  population table, so a 100k-delegation TLD costs a few kilobytes
  instead of gigabytes;
* **hosting servers** — ordinary authoritative servers whose zones come
  from the universe's one lazy store, each child zone built on the
  first query for it — plus a handful of special endpoints (REFUSED/
  SERVFAIL/timeout pools, mismatched-question, NOTAUTH, stale-flipping
  and CNAME-loop hosts).

Everything the resolver observes — referrals, DS records and their
signatures, opt-out denials, DNSKEY RRsets, pathologies — is exactly
what the corresponding real-world configuration would produce.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

from ..dns.dnssec_records import DS, NSEC3
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.rdata import A, CNAME, NS
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dnssec.algorithms import Algorithm
from ..dnssec.ds import make_ds
from ..dnssec.nsec3 import base32hex_encode, nsec3_hash
from ..dnssec.signer import SignatureSlot, SigningPolicy
from ..net.endpoint import Endpoint
from ..net.fabric import NetworkFabric
from ..server.authoritative import AuthoritativeServer
from ..zones.builder import BuiltZone, Delegation, ZoneBuilder, address_rrset
from ..zones.mutations import SigScope, Window, ZoneMutation
from ..zones.zone import Zone
from .population import Population, Profile, WildDomain

#: Wild-tier zones sign with ECDSA P-256 (algorithm 13) — the dominant
#: modern choice, and (via the simulated crypto backend) about three
#: orders of magnitude cheaper than pure-Python RSA at this scale.
WILD_ALGORITHM = int(Algorithm.ECDSAP256SHA256)

ROOT_SERVER = "199.7.83.42"
MISMATCH_HOST = "46.0.0.1"
NOTAUTH_HOST = "46.0.0.2"
STALE_HOST = "46.0.0.3"
LOOP_HOST = "46.0.0.4"

#: Built child zones a universe keeps before dropping the older half (a
#: dropped zone is rebuilt, identically, on its next query).
MAX_CACHED_ZONES = 4096


def _domain_seed(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:6], "big")


def tld_server_address(index: int) -> str:
    return f"43.{(index >> 8) & 0xFF}.{index & 0xFF}.1"


def hosting_address(index: int) -> str:
    return f"45.{(index >> 8) & 0xFF}.{index & 0xFF}.1"


#: The mutation every wild apex — the root and each TLD — is built with.
#: One instance serves them all: a :class:`ZoneBuilder` never writes to
#: its mutation.
_APEX_MUTATION = ZoneMutation(algorithm=WILD_ALGORITHM, nsec3_iterations=0, nsec3_salt=b"")


def _tld_nameserver(origin: Name) -> Name:
    return Name.from_text("a.nic", origin=origin)


def _tld_key_builder(origin: Name, index: int, now: int) -> ZoneBuilder:
    """TLD number ``index``'s builder with no records: its keys, and so
    the DS the root publishes for it.  A pure function of its arguments,
    so that DS matches the keys of every other builder of the TLD."""
    return ZoneBuilder(origin, now=now, mutation=_APEX_MUTATION, key_seed=100 + index)


def _tld_apex_builder(origin: Name, index: int, now: int) -> ZoneBuilder:
    """TLD number ``index``'s apex builder, loaded but not built."""
    builder = _tld_key_builder(origin, index, now)
    ns_name = _tld_nameserver(origin)
    builder.add(RRset.of(origin, RdataType.NS, NS(target=ns_name), ttl=300))
    builder.add(address_rrset(ns_name, tld_server_address(index)))
    return builder


# ---------------------------------------------------------------------------
# per-domain configuration derived from the profile
# ---------------------------------------------------------------------------


def domain_mutation(domain: WildDomain) -> ZoneMutation:
    """The zone mutation that realizes ``domain.profile``."""
    seed = _domain_seed(domain.name)
    base = ZoneMutation(algorithm=WILD_ALGORITHM, nsec3_iterations=0, nsec3_salt=b"")
    profile = domain.profile
    if profile in (Profile.VALID_SIGNED,):
        return base
    if profile is Profile.STANDBY_KSK:
        base.add_standby_ksk = True
        return base
    if profile is Profile.DNSKEY_MISSING:
        base.ds_tag_offset = 1
        return base
    if profile is Profile.BOGUS:
        base.corrupt_sigs = SigScope.DNSKEY_SIGS
        return base
    if profile is Profile.UNSUPPORTED_ALGO:
        variant = seed % 4
        if variant == 0:
            base.algorithm = int(Algorithm.ED448)
        elif variant == 1:
            base.algorithm = int(Algorithm.ECC_GOST)
        elif variant == 2:
            base.algorithm = int(Algorithm.DSA)
        else:
            base.algorithm = int(Algorithm.RSASHA256)
            base.key_bits = 512  # "unsupported key size"
        return base
    if profile is Profile.SIG_EXPIRED:
        base.window_all = Window.EXPIRED
        return base
    if profile is Profile.SIG_NOT_YET:
        base.window_all = Window.NOT_YET_VALID
        return base
    if profile is Profile.DS_DIGEST:
        base.ds_digest_type_override = 100 if seed % 8 == 0 else 3  # GOST mostly
        return base
    # Everything else is unsigned at the zone level; the damage is
    # transport- or parent-side.
    base.signed = False
    return base


# ---------------------------------------------------------------------------
# virtual TLD server
# ---------------------------------------------------------------------------


class VirtualTldServer(Endpoint):
    """Serves one TLD: real signed apex, synthesized delegations.

    The apex builder (:func:`_tld_apex_builder` of the TLD's ``index``) is
    made on first use: the keys, for the first signature slot given out
    here (a child's DS, the opt-out NSEC3), the zone for the first query
    that reads :attr:`apex_zone`.  Every signature is made when first
    served.  Most TLDs of a universe host no queried domain and never
    make theirs.
    """

    def __init__(
        self,
        wild: "WildInternet",
        tld_name: str,
        index: int,
        broken_denial: bool,
        now: int,
        axfr_allowed: bool = False,
    ):
        self.wild = wild
        self.tld = tld_name
        self.origin = Name.from_text(tld_name + ".")
        self.index = index
        self._apex: ZoneBuilder | None = None
        self._apex_zone: Zone | None = None
        self.broken_denial = broken_denial
        self.now = now
        self.axfr_allowed = axfr_allowed
        self._policy = SigningPolicy.window(now)
        self.queries = 0
        self.transfers = 0

    def _builder(self) -> ZoneBuilder:
        if self._apex is None:
            self._apex = _tld_apex_builder(self.origin, self.index, self.now)
        return self._apex

    @property
    def ksk(self):
        return self._builder().keys()[0]

    @property
    def zsk(self):
        return self._builder().keys()[1]

    def signature_slot(self, rrset: RRset) -> SignatureSlot:
        """This TLD's signature over ``rrset``, made when first read."""
        return SignatureSlot(rrset, self.zsk, self.origin, self._policy)

    @property
    def apex_zone(self) -> Zone:
        if self._apex_zone is None:
            self._apex_zone = self._builder().build().zone
        return self._apex_zone

    # -- answer bodies (the doors are Endpoint's) -------------------------------

    def handle_axfr(self, query: Message, source: str = "192.0.2.0") -> Message:
        """Serve the full TLD zone, synthesized from the population."""
        if not self.axfr_allowed or query.question[0].name != self.origin:
            return self._reply(query, Rcode.REFUSED)
        self.transfers += 1
        response = query.make_response(recursion_available=False)
        response.aa = True
        soa = self.apex_zone.find(self.origin, RdataType.SOA)
        response.answer.append(soa.copy())
        for rrset in self.apex_zone.all_rrsets():
            if rrset.rdtype in (RdataType.SOA, RdataType.NSEC3, RdataType.RRSIG):
                continue
            response.answer.append(rrset.copy())
        for domain in self.wild.population.domains:
            if domain.tld != self.tld:
                continue
            delegation = self.wild.delegation_for(domain)
            response.answer.append(delegation.ns.copy())
            if delegation.ds is not None:
                response.answer.append(delegation.ds.copy())
        response.answer.append(soa.copy())
        return response

    def handle_query(self, query: Message, source: str = "192.0.2.0") -> Message:
        self.queries += 1
        response = query.make_response(recursion_available=False)
        question = query.question[0]
        qname, rdtype = question.name, question.rdtype
        dnssec_ok = query.edns is not None and query.edns.dnssec_ok

        if qname == self.origin:
            return self._apex_answer(response, qname, rdtype, dnssec_ok)

        child = self._child_zone_of(qname)
        domain = None if child is None else self.wild.domain_by_owner.get(child)
        if domain is None:
            response.aa = True
            response.rcode = Rcode.NXDOMAIN
            self._add_negative(response, dnssec_ok)
            return response

        delegation = self.wild.delegation_for(domain)
        if qname == child and rdtype == RdataType.DS:
            response.aa = True
            if not self._add_ds(response.answer, delegation, dnssec_ok):
                self._add_negative(response, dnssec_ok)
            return response

        # Referral to the child.
        response.authority.append(delegation.ns.copy())
        if not self._add_ds(response.authority, delegation, dnssec_ok) and dnssec_ok:
            self._add_optout_denial(response)
        response.additional.extend(glue.copy() for glue in delegation.glue)
        return response

    # -- helpers ---------------------------------------------------------------------

    def _add_ds(
        self, section: list[RRset], delegation: Delegation, dnssec_ok: bool
    ) -> bool:
        """Append the child's DS set, and its RRSIG for a DO query, to
        ``section``; False when the delegation is insecure."""
        ds_rrset = delegation.ds
        if ds_rrset is None:
            return False
        section.append(ds_rrset.copy())
        if dnssec_ok:
            assert delegation.ds_sig is not None
            section.append(
                RRset.of(ds_rrset.name, RdataType.RRSIG, delegation.ds_sig.made(), ttl=300)
            )
        return True

    def _child_zone_of(self, qname: Name) -> Name | None:
        """The registered-domain cut for ``qname`` (one label below TLD)."""
        if not qname.is_strict_subdomain_of(self.origin):
            return None
        extra = qname.label_count() - self.origin.label_count()
        if extra < 1:
            return None
        _prefix, child = qname.split(self.origin.label_count() + 1)
        return child

    def _apex_answer(
        self, response: Message, qname: Name, rdtype: RdataType, dnssec_ok: bool
    ) -> Message:
        response.aa = True
        rrset = self.apex_zone.find(qname, rdtype)
        if rrset is not None:
            response.answer.append(rrset.copy())
            if dnssec_ok:
                sigs = self.apex_zone.rrsigs_for(qname, rdtype)
                if sigs is not None:
                    response.answer.append(sigs.copy())
        else:
            self._add_negative(response, dnssec_ok)
        return response

    def _add_negative(self, response: Message, dnssec_ok: bool) -> None:
        soa = self.apex_zone.find(self.origin, RdataType.SOA)
        if soa is not None:
            response.authority.append(soa.copy())
            if dnssec_ok:
                sigs = self.apex_zone.rrsigs_for(self.origin, RdataType.SOA)
                if sigs is not None:
                    response.authority.append(sigs.copy())
        if dnssec_ok:
            self._add_optout_denial(response)

    @functools.cached_property
    def _optout(self) -> SignatureSlot:
        """One wrap-around opt-out NSEC3 covers every unsigned child: the
        slot of its signature, which holds the record itself."""
        apex_hash = nsec3_hash(self.origin, b"", 0)
        owner = Name.from_text(base32hex_encode(apex_hash), origin=self.origin)
        nsec3 = NSEC3(
            hash_algorithm=1,
            flags=0x01,  # opt-out
            iterations=0,
            salt=b"",
            next_hash=apex_hash,
            types=(int(RdataType.NS), int(RdataType.SOA), int(RdataType.DNSKEY)),
        )
        return self.signature_slot(RRset.of(owner, RdataType.NSEC3, nsec3, ttl=300))

    def _add_optout_denial(self, response: Message) -> None:
        slot = self._optout
        response.authority.append(slot.rrset.copy())
        if not self.broken_denial:
            response.authority.append(
                RRset.of(slot.rrset.name, RdataType.RRSIG, slot.made(), ttl=300)
            )


# ---------------------------------------------------------------------------
# hosting servers
# ---------------------------------------------------------------------------


class HostingServer(AuthoritativeServer):
    """An authoritative server for every child zone of the universe:
    ``find_zone`` reads the one lazy store (:meth:`WildInternet.zone_for`),
    which builds a zone on the first query for it."""

    def __init__(self, wild: "WildInternet"):
        super().__init__(name="hosting")
        self.wild = wild

    def find_zone(self, qname: Name) -> Zone | None:
        domain = self.wild.registered_domain_of(qname)
        return None if domain is None else self.wild.zone_for(domain)


class StaleFlippingServer(HostingServer):
    """Answers the first query per zone normally, then turns REFUSED.

    Reproduces the Stale Answer pattern: the resolver caches the answer,
    the authority goes dark, and later queries are served stale with
    EDE 3 (+22/23 from the failed refresh).
    """

    def __init__(self, wild: "WildInternet"):
        super().__init__(wild)
        self._seen: set[Name] = set()

    def handle_query(self, query: Message, source: str = "192.0.2.0") -> Message | None:
        domain = self.wild.registered_domain_of(query.question[0].name)
        if domain is None:
            return super().handle_query(query, source)
        apex = Name.from_text(domain.name + ".")
        if apex in self._seen:
            return self._reply(query, Rcode.REFUSED)
        self._seen.add(apex)
        return super().handle_query(query, source)


class CnameLoopServer(HostingServer):
    """Answers every A query with a CNAME bouncing inside the domain."""

    def handle_query(self, query: Message, source: str = "192.0.2.0") -> Message | None:
        qname = query.question[0].name
        domain = self.wild.registered_domain_of(qname)
        if domain is None or query.question[0].rdtype != RdataType.A:
            return super().handle_query(query, source)
        apex = Name.from_text(domain.name + ".")
        hop = qname.labels[0] if qname != apex else b""
        target = apex.prepend(b"loop-b" if hop == b"loop-a" else b"loop-a")
        response = query.make_response(recursion_available=False)
        response.aa = True
        response.answer.append(
            RRset.of(qname, RdataType.CNAME, CNAME(target=target), ttl=60)
        )
        return response


# ---------------------------------------------------------------------------
# the whole wild Internet
# ---------------------------------------------------------------------------


class WildInternet:
    """Builds and owns the fabric for one population."""

    def __init__(
        self,
        population: Population,
        fabric: NetworkFabric | None = None,
    ):
        self.population = population
        self.fabric = fabric or NetworkFabric()
        self.now = int(self.fabric.clock.now())
        self.domain_by_name: dict[str, WildDomain] = {
            d.name: d for d in population.domains
        }
        #: The same domains by owner name, which compares without case
        #: (RFC 4343): every lookup of a queried name goes through here.
        self.domain_by_owner: dict[Name, WildDomain] = {
            Name.from_text(d.fqdn): d for d in population.domains
        }
        if len(self.domain_by_owner) != len(self.domain_by_name):
            raise ValueError("two registered domains differ only by case")
        self._delegations: dict[str, Delegation] = {}
        #: The one store of built child zones (see :meth:`zone_for`).
        self._zones: dict[str, Zone] = {}
        #: qname -> registered domain memo; every authoritative answer on
        #: the fabric performs this lookup, so it is the wild side's
        #: hottest path.  Pure function of the population => safe to
        #: share across concurrent scan lanes.
        self._rdomain_cache: dict[Name, WildDomain | None] = {}
        self.tld_servers: dict[str, VirtualTldServer] = {}
        self.tld_addresses: dict[str, str] = {}
        self.hosting_servers: list[HostingServer] = []
        self.root_built: BuiltZone | None = None
        self.trust_anchors: list[DS] = []
        self.root_hints: list[str] = [ROOT_SERVER]
        self._fake_ds = DS(
            key_tag=12345, algorithm=WILD_ALGORITHM, digest_type=2,
            digest=hashlib.sha256(b"signed-lame").digest(),
        )
        self._deploy()

    # -- deployment -------------------------------------------------------------------

    def _deploy(self) -> None:
        population = self.population

        # TLD apex zones + virtual servers.
        root_builder = ZoneBuilder(
            Name.root(), now=self.now, mutation=_APEX_MUTATION, key_seed=7
        )
        root_builder.add(
            RRset.of(
                Name.root(), RdataType.NS,
                NS(target=Name.from_text("a.root-servers.net.")), ttl=300,
            )
        )
        root_builder.add(
            RRset.of(
                Name.from_text("a.root-servers.net."), RdataType.A,
                A(address=ROOT_SERVER), ttl=300,
            )
        )

        for index, tld in enumerate(sorted(population.tlds.values(), key=lambda t: t.name)):
            address = tld_server_address(index)
            server = VirtualTldServer(
                wild=self,
                tld_name=tld.name,
                index=index,
                broken_denial=tld.broken_denial,
                now=self.now,
                axfr_allowed=tld.axfr_allowed,
            )
            self.tld_servers[tld.name] = server
            self.tld_addresses[tld.name] = address
            self.fabric.register(address, server)
            # The DS needs the KSK alone; the server derives the same keys
            # again, and loads its apex, when it is first queried.
            root_builder.delegate(
                _tld_key_builder(server.origin, index, self.now),
                [(_tld_nameserver(server.origin), address)],
            )

        self.root_built = root_builder.build()
        root_server = AuthoritativeServer(name="root")
        root_server.add_zone(self.root_built.zone)
        self.root_server = root_server
        self.fabric.register(ROOT_SERVER, root_server)
        assert self.root_built.ksk is not None
        self.trust_anchors = [make_ds(Name.root(), self.root_built.ksk.dnskey(), 2)]

        # Hosting pool.
        n_hosting = max(d.hosting_index for d in population.domains) + 1
        for index in range(n_hosting):
            server = HostingServer(self)
            self.hosting_servers.append(server)
            self.fabric.register(hosting_address(index), server)

        # Broken nameservers.
        from ..server.behaviors import Behavior, BehaviorServer

        behavior_of = {
            "refused": Behavior.REFUSED,
            "servfail": Behavior.SERVFAIL,
            "timeout": Behavior.TIMEOUT,
        }
        dummy = AuthoritativeServer(name="broken")
        for ns in population.broken_ns:
            self.fabric.register(
                ns.address, BehaviorServer(inner=dummy, behavior=behavior_of[ns.kind])
            )

        # Special hosts.
        self.fabric.register(
            MISMATCH_HOST,
            BehaviorServer(inner=HostingServer(self), behavior=Behavior.MISMATCHED_QUESTION),
        )
        self.fabric.register(
            NOTAUTH_HOST, BehaviorServer(inner=dummy, behavior=Behavior.NOTAUTH)
        )
        self.stale_server = StaleFlippingServer(self)
        self.loop_server = CnameLoopServer(self)
        self.fabric.register(STALE_HOST, self.stale_server)
        self.fabric.register(LOOP_HOST, self.loop_server)

    # -- domain machinery -----------------------------------------------------------------

    def registered_domain_of(self, qname: Name) -> WildDomain | None:
        try:
            return self._rdomain_cache[qname]
        except KeyError:
            pass
        labels = qname.labels
        domain = None
        for depth in range(3, len(labels) + 1):  # two labels and the root, or more
            domain = self.domain_by_owner.get(Name.from_wire_labels(labels[-depth:]))
            if domain is not None:
                break
        if len(self._rdomain_cache) > 65536:
            self._rdomain_cache.clear()
        self._rdomain_cache[qname] = domain
        return domain

    def server_address_for(self, domain: WildDomain) -> str:
        profile = domain.profile
        if profile is Profile.MISMATCHED:
            return MISMATCH_HOST
        if profile is Profile.CACHED_ERROR:
            return NOTAUTH_HOST
        if profile is Profile.STALE:
            return STALE_HOST
        if profile is Profile.OTHER_LOOP:
            return LOOP_HOST
        if domain.ns_index >= 0 and profile in (
            Profile.LAME_REFUSED,
            Profile.LAME_SERVFAIL,
            Profile.LAME_TIMEOUT,
            Profile.SIGNED_LAME,
        ):
            return self.population.broken_ns[domain.ns_index].address
        return hosting_address(domain.hosting_index)

    def builder_for(self, domain: WildDomain) -> ZoneBuilder:
        """``domain``'s zone builder, neither loaded nor built: the one
        source of its keys and DS (:meth:`delegation_for`) and, loaded
        and built by :meth:`zone_for`, of its zone.  A pure function of
        the population and the universe's start time, so every call
        derives the same keys and builds the same bytes."""
        return ZoneBuilder(
            Name.from_text(domain.name + "."),
            now=self.now,
            mutation=domain_mutation(domain),
            key_seed=_domain_seed(domain.name),
        )

    def delegation_for(self, domain: WildDomain) -> Delegation:
        """What ``domain``'s TLD publishes for it.  The nameservers are
        where a profile's transport- and parent-side damage lives; the
        DS follows from the domain's builder."""
        cached = self._delegations.get(domain.name)
        if cached is not None:
            return cached
        apex = Name.from_text(domain.name + ".")
        ns1 = Name.from_text("ns1", origin=apex)
        profile = domain.profile

        if profile is Profile.LAME_UNREACHABLE:
            # Round-robin over the testbed's special-purpose addresses.
            from ..net.addresses import TESTBED_GLUE

            specials = sorted(TESTBED_GLUE.values())
            servers = [(ns1, specials[_domain_seed(domain.name) % len(specials)])]
        elif profile is Profile.PARTIAL_REFUSED:
            servers = [
                (ns1, self.population.broken_ns[domain.ns_index].address),
                (Name.from_text("ns2", origin=apex), hosting_address(domain.hosting_index)),
            ]
        else:
            servers = [(ns1, self.server_address_for(domain))]

        delegation = self.builder_for(domain).delegation(servers)
        ds = delegation.ds
        if profile is Profile.SIGNED_LAME:
            # The TLD still lists a DS for keys its (unsigned, lame)
            # child does not have.
            ds = RRset.of(apex, RdataType.DS, self._fake_ds, ttl=300)
        if ds is not None:
            delegation = dataclasses.replace(
                delegation, ds=ds,
                ds_sig=self.tld_servers[domain.tld].signature_slot(ds),
            )
        self._delegations[domain.name] = delegation
        return delegation

    def zone_for(self, domain: WildDomain) -> Zone:
        """``domain``'s built zone — the one store every hosting endpoint
        reads.  Built on the first read; past ``MAX_CACHED_ZONES`` the
        older half is dropped and rebuilt on demand."""
        zone = self._zones.get(domain.name)
        if zone is not None:
            return zone
        if len(self._zones) >= MAX_CACHED_ZONES:
            for name in list(self._zones)[: MAX_CACHED_ZONES // 2]:
                del self._zones[name]
        builder = self.builder_for(domain)
        delegation = self.delegation_for(domain)
        # The child lists the NS set its parent publishes for it.
        builder.add(delegation.ns)
        seed = _domain_seed(domain.name)
        builder.add(
            RRset.of(
                builder.origin, RdataType.A,
                A(address=f"93.{(seed >> 16) & 0xFF}.{(seed >> 8) & 0xFF}.{seed & 0xFF or 1}"),
                ttl=300,
            )
        )
        for glue in delegation.glue:
            if glue.rdtype == RdataType.A:
                builder.add(glue)
        zone = self._zones[domain.name] = builder.build().zone
        return zone
