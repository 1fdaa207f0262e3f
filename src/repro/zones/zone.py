"""Authoritative zone data model and lookup semantics.

A :class:`Zone` stores RRsets by owner name, then by type, and answers
the question an authoritative server asks: *given this qname/qtype, is
the result an answer, a referral, a CNAME, NXDOMAIN, or NODATA?*
Denial-of-existence record selection for negative answers lives here
too, because it depends on the zone's NSEC3 chain.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum, auto

from ..dns.dnssec_records import NSEC, NSEC3, RRSIG
from ..dns.name import Name
from ..dns.rdata import CNAME, Rdata
from ..dns.rrset import RRset
from ..dns.types import RdataClass, RdataType
from ..dnssec.nsec3 import base32hex_decode, base32hex_encode, hash_covers, nsec3_hash
from ..dnssec.signer import SignatureSlot


class LookupStatus(Enum):
    ANSWER = auto()
    CNAME = auto()
    DELEGATION = auto()
    NXDOMAIN = auto()
    NODATA = auto()


@dataclass
class LookupResult:
    status: LookupStatus
    rrsets: list[RRset] = field(default_factory=list)  # answer or NS of referral
    node_name: Name | None = None  # the node that matched (cut point for referrals)


@dataclass
class _Nsec3Chain:
    """The zone's NSEC3 records in hashed-owner order, kept between
    negative answers (see :meth:`Zone.denial_rrsets`)."""

    iterations: int
    salt: bytes
    records: list[tuple[Name, NSEC3]]  # stable-sorted by ``labels``
    labels: list[bytes]  # lower-cased first owner label per record
    hashes: list[bytes | None]  # the hash each label encodes; None = undecodable
    #: True when the chain is a closed ring — every label decodes, the
    #: hashes strictly increase and each ``next_hash`` is the following
    #: owner's hash — the one shape in which at most one record covers
    #: a given hash and it is the hash's predecessor in ``hashes``.
    closed: bool


class SignatureSet(RRset):
    """An owner's RRSIG RRset whose signatures are made when first read.

    ``items`` are the set's RRSIGs in the order a signer would have made
    them, each either made or still a :class:`SignatureSlot`.  Reading
    :attr:`rdatas` makes every one of them (a transfer, a lint, a dump);
    :meth:`covering` makes only those over one type (a served answer).
    A made signature replaces its slot in ``items``.  That is the set's
    only change, and no reader can see it: a slot stands for exactly
    the signature it makes, so the set is as immutable as any
    :class:`RRset` and is shared the same way.
    """

    def __init__(self, name: Name, items: list[RRSIG | SignatureSlot], ttl: int = 300):
        for attr, value in (
            ("name", name), ("rdtype", RdataType.RRSIG), ("ttl", ttl),
            ("rdclass", RdataClass.IN), ("items", items),
        ):
            object.__setattr__(self, attr, value)

    @property  # type: ignore[override]
    def rdatas(self) -> tuple[Rdata, ...]:
        items = self.items
        for index, item in enumerate(items):
            if isinstance(item, SignatureSlot):
                items[index] = item.made()
        return tuple(items)  # type: ignore[arg-type]

    def covering(self, covered: RdataType) -> list[RRSIG]:
        """The signatures over ``covered``, made if they were not."""
        items = self.items
        out = []
        for index, item in enumerate(items):
            if item.type_covered == covered:
                if isinstance(item, SignatureSlot):
                    item = items[index] = item.made()
                out.append(item)
        return out


class Zone:
    """One authoritative zone.

    One store: ``owner -> {type -> RRset}``.  :meth:`all_rrsets`
    enumerates grouped by owner — owners in order of first insertion,
    types within an owner in order of first insertion — which is the
    order AXFR bodies and zone-file dumps come out in (RFC 5936 section
    2.2 leaves RR order between the SOAs unspecified).  An owner whose
    last RRset is removed leaves the store, and re-enters at the end.
    """

    def __init__(self, origin: Name):
        if not origin.is_absolute():
            raise ValueError("zone origin must be absolute")
        self.origin = origin
        self._nodes: dict[Name, dict[int, RRset]] = {}
        self._nsec3_chain: _Nsec3Chain | None = None  # derived; see denial_rrsets

    # -- content management ---------------------------------------------------

    def add(self, rrset: RRset) -> None:
        if not rrset.name.is_subdomain_of(self.origin):
            raise ValueError(f"{rrset.name} is outside zone {self.origin}")
        node = self._nodes.setdefault(rrset.name, {})
        existing = node.get(int(rrset.rdtype))
        if existing is not None:
            rrset = RRset.of(
                existing.name, existing.rdtype, *existing.rdatas, *rrset.rdatas,
                ttl=existing.ttl, rdclass=existing.rdclass,
            )
        node[int(rrset.rdtype)] = rrset
        self._nsec3_chain = None

    def remove(self, name: Name, rdtype: RdataType) -> RRset | None:
        node = self._nodes.get(name)
        if node is None:
            return None
        rrset = node.pop(int(rdtype), None)
        if not node:
            del self._nodes[name]
        self._nsec3_chain = None
        return rrset

    def replace(self, rrset: RRset) -> None:
        self._nodes.setdefault(rrset.name, {})[int(rrset.rdtype)] = rrset
        self._nsec3_chain = None

    def find(self, name: Name, rdtype: RdataType) -> RRset | None:
        node = self._nodes.get(name)
        return None if node is None else node.get(int(rdtype))

    def rrsets_at(self, name: Name) -> list[RRset]:
        return list(self._nodes.get(name, {}).values())

    def all_rrsets(self) -> list[RRset]:
        return [rrset for node in self._nodes.values() for rrset in node.values()]

    def owners(self) -> list[Name]:
        """Every owner name, in store order (see the class docstring)."""
        return list(self._nodes)

    def __len__(self) -> int:
        return sum(len(node) for node in self._nodes.values())

    # -- semantics ----------------------------------------------------------------

    def is_delegation_point(self, name: Name) -> bool:
        """NS present below the apex marks a zone cut."""
        return name != self.origin and self.find(name, RdataType.NS) is not None

    def zone_cuts(self) -> set[Name]:
        """Every delegation point: a name below the apex that owns NS."""
        ns = int(RdataType.NS)
        return {name for name, node in self._nodes.items() if ns in node and name != self.origin}

    def is_authoritative(self, name: Name, rdtype: RdataType, cuts: set[Name]) -> bool:
        """Whether the ``rdtype`` RRset at ``name`` is this zone's own data,
        the data it signs (RFC 4035 section 2.2), given its
        :meth:`zone_cuts`: a delegation's NS set and anything below a cut
        (glue) are not; the DS and NSEC sets at a cut are."""
        if not cuts:
            return True
        if name in cuts:
            return rdtype in (RdataType.DS, RdataType.NSEC)
        ancestor = name
        for _ in range(name.label_count() - self.origin.label_count() - 1):
            ancestor = ancestor.parent()
            if ancestor in cuts:
                return False
        return True

    def find_zone_cut(self, qname: Name) -> Name | None:
        """Deepest delegation point at or above ``qname`` (strictly below apex)."""
        if not qname.is_subdomain_of(self.origin):
            return None
        current = qname
        cuts: list[Name] = []
        while current != self.origin:
            if self.is_delegation_point(current):
                cuts.append(current)
            current = current.parent()
        return cuts[-1] if cuts else None  # shallowest cut wins on the way down

    def name_exists(self, qname: Name) -> bool:
        """True when the name exists, including as an empty non-terminal."""
        if qname in self._nodes:
            return True
        return any(existing.is_strict_subdomain_of(qname) for existing in self._nodes)

    def lookup(self, qname: Name, rdtype: RdataType) -> LookupResult:
        """Authoritative lookup, RFC 1034 section 4.3.2 style."""
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.NXDOMAIN)

        cut = self.find_zone_cut(qname)
        if cut is not None and not (qname == cut and rdtype == RdataType.DS):
            # DS is special: it lives at the parent side of the cut.
            ns = self.find(cut, RdataType.NS)
            return LookupResult(
                LookupStatus.DELEGATION, rrsets=[ns] if ns else [], node_name=cut
            )

        if not self.name_exists(qname):
            wildcard = self._match_wildcard(qname)
            if wildcard is not None:
                rrset = self.find(wildcard, rdtype)
                if rrset is not None:
                    # Not ``dataclasses.replace``: the wildcard's RRSIG
                    # store is a SignatureSet, whose fields differ.
                    synthesized = RRset(
                        qname, rrset.rdtype, rrset.ttl, rrset.rdclass, rrset.rdatas
                    )
                    return LookupResult(
                        LookupStatus.ANSWER, rrsets=[synthesized], node_name=wildcard
                    )
                return LookupResult(LookupStatus.NODATA, node_name=wildcard)
            return LookupResult(LookupStatus.NXDOMAIN)

        rrset = self.find(qname, rdtype)
        if rrset is not None:
            return LookupResult(LookupStatus.ANSWER, rrsets=[rrset], node_name=qname)
        cname = self.find(qname, RdataType.CNAME)
        if cname is not None and rdtype != RdataType.CNAME:
            return LookupResult(LookupStatus.CNAME, rrsets=[cname], node_name=qname)
        return LookupResult(LookupStatus.NODATA, node_name=qname)

    def _match_wildcard(self, qname: Name) -> Name | None:
        current = qname
        while current != self.origin:
            current = current.parent()
            candidate = current.prepend(b"*")
            if candidate in self._nodes:
                return candidate
        return None

    # -- RRSIG / denial helpers for the server ------------------------------------------

    def rrsigs_for(self, name: Name, covered: RdataType) -> RRset | None:
        """The RRSIG RRset at ``name`` filtered to signatures over ``covered``.

        It carries the TTL of the RRset it covers (RFC 4034 section 3),
        not that of the mixed RRSIG store at the owner.
        """
        rrsig_set = self.find(name, RdataType.RRSIG)
        if rrsig_set is None:
            return None
        if isinstance(rrsig_set, SignatureSet):
            filtered = rrsig_set.covering(covered)
        else:
            filtered = [
                rd
                for rd in rrsig_set.rdatas
                if isinstance(rd, RRSIG) and int(rd.type_covered) == int(covered)
            ]
        if not filtered:
            return None
        covered_set = self.find(name, covered)
        return RRset(
            name=name,
            rdtype=RdataType.RRSIG,
            ttl=covered_set.ttl if covered_set is not None else rrsig_set.ttl,
            rdatas=filtered,
        )

    def nsec3_records(self) -> list[tuple[Name, NSEC3]]:
        return self._records_of(RdataType.NSEC3, NSEC3)

    def nsec_records(self) -> list[tuple[Name, NSEC]]:
        return self._records_of(RdataType.NSEC, NSEC)

    def _records_of(self, rdtype: RdataType, rdata_class: type) -> list:
        """(owner, rdata) of every ``rdata_class`` record, in store order."""
        rdtype_value = int(rdtype)
        out = []
        for name, node in self._nodes.items():
            rrset = node.get(rdtype_value)
            if rrset is not None:
                out.extend((name, rd) for rd in rrset.rdatas if isinstance(rd, rdata_class))
        return out

    def _nsec_denial(self, qname: Name) -> list[RRset]:
        """NSEC records (plus RRSIGs) for a plain-NSEC negative answer."""
        from ..dnssec.nsec import nsec_covers, nsec_matches

        records = self.nsec_records()
        chosen: dict[Name, NSEC] = {}
        for owner, rd in records:
            if nsec_matches(owner, qname):  # NODATA: prove the type set
                chosen[owner] = rd
                break
            if nsec_covers(owner, rd.next_name, qname, self.origin):
                chosen[owner] = rd
        # Wildcard non-existence: the apex (or covering) record suffices in
        # this simplified model; include the apex NSEC for completeness.
        for owner, rd in records:
            if owner == self.origin:
                chosen.setdefault(owner, rd)
                break
        out: list[RRset] = []
        for owner, rd in chosen.items():
            out.append(RRset.of(owner, RdataType.NSEC, rd, ttl=300))
            sigs = self.rrsigs_for(owner, RdataType.NSEC)
            if sigs is not None:
                out.append(sigs)
        return out

    def denial_rrsets(self, qname: Name) -> list[RRset]:
        """NSEC3 records (plus their RRSIGs) proving ``qname``'s absence.

        Selection follows RFC 5155 section 7.2.1: match the closest
        encloser, cover the next-closer name, cover the wildcard at the
        closest encloser.  When the stored chain is damaged the selection
        degrades exactly the way a misconfigured server's would: it
        returns its best candidates and lets the validator reject them.
        """
        chain = self._nsec3_chain
        if chain is None:
            chain = self._nsec3_chain = self._sorted_nsec3_chain()
        if not chain.records:
            return self._nsec_denial(qname)
        iterations, salt = chain.iterations, chain.salt

        chosen: dict[Name, NSEC3] = {}

        def pick_matching(target_hash: bytes) -> None:
            label = base32hex_encode(target_hash).lower().encode()
            index = bisect_left(chain.labels, label)
            if index < len(chain.labels) and chain.labels[index] == label:
                owner, rd = chain.records[index]
                chosen[owner] = rd

        def pick_covering(target_hash: bytes) -> None:
            if chain.closed:
                indexes = [bisect_left(chain.hashes, target_hash) - 1]
            else:  # damaged chain: first record in label order that covers
                indexes = range(len(chain.records))
            for index in indexes:
                owner_hash = chain.hashes[index]
                owner, rd = chain.records[index]
                if owner_hash is not None and hash_covers(
                    owner_hash, rd.next_hash, target_hash
                ):
                    chosen[owner] = rd
                    return
            # Damaged chain: include the first record so the response is
            # non-empty (mirrors servers that serve whatever they stored).
            owner, rd = chain.records[0]
            chosen.setdefault(owner, rd)

        # closest encloser walk
        current = qname
        candidates: list[Name] = []
        while True:
            candidates.append(current)
            if current == self.origin:
                break
            current = current.parent()
        closest = self.origin
        for candidate in candidates:
            if self.name_exists(candidate):
                closest = candidate
                break
        pick_matching(nsec3_hash(closest, salt, iterations))
        if closest != qname:
            index = candidates.index(closest)
            next_closer = candidates[index - 1]
            pick_covering(nsec3_hash(next_closer, salt, iterations))
            wildcard = closest.prepend(b"*")
            pick_covering(nsec3_hash(wildcard, salt, iterations))

        out: list[RRset] = []
        for owner, rd in chosen.items():
            out.append(RRset.of(owner, RdataType.NSEC3, rd, ttl=300))
            sigs = self.rrsigs_for(owner, RdataType.NSEC3)
            if sigs is not None:
                out.append(sigs)
        return out

    def _sorted_nsec3_chain(self) -> _Nsec3Chain:
        records = self.nsec3_records()
        if not records:
            return _Nsec3Chain(0, b"", [], [], [], False)
        first = records[0][1]
        records.sort(key=lambda pair: pair[0].labels[0].lower())  # by hashed owner label
        hashes: list[bytes | None] = []
        for owner, _rd in records:
            try:
                hashes.append(base32hex_decode(owner.labels[0].decode()))
            except (ValueError, UnicodeDecodeError):
                hashes.append(None)
        closed = None not in hashes and all(
            rd.next_hash == hashes[(index + 1) % len(hashes)]
            and (index == 0 or hashes[index - 1] < hashes[index])
            for index, (_owner, rd) in enumerate(records)
        )
        return _Nsec3Chain(
            iterations=first.iterations,
            salt=first.salt,
            records=records,
            labels=[owner.labels[0].lower() for owner, _rd in records],
            hashes=hashes,
            closed=closed,
        )

    def __repr__(self) -> str:
        return f"<Zone {self.origin} ({len(self)} rrsets)>"
