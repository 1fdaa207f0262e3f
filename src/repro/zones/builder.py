"""Building (and deliberately breaking) signed zones.

:class:`ZoneBuilder` assembles a zone from plain records, generates its
key pair, constructs the NSEC3 chain, gives every authoritative RRset
its signature slots (made when first read), and finally applies a
:class:`ZoneMutation`.  The output is the zone plus the DS rdatas the
parent should publish — possibly themselves mutated.

Mutation ordering (see mutations module): DNSKEY-content mutations are
applied *before* the DNSKEY RRset is signed (the "operator re-ran the
signer over a damaged key file" model the testbed implies), while
signature drop/corrupt mutations act on the slots after signing, as
they would on the signatures the slots will make.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..dns.dnssec_records import DNSKEY, DS, NSEC3, NSEC3PARAM
from ..dns.name import Name
from ..dns.rdata import AAAA, NS, SOA, A, Rdata
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dnssec.ds import make_ds
from ..dnssec.keys import KSK_FLAGS, RSA_DIGESTS, ZSK_FLAGS, KeyPair
from ..dnssec.nsec3 import base32hex_encode, nsec3_hash
from ..dnssec.signer import SignatureSlot, SigningPolicy
from .mutations import SigScope, Window, ZoneMutation
from .zone import SignatureSet, Zone

#: One year in seconds, used to push windows around.
YEAR = 365 * 24 * 3600


@dataclass
class BuiltZone:
    """A finished zone plus what the parent needs to delegate to it."""

    zone: Zone
    ds_rdatas: list[DS] = field(default_factory=list)
    ksk: KeyPair | None = None
    zsk: KeyPair | None = None
    mutation: ZoneMutation = field(default_factory=ZoneMutation)


@dataclass(frozen=True)
class Delegation:
    """What a parent publishes for one child zone.

    Derived from the child's builder (:meth:`ZoneBuilder.delegation`),
    never typed out beside it: a parent zone takes it whole
    (:meth:`ZoneBuilder.delegate`), a server that synthesizes referrals
    places the same three fields.
    """

    ns: RRset
    #: One A or AAAA RRset per nameserver that has an address.
    glue: tuple[RRset, ...]
    #: None for an insecure delegation.
    ds: RRset | None
    #: The parent's signature over ``ds`` when the parent answers from
    #: no zone of its own (a synthesized referral); a zone signs its DS
    #: itself, so a delegation it takes leaves this None.
    ds_sig: SignatureSlot | None = None

    def rrsets(self) -> list[RRset]:
        """Everything published, in the order a parent zone lists it."""
        return [self.ns, *self.glue, *([self.ds] if self.ds is not None else [])]


def address_rrset(owner: Name, address: str) -> RRset:
    """``owner``'s A or AAAA RRset for ``address``, by its family."""
    if ":" in address:
        return RRset.of(owner, RdataType.AAAA, AAAA(address=address), ttl=300)
    return RRset.of(owner, RdataType.A, A(address=address), ttl=300)


def _window_policy(window: Window, now: int) -> SigningPolicy:
    if window is Window.EXPIRED:
        return SigningPolicy(inception=now - 2 * YEAR, expiration=now - YEAR)
    if window is Window.NOT_YET_VALID:
        return SigningPolicy(inception=now + YEAR, expiration=now + 2 * YEAR)
    if window is Window.INVERTED:
        return SigningPolicy(inception=now - YEAR, expiration=now - 2 * YEAR)
    return SigningPolicy.window(now)


def _corrupt(data: bytes) -> bytes:
    """Flip a bit in the middle; keeps the length plausible."""
    if not data:
        return b"\x01"
    index = len(data) // 2
    return data[:index] + bytes([data[index] ^ 0x55]) + data[index + 1 :]


class ZoneBuilder:
    """Builds one signed (and possibly misconfigured) zone."""

    def __init__(
        self,
        origin: Name,
        now: int,
        mutation: ZoneMutation | None = None,
        key_seed: int = 0,
        shared_keys: tuple[KeyPair, KeyPair] | None = None,
    ):
        self.origin = origin
        self.now = now
        self.mutation = mutation or ZoneMutation()
        self.zone = Zone(origin)
        self._key_seed = key_seed
        self._keys = shared_keys

    def add(self, rrset: RRset) -> "ZoneBuilder":
        self.zone.add(rrset)
        return self

    def add_record(
        self, name: Name, rdtype: RdataType, rdata: Rdata, ttl: int = 300
    ) -> "ZoneBuilder":
        self.zone.add(RRset.of(name, rdtype, rdata, ttl=ttl))
        return self

    def ensure_soa(self) -> None:
        if self.zone.find(self.origin, RdataType.SOA) is None:
            soa = SOA(
                mname=Name.from_text("ns1", origin=self.origin),
                rname=Name.from_text("hostmaster", origin=self.origin),
                serial=2023050100,
                minimum=300,
            )
            self.zone.add(RRset.of(self.origin, RdataType.SOA, soa, ttl=300))

    def delegate(
        self, child: "ZoneBuilder", servers: Sequence[tuple[Name, str | None]]
    ) -> "ZoneBuilder":
        """Publish ``child``'s delegation (see :meth:`delegation`) here."""
        for rrset in child.delegation(servers).rrsets():
            self.zone.add(rrset)
        return self

    # -- main entry point ---------------------------------------------------------

    def build(self) -> BuiltZone:
        mut = self.mutation
        self.ensure_soa()
        if not mut.signed:
            return BuiltZone(zone=self.zone, ds_rdatas=[], mutation=mut)

        ksk, zsk = self.keys()
        published = self._published_dnskeys(ksk, zsk)
        dnskey_rrset = RRset(
            name=self.origin, rdtype=RdataType.DNSKEY, ttl=300, rdatas=list(published)
        )
        self.zone.replace(dnskey_rrset)

        cuts = self.zone.zone_cuts()
        if mut.denial == "nsec":
            self._build_nsec_chain()
        else:
            self._build_nsec3_chain(cuts)
        self._sign_zone(ksk, zsk, dnskey_rrset, cuts)
        self._apply_post_sign_mutations(ksk)

        ds_rdatas = self.ds_rdatas()
        return BuiltZone(zone=self.zone, ds_rdatas=ds_rdatas, ksk=ksk, zsk=zsk, mutation=mut)

    # -- keys ------------------------------------------------------------------------

    def _seeds(self) -> tuple[int, int, int]:
        """Key seeds of the KSK, the ZSK and the stand-by KSK."""
        return self._key_seed * 2 + 1, self._key_seed * 2 + 2, self._key_seed * 2 + 99

    def keys(self) -> tuple[KeyPair, KeyPair]:
        """The zone's (KSK, ZSK): the shared pair, or one derived from
        ``key_seed`` on first call — before or during :meth:`build`."""
        if self._keys is None:
            mut = self.mutation
            zsk_seed = self._seeds()[1]
            zsk = KeyPair.generate(mut.algorithm, ZSK_FLAGS, bits=mut.key_bits, seed=zsk_seed)
            self._keys = (self.ksk(), zsk)
        return self._keys

    def ksk(self) -> KeyPair:
        """The KSK of :meth:`keys`, derived alone until the pair is: all
        a parent's DS is made from."""
        if self._keys is not None:
            return self._keys[0]
        mut = self.mutation
        return KeyPair.generate(mut.algorithm, KSK_FLAGS, bits=mut.key_bits, seed=self._seeds()[0])

    def rsa_key_requests(self) -> set[tuple[int, int]]:
        """The RSA ``(bits, seed)`` pairs :meth:`build` asks for, to hand
        to :func:`~repro.dnssec.rsa.search_keypairs` before building."""
        mut = self.mutation
        if not mut.signed or int(mut.algorithm) not in RSA_DIGESTS:
            return set()
        ksk_seed, zsk_seed, standby_seed = self._seeds()
        seeds = {ksk_seed, zsk_seed, standby_seed} if mut.add_standby_ksk else {ksk_seed, zsk_seed}
        return {(mut.key_bits, seed) for seed in seeds}

    def _published_dnskeys(self, ksk: KeyPair, zsk: KeyPair) -> list[DNSKEY]:
        mut = self.mutation
        keys: list[DNSKEY] = []
        if not mut.drop_ksk:
            rdata = ksk.dnskey()
            if mut.corrupt_ksk:
                rdata = DNSKEY(
                    flags=rdata.flags,
                    protocol=rdata.protocol,
                    algorithm=rdata.algorithm,
                    key=_corrupt(rdata.key),
                )
            if mut.clear_zone_bit_ksk:
                rdata = DNSKEY(
                    flags=rdata.flags & ~0x0100,
                    protocol=rdata.protocol,
                    algorithm=rdata.algorithm,
                    key=rdata.key,
                )
            keys.append(rdata)
        if not mut.drop_zsk:
            rdata = zsk.dnskey()
            if mut.corrupt_zsk:
                rdata = DNSKEY(
                    flags=rdata.flags,
                    protocol=rdata.protocol,
                    algorithm=rdata.algorithm,
                    key=_corrupt(rdata.key),
                )
            if mut.zsk_algorithm_override is not None:
                rdata = DNSKEY(
                    flags=rdata.flags,
                    protocol=rdata.protocol,
                    algorithm=mut.zsk_algorithm_override,
                    key=rdata.key,
                )
            if mut.clear_zone_bit_zsk:
                rdata = DNSKEY(
                    flags=rdata.flags & ~0x0100,
                    protocol=rdata.protocol,
                    algorithm=rdata.algorithm,
                    key=rdata.key,
                )
            keys.append(rdata)
        if mut.add_standby_ksk:
            standby = KeyPair.generate(
                mut.algorithm, KSK_FLAGS, bits=mut.key_bits, seed=self._seeds()[2]
            )
            keys.append(standby.dnskey())
        return keys

    # -- NSEC3 --------------------------------------------------------------------------

    def _build_nsec_chain(self) -> None:
        """Plain NSEC chain in canonical order (RFC 4034 section 4)."""
        from ..dns.dnssec_records import NSEC
        from ..dnssec.nsec import canonical_key

        names = sorted(self.zone.owners(), key=canonical_key)
        for index, name in enumerate(names):
            next_name = names[(index + 1) % len(names)]
            types = sorted(
                int(rrset.rdtype)
                for rrset in self.zone.rrsets_at(name)
                if rrset.rdtype != RdataType.NSEC
            )
            types.extend((int(RdataType.RRSIG), int(RdataType.NSEC)))
            nsec = NSEC(next_name=next_name, types=tuple(sorted(set(types))))
            self.zone.replace(RRset.of(name, RdataType.NSEC, nsec, ttl=300))

    def _build_nsec3_chain(self, cuts: set[Name]) -> None:
        mut = self.mutation
        salt = mut.nsec3_salt
        iterations = mut.nsec3_iterations

        param = NSEC3PARAM(
            hash_algorithm=1,
            flags=0,
            iterations=iterations,
            salt=_corrupt(salt) if mut.nsec3param_salt_mismatch else salt,
        )
        self.zone.replace(RRset.of(self.origin, RdataType.NSEC3PARAM, param, ttl=300))

        # Owners in store order: the chain's order is the digests', which
        # are unique, so no other order is needed first.
        hashed: list[tuple[bytes, tuple[int, ...]]] = []
        for name in self.zone.owners():
            rrsets = [
                rrset for rrset in self.zone.rrsets_at(name)
                if rrset.rdtype != RdataType.NSEC3
            ]
            signed = any(
                self.zone.is_authoritative(name, rrset.rdtype, cuts) for rrset in rrsets
            )
            # RFC 5155 section 7.1: a name with authoritative data, and
            # every cut (an insecure one proves it has no DS); glue and
            # other occluded names are not represented.
            if not (signed or name in cuts):
                continue
            types = sorted(int(rrset.rdtype) for rrset in rrsets)
            # RRSIG only where something will be signed (RFC 5155 section
            # 3.2.1): not at an insecure delegation.
            if signed:
                types.append(int(RdataType.RRSIG))
            hashed.append((nsec3_hash(name, salt, iterations), tuple(sorted(set(types)))))
        hashed.sort(key=lambda pair: pair[0])

        origin_labels = self.origin.labels
        for index, (digest, types) in enumerate(hashed):
            nsec3 = NSEC3(
                hash_algorithm=1,
                flags=0,
                iterations=iterations,
                salt=salt,
                next_hash=hashed[(index + 1) % len(hashed)][0],
                types=types,
            )
            owner = Name((base32hex_encode(digest).encode(), *origin_labels))
            self.zone.replace(RRset.of(owner, RdataType.NSEC3, nsec3, ttl=300))

        if mut.corrupt_nsec3_owner or mut.corrupt_nsec3_next:
            self._mutate_nsec3_records()

    def _mutate_nsec3_records(self) -> None:
        mut = self.mutation
        records = self.zone.nsec3_records()
        for owner, rdata in records:
            self.zone.remove(owner, RdataType.NSEC3)
            new_owner = owner
            new_rdata = rdata
            if mut.corrupt_nsec3_owner:
                # Shift every hashed owner label so nothing matches or covers.
                label = owner.labels[0]
                shifted = base32hex_encode(
                    _corrupt(nsec3_hash(Name((label, b"")), b"x", 1))
                )
                new_owner = Name((shifted.encode(),) + owner.labels[1:])
            if mut.corrupt_nsec3_next:
                # Shrink each interval to (h, h+1): covers (almost) nothing.
                owner_hash = self._label_hash(owner)
                bumped = bytearray(owner_hash or rdata.next_hash)
                bumped[-1] = (bumped[-1] + 1) & 0xFF
                new_rdata = NSEC3(
                    hash_algorithm=rdata.hash_algorithm,
                    flags=rdata.flags,
                    iterations=rdata.iterations,
                    salt=rdata.salt,
                    next_hash=bytes(bumped),
                    types=rdata.types,
                )
            self.zone.replace(RRset.of(new_owner, RdataType.NSEC3, new_rdata, ttl=300))

    @staticmethod
    def _label_hash(owner: Name) -> bytes:
        from ..dnssec.nsec3 import base32hex_decode

        try:
            return base32hex_decode(owner.labels[0].decode())
        except (ValueError, UnicodeDecodeError):
            return b""

    # -- signing --------------------------------------------------------------------------

    def _sign_zone(
        self, ksk: KeyPair, zsk: KeyPair, dnskey_rrset: RRset, cuts: set[Name]
    ) -> None:
        """Give every authoritative RRset its signature slots, in signing
        order; no signature is made here (see :class:`SignatureSet`)."""
        mut = self.mutation
        default_policy = _window_policy(mut.window_all, self.now)
        a_policy = (
            _window_policy(mut.window_a, self.now)
            if mut.window_a is not Window.VALID
            else default_policy
        )

        for rrset in list(self.zone.all_rrsets()):
            if rrset.rdtype == RdataType.RRSIG:
                continue
            if rrset.rdtype == RdataType.DNSKEY:
                continue
            if not self.zone.is_authoritative(rrset.name, rrset.rdtype, cuts):
                continue  # a delegation's NS set or glue (RFC 4035 section 2.2)
            policy = (
                a_policy
                if (rrset.rdtype == RdataType.A and rrset.name == self.origin)
                else default_policy
            )
            self._store_slot(SignatureSlot(rrset, zsk, self.origin, policy))

        # DNSKEY RRset: signed by both KSK and ZSK so the testbed can remove
        # or corrupt the SEP path independently of the rest.
        for key in (ksk, zsk):
            self._store_slot(SignatureSlot(dnskey_rrset, key, self.origin, default_policy))

    def _store_slot(self, slot: SignatureSlot) -> None:
        name = slot.rrset.name
        existing = self.zone.find(name, RdataType.RRSIG)
        if existing is None:
            self.zone.replace(SignatureSet(name, [slot]))
        else:
            existing.items.append(slot)

    # -- post-sign mutations ----------------------------------------------------------------

    def _apply_post_sign_mutations(self, ksk: KeyPair) -> None:
        """Drop or corrupt signatures by what each slot will carry, so a
        mutated zone, too, is built without making one."""
        mut = self.mutation
        ksk_tag = ksk.key_tag()
        if mut.drop_sigs is not None:
            for sig_set in self._sig_sets():
                sig_set.items = [
                    item for item in sig_set.items
                    if not self._sig_in_scope(item, sig_set.name, mut.drop_sigs, ksk_tag)
                ]
                if not sig_set.items:
                    self.zone.remove(sig_set.name, RdataType.RRSIG)
        if mut.corrupt_sigs is not None:
            for sig_set in self._sig_sets():
                for item in sig_set.items:
                    if self._sig_in_scope(item, sig_set.name, mut.corrupt_sigs, ksk_tag):
                        item.damage = _corrupt
        if mut.drop_nsec3:
            for owner, _rd in self.zone.nsec3_records():
                self.zone.remove(owner, RdataType.NSEC3)
                self.zone.remove(owner, RdataType.RRSIG)
        if mut.drop_nsec3param:
            self.zone.remove(self.origin, RdataType.NSEC3PARAM)

    def _sig_sets(self) -> list[SignatureSet]:
        return [rrset for rrset in self.zone.all_rrsets() if rrset.rdtype == RdataType.RRSIG]

    def _sig_in_scope(
        self, slot: SignatureSlot, owner: Name, scope: SigScope, ksk_tag: int
    ) -> bool:
        covered = int(slot.type_covered)
        if scope is SigScope.ALL:
            return True
        if scope is SigScope.LEAF_A:
            return covered == int(RdataType.A) and owner == self.origin
        if scope is SigScope.KSK_SIG:
            return covered == int(RdataType.DNSKEY) and slot.key_tag == ksk_tag
        if scope is SigScope.DNSKEY_SIGS:
            return covered == int(RdataType.DNSKEY)
        if scope is SigScope.NSEC3_SIGS:
            return covered == int(RdataType.NSEC3)
        return False

    # -- what the parent publishes ----------------------------------------------------------

    def delegation(self, servers: Sequence[tuple[Name, str | None]]) -> Delegation:
        """This zone's delegation when ``servers`` — (nameserver name,
        its address or None for a name published without glue) — serve
        it: the NS set, one address RRset per address, and the DS set of
        :meth:`ds_rdatas`.  Like it, callable before :meth:`build`."""
        ds = self.ds_rdatas()
        return Delegation(
            ns=RRset.of(
                self.origin, RdataType.NS,
                *[NS(target=name) for name, _address in servers], ttl=300,
            ),
            glue=tuple(
                address_rrset(name, address)
                for name, address in servers
                if address is not None
            ),
            ds=RRset.of(self.origin, RdataType.DS, *ds, ttl=300) if ds else None,
        )

    def ds_rdatas(self) -> list[DS]:
        """What the parent should publish.  A function of the keys and
        the mutation only, so a parent can be built before this zone is."""
        mut = self.mutation
        if not (mut.signed and mut.publish_ds):
            return []
        ksk = self.ksk()
        digest_type = (
            mut.ds_digest_type_override
            if mut.ds_digest_type_override is not None
            else 2
        )
        dnskey = ksk.dnskey()
        if digest_type in (1, 2, 3, 4):
            ds = make_ds(self.origin, dnskey, digest_type)
        else:
            # Unassigned digest type: fabricate a plausible digest value.
            ds = DS(
                key_tag=dnskey.key_tag(),
                algorithm=dnskey.algorithm,
                digest_type=digest_type,
                digest=make_ds(self.origin, dnskey, 2).digest,
            )
        key_tag = (ds.key_tag + mut.ds_tag_offset) & 0xFFFF
        algorithm = (
            mut.ds_algorithm_override
            if mut.ds_algorithm_override is not None
            else ds.algorithm
        )
        digest = _corrupt(ds.digest) if mut.ds_corrupt_digest else ds.digest
        return [
            DS(
                key_tag=key_tag,
                algorithm=algorithm,
                digest_type=ds.digest_type,
                digest=digest,
            )
        ]
