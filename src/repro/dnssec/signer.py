"""RRset signing (RFC 4034 section 3.1.8.1).

The data that is signed is::

    RRSIG_RDATA (minus the signature) || canonical RR(1) || ... || RR(n)

where each canonical RR is ``owner (lowercase, uncompressed) | type |
class | original TTL | rdlength | canonical rdata`` and the RRs are
sorted by canonical rdata.  A zone's signatures are made when first
read: a :class:`SignatureSlot` holds what one will cover and what makes
it, and calls :func:`sign_rrset` once.  Both the signer here and the
validator in :mod:`repro.dnssec.validator` build this buffer from the
same parts in one function, so a signature round-trips by construction
and any mismatch seen by a validator reflects genuine zone damage.  The
validator's parts are kept on the RRset and the RRSIG
(:func:`signed_data`); the signer's are made and dropped, because each
slot signs once.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass, replace

from ..dns.dnssec_records import RRSIG
from ..dns.name import Name
from ..dns.rrset import RRset
from ..dns.types import RdataType
from .keys import KeyPair

#: Default signature validity window (seconds), mirroring common signer
#: defaults (30 days, inception 1 hour in the past for clock skew).
DEFAULT_VALIDITY = 30 * 24 * 3600
DEFAULT_INCEPTION_SKEW = 3600

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_TYPE_CLASS = struct.Struct("!HH")


def owner_label_count(name: Name) -> int:
    """RRSIG Labels field: label count minus root, minus any leading ``*``."""
    labels = [label for label in name.labels if label != b""]
    if labels and labels[0] == b"*":
        labels = labels[1:]
    return len(labels)


def canonical_records(rrset: RRset) -> tuple[bytes, tuple[bytes, ...]]:
    """What the signed data takes from ``rrset``: its owner (lowercase,
    uncompressed) with TYPE and CLASS, and each RR's RDLENGTH and
    canonical RDATA in canonical order — every field but the RRSIG's
    original TTL.

    A pure function of the immutable RRset, so it is made once and kept
    on that object (an equal but distinct RRset makes its own): the
    validator checks one RRset against every candidate signature, and
    the same RRset again for each cell that reads it."""
    try:
        return rrset._canonical
    except AttributeError:
        records = _canonical_records(rrset)
        object.__setattr__(rrset, "_canonical", records)
        return records


def _canonical_records(rrset: RRset) -> tuple[bytes, tuple[bytes, ...]]:
    head = rrset.name.canonical_wire() + _TYPE_CLASS.pack(
        int(rrset.rdtype) & 0xFFFF, int(rrset.rdclass) & 0xFFFF
    )
    rdatas = rrset.canonical_rdatas()
    return head, tuple(_U16.pack(len(wire)) + wire for wire in rdatas)


def _assemble(
    unsigned: bytes, records: tuple[bytes, tuple[bytes, ...]], original_ttl: int
) -> bytes:
    head, rdatas = records
    if not rdatas:
        return unsigned
    lead = head + _U32.pack(original_ttl & 0xFFFFFFFF)
    return unsigned + lead + lead.join(rdatas)


def signed_data(rrset: RRset, rrsig: RRSIG) -> bytes:
    """The exact byte string covered by ``rrsig`` for ``rrset``.

    Built afresh on every call from parts kept on the two immutable
    objects (:func:`canonical_records`,
    :meth:`~repro.dns.dnssec_records.RRSIG.rdata_without_signature`);
    only the RRSIG's original TTL is joined in here."""
    return _assemble(
        rrsig.rdata_without_signature(), canonical_records(rrset), rrsig.original_ttl
    )


@dataclass
class SigningPolicy:
    """Validity window and overrides used when producing RRSIGs."""

    inception: int
    expiration: int
    algorithm_override: int | None = None
    key_tag_override: int | None = None

    @classmethod
    def window(cls, now: int, validity: int = DEFAULT_VALIDITY) -> "SigningPolicy":
        return cls(inception=now - DEFAULT_INCEPTION_SKEW, expiration=now + validity)


def sign_rrset(
    rrset: RRset,
    key: KeyPair,
    signer_name: Name,
    policy: SigningPolicy,
) -> RRSIG:
    """Produce the RRSIG for ``rrset`` with ``key``.

    ``policy`` overrides let the testbed emit expired, not-yet-valid, or
    inverted-window signatures and signatures whose key tag or algorithm
    deliberately does not match any DNSKEY.
    """
    template = RRSIG(
        type_covered=RdataType(int(rrset.rdtype)),
        algorithm=(
            key.algorithm
            if policy.algorithm_override is None
            else policy.algorithm_override
        ),
        labels=owner_label_count(rrset.name),
        original_ttl=rrset.ttl,
        expiration=policy.expiration,
        inception=policy.inception,
        key_tag=(
            key.key_tag() if policy.key_tag_override is None else policy.key_tag_override
        ),
        signer=signer_name,
        signature=b"",
    )
    # Made once per slot, so nothing is kept on the zone's RRset.
    signature = key.sign(
        _assemble(template.rdata_without_signature(), _canonical_records(rrset), rrset.ttl)
    )
    return RRSIG(
        type_covered=template.type_covered,
        algorithm=template.algorithm,
        labels=template.labels,
        original_ttl=template.original_ttl,
        expiration=template.expiration,
        inception=template.inception,
        key_tag=template.key_tag,
        signer=template.signer,
        signature=signature,
    )


class SignatureSlot:
    """One RRSIG, made by :func:`sign_rrset` the first time it is read.

    It holds what the signature covers and what makes it.  A signature
    is a pure function of those four, so making it late changes no byte.
    ``type_covered`` and :attr:`key_tag` are the fields the RRSIG will
    carry, known before it exists; ``damage``, when set, is applied to
    the signature octets as it is made.  No lock: a zone is read by one
    thread at a time, and the made RRSIG is published by one assignment.
    """

    __slots__ = ("rrset", "key", "signer", "policy", "type_covered", "damage", "_made")

    def __init__(self, rrset: RRset, key: KeyPair, signer: Name, policy: SigningPolicy):
        self.rrset = rrset
        self.key = key
        self.signer = signer
        self.policy = policy
        self.type_covered = RdataType(int(rrset.rdtype))
        self.damage: Callable[[bytes], bytes] | None = None
        self._made: RRSIG | None = None

    @property
    def key_tag(self) -> int:
        """The key tag the RRSIG will carry (the policy's override included)."""
        override = self.policy.key_tag_override
        return self.key.key_tag() if override is None else override

    def made(self) -> RRSIG:
        """The RRSIG, made on the first call."""
        sig = self._made
        if sig is None:
            sig = sign_rrset(self.rrset, self.key, self.signer, self.policy)
            if self.damage is not None:
                sig = replace(sig, signature=self.damage(sig.signature))
            self._made = sig
        return sig
