"""RRset signing (RFC 4034 section 3.1.8.1).

The data that is signed is::

    RRSIG_RDATA (minus the signature) || canonical RR(1) || ... || RR(n)

where each canonical RR is ``owner (lowercase, uncompressed) | type |
class | original TTL | rdlength | canonical rdata`` and the RRs are
sorted by canonical rdata.  A zone's signatures are made when first
read: a :class:`SignatureSlot` holds what one will cover and what makes
it, and calls :func:`sign_rrset` once.  Both the signer here and the
validator in :mod:`repro.dnssec.validator` build this buffer through
:func:`signed_data`, so a signature round-trips by construction and any
mismatch seen by a validator reflects genuine zone damage.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from ..dns.dnssec_records import RRSIG
from ..dns.name import Name
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dns.wire import WireWriter
from .keys import KeyPair

#: Default signature validity window (seconds), mirroring common signer
#: defaults (30 days, inception 1 hour in the past for clock skew).
DEFAULT_VALIDITY = 30 * 24 * 3600
DEFAULT_INCEPTION_SKEW = 3600


def owner_label_count(name: Name) -> int:
    """RRSIG Labels field: label count minus root, minus any leading ``*``."""
    labels = [label for label in name.labels if label != b""]
    if labels and labels[0] == b"*":
        labels = labels[1:]
    return len(labels)


def signed_data(rrset: RRset, rrsig: RRSIG) -> bytes:
    """The exact byte string covered by ``rrsig`` for ``rrset``."""
    writer = WireWriter(enable_compression=False)
    writer.write_bytes(rrsig.rdata_without_signature())
    owner_wire = rrset.name.canonical_wire()
    for rdata_wire in rrset.canonical_rdatas():
        writer.write_bytes(owner_wire)
        writer.write_u16(int(rrset.rdtype))
        writer.write_u16(int(rrset.rdclass))
        writer.write_u32(rrsig.original_ttl)
        writer.write_u16(len(rdata_wire))
        writer.write_bytes(rdata_wire)
    return writer.getvalue()


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
    signature = key.sign(signed_data(rrset, template))
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
