"""DS record construction and matching (RFC 4034 section 5).

The DS digest is computed over ``canonical_owner_name || DNSKEY rdata``.
GOST R 34.11-94 is *simulated* (it is unsupported by every validator
profile we model, so only its length and determinism matter) with a
tagged SHA-256; SHA-1/256/384 are real.
"""

from __future__ import annotations

import hashlib

from ..dns.dnssec_records import DNSKEY, DS
from ..dns.name import Name
from .algorithms import DsDigest

_DIGEST_LENGTH = {
    int(DsDigest.SHA1): 20,
    int(DsDigest.SHA256): 32,
    int(DsDigest.GOST_R_34_11_94): 32,
    int(DsDigest.SHA384): 48,
}


def compute_digest(owner: Name, dnskey: DNSKEY, digest_type: int) -> bytes:
    """Digest of the owner name + DNSKEY rdata with the given algorithm."""
    data = owner.canonical_wire() + dnskey.to_wire()
    if digest_type == DsDigest.SHA1:
        return hashlib.sha1(data).digest()
    if digest_type == DsDigest.SHA256:
        return hashlib.sha256(data).digest()
    if digest_type == DsDigest.SHA384:
        return hashlib.sha384(data).digest()
    if digest_type == DsDigest.GOST_R_34_11_94:
        return hashlib.sha256(b"GOST-R-34.11-94:" + data).digest()
    raise ValueError(f"cannot compute digest type {digest_type}")


def digest_length(digest_type: int) -> int | None:
    return _DIGEST_LENGTH.get(digest_type)


def make_ds(
    owner: Name,
    dnskey: DNSKEY,
    digest_type: int = DsDigest.SHA256,
    *,
    key_tag: int | None = None,
    algorithm: int | None = None,
) -> DS:
    """Build the DS record for ``dnskey`` at ``owner``.

    ``key_tag``/``algorithm`` overrides support the testbed's
    ``ds-bad-tag`` / ``ds-bad-key-algo`` / unassigned / reserved cases.
    """
    return DS(
        key_tag=dnskey.key_tag() if key_tag is None else key_tag,
        algorithm=dnskey.algorithm if algorithm is None else algorithm,
        digest_type=digest_type,
        digest=compute_digest(owner, dnskey, digest_type),
    )


def ds_matches_dnskey(ds: DS, owner: Name, dnskey: DNSKEY) -> bool:
    """True when ``ds`` authenticates ``dnskey`` (tag, algorithm, digest).

    The digest a DS is compared against is a pure function of the
    immutable DNSKEY, the owner and the digest type, so it is kept on
    the DNSKEY per ``(owner, digest type)`` (None: a type that cannot be
    computed); every DS still compares its own digest with it."""
    if ds.key_tag != dnskey.key_tag():
        return False
    if ds.algorithm != dnskey.algorithm:
        return False
    try:
        kept = dnskey._ds_digests
    except AttributeError:
        kept = ()
    for seen_owner, digest_type, digest in kept:
        if digest_type == ds.digest_type and seen_owner == owner:
            break
    else:
        try:
            digest = compute_digest(owner, dnskey, ds.digest_type)
        except ValueError:
            digest = None
        # A tuple, not a dict: a key is almost always read at one owner
        # under one or two digest types.
        object.__setattr__(dnskey, "_ds_digests", (*kept, (owner, ds.digest_type, digest)))
    return digest is not None and digest == ds.digest
