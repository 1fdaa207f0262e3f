"""Key management: unified keypair over the RSA and simulated backends.

A :class:`KeyPair` knows its DNSSEC algorithm number, produces its DNSKEY
rdata, signs raw bytes, and verifies.  ZSK/KSK is purely a flags
convention (256 vs 257) carried on the DNSKEY record.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dns.dnssec_records import DNSKEY, SEP_FLAG, ZONE_KEY_FLAG
from . import rsa as rsa_mod
from . import simulated as sim_mod
from .algorithms import Algorithm

#: Algorithms backed by the real RSA implementation (digest per RFC).
RSA_DIGESTS = {
    int(Algorithm.RSASHA1): "sha1",
    int(Algorithm.RSASHA1_NSEC3_SHA1): "sha1",
    int(Algorithm.RSASHA256): "sha256",
    int(Algorithm.RSASHA512): "sha512",
}

ZSK_FLAGS = ZONE_KEY_FLAG  # 256
KSK_FLAGS = ZONE_KEY_FLAG | SEP_FLAG  # 257


@dataclass
class KeyPair:
    """One signing key with its algorithm and DNSKEY flags."""

    algorithm: int
    flags: int
    _rsa: rsa_mod.RsaPrivateKey | None = None
    _sim: sim_mod.SimulatedPrivateKey | None = None

    @classmethod
    def generate(
        cls,
        algorithm: int = Algorithm.RSASHA256,
        flags: int = ZSK_FLAGS,
        bits: int = 1024,
        seed: int | None = None,
    ) -> "KeyPair":
        """Generate a key.  RSA algorithms get real RSA; others simulated."""
        algorithm = int(algorithm)
        if algorithm in RSA_DIGESTS:
            return cls(
                algorithm=algorithm,
                flags=flags,
                _rsa=rsa_mod.generate_keypair(bits=bits, seed=seed),
            )
        return cls(
            algorithm=algorithm,
            flags=flags,
            _sim=sim_mod.generate_keypair(algorithm, seed=seed),
        )

    @property
    def is_ksk(self) -> bool:
        return bool(self.flags & SEP_FLAG)

    def public_key_bytes(self) -> bytes:
        if self._rsa is not None:
            return self._rsa.public.to_dnskey_format()
        assert self._sim is not None
        return self._sim.public.key

    def dnskey(
        self, flags: int | None = None, algorithm: int | None = None
    ) -> DNSKEY:
        """The DNSKEY rdata for this key.

        ``flags``/``algorithm`` overrides let the testbed publish keys with
        the Zone-Key bit cleared (``no-dnskey-256``) or a wrong/unassigned
        algorithm number (``bad-zsk-algo`` etc.) while keeping the same key
        material.
        """
        return DNSKEY(
            flags=self.flags if flags is None else flags,
            algorithm=self.algorithm if algorithm is None else algorithm,
            key=self.public_key_bytes(),
        )

    def key_tag(self) -> int:
        return self.dnskey().key_tag()

    def sign(self, message: bytes) -> bytes:
        if self._rsa is not None:
            return rsa_mod.sign(self._rsa, message, RSA_DIGESTS[self.algorithm])
        assert self._sim is not None
        return sim_mod.sign(self._sim, message)


def rsa_public_key(dnskey: DNSKEY) -> rsa_mod.RsaPublicKey | None:
    """The RFC 3110 public key in an RSA ``dnskey``, or None when its
    key field does not parse.

    Parsed once and kept on the immutable DNSKEY, a failure as
    ``False``, so every check and size probe of one key reads one
    parse."""
    try:
        public = dnskey._rsa_public
    except AttributeError:
        try:
            public = rsa_mod.RsaPublicKey.from_dnskey_format(dnskey.key)
        except ValueError:
            public = False
        object.__setattr__(dnskey, "_rsa_public", public)
    return public or None


def verify_signature(dnskey: DNSKEY, message: bytes, signature: bytes) -> bool:
    """Verify ``signature`` over ``message`` with the public key in ``dnskey``.

    Returns False (never raises) for malformed keys or unsupported
    algorithm/backend combinations — the caller decides whether the
    algorithm was supposed to be supported at all.
    """
    algorithm = dnskey.algorithm
    if algorithm in RSA_DIGESTS:
        public = rsa_public_key(dnskey)
        if public is None:
            return False
        return rsa_mod.verify(public, message, signature, RSA_DIGESTS[algorithm])
    public_sim = sim_mod.SimulatedPublicKey(algorithm=algorithm, key=dnskey.key)
    return sim_mod.verify(public_sim, message, signature)


def rsa_key_size_bits(dnskey: DNSKEY) -> int | None:
    """Modulus size for RSA keys (None for other algorithms).

    Used by the Cloudflare profile to flag "unsupported key size" for
    512-bit RSA keys (paper section 4.2 item 7).
    """
    if dnskey.algorithm not in RSA_DIGESTS:
        return None
    public = rsa_public_key(dnskey)
    return None if public is None else public.n.bit_length()
