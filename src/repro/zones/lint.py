"""Proactive zone verification — catch Table 3 mistakes *before* serving.

The paper's related work cites GRooT/SCALE-style proactive checkers and
web tools like DNSViz; its own thesis is that EDE lets you skip them.
This linter closes the loop from the operator's side: it inspects a
built :class:`~repro.zones.zone.Zone` (plus, optionally, the DS set the
parent publishes) and reports every inconsistency the paper's testbed
encodes — so each of the 63 cases is detectable *offline*, and a lint-
clean zone resolves without extended errors.

Checks implemented:

* DS ↔ DNSKEY linkage (tag, algorithm, digest; unassigned/reserved
  numbers; unsupported digest types),
* DNSKEY RRset shape (zone-key bits, SEP presence, stand-by keys),
* RRSIG coverage and validity windows for every authoritative RRset,
  and no RRSIG over a delegation's NS set or glue (RFC 4035 section 2.2),
* cryptographic verification of every signature,
* NSEC3 chain integrity (presence, closure, salt/iteration agreement
  with NSEC3PARAM, RFC 9276 iteration guidance, signature coverage),
  and no NSEC3 record for a glue or other occluded name (RFC 5155
  section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..dns.dnssec_records import DNSKEY, DS, NSEC3, NSEC3PARAM, RRSIG
from ..dns.name import Name
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dnssec.algorithms import AlgorithmStatus, algorithm_info, digest_is_assigned
from ..dnssec.ds import ds_matches_dnskey
from ..dnssec.keys import verify_signature
from ..dnssec.nsec3 import (
    RFC9276_MAX_ITERATIONS,
    base32hex_decode,
    base32hex_encode,
    nsec3_hash,
)
from ..dnssec.signer import signed_data
from .zone import Zone


class Severity(Enum):
    ERROR = "error"  # validation will fail (SERVFAIL for clients)
    WARNING = "warning"  # downgrade, stand-by key, or best-practice breach
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    check: str
    message: str
    name: str = ""

    def __str__(self) -> str:
        where = f" at {self.name}" if self.name else ""
        return f"[{self.severity.value}] {self.check}{where}: {self.message}"


class ZoneLinter:
    """Runs every check against one zone."""

    def __init__(self, zone: Zone, now: int, parent_ds: list[DS] | None = None):
        self.zone = zone
        self.now = now
        self.parent_ds = parent_ds or []
        self.findings: list[Finding] = []

    # -- public API ---------------------------------------------------------

    def run(self) -> list[Finding]:
        dnskeys = self._dnskeys()
        if not dnskeys and not self.parent_ds:
            self.findings.append(
                Finding(Severity.INFO, "unsigned", "zone has no DNSKEY records")
            )
            return self.findings
        self._check_dnskey_shape(dnskeys)
        self._check_ds_linkage(dnskeys)
        self._check_signatures(dnskeys)
        self._check_nsec3()
        return self.findings

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    # -- helpers ---------------------------------------------------------------

    def _emit(self, severity: Severity, check: str, message: str, name: Name | str = "") -> None:
        self.findings.append(
            Finding(severity=severity, check=check, message=message, name=str(name))
        )

    def _dnskeys(self) -> list[DNSKEY]:
        rrset = self.zone.find(self.zone.origin, RdataType.DNSKEY)
        if rrset is None:
            return []
        return [rd for rd in rrset.rdatas if isinstance(rd, DNSKEY)]

    # -- DNSKEY shape -------------------------------------------------------------

    def _check_dnskey_shape(self, dnskeys: list[DNSKEY]) -> None:
        if not dnskeys:
            self._emit(Severity.ERROR, "dnskey-missing", "signed zone has no DNSKEY RRset")
            return
        zone_keys = [k for k in dnskeys if k.is_zone_key]
        if not zone_keys:
            self._emit(
                Severity.ERROR, "zone-key-bit",
                "no DNSKEY has the Zone Key bit set (flags 256/257)",
            )
        if not any(k.is_sep for k in zone_keys):
            self._emit(
                Severity.WARNING, "no-ksk",
                "no SEP (KSK) key among the zone keys",
            )
        for key in dnskeys:
            info = algorithm_info(key.algorithm)
            if info.status == AlgorithmStatus.UNASSIGNED:
                self._emit(
                    Severity.ERROR, "key-algorithm",
                    f"DNSKEY tag {key.key_tag()} uses unassigned algorithm {key.algorithm}",
                )
            elif info.status == AlgorithmStatus.RESERVED:
                self._emit(
                    Severity.ERROR, "key-algorithm",
                    f"DNSKEY tag {key.key_tag()} uses reserved algorithm {key.algorithm}",
                )
            elif info.status in (AlgorithmStatus.DEPRECATED, AlgorithmStatus.NOT_RECOMMENDED):
                self._emit(
                    Severity.WARNING, "key-algorithm",
                    f"DNSKEY tag {key.key_tag()} uses {info.mnemonic}"
                    " (deprecated or not recommended)",
                )

    # -- DS linkage -----------------------------------------------------------------

    def _check_ds_linkage(self, dnskeys: list[DNSKEY]) -> None:
        if not self.parent_ds:
            if dnskeys:
                self._emit(
                    Severity.WARNING, "no-ds",
                    "zone is signed but the parent publishes no DS"
                    " (validators will treat it as insecure)",
                )
            return
        matched = False
        for ds in self.parent_ds:
            info = algorithm_info(ds.algorithm)
            if info.status in (AlgorithmStatus.UNASSIGNED, AlgorithmStatus.RESERVED):
                self._emit(
                    Severity.ERROR, "ds-algorithm",
                    f"DS tag {ds.key_tag} has {info.status} algorithm {ds.algorithm}",
                )
                continue
            if not digest_is_assigned(ds.digest_type):
                self._emit(
                    Severity.ERROR, "ds-digest",
                    f"DS tag {ds.key_tag} has unassigned digest type {ds.digest_type}",
                )
                continue
            tag_hits = [k for k in dnskeys if k.key_tag() == ds.key_tag]
            if not tag_hits:
                self._emit(
                    Severity.ERROR, "ds-linkage",
                    f"DS tag {ds.key_tag} matches no DNSKEY in the zone",
                )
                continue
            if any(ds_matches_dnskey(ds, self.zone.origin, key) for key in tag_hits):
                matched = True
            else:
                self._emit(
                    Severity.ERROR, "ds-linkage",
                    f"DS tag {ds.key_tag}: key tag matches but the digest does not",
                )
        if self.parent_ds and not matched:
            self._emit(
                Severity.ERROR, "chain-of-trust",
                "no parent DS authenticates any DNSKEY — the chain of trust is broken",
            )

    # -- signatures -----------------------------------------------------------------------

    def _check_signatures(self, dnskeys: list[DNSKEY]) -> None:
        by_tag = {(k.key_tag(), k.algorithm): k for k in dnskeys if k.is_zone_key}
        covered_keys: set[int] = set()
        cuts = self.zone.zone_cuts()
        for rrset in self.zone.all_rrsets():
            if rrset.rdtype == RdataType.RRSIG:
                continue
            sigs = self._sigs_covering(rrset)
            if not self.zone.is_authoritative(rrset.name, rrset.rdtype, cuts):
                if sigs:
                    self._emit(
                        Severity.WARNING, "rrsig-unauthoritative",
                        f"an RRSIG covers the {rrset.rdtype} RRset, which is a"
                        " delegation's NS set or glue, not the zone's own data",
                        rrset.name,
                    )
                continue
            if not sigs:
                self._emit(
                    Severity.ERROR, "rrsig-missing",
                    f"no RRSIG covers the {rrset.rdtype} RRset",
                    rrset.name,
                )
                continue
            rrset_ok = False
            for sig in sigs:
                problem = self._sig_problem(rrset, sig, by_tag)
                if problem is None:
                    rrset_ok = True
                    covered_keys.add(sig.key_tag)
                else:
                    self._emit(Severity.WARNING, "rrsig", problem, rrset.name)
            if not rrset_ok:
                self._emit(
                    Severity.ERROR, "rrsig-invalid",
                    f"no valid signature over the {rrset.rdtype} RRset",
                    rrset.name,
                )
        for key in dnskeys:
            if key.is_sep and key.key_tag() not in covered_keys:
                dnskey_sigs = self._sigs_covering(
                    self.zone.find(self.zone.origin, RdataType.DNSKEY)
                )
                if not any(sig.key_tag == key.key_tag() for sig in dnskey_sigs):
                    self._emit(
                        Severity.WARNING, "standby-key",
                        f"SEP key tag {key.key_tag()} signs nothing"
                        " (stand-by key; Cloudflare flags this as RRSIGs Missing)",
                    )

    def _sigs_covering(self, rrset: RRset | None) -> list[RRSIG]:
        if rrset is None:
            return []
        sig_set = self.zone.rrsigs_for(rrset.name, rrset.rdtype)
        if sig_set is None:
            return []
        return [rd for rd in sig_set.rdatas if isinstance(rd, RRSIG)]

    def _sig_problem(self, rrset: RRset, sig: RRSIG, by_tag) -> str | None:
        if sig.expiration < sig.inception:
            return (
                f"RRSIG over {rrset.rdtype} expires ({sig.expiration}) before"
                f" inception ({sig.inception})"
            )
        if self.now > sig.expiration:
            return f"RRSIG over {rrset.rdtype} expired at {sig.expiration}"
        if self.now < sig.inception:
            return f"RRSIG over {rrset.rdtype} not valid until {sig.inception}"
        key = by_tag.get((sig.key_tag, sig.algorithm))
        if key is None:
            return (
                f"RRSIG over {rrset.rdtype} made with key tag {sig.key_tag}"
                " which is not in the DNSKEY RRset"
            )
        if not verify_signature(key, signed_data(rrset, sig), sig.signature):
            return f"RRSIG over {rrset.rdtype} fails cryptographic verification"
        return None

    # -- NSEC3 ---------------------------------------------------------------------------------

    def _check_nsec3(self) -> None:
        records = self.zone.nsec3_records()
        param_set = self.zone.find(self.zone.origin, RdataType.NSEC3PARAM)
        param = None
        if param_set is not None:
            for rd in param_set.rdatas:
                if isinstance(rd, NSEC3PARAM):
                    param = rd
        if param is None and not records:
            self._emit(
                Severity.WARNING, "nsec3",
                "no NSEC3 chain: negative answers cannot be proven",
            )
            return
        if param is None:
            self._emit(
                Severity.ERROR, "nsec3param",
                "NSEC3 records exist but the apex NSEC3PARAM is missing",
            )
        if not records:
            self._emit(
                Severity.ERROR, "nsec3-chain",
                "NSEC3PARAM advertised but no NSEC3 records exist",
            )
            return
        params = {(rd.iterations, rd.salt) for _, rd in records}
        if len(params) > 1:
            self._emit(Severity.ERROR, "nsec3-chain", "mixed NSEC3 parameters in one chain")
        iterations, salt = next(iter(params))
        if len(params) == 1:
            self._check_nsec3_membership({owner for owner, _rd in records}, iterations, salt)
        if param is not None and (param.iterations, param.salt) != (iterations, salt):
            self._emit(
                Severity.ERROR, "nsec3param",
                "NSEC3PARAM disagrees with the chain"
                f" (param {param.iterations}/{param.salt.hex() or '-'}"
                f" vs chain {iterations}/{salt.hex() or '-'})",
            )
        if iterations > RFC9276_MAX_ITERATIONS:
            self._emit(
                Severity.WARNING, "nsec3-iterations",
                f"iteration count {iterations} violates RFC 9276 (use 0)",
            )
        # Chain closure: owners and next-hashes must be the same multiset.
        owners = []
        nexts = []
        for owner, rd in records:
            try:
                owners.append(base32hex_decode(owner.labels[0].decode()))
            except (ValueError, UnicodeDecodeError):
                self._emit(
                    Severity.ERROR, "nsec3-owner",
                    "NSEC3 owner label is not valid base32hex", owner,
                )
                return
            nexts.append(rd.next_hash)
        if sorted(owners) != sorted(nexts):
            self._emit(
                Severity.ERROR, "nsec3-chain",
                "the NSEC3 chain does not close (owner/next hash sets differ)",
            )

    def _check_nsec3_membership(self, owners: set[Name], iterations: int, salt: bytes) -> None:
        """RFC 5155 section 7.1: a name that holds only non-authoritative
        data, and is not a cut, has no NSEC3 record."""
        zone = self.zone
        cuts = zone.zone_cuts()
        origin_labels = zone.origin.labels
        for name in zone.owners():
            if name in cuts:
                continue
            rrsets = [
                rrset for rrset in zone.rrsets_at(name)
                if rrset.rdtype not in (RdataType.NSEC3, RdataType.RRSIG)
            ]
            if not rrsets or any(
                zone.is_authoritative(name, rrset.rdtype, cuts) for rrset in rrsets
            ):
                continue
            digest = nsec3_hash(name, salt, iterations)
            owner = Name((base32hex_encode(digest).encode(), *origin_labels))
            if owner in owners:
                self._emit(
                    Severity.WARNING, "nsec3-unauthoritative",
                    f"an NSEC3 record represents {name}, which holds only glue"
                    " or occluded data, not the zone's own",
                    owner,
                )


def lint_zone(zone: Zone, now: int, parent_ds: list[DS] | None = None) -> list[Finding]:
    """Convenience wrapper around :class:`ZoneLinter`."""
    return ZoneLinter(zone, now=now, parent_ds=parent_ds).run()
