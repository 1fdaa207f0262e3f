"""Chain-of-trust DNSSEC validation (RFC 4035) with fine-grained traces.

One :class:`Validator` instance serves one resolver.  It walks the
delegation path from the trust anchor down, establishing trust in each
zone's DNSKEY RRset via the parent's DS records, then validates the
final answer (or the NSEC3 denial of existence).  Every way the chain
can break is reported as a distinct :class:`FailureReason`, which the
vendor EDE profiles translate into INFO-CODEs.

Records are pulled through a :class:`RecordSource` the resolver
provides, so the validator never talks to the network itself and is
trivially testable against in-memory zones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

from ..dns.dnssec_records import DNSKEY, DS, NSEC3, NSEC3PARAM, RRSIG
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.rrset import RRset
from ..dns.types import RdataType
from .algorithms import (
    AlgorithmStatus,
    BASELINE_SUPPORTED,
    DsDigest,
    algorithm_info,
    digest_is_assigned,
)
from .ds import ds_matches_dnskey
from .keys import rsa_key_size_bits, verify_signature
from .nsec3 import closest_encloser_candidates, hash_covers, nsec3_hash
from .signer import signed_data
from .trace import (
    EventRecord,
    FailureReason,
    Role,
    ValidationTrace,
)


@dataclass
class FetchResult:
    """Outcome of one targeted fetch made on the validator's behalf."""

    rcode: int = Rcode.NOERROR
    answer: list[RRset] = field(default_factory=list)
    authority: list[RRset] = field(default_factory=list)
    ok: bool = True  # transport succeeded and a response was obtained
    events: list[EventRecord] = field(default_factory=list)
    #: The last successful link validation proved from these records
    #: (see :class:`Verdict`); it lives exactly as long as this object
    #: does, i.e. as long as the cache entry that holds it.
    verdict: "Verdict | None" = field(default=None, compare=False, repr=False)

    def rrset(self, qname: Name, rdtype: RdataType) -> RRset | None:
        for rrset in self.answer:
            if rrset.match(qname, rdtype):
                return rrset
        return None

    def rrsigs_covering(self, qname: Name, rdtype: RdataType) -> list[RRSIG]:
        sigs: list[RRSIG] = []
        for rrset in [*self.answer, *self.authority]:
            if rrset.rdtype == RdataType.RRSIG and rrset.name == qname:
                for rdata in rrset.rdatas:
                    if isinstance(rdata, RRSIG) and int(rdata.type_covered) == int(rdtype):
                        sigs.append(rdata)
        return sigs


@dataclass(frozen=True)
class Verdict:
    """A *successful* chain-link validation, with all it depends on.

    Two links are remembered: a DNSKEY RRset anchored by a DS set
    (``value`` is the key ring) and a DS RRset signed by the parent's
    key ring (``value`` is the DS list).  The records are the
    :class:`FetchResult` the verdict hangs on; the rest of what the
    proof read is here, and a validation that differs in any of it
    recomputes.  Failures, insecure outcomes and downgrades are never
    remembered: their traces are what the EDE policies read.
    """

    #: ``ValidatorConfig.snapshot()`` of the validator that proved it.
    config: tuple
    #: The trusted input: the DS set by value, or the parent's key ring
    #: (compared by identity — a re-validated parent is a new ring).
    trusted: object
    #: Closed interval of ``now`` over which the proof provably holds:
    #: the intersection of the validity windows of the candidate
    #: signatures that were in-window when it was reached.
    not_before: int
    not_after: int
    value: list
    #: The one warning a success can carry, replayed on every recall.
    standby_ksk_unsigned: bool = False


class RecordSource(Protocol):
    """How the validator asks the resolver for extra records."""

    def fetch_from_zone(self, zone: Name, qname: Name, rdtype: RdataType) -> FetchResult:
        """Query ``zone``'s authoritative servers for (qname, rdtype)."""
        ...


#: NSEC3 iteration counts above this downgrade the zone to insecure.
NSEC3_ITERATION_LIMIT = 150


@dataclass
class ValidatorConfig:
    """Per-resolver validation capabilities."""

    supported_algorithms: frozenset[int] = BASELINE_SUPPORTED
    supported_ds_digests: frozenset[int] = frozenset(
        {int(DsDigest.SHA1), int(DsDigest.SHA256), int(DsDigest.SHA384)}
    )
    #: RSA moduli shorter than this are rejected ("unsupported key size").
    min_rsa_bits: int = 0
    #: DS rdatas anchoring the root zone.
    trust_anchors: list[DS] = field(default_factory=list)

    def snapshot(self) -> tuple:
        """Every field's current value: what a :class:`Verdict` records
        of the config it was reached under, so a field assigned later
        is seen.  (``trust_anchors`` is held, not copied: the anchors
        enter a proof by value, as the root's ``Verdict.trusted``.)"""
        return tuple(vars(self).values())

    def algorithm_supported(self, number: int) -> bool:
        info = algorithm_info(number)
        if info.status in (AlgorithmStatus.DEPRECATED, AlgorithmStatus.NOT_RECOMMENDED):
            # RSASHA1 stays validatable in practice; RSAMD5/DSA do not.
            return number in self.supported_algorithms
        return number in self.supported_algorithms


@dataclass
class _KeyringEntry:
    dnskey: DNSKEY
    tag: int


class Validator:
    """Validates one response given a record source and a config."""

    def __init__(self, config: ValidatorConfig, source: RecordSource):
        self.config = config
        self.source = source

    # -- public entry point ------------------------------------------------------

    def validate(
        self,
        qname: Name,
        rdtype: RdataType,
        zone_path: list[Name],
        answer: list[RRset],
        authority: list[RRset],
        rcode: int,
        now: int,
    ) -> ValidationTrace:
        """Validate a final response obtained along ``zone_path``.

        ``zone_path`` runs from the root to the zone that produced the
        answer, e.g. ``[., com., example.com.]``.
        """
        warnings: list[FailureReason] = []
        trace = self._validate_path(
            qname, rdtype, zone_path, answer, authority, rcode, now, warnings
        )
        trace.warnings.extend(warnings)
        return trace

    def _validate_path(
        self,
        qname: Name,
        rdtype: RdataType,
        zone_path: list[Name],
        answer: list[RRset],
        authority: list[RRset],
        rcode: int,
        now: int,
        warnings: list[FailureReason],
    ) -> ValidationTrace:
        trusted_keys: list[_KeyringEntry] = []
        ds_rdatas: list[DS] = list(self.config.trust_anchors)
        for index, zone in enumerate(zone_path):
            if index > 0:
                parent = zone_path[index - 1]
                ds_state = self._fetch_and_validate_ds(parent, zone, trusted_keys, now)
                if isinstance(ds_state, ValidationTrace):
                    return ds_state
                ds_rdatas = ds_state
                if not ds_rdatas:
                    # Provably unsigned delegation: the rest of the chain is
                    # insecure; the answer is accepted as-is.
                    return ValidationTrace.insecure(zone=zone)
            downgrade = self._check_ds_support(zone, ds_rdatas)
            if downgrade is not None:
                return downgrade
            keys_or_trace = self._validate_dnskey(zone, ds_rdatas, now, warnings)
            if isinstance(keys_or_trace, ValidationTrace):
                return keys_or_trace
            trusted_keys = keys_or_trace

        apex = zone_path[-1]
        if rcode == Rcode.NXDOMAIN or not any(
            rrset.match(qname, rdtype) or rrset.rdtype == RdataType.CNAME
            for rrset in answer
        ):
            return self._validate_denial(qname, apex, authority, trusted_keys, now)
        return self._validate_answer(qname, rdtype, apex, answer, trusted_keys, now)

    # -- DS handling ------------------------------------------------------------------

    def _fetch_and_validate_ds(
        self,
        parent: Name,
        child: Name,
        parent_keys: list[_KeyringEntry],
        now: int,
    ) -> "list[DS] | ValidationTrace":
        result = self.source.fetch_from_zone(parent, child, RdataType.DS)
        verdict = self._recall(result, now)
        if verdict is not None and verdict.trusted is parent_keys:
            return verdict.value
        if not result.ok:
            return ValidationTrace.bogus(
                FailureReason.DS_UNFETCHABLE, Role.TRANSPORT, zone=child
            )
        ds_rrset = result.rrset(child, RdataType.DS)
        if ds_rrset is None:
            # Negative answer: the delegation is insecure *iff* the parent
            # proves the DS absence. A broken proof is the paper's NSEC
            # Missing case ("failed to verify an insecure referral proof").
            denial = self._validate_denial(
                child, parent, result.authority, parent_keys, now,
                referral_proof=True,
            )
            if denial.is_bogus:
                return ValidationTrace.bogus(
                    FailureReason.NSEC_MISSING,
                    Role.DENIAL,
                    zone=child,
                    detail=f"failed to verify an insecure referral proof for {child}",
                )
            return []
        sigs = result.rrsigs_covering(child, RdataType.DS)
        trace = self._verify_rrset_signatures(
            ds_rrset, sigs, parent_keys, parent, now, role=Role.DS
        )
        if trace is not None:
            return trace
        ds_rdatas = [rd for rd in ds_rrset.rdatas if isinstance(rd, DS)]
        self._remember(result, parent_keys, sigs, now, ds_rdatas)
        return ds_rdatas

    def _check_ds_support(
        self, zone: Name, ds_rdatas: list[DS]
    ) -> ValidationTrace | None:
        """Downgrade to insecure when no DS is usable (RFC 4035 section 5.2)."""
        if not ds_rdatas:
            return None
        usable = [
            ds
            for ds in ds_rdatas
            if self.config.algorithm_supported(ds.algorithm)
            and ds.digest_type in self.config.supported_ds_digests
        ]
        if usable:
            return None
        # Classify why nothing was usable, most specific signal first.
        statuses = {algorithm_info(ds.algorithm).status for ds in ds_rdatas}
        digests_bad = [
            ds for ds in ds_rdatas if ds.digest_type not in self.config.supported_ds_digests
        ]
        algos_ok = [
            ds for ds in ds_rdatas if self.config.algorithm_supported(ds.algorithm)
        ]
        if algos_ok and digests_bad:
            if all(not digest_is_assigned(ds.digest_type) for ds in digests_bad):
                reason = FailureReason.DS_UNASSIGNED_DIGEST
            else:
                reason = FailureReason.DS_UNSUPPORTED_DIGEST
            return ValidationTrace.insecure(
                reason, zone=zone, algorithm=digests_bad[0].digest_type
            )
        if statuses == {AlgorithmStatus.UNASSIGNED}:
            reason = FailureReason.DS_UNASSIGNED_KEY_ALGO
        elif statuses == {AlgorithmStatus.RESERVED}:
            reason = FailureReason.DS_RESERVED_KEY_ALGO
        elif statuses & {AlgorithmStatus.DEPRECATED, AlgorithmStatus.NOT_RECOMMENDED}:
            reason = FailureReason.ALGO_DEPRECATED
        else:
            reason = FailureReason.ALGO_UNSUPPORTED
        return ValidationTrace.insecure(
            reason, zone=zone, algorithm=ds_rdatas[0].algorithm
        )

    # -- DNSKEY trust establishment ----------------------------------------------------

    def _validate_dnskey(
        self,
        zone: Name,
        ds_rdatas: list[DS],
        now: int,
        warnings: list[FailureReason] | None = None,
    ) -> "list[_KeyringEntry] | ValidationTrace":
        result = self.source.fetch_from_zone(zone, zone, RdataType.DNSKEY)
        anchors = tuple(ds_rdatas)
        verdict = self._recall(result, now)
        if verdict is not None and verdict.trusted == anchors:
            if verdict.standby_ksk_unsigned and warnings is not None:
                warnings.append(FailureReason.STANDBY_KSK_UNSIGNED)
            return verdict.value
        if not result.ok or (
            result.rcode != Rcode.NOERROR and result.rrset(zone, RdataType.DNSKEY) is None
        ):
            return ValidationTrace.bogus(
                FailureReason.DNSKEY_UNFETCHABLE, Role.TRANSPORT, zone=zone
            )
        dnskey_rrset = result.rrset(zone, RdataType.DNSKEY)
        if dnskey_rrset is None:
            return ValidationTrace.bogus(
                FailureReason.DNSKEY_UNFETCHABLE, Role.DNSKEY, zone=zone
            )
        keys = [
            _KeyringEntry(dnskey=rd, tag=rd.key_tag())
            for rd in dnskey_rrset.rdatas
            if isinstance(rd, DNSKEY)
        ]
        zone_keys = [entry for entry in keys if entry.dnskey.is_zone_key]
        if not zone_keys:
            return ValidationTrace.bogus(
                FailureReason.ZONE_KEY_BITS_CLEAR, Role.DNSKEY, zone=zone
            )

        usable_ds = [
            ds
            for ds in ds_rdatas
            if self.config.algorithm_supported(ds.algorithm)
            and ds.digest_type in self.config.supported_ds_digests
        ]
        matched: list[_KeyringEntry] = []
        tag_algo_hits = 0
        for ds in usable_ds:
            for entry in zone_keys:
                if ds.key_tag == entry.tag and ds.algorithm == entry.dnskey.algorithm:
                    tag_algo_hits += 1
                    if ds_matches_dnskey(ds, zone, entry.dnskey):
                        matched.append(entry)
        if not matched:
            if tag_algo_hits:
                return ValidationTrace.bogus(
                    FailureReason.DS_DIGEST_MISMATCH, Role.DS, zone=zone
                )
            return ValidationTrace.bogus(
                FailureReason.DS_DNSKEY_MISMATCH, Role.DS, zone=zone
            )

        if self.config.min_rsa_bits:
            sizes = [rsa_key_size_bits(entry.dnskey) for entry in matched]
            real_sizes = [size for size in sizes if size is not None]
            if real_sizes and max(real_sizes) < self.config.min_rsa_bits:
                return ValidationTrace.insecure(
                    FailureReason.KEY_SIZE_UNSUPPORTED,
                    zone=zone,
                    key_size=max(real_sizes),
                    detail="unsupported key size",
                )

        sigs = result.rrsigs_covering(zone, RdataType.DNSKEY)
        if not sigs:
            return ValidationTrace.bogus(
                FailureReason.DNSKEY_RRSIG_MISSING, Role.DNSKEY, zone=zone
            )
        matched_tags = {entry.tag for entry in matched}
        anchored = [sig for sig in sigs if sig.key_tag in matched_tags]
        if not anchored:
            return ValidationTrace.bogus(
                FailureReason.KSK_SIG_MISSING, Role.DNSKEY, zone=zone
            )
        timing = self._classify_timing(anchored, now)
        if timing is not None:
            reason = {
                "expired": FailureReason.DNSKEY_SIG_EXPIRED,
                "not_yet": FailureReason.DNSKEY_SIG_NOT_YET_VALID,
                "inverted": FailureReason.DNSKEY_SIG_INVERTED,
            }[timing[0]]
            return ValidationTrace.bogus(
                reason, Role.DNSKEY, zone=zone, expired_at=timing[1]
            )
        # RFC 4035 section 5.3.1: a signature outside its validity window
        # proves nothing, however genuine — here as in
        # ``_verify_rrset_signatures``.
        for sig in anchored:
            if not self._sig_window_ok(sig, now):
                continue
            for entry in matched:
                if entry.tag == sig.key_tag and entry.dnskey.algorithm == sig.algorithm:
                    data = signed_data(dnskey_rrset, sig)
                    if verify_signature(entry.dnskey, data, sig.signature):
                        covered_tags = {s.key_tag for s in sigs}
                        # A stand-by SEP key with no covering RRSIG:
                        # harmless, but flagged by Cloudflare (4.2/3).
                        standby = any(
                            entry.dnskey.is_sep and entry.tag not in covered_tags
                            for entry in zone_keys
                        )
                        if standby and warnings is not None:
                            warnings.append(FailureReason.STANDBY_KSK_UNSIGNED)
                        # Only keys with the Zone Key bit may sign zone data.
                        self._remember(result, anchors, anchored, now, zone_keys, standby)
                        return zone_keys
        # The anchored signature exists but is cryptographically wrong. If
        # some *other* zone key still validates the RRset, only the SEP path
        # is broken (the bad-rrsig-ksk case); otherwise everything is bogus.
        for sig in sigs:
            if not self._sig_window_ok(sig, now):
                continue
            for entry in zone_keys:
                if entry.tag == sig.key_tag and entry.dnskey.algorithm == sig.algorithm:
                    data = signed_data(dnskey_rrset, sig)
                    if verify_signature(entry.dnskey, data, sig.signature):
                        return ValidationTrace.bogus(
                            FailureReason.KSK_SIG_INVALID, Role.DNSKEY, zone=zone
                        )
        return ValidationTrace.bogus(
            FailureReason.DNSKEY_SIG_INVALID, Role.DNSKEY, zone=zone
        )

    # -- positive answers -----------------------------------------------------------------

    def _validate_answer(
        self,
        qname: Name,
        rdtype: RdataType,
        zone: Name,
        answer: list[RRset],
        keys: list[_KeyringEntry],
        now: int,
    ) -> ValidationTrace:
        target_sets = [
            rrset
            for rrset in answer
            if rrset.rdtype != RdataType.RRSIG
        ]
        if not target_sets:
            return ValidationTrace.bogus(
                FailureReason.MISMATCHED_ANSWER, Role.LEAF, zone=zone
            )
        sig_index: dict[tuple[Name, int], list[RRSIG]] = {}
        for rrset in answer:
            if rrset.rdtype == RdataType.RRSIG:
                for rdata in rrset.rdatas:
                    if isinstance(rdata, RRSIG):
                        sig_index.setdefault(
                            (rrset.name, int(rdata.type_covered)), []
                        ).append(rdata)
        for rrset in target_sets:
            sigs = sig_index.get((rrset.name, int(rrset.rdtype)), [])
            trace = self._verify_rrset_signatures(
                rrset, sigs, keys, zone, now, role=Role.LEAF
            )
            if trace is not None:
                return trace
        return ValidationTrace.secure()

    def _verify_rrset_signatures(
        self,
        rrset: RRset,
        sigs: list[RRSIG],
        keys: list[_KeyringEntry],
        zone: Name,
        now: int,
        role: Role,
    ) -> ValidationTrace | None:
        """None when at least one signature fully validates ``rrset``."""
        if not sigs:
            reason = (
                FailureReason.LEAF_RRSIG_MISSING
                if role in (Role.LEAF, Role.DS)
                else FailureReason.DNSKEY_RRSIG_MISSING
            )
            return ValidationTrace.bogus(reason, role, zone=zone)
        by_tag = [
            (sig, entry)
            for sig in sigs
            for entry in keys
            if entry.tag == sig.key_tag and entry.dnskey.algorithm == sig.algorithm
        ]
        if not by_tag:
            return self._classify_missing_key(rrset, sigs, keys, zone, role)
        timing = self._classify_timing([sig for sig, _ in by_tag], now)
        if timing is not None:
            reason = {
                "expired": FailureReason.LEAF_SIG_EXPIRED,
                "not_yet": FailureReason.LEAF_SIG_NOT_YET_VALID,
                "inverted": FailureReason.LEAF_SIG_INVERTED,
            }[timing[0]]
            return ValidationTrace.bogus(reason, role, zone=zone, expired_at=timing[1])
        for sig, entry in by_tag:
            if not self._sig_window_ok(sig, now):
                continue
            owner_labels = len([l for l in rrset.name.labels if l != b""])
            candidate = rrset
            if sig.labels < owner_labels:
                # RFC 4035 section 5.3.4: the answer was synthesized from a
                # wildcard; verify against the reconstructed wildcard owner.
                _prefix, suffix = rrset.name.split(sig.labels + 1)
                wildcard_owner = suffix.prepend(b"*")
                candidate = replace(rrset, name=wildcard_owner)
            data = signed_data(candidate, sig)
            if verify_signature(entry.dnskey, data, sig.signature):
                return None
        return ValidationTrace.bogus(FailureReason.LEAF_SIG_INVALID, role, zone=zone)

    def _classify_missing_key(
        self,
        rrset: RRset,
        sigs: list[RRSIG],
        keys: list[_KeyringEntry],
        zone: Name,
        role: Role,
    ) -> ValidationTrace:
        """No trusted DNSKEY matches any covering RRSIG — figure out why."""
        non_sep = [entry for entry in keys if not entry.dnskey.is_sep]
        if not non_sep:
            return ValidationTrace.bogus(FailureReason.ZSK_MISSING, role, zone=zone)
        for entry in non_sep:
            status = algorithm_info(entry.dnskey.algorithm).status
            if status == AlgorithmStatus.UNASSIGNED:
                return ValidationTrace.bogus(
                    FailureReason.ZSK_ALGO_UNASSIGNED,
                    role,
                    zone=zone,
                    algorithm=entry.dnskey.algorithm,
                )
            if status == AlgorithmStatus.RESERVED:
                return ValidationTrace.bogus(
                    FailureReason.ZSK_ALGO_RESERVED,
                    role,
                    zone=zone,
                    algorithm=entry.dnskey.algorithm,
                )
        sig_algos = {sig.algorithm for sig in sigs}
        if sig_algos and not any(
            entry.dnskey.algorithm in sig_algos for entry in non_sep
        ):
            return ValidationTrace.bogus(
                FailureReason.ZSK_ALGO_MISMATCH, role, zone=zone
            )
        return ValidationTrace.bogus(FailureReason.ZSK_BAD, role, zone=zone)

    # -- denial of existence -------------------------------------------------------------------

    def _validate_denial(
        self,
        qname: Name,
        zone: Name,
        authority: list[RRset],
        keys: list[_KeyringEntry],
        now: int,
        referral_proof: bool = False,
    ) -> ValidationTrace:
        nsec3_sets = [r for r in authority if r.rdtype == RdataType.NSEC3]
        nsec_sets = [r for r in authority if r.rdtype == RdataType.NSEC]
        if not nsec3_sets and not nsec_sets:
            param = self._apex_nsec3param(zone)
            if param is not None:
                return ValidationTrace.bogus(
                    FailureReason.NSEC3_RECORDS_MISSING, Role.DENIAL, zone=zone
                )
            return ValidationTrace.bogus(
                FailureReason.NSEC3_CHAIN_ABSENT, Role.DENIAL, zone=zone
            )
        if nsec_sets and not nsec3_sets:
            return self._validate_nsec_denial(qname, zone, nsec_sets, authority, keys, now)

        # All presented NSEC3 records must share one parameter set.
        params = {
            (rd.hash_algorithm, rd.iterations, rd.salt)
            for rrset in nsec3_sets
            for rd in rrset.rdatas
            if isinstance(rd, NSEC3)
        }
        if len(params) != 1:
            return ValidationTrace.bogus(
                FailureReason.NSEC3_BAD_HASH, Role.DENIAL, zone=zone
            )
        hash_algorithm, iterations, salt = next(iter(params))
        if hash_algorithm != 1:
            return ValidationTrace.insecure(FailureReason.ALGO_UNSUPPORTED, zone=zone)
        if iterations > NSEC3_ITERATION_LIMIT:
            return ValidationTrace.insecure(
                FailureReason.NSEC3_ITERATIONS_TOO_HIGH, zone=zone
            )

        param = self._apex_nsec3param(zone)
        if param is None:
            return ValidationTrace.bogus(
                FailureReason.NSEC3PARAM_MISSING, Role.DENIAL, zone=zone
            )
        if (param.iterations, param.salt) != (iterations, salt):
            return ValidationTrace.bogus(
                FailureReason.NSEC3PARAM_SALT_MISMATCH, Role.DENIAL, zone=zone
            )

        # Index the presented records by owner hash label.
        by_hash: dict[str, NSEC3] = {}
        owners: dict[str, Name] = {}
        for rrset in nsec3_sets:
            first_label = rrset.name.labels[0].decode("ascii", "replace").lower()
            for rd in rrset.rdatas:
                if isinstance(rd, NSEC3):
                    by_hash[first_label] = rd
                    owners[first_label] = rrset.name

        from .nsec3 import base32hex_encode

        candidates = closest_encloser_candidates(qname, zone)
        closest: Name | None = None
        for candidate in candidates:
            label = base32hex_encode(nsec3_hash(candidate, salt, iterations)).lower()
            if label in by_hash:
                closest = candidate
                break
        if closest is None:
            return ValidationTrace.bogus(
                FailureReason.NSEC3_BAD_HASH, Role.DENIAL, zone=zone
            )
        if closest == qname and not referral_proof:
            # NODATA: the matching record must not list the queried type —
            # checked by the caller's sig verification below.
            pass
        elif closest != qname:
            index = candidates.index(closest)
            next_closer = candidates[index - 1]
            target = nsec3_hash(next_closer, salt, iterations)
            covered = any(
                hash_covers(
                    self._owner_hash(owner_label), rd.next_hash, target
                )
                for owner_label, rd in by_hash.items()
            )
            if not covered:
                return ValidationTrace.bogus(
                    FailureReason.NSEC3_BAD_NEXT, Role.DENIAL, zone=zone
                )

        # Finally, the presented records must be properly signed.
        for rrset in nsec3_sets:
            sigs = self._sigs_for(authority, rrset.name, RdataType.NSEC3)
            if not sigs:
                return ValidationTrace.bogus(
                    FailureReason.NSEC3_RRSIG_MISSING, Role.DENIAL, zone=zone
                )
            trace = self._verify_rrset_signatures(
                rrset, sigs, keys, zone, now, role=Role.DENIAL
            )
            if trace is not None:
                return ValidationTrace.bogus(
                    FailureReason.NSEC3_BAD_RRSIG, Role.DENIAL, zone=zone
                )
        return ValidationTrace.secure()

    def _validate_nsec_denial(
        self,
        qname: Name,
        zone: Name,
        nsec_sets: list[RRset],
        authority: list[RRset],
        keys: list[_KeyringEntry],
        now: int,
    ) -> ValidationTrace:
        from ..dns.dnssec_records import NSEC
        from .nsec import nsec_covers, nsec_matches

        for rrset in nsec_sets:
            sigs = self._sigs_for(authority, rrset.name, RdataType.NSEC)
            trace = self._verify_rrset_signatures(
                rrset, sigs, keys, zone, now, role=Role.DENIAL
            )
            if trace is not None:
                return ValidationTrace.bogus(
                    FailureReason.NSEC_MISSING, Role.DENIAL, zone=zone
                )
        covered = False
        for rrset in nsec_sets:
            for rd in rrset.rdatas:
                if not isinstance(rd, NSEC):
                    continue
                if nsec_matches(rrset.name, qname):
                    covered = True  # NODATA proof: the name exists
                elif nsec_covers(rrset.name, rd.next_name, qname, zone):
                    covered = True
        if not covered:
            return ValidationTrace.bogus(
                FailureReason.NSEC_MISSING, Role.DENIAL, zone=zone
            )
        return ValidationTrace.secure()

    # -- remembered verdicts --------------------------------------------------------------------

    def _recall(self, result: FetchResult, now: int) -> Verdict | None:
        """The verdict remembered on ``result`` if this validator, at
        ``now``, would reach it again; the caller checks ``trusted``."""
        verdict = result.verdict
        if (
            verdict is not None
            and verdict.not_before <= now <= verdict.not_after
            and verdict.config == self.config.snapshot()
        ):
            return verdict
        return None

    def _remember(
        self,
        result: FetchResult,
        trusted: object,
        candidates: list[RRSIG],
        now: int,
        value: list,
        standby_ksk_unsigned: bool = False,
    ) -> None:
        live = [sig for sig in candidates if self._sig_window_ok(sig, now)]
        result.verdict = Verdict(
            config=self.config.snapshot(),
            trusted=trusted,
            not_before=max(sig.inception for sig in live),
            not_after=min(sig.expiration for sig in live),
            value=value,
            standby_ksk_unsigned=standby_ksk_unsigned,
        )

    # -- helpers -----------------------------------------------------------------------------------

    def _apex_nsec3param(self, zone: Name) -> NSEC3PARAM | None:
        result = self.source.fetch_from_zone(zone, zone, RdataType.NSEC3PARAM)
        rrset = result.rrset(zone, RdataType.NSEC3PARAM)
        if rrset is None:
            return None
        for rd in rrset.rdatas:
            if isinstance(rd, NSEC3PARAM):
                return rd
        return None

    @staticmethod
    def _sigs_for(section: list[RRset], name: Name, covered: RdataType) -> list[RRSIG]:
        sigs: list[RRSIG] = []
        for rrset in section:
            if rrset.rdtype == RdataType.RRSIG and rrset.name == name:
                for rdata in rrset.rdatas:
                    if isinstance(rdata, RRSIG) and int(rdata.type_covered) == int(covered):
                        sigs.append(rdata)
        return sigs

    @staticmethod
    def _owner_hash(owner_label: str) -> bytes:
        from .nsec3 import base32hex_decode

        try:
            return base32hex_decode(owner_label)
        except ValueError:
            return b""

    @staticmethod
    def _sig_window_ok(sig: RRSIG, now: int) -> bool:
        return sig.inception <= now <= sig.expiration

    @staticmethod
    def _classify_timing(sigs: list[RRSIG], now: int) -> tuple[str, int] | None:
        """When *every* candidate signature fails its window, say how."""
        if any(Validator._sig_window_ok(sig, now) for sig in sigs):
            return None
        sig = sigs[0]
        if sig.expiration < sig.inception:
            return ("inverted", sig.expiration)
        if now > sig.expiration:
            return ("expired", sig.expiration)
        return ("not_yet", sig.inception)
