"""zdns-style mass scanner (paper Section 4.1).

Generates A queries for every registered domain in the population,
through a Cloudflare-profile recursive resolver attached to the wild
fabric, and collects one NDJSON-style record per domain: RCODE, answer
addresses, and every EDE option with its EXTRA-TEXT.

Two-phase profiles (Stale Answer, Cached Error) are primed first, the
clock advanced past the TTL where needed, and re-queried — the paper's
scan sees those states because Cloudflare's caches were warm from other
clients; our scanner must create the warmth itself.

The scan loop is hardened for hostile fabrics (chaos runs, real-world
reuse): a domain whose resolution raises yields an *error record*
instead of killing the scan, completed records stream to an optional
NDJSON checkpoint, and :meth:`WildScanner.resume_from` continues a
killed scan by skipping names the checkpoint already holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..cluster import ClusterConfig, ResolverCluster
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.types import RdataType
from ..obs import NULL_OBS, Observability
from ..resolver.iterative import EngineConfig
from ..resolver.profiles import CLOUDFLARE, ResolverProfile
from ..resolver.recursive import RecursiveResolver
from .population import Profile, TWO_PHASE_PROFILES, WildDomain
from .wild import WildInternet


@dataclass(slots=True)
class ScanRecord:
    """One scan result row (mirrors zdns output plus ground truth)."""

    name: str
    tld: str
    profile: int  # ground-truth Profile value
    rcode: int
    ede_codes: tuple[int, ...]
    extra_texts: tuple[str, ...]
    ns_index: int
    rank: int | None
    signed: bool
    #: Non-empty when resolution raised instead of answering; the scan
    #: records the exception and moves on (zdns's per-name isolation).
    error: str = ""

    @property
    def has_ede(self) -> bool:
        return bool(self.ede_codes)

    @property
    def noerror(self) -> bool:
        return self.rcode == Rcode.NOERROR

    @property
    def is_error(self) -> bool:
        return bool(self.error)

    def to_record(self) -> dict:
        record = {
            "name": self.name,
            "rcode": Rcode(self.rcode).name,
            "ede": [
                {"info_code": code} for code in self.ede_codes
            ],
            "extra_text": list(self.extra_texts),
        }
        if self.error:
            record["error"] = self.error
        return record


@dataclass
class ScanResult:
    records: list[ScanRecord] = field(default_factory=list)
    queries_sent: int = 0
    duration_virtual: float = 0.0  # fabric-clock seconds consumed
    #: Portion of ``duration_virtual`` spent deliberately letting TTLs
    #: expire between the two-phase prime and re-query (not scan work).
    ttl_wait_virtual: float = 0.0
    #: Concurrency the scan ran with (1 = the sequential baseline).
    workers: int = 1
    #: Client resolutions and infra fetches served by piggybacking on
    #: another lane's identical in-flight upstream query.
    coalesced: int = 0
    #: Metrics snapshot (``MetricsRegistry.snapshot()``) when the scan
    #: ran with observability enabled; None under the null sink.
    metrics: dict | None = None

    @property
    def active_virtual(self) -> float:
        """Virtual seconds of actual scan work (excludes TTL waits)."""
        return self.duration_virtual - self.ttl_wait_virtual

    def ede_records(self) -> list[ScanRecord]:
        return [record for record in self.records if record.has_ede]

    def error_records(self) -> list[ScanRecord]:
        return [record for record in self.records if record.is_error]

    def by_code(self) -> dict[int, int]:
        """Domains per INFO-CODE (a domain counts once per code)."""
        counts: dict[int, int] = {}
        for record in self.records:
            for code in record.ede_codes:
                counts[code] = counts.get(code, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))


def categorization_of(result: ScanResult) -> dict:
    """Order-independent per-domain scan outcome, JSON-serializable."""
    return {
        record.name: [
            int(record.rcode),
            list(record.ede_codes),
            list(record.extra_texts),
            record.error,
        ]
        for record in result.records
    }


class WildScanner:
    """Drives the Internet-wide measurement."""

    def __init__(
        self,
        wild: WildInternet,
        profile: ResolverProfile = CLOUDFLARE,
        seed: int = 7,
        obs: Observability | None = None,
        *,
        shards: int = 1,
        cluster_config: ClusterConfig | None = None,
        engine_config: EngineConfig | None = None,
    ):
        self.wild = wild
        self.obs = obs or NULL_OBS
        self.profile = profile
        self._engine_config = engine_config
        self._cluster_config = cluster_config
        self.shards = max(1, int(shards))
        if cluster_config is not None:
            self.shards = max(1, cluster_config.shards)
        self.resolver = self._build_resolver(self.shards)
        self._rng = random.Random(seed)
        self._m_phase_domains = self.obs.counter("repro_scan_phase_domains_total")
        self._m_phase_seconds = self.obs.gauge("repro_scan_phase_virtual_seconds")
        self._m_records = self.obs.counter("repro_scan_records_total")
        self._m_progress = self.obs.gauge("repro_scan_progress_domains")

    def _build_resolver(self, shards: int) -> RecursiveResolver | ResolverCluster:
        """One resolver at ``shards=1``, else a routed cluster.

        ``shards=1`` keeps the exact single-resolver object the scanner
        always used — the differential suite's baseline — rather than a
        one-shard cluster, so the sequential scan stays byte-identical
        to every release before the cluster existed.
        """
        if shards <= 1 and self._cluster_config is None:
            return RecursiveResolver(
                fabric=self.wild.fabric,
                profile=self.profile,
                root_hints=self.wild.root_hints,
                trust_anchors=self.wild.trust_anchors,
                engine_config=self._engine_config,
                obs=self.obs,
            )
        return ResolverCluster(
            fabric=self.wild.fabric,
            profile=self.profile,
            root_hints=self.wild.root_hints,
            trust_anchors=self.wild.trust_anchors,
            config=self._cluster_config,
            shards=shards,
            engine_config=self._engine_config,
            obs=self.obs,
        )

    def scan(
        self,
        domains: Iterable[WildDomain] | None = None,
        progress: Callable[[int, int], None] | None = None,
        *,
        checkpoint: str | Path | None = None,
        skip_names: set[str] | None = None,
        progress_every: int = 2048,
        workers: int = 1,
        use_lanes: bool | None = None,
    ) -> ScanResult:
        """Scan ``domains`` (default: the whole population), randomized.

        ``checkpoint`` appends each completed record to an NDJSON file
        as the scan runs, so a killed scan loses at most the in-flight
        domain; ``skip_names`` drops already-scanned domains (see
        :meth:`resume_from`).  ``progress`` fires every
        ``progress_every`` completed domains across *all* phases —
        including the two-phase stale/cached-error tail — plus once at
        the end.

        ``workers`` > 1 keeps that many resolutions in flight on
        deterministic virtual-time lanes (see
        :mod:`repro.net.lanes`): the per-domain categorization is
        identical to the sequential scan for any worker count, only the
        virtual makespan (and record order) changes.  ``workers=1``
        is byte-identical to the original sequential loop; pass
        ``use_lanes=True`` to force even a single worker through the
        lane pool (differential tests and pool-overhead benchmarks),
        or ``use_lanes=False`` to force the plain loop.
        """
        if domains is None:
            domains = self.wild.population.domains
        queue = list(domains)
        if skip_names:
            queue = [d for d in queue if d.name not in skip_names]
        self._rng.shuffle(queue)  # spread load, like the paper (Section 5)

        start_clock = self.wild.fabric.clock.now()
        start_sent = self.wild.fabric.stats.datagrams_sent
        # Re-read resolver stats at the end: a cluster's ``stats`` is a
        # fresh summed snapshot per access, not a live object.
        stats = self.resolver.stats
        start_coalesced = stats.coalesced + stats.coalesced_infra
        workers = max(1, int(workers))
        lanes_on = (workers > 1) if use_lanes is None else bool(use_lanes)
        result = ScanResult(workers=workers)

        two_phase = [d for d in queue if Profile(d.profile) in TWO_PHASE_PROFILES]
        single_phase = [d for d in queue if Profile(d.profile) not in TWO_PHASE_PROFILES]

        total = len(queue)
        done = 0

        writer = None
        if checkpoint is not None:
            from .io import CheckpointWriter

            writer = CheckpointWriter(checkpoint)

        def emit(record: ScanRecord) -> None:
            nonlocal done
            result.records.append(record)
            if writer is not None:
                writer.write(record)
            done += 1
            if self.obs.enabled:
                self._m_records.labels(
                    outcome="error" if record.is_error else "ok"
                ).inc()
                self._m_progress.set(done)
            if progress is not None and done % progress_every == 0:
                progress(done, total)

        if lanes_on:
            from ..net.lanes import run_in_lanes

            clock = self.wild.fabric.clock

            def run_items(items, fn):
                # Fresh pool per phase: phase boundaries are barriers (the
                # stale TTL advance must happen after *every* prime), and
                # the pool leaves the base clock at the phase makespan.
                run_in_lanes(clock, workers, items, fn)
        else:

            def run_items(items, fn):
                for item in items:
                    fn(item)

        def run_phase(phase: str, items, fn):
            started = self.wild.fabric.clock.now()
            run_items(items, fn)
            if self.obs.enabled:
                self._m_phase_domains.labels(phase=phase).inc(len(items))
                self._m_phase_seconds.labels(phase=phase).set(
                    self.wild.fabric.clock.now() - started
                )

        try:
            run_phase(
                "single", single_phase, lambda d: emit(self._query_safe(d))
            )

            # Phase 1: prime caches for stale/cached-error domains.
            stale = [d for d in two_phase if d.profile is Profile.STALE]
            errors = [d for d in two_phase if d.profile is Profile.CACHED_ERROR]
            run_phase("stale_prime", stale, self._prime_safe)
            if stale:
                # Let the cached answers expire (TTL 300) but stay in the
                # serve-stale window; the flipping servers now answer REFUSED.
                self.wild.fabric.clock.advance(600)
                result.ttl_wait_virtual += 600
            run_phase(
                "stale_query", stale, lambda d: emit(self._query_safe(d))
            )

            def prime_and_query(domain: WildDomain) -> None:
                self._prime_safe(domain)  # populates the SERVFAIL error cache
                emit(self._query_safe(domain))

            run_phase("cached_error", errors, prime_and_query)
            if progress is not None:
                progress(done, total)
        finally:
            if writer is not None:
                writer.close()

        result.queries_sent = self.wild.fabric.stats.datagrams_sent - start_sent
        result.duration_virtual = self.wild.fabric.clock.now() - start_clock
        stats = self.resolver.stats
        result.coalesced = (
            stats.coalesced + stats.coalesced_infra - start_coalesced
        )
        if self.obs.enabled:
            result.metrics = self.obs.registry.snapshot()
        return result

    def resume_from(
        self,
        checkpoint: str | Path,
        domains: Iterable[WildDomain] | None = None,
        progress: Callable[[int, int], None] | None = None,
        **scan_kwargs,
    ) -> ScanResult:
        """Continue a killed scan from its checkpoint file.

        Records already in the checkpoint are loaded and kept; the scan
        then covers only the remaining domains, appending to the same
        checkpoint, so the combined result (and the file) ends up with
        exactly the same set of scanned names as an uninterrupted run.
        """
        from .io import read_ndjson

        path = Path(checkpoint)
        prior = read_ndjson(path) if path.exists() else ScanResult()
        seen = {record.name for record in prior.records}
        fresh = self.scan(
            domains,
            progress,
            checkpoint=checkpoint,
            skip_names=seen,
            **scan_kwargs,
        )
        return ScanResult(
            records=prior.records + fresh.records,
            queries_sent=fresh.queries_sent,
            duration_virtual=fresh.duration_virtual,
            ttl_wait_virtual=fresh.ttl_wait_virtual,
            workers=fresh.workers,
            coalesced=fresh.coalesced,
        )

    # -- internals ------------------------------------------------------------------

    def _resolve(self, domain: WildDomain):
        return self.resolver.resolve(Name.from_text(domain.fqdn), RdataType.A)

    def _prime_safe(self, domain: WildDomain) -> None:
        """Cache-priming query; a poisoned domain must not kill the scan."""
        try:
            self._resolve(domain)
        except Exception:
            pass  # the scan query for this domain will record the error

    def _query_safe(self, domain: WildDomain) -> ScanRecord:
        """One domain, exception-isolated: failures become error records."""
        try:
            return self._query(domain)
        except Exception as exc:
            return ScanRecord(
                name=domain.name,
                tld=domain.tld,
                profile=int(domain.profile),
                rcode=Rcode.SERVFAIL,
                ede_codes=(),
                extra_texts=(),
                ns_index=domain.ns_index,
                rank=domain.rank,
                signed=domain.signed,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _query(self, domain: WildDomain) -> ScanRecord:
        response = self._resolve(domain)
        return ScanRecord(
            name=domain.name,
            tld=domain.tld,
            profile=int(domain.profile),
            rcode=response.rcode,
            ede_codes=response.ede_codes,
            extra_texts=tuple(
                option.extra_text
                for option in response.extended_errors
                if option.extra_text
            ),
            ns_index=domain.ns_index,
            rank=domain.rank,
            signed=domain.signed,
        )
