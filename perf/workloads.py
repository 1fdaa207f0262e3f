"""The five workloads.

Every workload is a closed loop with one caller: the scanner, the
matrix runner and a UDP server thread all wait for a reply before they
send the next request, so the generator does too.  An op is one domain
scanned, one matrix cell resolved, or one client query served.

A workload is set up (timed: ``setup_s``), warmed by untimed passes
whose outputs are still checked, and then asked for timed passes until
the runner has measured long enough.  All inputs come from ``seed``;
the code under test only ever sees the generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from repro.bench import categorization_of, population_config_for
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.load import ZipfMix, build_clients
from repro.resolver.cache import default_cache_config
from repro.resolver.iterative import EngineConfig
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import FrontendConfig, ResilientFrontend
from repro.scan import (
    Profile,
    WildInternet,
    WildScanner,
    analyze,
    figure1_series,
    figure2_series,
    generate_population,
    pipeline_accuracy,
)
from repro.testbed import build_testbed, run_matrix

#: Domains in the wild population the scan and serve workloads share:
#: the same 4.7 datagrams per domain as the 1k rung of BENCH_scan.json
#: at a 4.4 s universe build instead of 5-7.6 s.
WILD_DOMAINS = 500
SCANNER_SEED = 7
#: Timed passes every run makes, however short ``--seconds`` is; the
#: deterministic facts (digests, datagrams, virtual time) are read off
#: exactly these, so they do not depend on how fast the host is.
MIN_PASSES = 3


def digest_of(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@dataclass
class PassResult:
    ops: int
    failed: int
    wall_s: float
    cpu_s: float
    msgs: int
    virtual_s: float
    digest: str
    latencies: array = field(default_factory=lambda: array("d"), repr=False)
    notes: dict = field(default_factory=dict)
    #: Set by the runner: host speed measured just before and after.
    host_speed: float = 1.0

    def to_json(self) -> dict:
        data = asdict(self)
        del data["latencies"]
        return data


@contextmanager
def call_timer(cls, attr: str, enabled: bool):
    """Time every call of ``cls.attr`` the way a client would: around
    the public per-op entry point, for the length of one pass."""
    samples = array("d")
    if not enabled:
        yield samples
        return
    original = cls.__dict__[attr]
    clock = time.perf_counter

    def timed(*args, **kwargs):
        started = clock()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(clock() - started)

    setattr(cls, attr, timed)
    try:
        yield samples
    finally:
        setattr(cls, attr, original)


def _measured(body):
    """Run ``body`` between wall and CPU clock reads, GC left on."""
    gc.collect()
    cpu = time.process_time()
    wall = time.perf_counter()
    value = body()
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    return value, wall, cpu


class ScanWorkload:
    """Section 4 pipeline over one wild universe, fresh scanner per pass."""

    def __init__(self, name: str, workers: int, use_lanes: bool):
        self.name = name
        self.workers = workers
        self.use_lanes = use_lanes

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        config = population_config_for(WILD_DOMAINS, seed)
        self.population = tracer.call("scan.population", generate_population, config)
        self.wild = tracer.call("scan.universe_build", WildInternet, self.population)
        self.fabric = self.wild.fabric
        self.scanner = WildScanner(self.wild, seed=SCANNER_SEED)
        self.reference: dict | None = None

    def config(self) -> dict:
        return {
            "domains": len(self.population.domains),
            "population": asdict(population_config_for(WILD_DOMAINS, self.seed)),
            "scanner_seed": SCANNER_SEED,
            "workers": self.workers,
            "use_lanes": self.use_lanes,
            "engine": asdict(EngineConfig()),
            "cache": asdict(CLOUDFLARE.cache),
        }

    def warmup(self, tracer) -> list[PassResult]:
        # The cold pass materialises the authoritative zones and flips
        # the stale-answer servers for good, so it categorises
        # differently from every later pass: two digests.  The second,
        # sequential, pass is the reference every timed pass must equal
        # — which also makes scan_lanes == scan_seq a per-run check.
        cold, _ = self._scan(tracer, self.scanner, 1, False)
        warm, self.reference = self._scan(
            tracer, WildScanner(self.wild, seed=SCANNER_SEED), 1, False
        )
        # A fresh process keeps the lane threads on one CPU for its
        # first pass or two, at ~0.7 s a pass; once the kernel spreads
        # them over both, every hand-off crosses CPUs and a pass takes
        # ~1.4 s, for good.  A real scan is one long pass and lives in
        # that second state, so the timed passes start there.
        settle = [self.run_pass(tracer) for _ in range(2 if self.use_lanes else 0)]
        return [cold, warm, *settle]

    def run_pass(self, tracer) -> PassResult:
        scanner = WildScanner(self.wild, seed=SCANNER_SEED)
        return self._scan(tracer, scanner, self.workers, self.use_lanes)[0]

    def _scan(self, tracer, scanner, workers: int, use_lanes: bool) -> tuple[PassResult, dict]:
        """One scan and its report; the pass and its categorisation."""
        def body():
            result = tracer.call(
                "scan.scan", scanner.scan, workers=workers, use_lanes=use_lanes
            )

            def report():
                analyze(result, self.population)
                figure1_series(result, self.population)
                figure2_series(result)

            tracer.call("scan.report", report)
            return result

        with call_timer(RecursiveResolver, "resolve", not tracer.enabled) as latencies:
            result, wall, cpu = _measured(lambda: tracer.call("pass", body))
        categorization = categorization_of(result)
        failed = len(result.error_records())
        if self.reference is not None:
            failed += sum(
                1 for name, outcome in categorization.items()
                if self.reference.get(name) != outcome
            ) + abs(len(self.reference) - len(categorization))
        return PassResult(
            ops=len(result.records),
            failed=failed,
            wall_s=wall,
            cpu_s=cpu,
            msgs=result.queries_sent,
            virtual_s=result.active_virtual,
            digest=digest_of(categorization),
            latencies=latencies,
            notes={"pipeline_accuracy": pipeline_accuracy(result)[0]},
        ), categorization

    def checks(self, warmups: list[PassResult], passes: list[PassResult]) -> dict:
        cold, warm = warmups[:2]
        first = passes[0]
        return {
            "cold_digest": cold.digest,
            "cold_msgs": cold.msgs,
            "cold_pipeline_accuracy": cold.notes["pipeline_accuracy"],
            "warm_digest": warm.digest,
            "warm_pipeline_accuracy": warm.notes["pipeline_accuracy"],
            "pass_digests_equal_warm": all(p.digest == warm.digest for p in passes),
            "msgs_per_pass": _same(p.msgs for p in passes),
            "virtual_s_per_pass": _same(p.virtual_s for p in passes),
            "domains": first.ops,
        }

    @staticmethod
    def problems(facts: dict) -> list[str]:
        found = _unequal(facts, "msgs_per_pass", "virtual_s_per_pass")
        if not facts["pass_digests_equal_warm"]:
            found.append("a timed pass categorises differently from the sequential warm pass")
        return found


def _same(values):
    """The one value all of ``values`` share, or the list if they differ
    (which then can match no pin)."""
    values = list(values)
    return values[0] if all(v == values[0] for v in values) else values


def _unequal(facts: dict, *keys: str) -> list[str]:
    return [f"{key} differs between passes: {facts[key]}" for key in keys if isinstance(facts[key], list)]


class MatrixWorkload:
    """The 63 x 7 Table 4 matrix, caches flushed before every cell."""

    name = "matrix_table4"

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        self.testbed = tracer.call("testbed.build", build_testbed)
        self.fabric = self.testbed.fabric
        self.engine_config = EngineConfig(rng_seed=seed)

    def config(self) -> dict:
        return {
            "cells": len(self.testbed.cases) * 7,
            "engine": asdict(self.engine_config),
        }

    def warmup(self, tracer) -> list[PassResult]:
        return [self.run_pass(tracer)]

    def run_pass(self, tracer) -> PassResult:
        fabric = self.fabric
        sent = fabric.stats.datagrams_sent
        virtual = fabric.clock.now()

        def body():
            return tracer.call(
                "testbed.matrix", run_matrix, self.testbed,
                engine_config=self.engine_config,
            )

        with call_timer(RecursiveResolver, "resolve", not tracer.enabled) as latencies:
            matrix, wall, cpu = _measured(lambda: tracer.call("pass", body))
        cells = {
            f"{label}/{profile}": [int(cell.rcode), list(cell.ede_codes), list(cell.extra_texts)]
            for (label, profile), cell in matrix.cells.items()
        }
        return PassResult(
            ops=len(matrix.cells),
            failed=len(matrix.diff_against_paper()),
            wall_s=wall,
            cpu_s=cpu,
            msgs=fabric.stats.datagrams_sent - sent,
            virtual_s=fabric.clock.now() - virtual,
            digest=digest_of(cells),
            latencies=latencies,
            notes={"agreement_with_paper": matrix.agreement_with_paper()},
        )

    def checks(self, warmups: list[PassResult], passes: list[PassResult]) -> dict:
        every = warmups + passes
        return {
            "digest": _same(p.digest for p in every),
            "datagrams_per_pass": _same(p.msgs for p in every),
            "virtual_s_per_pass": _same(p.virtual_s for p in every),
            "agreement_with_paper": _same(p.notes["agreement_with_paper"] for p in every),
            "cells": _same(p.ops for p in every),
        }

    @staticmethod
    def problems(facts: dict) -> list[str]:
        found = _unequal(facts, *facts)
        if facts["agreement_with_paper"] != 1.0:
            found.append(f"agreement with the paper is {facts['agreement_with_paper']}, not 1.0")
        return found


class ServeWorkload:
    """Client queries through the resilient frontend of one resolver."""

    def __init__(self, name: str, queries: int, hot: bool):
        self.name = name
        self.queries_per_pass = queries
        self.hot = hot

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        config = population_config_for(WILD_DOMAINS, seed)
        self.population = tracer.call("scan.population", generate_population, config)
        self.wild = tracer.call("scan.universe_build", WildInternet, self.population)
        self.fabric = self.wild.fabric
        self.resolver = RecursiveResolver(
            fabric=self.wild.fabric,
            profile=CLOUDFLARE,
            root_hints=self.wild.root_hints,
            trust_anchors=self.wild.trust_anchors,
            cache_config=default_cache_config(),
        )
        self.frontend = ResilientFrontend(self.resolver, FrontendConfig())
        self.queries: list[tuple[str, Name, bytes, str, float]] | None = None

    def config(self) -> dict:
        return {
            "queries_per_pass": self.queries_per_pass,
            "clients": 64,
            "mix": "zipf s=1.1 over the top 40 healthy tranco names, top 16 hot at weight 0.5"
            if self.hot else "every population domain equally often, shuffled",
            "virtual_s_per_pass": sum(q[4] for q in self._queries()),
            "population": asdict(population_config_for(WILD_DOMAINS, self.seed)),
            "engine": asdict(EngineConfig()),
            "frontend": asdict(self.frontend.config),
            "cache": asdict(default_cache_config()),
        }

    def _queries(self):
        """(qname, Name, wire, client address, clock advance) per query,
        made once from the seed and replayed by every pass so that the
        passes of a run do the same work."""
        if self.queries is not None:
            return self.queries
        rng = random.Random(self.seed)
        clients = build_clients(64, self.seed)
        if self.hot:
            # One pass spans one 300 s TTL, so every pass sees each
            # name expire once instead of two passes of pure hits and
            # a third that re-resolves everything.  Only the 40 top
            # names are asked for: 40 expiries in 10 000 queries keep
            # the misses at 0.4%, well clear of the 1% where p99 would
            # flip between a hit's latency and a miss's from seed to
            # seed - and only healthy ones, as popular names are: a
            # broken name is re-resolved every 30 s error TTL and would
            # make this a second churn workload.  At 0.03 s a query no
            # client nears its 20 q/s token bucket.
            ranked = [
                d.name + "." for d in self.population.tranco_domains()
                if d.profile in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
            ][:40]
            mix = ZipfMix(ranked, s=1.1, hot=tuple(ranked[:16]), hot_weight=0.5)
            names = [mix.sample(rng) for _ in range(self.queries_per_pass)]
            advances = [0.03] * self.queries_per_pass
        else:
            # A 400 s jump every 200 queries expires every 300 s TTL,
            # answer and infrastructure alike.  Every domain is asked
            # for equally often, in seeded order, so that how many of
            # the rare expensive domains a pass meets - which is what
            # sets its tail - does not depend on the seed's luck.
            every = [d.name + "." for d in self.population.domains]
            names = (every * -(-self.queries_per_pass // len(every)))[: self.queries_per_pass]
            rng.shuffle(names)
            advances = [400.0 if i % 200 == 0 else 0.005 for i in range(self.queries_per_pass)]
        self.queries = []
        for qname, advance in zip(names, advances):
            name = Name.from_text(qname)
            wire = Message.make_query(name, RdataType.A, rng=rng).to_wire()
            source = clients[rng.randrange(len(clients))].address
            self.queries.append((qname, name, wire, source, advance))
        return self.queries

    def warmup(self, tracer) -> list[PassResult]:
        return [self.run_pass(tracer)]

    def run_pass(self, tracer) -> PassResult:
        with tracer.paused():
            queries = self._queries()
        fabric = self.fabric
        handle = self.frontend.handle_datagram
        advance = fabric.clock.advance
        clock = time.perf_counter
        latencies = array("d")
        responses: list[bytes | None] = []
        sent = fabric.stats.datagrams_sent
        virtual = fabric.clock.now()

        def body():
            for _qname, _name, wire, source, gap in queries:
                advance(gap)
                started = clock()
                response = handle(wire, source)
                latencies.append(clock() - started)
                responses.append(response)

        _, wall, cpu = _measured(lambda: tracer.call("pass", body))
        msgs = fabric.stats.datagrams_sent - sent
        virtual = fabric.clock.now() - virtual
        with tracer.paused():
            failed, outcomes = self._verify(queries, responses)
        return PassResult(
            ops=len(queries),
            failed=failed,
            wall_s=wall,
            cpu_s=cpu,
            msgs=msgs,
            virtual_s=virtual,
            digest=digest_of(outcomes),
            latencies=latencies,
        )

    @staticmethod
    def _verify(queries, responses) -> tuple[int, list]:
        """Nothing offered should be shed: a missing, unparseable,
        mis-addressed, REFUSED or FORMERR reply is a failed op."""
        failed = 0
        outcomes = []
        for (qname, name, wire, _source, _gap), reply in zip(queries, responses):
            try:
                message = Message.from_wire(reply)
            except Exception:  # any decode failure is the finding itself
                failed += 1
                outcomes.append([qname, None, []])
                continue
            echoed = (
                reply[:2] == wire[:2]
                and len(message.question) == 1
                and message.question[0].name == name
                and message.question[0].rdtype == RdataType.A
            )
            if not echoed or message.rcode in (Rcode.REFUSED, Rcode.FORMERR):
                failed += 1
            outcomes.append([qname, int(message.rcode), list(message.ede_codes)])
        return failed, outcomes

    def checks(self, warmups: list[PassResult], passes: list[PassResult]) -> dict:
        every = warmups + passes
        return {
            "digests": [p.digest for p in every],
            "msgs": [p.msgs for p in every],
            "virtual_s": [p.virtual_s for p in every],
            "queries_per_pass": _same(p.ops for p in every),
        }

    @staticmethod
    def problems(facts: dict) -> list[str]:
        return []  # passes differ by design (TTL phase); failed ops are counted per reply


WORKLOADS = {
    "scan_seq": (
        lambda: ScanWorkload("scan_seq", workers=1, use_lanes=False),
        "the paper's headline scan, sequential: codec, fabric, iteration, validation and "
        "authoritative serving all work, the lane pool does nothing",
    ),
    "scan_lanes": (
        lambda: ScanWorkload("scan_lanes", workers=8, use_lanes=True),
        "same scan on 8 virtual-time lanes: the only workload where thread-token hand-off "
        "in net/lanes.py is most of the extra cost; must equal scan_seq's categorisation",
    ),
    "matrix_table4": (
        MatrixWorkload,
        "63x7 vendor matrix with a cache flush per cell: validation and EDE policy with no "
        "cache help; set-up is RSA keygen; checked against the paper's published table",
    ),
    "serve_hot": (
        lambda: ServeWorkload("serve_hot", queries=10_000, hot=True),
        "Zipf queries through the frontend at ~99% cache hits: wire codec, cache reads and "
        "frontend policy are the whole op; fabric, servers and DNSSEC almost idle",
    ),
    "serve_churn": (
        lambda: ServeWorkload("serve_churn", queries=1_000, hot=False),
        "uniform queries with TTLs forced to expire: the same cache used the other way - "
        "expiry, stale answers, stores and full re-resolution of ~10% broken domains",
    ),
}
