#!/usr/bin/env python3
"""Wall-clock performance ledger: run the workloads, print every metric.

Two ways in:

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, in this process.  Prints each metric by name with its
    unit and, as the last line, one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics
    with ``--trace 0``, the per-layer ones with ``--trace 1``.

``python3 perf/run.py [--seed N] [--trace] [--out FILE] [--calibrate N]``
    The suite: every workload in its own fresh subprocess, one after
    another (the box has two cores; nothing runs concurrently), then
    one table.  ``--trace`` adds a traced run per workload; end-to-end
    numbers always come from the untraced one.

Exit status is non-zero when any output was wrong, any pinned digest
or count mismatched, or a check compared nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# `perf/trace.py` must not shadow the standard library's `trace`: import
# this directory as the package `perf`, from the checkout root.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import stats  # noqa: E402

DEFAULT_SEED = 20230524
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINS_JSON = HERE / "pins.json"
SCHEMA = "repro-perf/v1"

#: (name, unit, better, floor of the bound).  ``--calibrate`` raises a
#: bound above its floor when repeated suites disagree by more.  The
#: floors are three times the widest spread (inter-quartile distance
#: over median) ten seeds showed on any workload, or the 0.25 the driver
#: allows where that is less: on this host no timing repeats better
#: than 0.04-0.22, scaled to the reference host or not.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p95_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("msgs_per_op", "datagrams", "lower", 0.17),
    ("ok_share", "fraction", "higher", 0.001),
]
#: The driver's contract caps a bound at a quarter of the median.
MAX_BOUND = 0.25

#: What ``reference_loop()`` takes on the reference host: this box in a
#: quiet spell.  Only ratios between runs matter, not the figure.
REFERENCE_LOOP_S = 0.0025
#: Share of the measuring time spent on reference loops.
REFERENCE_SHARE = 0.25
#: Universe builds per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: A traced run stops adding passes once it holds this many spans.
SPAN_CAP = 600_000
TRACED_MIN_PASSES = 2
UNTRACED_MIN_PASSES_AFTER_TRACE = 2


# -- one workload, in this process ---------------------------------------


def reference_loop() -> float:
    """Seconds this host needs for a fixed piece of interpreter work.

    Integers, bytes and one dict: nothing the cyclic GC tracks, so the
    reading does not depend on how large the workload's heap is."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    out = []
    total = 0
    for i in range(10_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        out.append(key.to_bytes(2, "big"))
        total += len(out[-1]) + (key >> 3)
    b"".join(out)
    return time.perf_counter() - started


class HostSpeed:
    """How fast the host is right now, relative to the reference host.

    The VM this runs on changes speed by up to 1.6x for seconds or
    minutes at a time (a busy neighbour, not this process: CPU time
    equals wall time throughout).  Batches of reference loops taken
    between the passes see the same spells the passes do; a speed is
    the reference host's loop time over the mean of the batches asked
    about.
    """

    def __init__(self):
        self.batches: list[list[float]] = []

    def sample(self, seconds: float) -> None:
        """One batch: reference loops for about ``seconds``, at least two."""
        began = time.perf_counter()
        batch = []
        while len(batch) < 2 or time.perf_counter() - began < seconds:
            batch.append(reference_loop())
        self.batches.append(batch)

    def speed(self, last: int | None = None) -> float:
        """Over the last ``last`` batches, or over the whole run."""
        samples = [s for batch in self.batches[-(last or 0):] for s in batch]
        return REFERENCE_LOOP_S * len(samples) / sum(samples)


def measure(
    name: str, seed: int, seconds: float, traced: bool, pins: dict | None,
    spans_path: str | None = None,
) -> dict:
    """Set up, warm, time passes for ``seconds``; return the full record.
    A traced run writes the spans of its timed passes to ``spans_path``."""
    from perf import layers, trace, workloads

    factory, _why = workloads.WORKLOADS[name]
    tracer = trace.Tracer() if traced else trace.NullTracer()
    host = HostSpeed()
    if traced:
        layers.install(tracer)
    try:
        setup_times = []
        workload = None
        for _ in range(1 if traced else SETUP_REPEATS):
            workload = None  # let the previous universe go before the next
            gc.collect()
            workload = factory()
            host.sample(0.1)
            started = time.perf_counter()
            workload.setup(seed, tracer)
            setup_times.append(time.perf_counter() - started)
        host.sample(0.1)
        warmups = workload.warmup(tracer)

        passes = []
        traced_passes = 0
        began = time.perf_counter()
        host.sample(0.1)

        def one_pass():
            # Each pass is scaled by the batch before it and the one after.
            passes.append(workload.run_pass(tracer))
            host.sample(REFERENCE_SHARE * passes[-1].wall_s)
            passes[-1].host_speed = host.speed(last=2)

        if traced:
            setup_totals = trace.reduce_self_times(tracer.drain())
            before = _counters(workload, tracer)
            while traced_passes < TRACED_MIN_PASSES or (
                time.perf_counter() - began < 0.6 * seconds
                and tracer.span_count() < SPAN_CAP
            ):
                one_pass()
                traced_passes += 1
            table = tracer.drain()
            after = _counters(workload, tracer)
            tracer.uninstall()
            tracer = trace.NullTracer()
        floor = max(workloads.MIN_PASSES, traced_passes + UNTRACED_MIN_PASSES_AFTER_TRACE)
        while len(passes) < floor or time.perf_counter() - began < seconds:
            one_pass()
    finally:
        tracer.uninstall()

    fixed = passes[: workloads.MIN_PASSES]
    facts = workload.checks(warmups, fixed)
    problems = workload.problems(facts)
    checked = warmups + passes
    attempted = sum(p.ops for p in checked)
    failed = sum(p.failed for p in checked)
    if attempted == 0:
        problems.append("nothing was compared")
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    if pins is not None:
        problems += _pin_mismatches(facts, pins.get(name))

    fixed_ops = sum(p.ops for p in fixed)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "facts": facts,
        "config": workload.config(),
        "setup_times_s": setup_times,
        "host_speed": {
            "run": host.speed(),
            "passes": host.speed(last=len(passes) + 1),
            "reference_loops": sum(len(batch) for batch in host.batches),
            "reference_loop_s": REFERENCE_LOOP_S,
        },
        "passes": [p.to_json() for p in passes],
        "warmups": [p.to_json() for p in warmups],
    }
    if traced:
        timed = passes[:traced_passes]
        untimed = passes[traced_passes:]
        ops = sum(p.ops for p in timed)
        if spans_path:
            Path(spans_path).write_text(json.dumps(dataclasses.asdict(table)) + "\n")
        totals = trace.reduce_self_times(table)
        busy = sum(t.busy_s for t in totals.values())
        balance = busy / trace.root_time(table)
        if abs(balance - 1.0) > 0.01:
            problems.append(f"layer self times sum to {balance:.4f} of the pass spans")
        delta = {key: after[key] - before[key] for key in after}
        delta.update(
            passes=traced_passes,
            virtual_ops_per_s=fixed_ops / sum(p.virtual_s for p in fixed),
            traced_ops_per_s=ops / sum(p.wall_s * p.host_speed for p in timed),
            untraced_ops_per_s=sum(p.ops for p in untimed)
            / sum(p.wall_s * p.host_speed for p in untimed),
        )
        values = layers.derive(setup_totals, totals, ops, delta)
        units = {n: unit for n, unit, _better, _what in layers.PER_LAYER}
        record["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        record["trace"] = {
            "spans": len(table),
            "traced_passes": traced_passes,
            "self_time_balance": balance,
            "self_s_by_span": {n: t.busy_s for n, t in sorted(totals.items())},
            "calls_by_span": {n: t.calls for n, t in sorted(totals.items())},
        }
    else:
        record["metrics"] = _end_to_end(
            passes, setup_times, host.speed(),
            {
                "msgs_per_op": sum(p.msgs for p in fixed) / fixed_ops,
                "ok_share": 1.0 - failed / attempted,
            },
        )
    record["problems"] = problems
    record["correct"] = not problems
    return record


def _end_to_end(passes, setup_times, run_speed, exact: dict) -> dict:
    """The end-to-end metrics.  A timing is the total over the timed
    passes, each pass scaled to the reference host by the host speed
    measured around it (see :class:`HostSpeed`); the raw reading and
    the per-pass spread are recorded beside it."""
    ops = sum(p.ops for p in passes)

    def timing(value, raw, better, per_pass=()):
        return {"value": value, "raw": raw, **(stats.summarize(per_pass, better) if per_pass else {})}

    scaled = sorted(s * p.host_speed for p in passes for s in p.latencies)
    unscaled = sorted(s for p in passes for s in p.latencies)

    def latency(q):
        return {
            **timing(stats.percentile(scaled, q) * 1e6, stats.percentile(unscaled, q) * 1e6, "lower"),
            "samples": len(scaled),
        }

    setup = stats.quartiles(setup_times)[1]
    values = {
        "setup_s": timing(setup * run_speed, setup, "lower", [t * run_speed for t in setup_times]),
        "ops_per_s": timing(
            ops / sum(p.wall_s * p.host_speed for p in passes),
            ops / sum(p.wall_s for p in passes),
            "higher", [p.ops / (p.wall_s * p.host_speed) for p in passes],
        ),
        "cpu_ms_per_op": timing(
            sum(p.cpu_s * p.host_speed for p in passes) * 1e3 / ops,
            sum(p.cpu_s for p in passes) * 1e3 / ops,
            "lower", [p.cpu_s * p.host_speed * 1e3 / p.ops for p in passes],
        ),
        "latency_p50_us": latency(0.50),
        # p99 is recorded but not bounded: with the 2 000-5 000 samples
        # a scan or matrix run collects it has 20-50 samples beyond it
        # and repeated no better than 0.19-0.29 over ten runs; p95 did
        # within 0.14 on every workload.
        "latency_p95_us": {**latency(0.95), "p99": latency(0.99)["value"]},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        **{name: {"value": value} for name, value in exact.items()},
    }
    return {
        name: {**values[name], "unit": unit} for name, unit, _better, _floor in END_TO_END
    }


def _counters(workload, tracer) -> dict:
    """Cumulative plain counters a traced run reads before and after
    its traced passes: fabric, resolver stats of every resolver a span
    saw, and the wrappers' own tallies."""
    fabric = workload.fabric.stats
    resolvers = [r.stats for r in tracer.seen.values()]
    return {
        "bytes": fabric.bytes_sent + fabric.bytes_received,
        "timeouts": fabric.timeouts,
        "infra_hits": sum(s.infra_hits for s in resolvers),
        "infra_misses": sum(s.infra_misses for s in resolvers),
        "coalesced": sum(s.coalesced + s.coalesced_infra for s in resolvers),
        "stale_served": sum(s.stale_served + s.stale_nxdomain_served for s in resolvers),
        "cache_get_hits": tracer.hits.get("resolver.cache_get", 0),
        "obs_calls": tracer.counts.get("obs.inc", 0),
    }


def _pin_mismatches(facts: dict, pinned: dict | None) -> list[str]:
    if not pinned:
        return ["no pinned facts to compare with: a check that compares nothing fails"]
    return [
        f"{key}: measured {facts.get(key)!r}, pinned {value!r}"
        for key, value in pinned.items()
        if facts.get(key) != value
    ]


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then what was checked."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['traced'] else 'untraced'}  "
          f"{len(record['passes'])} timed passes  "
          f"host speed {record['host_speed']['passes']:.3f} of the reference host")
    for name, metric in record["metrics"].items():
        extra = ""
        if "raw" in metric:
            extra = f"  (raw {metric['raw']:.6g}"
            if "k" in metric:
                extra += (f"; K={metric['k']}: median {metric['median']:.6g}, "
                          f"best {metric['best']:.6g}, quartiles {metric['q1']:.6g}..{metric['q3']:.6g}")
            if "samples" in metric:
                extra += f"; {metric['samples']} samples"
            if "p99" in metric:
                extra += f"; p99 {metric['p99']:.6g}"
            extra += ")"
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}{extra}")
    print(f"  ops checked {record['attempted']}, failed {record['failed']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def run_one(args) -> int:
    pins = None
    if args.pins != "none" and (args.seed == DEFAULT_SEED or args.pins):
        pins = json.loads(Path(args.pins or PINS_JSON).read_text())
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), pins, args.spans)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] else 1


# -- the suite -----------------------------------------------------------


def manifest(seed: int, seconds: float) -> dict:
    def git(*argv):
        try:
            return subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except OSError:
            return ""

    return {
        "schema": SCHEMA,
        "git_sha": git("rev-parse", "HEAD") or "not a git checkout",
        "git_dirty": bool(git("status", "--porcelain", "--", "src", "perf")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "setup_repeats": SETUP_REPEATS,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_suite(seed: int, seconds: float, traced: bool, names: list[str], pins: str | None = None) -> dict:
    """Each workload in a fresh interpreter, strictly one at a time."""
    report = {"manifest": manifest(seed, seconds), "workloads": {}}
    for name in names:
        for trace_flag in ([0, 1] if traced else [0]):
            out = HERE / f".run-{os.getpid()}-{name}-{trace_flag}.json"
            started = time.perf_counter()
            try:
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace_flag), "--out", str(out),
                     *(["--pins", pins] if pins else [])],
                    capture_output=True, text=True, timeout=600,
                )
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                if not out.exists():
                    sys.stderr.write(done.stderr)
                    raise SystemExit(f"{name}: no result (exit {done.returncode})")
                record = json.loads(out.read_text())
            finally:
                out.unlink(missing_ok=True)
            record["process_wall_s"] = time.perf_counter() - started
            key = "layers" if trace_flag else "end_to_end"
            report["workloads"].setdefault(name, {})[key] = record
    report["correct"] = all(
        record["correct"] for entry in report["workloads"].values() for record in entry.values()
    )
    return report


def calibrate(rounds: int, seed: int, seconds: float, names: list[str]) -> int:
    """Run the suite ``rounds`` times; set each bound to the larger of
    its floor and 1.5 x the largest pairwise relative difference of the
    headline values any workload showed."""
    reports = [run_suite(seed, seconds, False, names) for _ in range(rounds)]
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    floors = {name: floor for name, _unit, _better, floor in END_TO_END}
    status = 0 if all(r["correct"] for r in reports) else 1
    for metric in benchmark["end_to_end"]:
        worst = max(
            stats.largest_pairwise_difference(
                [r["workloads"][w]["end_to_end"]["metrics"][metric["name"]]["value"] for r in reports]
            )
            for w in names
        )
        wanted = max(floors[metric["name"]], 1.5 * worst)
        metric["bound"] = round(min(wanted, MAX_BOUND), 3)
        note = ""
        if wanted > MAX_BOUND and metric["name"] != "setup_s":
            # setup_s is the driver's own metric: it stays, at the largest
            # bound, and the driver does not gate on its spread.
            note = "  <- cannot repeat within the largest bound allowed: demote it"
            status = 1
        print(f"{metric['name']:20s} largest pairwise difference {worst:.4f}  "
              f"bound {metric['bound']}{note}")
    BENCHMARK_JSON.write_text(json.dumps(benchmark, indent=2) + "\n")
    return status


def print_suite(report: dict) -> None:
    print()
    print(f"{'workload':14s} {'metric':20s} {'value':>12s} unit")
    for name, entry in report["workloads"].items():
        for metric, body in entry["end_to_end"]["metrics"].items():
            print(f"{name:14s} {metric:20s} {body['value']:>12.6g} {body['unit']}")
    total = sum(
        record["process_wall_s"] for entry in report["workloads"].values() for record in entry.values()
    )
    print(f"suite wall {total:.1f} s; correct: {report['correct']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to time passes (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full record (manifest, raw passes) here")
    parser.add_argument("--spans", help="with --workload and --trace 1: write the raw spans of "
                        "the traced passes here (one column per field, parents by row)")
    parser.add_argument("--pins", help="pinned facts to check against, or 'none' (default: "
                        "perf/pins.json when the seed is the default one)")
    parser.add_argument("--write-pins", action="store_true",
                        help="suite mode, default seed: re-pin the deterministic facts")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run the suite N times and write measured bounds to BENCHMARK.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from perf import workloads

    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    if args.workload:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")
        return run_one(args)
    names = list(workloads.WORKLOADS)
    if args.calibrate:
        return calibrate(args.calibrate, args.seed, args.seconds, names)
    if args.write_pins and args.seed != DEFAULT_SEED:
        parser.error("pins are for the default seed only")
    report = run_suite(
        args.seed, args.seconds, bool(args.trace), names,
        pins="none" if args.write_pins else args.pins,
    )
    print_suite(report)
    if args.write_pins:
        PINS_JSON.write_text(json.dumps(
            {name: entry["end_to_end"]["facts"] for name, entry in report["workloads"].items()},
            indent=1, sort_keys=True,
        ) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
