"""CLI for the benchmarks: ``python -m repro.bench --scale 200 --json``.

Two modes:

* default — the scan benchmark.  Writes ``BENCH_scan.json`` (or
  ``--out``) and exits non-zero when any concurrent run's per-domain
  categorization diverges from the sequential baseline.  ``--shards``
  adds the cluster scaling ladder and ``--failover`` the shard-failover
  drill (a seeded victim crash mid-scan), both under the same identity
  gate;
* ``--serve`` — the serving benchmark.  Replays the five load scenarios
  (steady, flash crowd, stampede, outage+recovery, overload) through a
  resilient frontend once per retry-jitter seed, then the
  ``shard-outage`` cluster drill (its ``failover`` section), writes
  ``BENCH_serve.json``, and exits non-zero when phase reports are not
  byte-identical across seeds or the degradation/failover contracts
  fail.

CI runs both on every PR (bench-smoke / serve-bench-smoke gates).
"""

from __future__ import annotations

import argparse
import sys

from . import DEFAULT_SEED, bench_report, write_report


def _serve_main(args: argparse.Namespace) -> int:
    from ..load import (
        DEFAULT_JITTER_SEEDS,
        render_phase_table,
        serve_bench_report,
        write_serve_report,
    )

    seeds = tuple(
        int(seed) for seed in (args.serve_seeds or "").split(",") if seed
    ) or DEFAULT_JITTER_SEEDS
    report = serve_bench_report(
        scale=args.serve_scale,
        workers=args.serve_workers,
        jitter_seeds=seeds,
        target_domains=args.scale[0] if args.scale else 2000,
    )
    out = args.out if args.out != "BENCH_scan.json" else "BENCH_serve.json"
    write_serve_report(report, out)

    failover = report.get("failover")
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_phase_table(report["scenarios"]))
        print(
            f"{report['queries_per_seed']} queries/seed over seeds "
            f"{report['config']['jitter_seeds']}, wall {report['wall_s']}s"
        )
        for row in report["contract"]:
            print(f"  [{'ok' if row['ok'] else 'FAIL'}] {row['check']}: {row['detail']}")
        if failover is not None:
            print(
                f"failover drill ({failover['scenario']}): "
                f"{failover['queries_per_seed']} queries/seed, "
                f"wall {failover['wall_s']}s"
            )
            for row in failover["contract"]:
                print(
                    f"  [{'ok' if row['ok'] else 'FAIL'}] "
                    f"{row['check']}: {row['detail']}"
                )
        print(f"report written to {out}")

    failed = False
    if not report["deterministic"]:
        if report["comparison_seeds"] < 1:
            print(
                "FAIL: determinism gate needs at least two retry-jitter "
                "seeds to compare (got "
                f"{len(report['config']['jitter_seeds'])})",
                file=sys.stderr,
            )
        else:
            print(
                "FAIL: phase reports differ across retry-jitter seeds "
                f"{report['mismatched_seeds']}",
                file=sys.stderr,
            )
        failed = True
    if not report["contract_ok"]:
        print("FAIL: degradation contract violated", file=sys.stderr)
        failed = True
    if failover is not None:
        if not failover["deterministic"]:
            print(
                "FAIL: failover drill reports differ across retry-jitter "
                f"seeds {failover['mismatched_seeds']}",
                file=sys.stderr,
            )
            failed = True
        if not failover["contract_ok"]:
            print("FAIL: shard-failover contract violated", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Sequential-vs-concurrent scan benchmark over seeded populations.",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the serving (load-scenario) benchmark instead of the scan benchmark",
    )
    parser.add_argument(
        "--serve-scale",
        type=float,
        default=1.0,
        metavar="F",
        help="client-population multiplier for --serve (default: 1.0)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=8,
        metavar="N",
        help="lane count for --serve (default: 8)",
    )
    parser.add_argument(
        "--serve-seeds",
        metavar="S[,S...]",
        help="comma-separated retry-jitter seeds for --serve (default: 1,20230524)",
    )
    parser.add_argument(
        "--scale",
        action="append",
        type=int,
        metavar="N",
        help="target domain count (repeatable; default: 1000)",
    )
    parser.add_argument(
        "--workers",
        action="append",
        metavar="W[,W...]",
        help=(
            "comma-separated lane counts, paired positionally with each "
            "--scale (the last value repeats; default: 1,8,32)"
        ),
    )
    parser.add_argument(
        "--shards",
        metavar="S[,S...]",
        help=(
            "comma-separated resolver-cluster shard counts; adds a "
            "shard-count scaling section (e.g. --shards 1,2,8) whose "
            "categorization identity also gates the exit code"
        ),
    )
    parser.add_argument(
        "--failover",
        action="store_true",
        help=(
            "add the shard-failover drill section: crash a seeded "
            "victim shard mid-scan and require ejection, zero "
            "datagrams while ejected, probe rejoin, restored routing, "
            "and byte-identical categorization vs the fault-free "
            "baseline (gates the exit code)"
        ),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--out", default="BENCH_scan.json", help="report path (default: BENCH_scan.json)"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report to stdout as JSON"
    )
    args = parser.parse_args(argv)

    if args.serve:
        return _serve_main(args)

    scales = args.scale or [1000]
    workers_specs = [
        [int(w) for w in spec.split(",") if w] for spec in (args.workers or ["1,8,32"])
    ]
    scale_specs = [
        (scale, workers_specs[min(index, len(workers_specs) - 1)])
        for index, scale in enumerate(scales)
    ]

    shard_counts = None
    if args.shards:
        shard_counts = [int(s) for s in args.shards.split(",") if s]

    report = bench_report(
        scale_specs,
        seed=args.seed,
        shard_counts=shard_counts,
        failover=args.failover,
    )
    write_report(report, args.out)

    if args.json:
        import json

        print(json.dumps(report, indent=2))
    else:
        for pop in report["populations"]:
            base = pop["runs"][0]
            print(
                f"scale {pop['target_domains']}: {pop['actual_domains']} domains, "
                f"sequential {base['domains_per_virtual_s']}/vs"
            )
            for run in pop["runs"][1:]:
                print(
                    f"  {run['workers']:>3} workers: {run['domains_per_virtual_s']}/vs "
                    f"({pop['speedup_vs_sequential'][str(run['workers'])]}x), "
                    f"coalesced {run['coalesced']}, "
                    f"cache hit {run['cache_hit_rate']:.1%}"
                )
        if "shard_scaling" in report:
            section = report["shard_scaling"]
            print(
                f"shard scaling at {section['target_domains']} domains, "
                f"{section['workers']} workers:"
            )
            for run in section["runs"]:
                cluster = run.get("cluster") or {}
                extra = (
                    f", imbalance {cluster['imbalance']}, "
                    f"l2 hits {cluster['l2_hits']}"
                    if cluster
                    else ""
                )
                print(
                    f"  {run['shards']:>3} shards: "
                    f"{run['domains_per_virtual_s']}/vs, "
                    f"{run['messages']} messages{extra}"
                )
        if "failover" in report:
            section = report["failover"]
            print(
                f"shard-failover drill at {section['target_domains']} "
                f"domains, {section['shards']} shards, victim "
                f"{section['facts']['victim']}:"
            )
            for row in section["contract"]:
                print(
                    f"  [{'ok' if row['ok'] else 'FAIL'}] "
                    f"{row['check']}: {row['detail']}"
                )
        print(f"report written to {args.out}")

    failed = False
    if not report["all_identical"]:
        sections = list(report["populations"])
        if "shard_scaling" in report:
            sections.append(report["shard_scaling"])
        if "failover" in report:
            sections.append(report["failover"])
        if any(s["comparison_runs"] < 1 for s in sections):
            print(
                "FAIL: identity gate ran zero baseline comparisons "
                "(empty --workers/--shards ladder)",
                file=sys.stderr,
            )
        else:
            print(
                "FAIL: categorization diverges from the baseline run",
                file=sys.stderr,
            )
        failed = True
    if "failover" in report and not report["failover"]["failover_ok"]:
        print(
            "FAIL: shard-failover drill contract violated "
            "(or not byte-identical across jitter seeds)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
