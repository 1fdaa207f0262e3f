"""``python -m repro.tools.serve`` — expose the testbed on real UDP.

Builds the testbed and binds one recursive resolver per vendor profile
to loopback UDP ports, so you can point an ordinary ``dig`` at the
misconfigured domains and watch the extended errors arrive over a real
socket::

    $ python -m repro.tools.serve --port 5300 &
    $ dig @127.0.0.1 -p 5300 rrsig-exp-all.extended-dns-errors.com +ednsopt=15

Ports are allocated sequentially starting at ``--port`` in the paper's
Table 4 column order (bind, unbound, powerdns, knot, cloudflare, quad9,
opendns).

The served resolvers run with the full resilience layer on: circuit
breakers, client deadline budgets, stale-while-revalidate, and an
overload-shedding frontend (per-client token bucket + global in-flight
cap).  ``--no-resilience`` reverts to the bare seed behaviour.

``--metrics PORT`` additionally serves the shared metrics registry in
the Prometheus text exposition format on ``http://HOST:PORT/metrics``
(all profiles report into one registry, labeled by profile).
``--metrics-dump PATH`` writes the same exposition to a file on
shutdown (and ``--duration`` bounds the run, for smoke tests);
``--trace-log PATH`` streams every finished query trace as NDJSON (a
repeat query answered from the rendered-wire cache resolves nothing and
leaves no trace).

``--drill SCENARIO`` skips the sockets entirely and replays one named
load scenario (steady, flash, stampede, outage, overload, or the
cluster recovery drill ``shard-outage``) through the in-process
resilience layer on the virtual clock.  It prints the phase report,
then one row per guarantee of the degradation contract
(:func:`repro.load.contract_rows`), and exits 1 when a row is false —
a one-command verdict on the degradation behaviour without standing up
the UDP testbed.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..cluster import ResolverCluster
from ..net.udp import UdpServer
from ..obs import NdjsonSink, Observability
from ..resolver.cache import default_cache_config
from ..resolver.profiles import ALL_PROFILES
from ..resolver.recursive import RecursiveResolver
from ..resolver.resilience import (
    FrontendConfig,
    ResilienceConfig,
    ResilientFrontend,
)
from ..testbed.infra import build_testbed


async def _serve_metrics(reader, writer, obs: Observability) -> None:
    """Minimal HTTP/1.0 responder for GET /metrics (and anything else)."""
    try:
        await reader.readline()  # request line; we answer regardless
        body = obs.registry.render_prometheus().encode()
        writer.write(
            b"HTTP/1.0 200 OK\r\n"
            b"Content-Type: text/plain; version=0.0.4\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        await writer.drain()
    finally:
        writer.close()


async def serve(args: argparse.Namespace) -> None:
    print("building the testbed...", flush=True)
    testbed = build_testbed()
    sink = NdjsonSink(args.trace_log) if args.trace_log else None
    obs = Observability(clock=testbed.fabric.clock, sink=sink)
    servers: list[UdpServer] = []
    for index, profile in enumerate(ALL_PROFILES):
        resilience = None
        cache_config = None
        if not args.no_resilience:
            resilience = ResilienceConfig(client_deadline=args.deadline)
            cache_config = default_cache_config()
        frontend_config = None
        if not args.no_resilience:
            frontend_config = FrontendConfig(
                client_rate=args.client_qps,
                client_burst=args.client_burst,
                max_inflight=args.max_inflight,
            )
        if args.shards > 1:
            # N full resolver shards behind the consistent-hash router;
            # the cluster speaks handle_datagram, so UdpServer can't tell.
            endpoint = ResolverCluster(
                fabric=testbed.fabric, profile=profile,
                root_hints=testbed.root_hints,
                trust_anchors=testbed.trust_anchors,
                shards=args.shards,
                resilience=resilience, cache_config=cache_config,
                frontend_config=frontend_config,
                obs=obs,
            )
        else:
            resolver = RecursiveResolver(
                fabric=testbed.fabric, profile=profile,
                root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
                resilience=resilience, cache_config=cache_config,
                obs=obs,
            )
            endpoint = resolver
            if frontend_config is not None:
                endpoint = ResilientFrontend(resolver, frontend_config)
        server = UdpServer(endpoint=endpoint, host=args.host, port=args.port + index)
        await server.start()
        servers.append(server)
        print(f"  {profile.name:26s} on {server.host}:{server.port}")
    metrics_server = None
    if args.metrics:
        metrics_server = await asyncio.start_server(
            lambda r, w: _serve_metrics(r, w, obs), args.host, args.metrics
        )
        print(f"  {'metrics':26s} on http://{args.host}:{args.metrics}/metrics")
    print("serving; ctrl-c to stop", flush=True)
    try:
        if args.duration > 0:
            await asyncio.sleep(args.duration)
        else:
            await asyncio.Event().wait()
    finally:
        for server in servers:
            await server.stop()
        if metrics_server is not None:
            metrics_server.close()
            await metrics_server.wait_closed()
        if args.metrics_dump:
            with open(args.metrics_dump, "w", encoding="utf-8") as handle:
                handle.write(obs.registry.render_prometheus())
            print(f"metrics written to {args.metrics_dump}", flush=True)
        if sink is not None:
            sink.close()


def drill(args: argparse.Namespace) -> int:
    """Replay one load scenario in-process; exit status is its contract."""
    from ..load import (
        SCENARIOS,
        LoadConfig,
        LoadEngine,
        contract_rows,
        render_phase_table,
    )

    if args.drill not in SCENARIOS:
        print(
            f"unknown scenario {args.drill!r}; pick one of: "
            + ", ".join(SCENARIOS),
            file=sys.stderr,
        )
        return 2
    engine = LoadEngine(
        LoadConfig(
            target_domains=args.drill_domains,
            scale=args.drill_scale,
            workers=args.drill_workers,
        )
    )
    print(f"replaying scenario {args.drill!r}...", flush=True)
    result = engine.run_scenario(args.drill)
    print(render_phase_table([result]))
    rows = contract_rows(result["phases"])
    for row in rows:
        print(f"  [{'ok' if row['ok'] else 'FAIL'}] {row['check']}: {row['detail']}")
    return 0 if all(row["ok"] for row in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--port", type=int, default=5300, help="first UDP port")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="serve each profile from an N-shard resolver"
                             " cluster instead of a single resolver")
    parser.add_argument("--no-resilience", action="store_true",
                        help="serve bare resolvers: no breakers, deadlines,"
                             " serve-stale default, or overload shedding")
    parser.add_argument("--deadline", type=float, default=5.0,
                        help="client deadline budget, seconds (default 5)")
    parser.add_argument("--client-qps", type=float, default=20.0,
                        help="per-client token-bucket refill rate (default 20)")
    parser.add_argument("--client-burst", type=float, default=40.0,
                        help="per-client token-bucket burst (default 40)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="global cap on concurrent cache-miss work (default 64)")
    parser.add_argument("--metrics", type=int, default=0, metavar="PORT",
                        help="serve Prometheus metrics on this TCP port")
    parser.add_argument("--metrics-dump", default="", metavar="PATH",
                        help="write the final metrics exposition to PATH")
    parser.add_argument("--trace-log", default="", metavar="PATH",
                        help="append every finished query trace to PATH (NDJSON)")
    parser.add_argument("--duration", type=float, default=0.0,
                        help="stop after this many wall seconds (0 = run forever)")
    parser.add_argument("--drill", default="", metavar="SCENARIO",
                        help="replay one load scenario in-process instead of"
                             " serving UDP (steady, flash, stampede, outage,"
                             " overload, shard-outage)")
    parser.add_argument("--drill-scale", type=float, default=0.25,
                        help="client-population multiplier for --drill"
                             " (default 0.25)")
    parser.add_argument("--drill-workers", type=int, default=4,
                        help="lane count for --drill (default 4)")
    parser.add_argument("--drill-domains", type=int, default=500,
                        help="population size for --drill (default 500)")
    args = parser.parse_args(argv)
    if args.drill:
        return drill(args)
    try:
        asyncio.run(serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
