"""``python -m repro.tools.dig`` — dig for the simulated Internet.

Builds the paper's testbed, resolves the requested name through the
chosen vendor profile, and prints a dig-style summary including the
RFC 8914 extended errors — the troubleshooting workflow the paper
advocates, on infrastructure you can break at will.

Examples::

    python -m repro.tools.dig rrsig-exp-all.extended-dns-errors.com
    python -m repro.tools.dig valid.extended-dns-errors.com --profile unbound
    python -m repro.tools.dig nx.bad-nsec3-hash.extended-dns-errors.com --all-profiles
    python -m repro.tools.dig valid.extended-dns-errors.com +stats
    python -m repro.tools.dig rrsig-exp-all.extended-dns-errors.com +trace

``+stats`` (dig idiom; ``--stats`` also works) appends the resolver's
resilience metadata: stale/deadline counters, cache stale hits, and any
circuit breakers that are not CLOSED — so a degraded answer is visibly
degraded instead of silently NOERROR.

``+trace`` (``--trace``) prints the resolution's full query trace —
every upstream query, cache hit, validation verdict, and EDE
attachment on the virtual clock — followed by a "WHY" section that
attributes each INFO-CODE to the event that earned it.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.types import RdataType
from ..obs import CollectingSink, Observability
from ..obs.render import explain_ede, render_trace
from ..resolver.profiles import ALL_PROFILES, get_profile
from ..resolver.recursive import RecursiveResolver
from ..testbed.infra import build_testbed


def _print_response(profile_name: str, response, elapsed: float) -> None:
    print(f";; {profile_name}: rcode {Rcode(response.rcode).name}, "
          f"{len(response.answer)} answer(s), {elapsed * 1000:.1f} ms")
    if response.ad:
        print(";; flags: ad (authenticated data)")
    for rrset in response.answer:
        for line in str(rrset).splitlines():
            print(f"   {line}")
    for option in response.extended_errors:
        print(f";; {option}")
    print()


def _print_stats(resolver) -> None:
    """The ``+stats`` footer: stale/breaker/deadline metadata."""
    stats = resolver.stats
    cache = resolver.cache.stats
    print(";; STATS:")
    print(f";;   queries {stats.queries}, servfail {stats.servfail}, "
          f"with_ede {stats.with_ede}")
    print(f";;   stale served {stats.stale_served} positive, "
          f"{stats.stale_nxdomain_served} nxdomain "
          f"(cache stale hits {cache.stale_hits})")
    print(f";;   deadline hits {stats.deadline_hits}, "
          f"refreshes {stats.refreshes} ({stats.refreshed_ok} fresh again)")
    breakers = resolver.engine.breakers
    if breakers.enabled:
        book = breakers.stats
        print(f";;   breakers: opened {book.opened}, "
              f"short-circuits {book.short_circuits}, probes {book.probes}")
        for key in breakers.open_keys():
            print(f";;     not closed: {key} ({breakers.state_of(key).value})")
    else:
        print(";;   breakers: disabled")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.dig", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("qname", help="domain name to resolve")
    parser.add_argument("rdtype", nargs="?", default="A", help="record type (default A)")
    parser.add_argument("--profile", default="cloudflare",
                        help="vendor profile (bind, unbound, powerdns, knot,"
                             " cloudflare, quad9, opendns)")
    parser.add_argument("--all-profiles", action="store_true",
                        help="query through every vendor profile")
    parser.add_argument("--cd", action="store_true", help="set CD (skip validation)")
    parser.add_argument("--stats", action="store_true",
                        help="print stale/breaker/deadline metadata"
                             " (dig-style `+stats` also accepted)")
    parser.add_argument("--trace", action="store_true",
                        help="print the query trace and EDE attribution"
                             " (dig-style `+trace` also accepted)")
    if argv is None:
        argv = sys.argv[1:]
    rewrites = {"+stats": "--stats", "+trace": "--trace"}
    argv = [rewrites.get(token, token) for token in argv]
    args = parser.parse_args(argv)

    qname = Name.from_text(args.qname if args.qname.endswith(".") else args.qname + ".")
    try:
        rdtype = RdataType.make(args.rdtype)
    except (KeyError, ValueError):
        print(f"unknown record type {args.rdtype!r}", file=sys.stderr)
        return 2

    print(";; building the extended-dns-errors.com testbed...")
    testbed = build_testbed()

    profiles = ALL_PROFILES if args.all_profiles else (get_profile(args.profile),)
    for profile in profiles:
        sink = CollectingSink()
        obs = None
        if args.trace:
            obs = Observability(clock=testbed.fabric.clock, sink=sink)
        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=profile,
            root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
            obs=obs,
        )
        started = time.time()  # CLI latency display, not simulated time
        response = resolver.resolve(
            qname, rdtype, want_dnssec=True, checking_disabled=args.cd
        )
        elapsed = time.time() - started
        _print_response(profile.name, response, elapsed)
        if args.trace and sink.last() is not None:
            print(render_trace(sink.last()))
            print(explain_ede(sink.last()))
            print()
        if args.stats:
            _print_stats(resolver)
    return 0


if __name__ == "__main__":
    sys.exit(main())
