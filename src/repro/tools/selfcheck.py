"""``python -m repro.tools.selfcheck`` — lint the reproduction itself.

Runs the :mod:`repro.analysis` pass over ``src/repro``: the determinism
rules (no wall clock, no ambient entropy, no global RNG outside the
annotated boundary), the protocol-invariant rules (every EDE INFO-CODE
resolves in the RFC 8914 registry, every Table 4 case maps to a testbed
subdomain and a reachable policy branch, the rdata registry is closed),
the interprocedural flow rules (no real-blocking call or unbounded wait
reachable from an endpoint door, jitter seeds never shape schedule-domain
state), and unused-suppression / stale-baseline detection.

Flow rules need the whole-program call graph, so they run only on the
default whole-package pass; explicit path arguments get the per-file
rules (fast inner-loop linting of the files you are editing).

Exit codes::

    0  clean — no findings
    1  findings reported (CI gates on this)
    2  usage error (unknown rule name, bad arguments)

Examples::

    python -m repro.tools.selfcheck              # whole package, all rules
    python -m repro.tools.selfcheck --json       # machine-readable findings
    python -m repro.tools.selfcheck --list-rules # the rule catalog
    python -m repro.tools.selfcheck --rule seed-domain-taint --rule wall-clock
    python -m repro.tools.selfcheck src/repro/scan/scanner.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..analysis import (
    analyze_paths,
    analyze_repo,
    findings_to_json,
    known_rules,
    render_finding,
    repo_source_root,
)
from ..analysis.engine import RULE_CATALOG


def _list_rules() -> None:
    width = max(len(name) for name in RULE_CATALOG)
    for name in known_rules():
        kind, description = RULE_CATALOG[name]
        print(f"{name:<{width}}  [{kind:>6}]  {description}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.selfcheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the shared lint/selfcheck JSON findings schema",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="NAME", default=None,
        help="run only the named rule (repeatable; see --list-rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="print the rule catalog (name, layer, description) and exit 0",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    selected = None
    if args.rules:
        unknown = sorted(set(args.rules) - set(known_rules()))
        if unknown:
            parser.error(
                f"unknown rule(s): {', '.join(unknown)}"
                " (see --list-rules for the catalog)"
            )
        selected = args.rules

    if args.paths:
        files: list[Path] = []
        for path in args.paths:
            files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
        findings = analyze_paths(files, selected=selected)
    else:
        findings = analyze_repo(repo_source_root(), selected=selected)

    if args.as_json:
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(render_finding(finding))
        if findings:
            print(f"\n{len(findings)} finding(s)", file=sys.stderr)
        else:
            print("selfcheck clean: all determinism and protocol invariants hold")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
