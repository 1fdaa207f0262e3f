"""Static analysis of the reproduction itself.

PR 1 made bit-for-bit replay a core guarantee; this package *enforces*
the invariants that guarantee rests on:

* **Determinism rules** (:mod:`.determinism`) — AST lint forbidding
  wall-clock reads, OS entropy, and global-RNG use anywhere in the
  simulation: clocks arrive via :class:`repro.net.clock.Clock` and
  randomness via an injected, seeded :class:`random.Random`.
* **Protocol-invariant rules** (:mod:`.invariants`) — cross-checks of
  the data tables against the registries they reference: every EDE
  INFO-CODE must resolve in the RFC 8914 registry, every testbed case
  in the paper's Table 4 transcription must map to a defined subdomain
  and a reachable policy branch, every enum member reference must exist.
* **Flow rules** (:mod:`.flow`) — interprocedural analysis over a
  whole-program call graph: no real-blocking call or unbounded wait
  reachable from an endpoint door (``Endpoint.handle_datagram``,
  ``handle_paved``, ``handle_stream`` and their overrides), no
  jitter-domain value flowing into schedule-domain or client-visible
  state.  Intentional exceptions live in a committed baseline
  (``flow_baseline.json``).  That no door raises is a run-time fact,
  checked by the fuzz gate's raising-body and routing rows.
* **Runtime sanitizer** (:mod:`.sanitizer`) — an opt-in guard that
  patches the same entry points to *raise* inside fabric runs, so the
  static allowlist can be proven sound end-to-end.

``python -m repro.tools.selfcheck`` runs the whole pass and exits
non-zero on findings; CI gates on it.
"""

from .findings import Finding, Severity, findings_to_json, render_finding
from .engine import (
    AliasResolver,
    analyze_paths,
    analyze_repo,
    default_flow_baseline,
    known_rules,
    repo_source_root,
)
from .sanitizer import DeterminismViolation, determinism_sanitizer

__all__ = [
    "AliasResolver",
    "DeterminismViolation",
    "Finding",
    "Severity",
    "analyze_paths",
    "analyze_repo",
    "default_flow_baseline",
    "determinism_sanitizer",
    "findings_to_json",
    "known_rules",
    "render_finding",
    "repo_source_root",
]
