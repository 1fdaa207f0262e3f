"""The analysis engine: walk files, run rules, honour suppressions.

A finding can be silenced with an inline marker::

    now = time.time()  # repro: allow[wall-clock]

or with a standalone comment that covers the next line::

    # repro: allow[wall-clock] -- operator-facing CLI, wall clock is the point
    started = time.time()

Markers name the rule they suppress (comma-separated for several) and
are themselves checked: a marker that suppresses nothing is reported as
``unused-suppression``, so stale annotations cannot accumulate and
quietly widen the allowlist.  A marker naming a *known* rule that was
not part of the current run (a rule excluded by ``--rule``) is exempt —
it had no chance to be used.

The engine also owns the alias-resolution machinery
(:class:`AliasResolver`): the per-module map from local names to the
dotted entry points they denote, following ``import x as y``,
``from x import y as z`` and module-level ``name = module.attr``
aliases.  The determinism rules use it to catch aliased wall-clock
escapes.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .findings import Finding

RULE_UNUSED_SUPPRESSION = "unused-suppression"
RULE_PARSE_ERROR = "parse-error"


# ---------------------------------------------------------------------------
# Alias resolution (for the determinism rules)
# ---------------------------------------------------------------------------

#: Stdlib modules the determinism rules police.
TRACKED_STDLIB_MODULES = frozenset(
    {"time", "random", "os", "datetime", "secrets", "uuid"}
)


class AliasResolver(ast.NodeVisitor):
    """Maps module-local names to the dotted paths they denote.

    Handles ``import a.b``, ``import a.b as c``, ``from x import y``
    (with ``as`` renames) and simple module-level aliases of the form
    ``wall = time.time``.  :meth:`dotted` then resolves a ``Name`` or
    ``Attribute`` chain to its dotted target, so ``wall()`` and
    ``t.sleep()`` (after ``import time as t``) both resolve.
    """

    def __init__(self) -> None:
        #: local name -> dotted path ("random", "time.time", "repro.obs.NULL_OBS")
        self.names: dict[str, str] = {}

    # -- collection ----------------------------------------------------------

    @classmethod
    def collect(cls, tree: ast.AST) -> "AliasResolver":
        resolver = cls()
        resolver.visit(tree)
        if isinstance(tree, ast.Module):
            resolver._collect_module_aliases(tree)
        return resolver

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                # ``import a.b as c`` binds c to the full dotted module.
                self.names[alias.asname] = alias.name
            else:
                # ``import a.b`` binds only the root name ``a``.
                root = alias.name.split(".")[0]
                self.names[root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            return  # a relative import never names a tracked stdlib module
        for alias in node.names:
            if alias.name == "*":
                continue
            self.names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def _collect_module_aliases(self, tree: ast.Module) -> None:
        """Module-level ``name = <resolvable dotted>`` aliases."""
        for stmt in tree.body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            dotted = self.dotted(stmt.value)
            if dotted is not None and dotted != target.id:
                self.names[target.id] = dotted

    # -- resolution ----------------------------------------------------------

    def dotted(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to its dotted path, or None."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def stdlib_dotted(self, node: ast.expr) -> str | None:
        """Like :meth:`dotted` but only for the tracked stdlib modules."""
        dotted = self.dotted(node)
        if dotted is None:
            return None
        root = dotted.split(".", 1)[0]
        return dotted if root in TRACKED_STDLIB_MODULES else None


# ---------------------------------------------------------------------------
# The rule catalog
# ---------------------------------------------------------------------------

#: Every rule name the engine can emit, with the layer it runs in and a
#: one-line description (``selfcheck --list-rules`` prints this).
RULE_CATALOG: dict[str, tuple[str, str]] = {
    "wall-clock": (
        "source", "wall-clock access outside the net/clock.py boundary"
    ),
    "os-entropy": (
        "source", "OS entropy (os.urandom, secrets, uuid1/4, SystemRandom)"
    ),
    "global-random": (
        "source", "module-level random.* call sharing the global generator"
    ),
    "unseeded-random": (
        "source", "random.Random() without an explicit seed"
    ),
    "ede-registry": (
        "source", "EDE INFO-CODE literal absent from the RFC 8914 registry"
    ),
    "enum-member": (
        "source", "reference to an undefined enum member"
    ),
    "obs-registry": (
        "table", "metric names/kinds drifting from the obs spec registry"
    ),
    "testbed-matrix": (
        "table", "Table 4 transcription vs testbed subdomains and policies"
    ),
    "rdata-registry": (
        "table", "rdata parser registry keyed by unregistered types"
    ),
    "resilience-codes": (
        "table", "resilience-layer EDE codes unassigned or unreachable"
    ),
    RULE_UNUSED_SUPPRESSION: (
        "meta", "# repro: allow[...] marker that suppresses nothing"
    ),
    RULE_PARSE_ERROR: (
        "meta", "file that does not parse"
    ),
}

#: Rules implemented by the cross-table checks in :mod:`.invariants`.
TABLE_RULES = ("obs-registry", "testbed-matrix", "rdata-registry", "resilience-codes")


def known_rules() -> tuple[str, ...]:
    return tuple(RULE_CATALOG)


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([a-zA-Z0-9_\s,-]+)\]")


class _Suppressions:
    """Per-file allow markers with usage tracking."""

    def __init__(self, source: str) -> None:
        #: line -> (marker line, rule names) for every line a marker covers
        self._covering: dict[int, list[tuple[int, str]]] = {}
        #: (marker line, rule) -> used?
        self._markers: dict[tuple[int, str], bool] = {}
        for lineno, text, standalone in _comments(source):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            rules = [r.strip() for r in match.group(1).split(",") if r.strip()]
            covered = [lineno]
            if standalone:
                covered.append(lineno + 1)
            for rule in rules:
                self._markers[(lineno, rule)] = False
                for line in covered:
                    self._covering.setdefault(line, []).append((lineno, rule))

    def suppresses(self, finding: Finding) -> bool:
        for marker_line, rule in self._covering.get(finding.line, ()):
            if rule == finding.rule:
                self._markers[(marker_line, rule)] = True
                return True
        return False

    def unused(self, path: str, active: frozenset[str] | None = None) -> Iterator[Finding]:
        """Markers that suppressed nothing this run.

        With ``active`` given, a marker naming a known-but-inactive rule
        is exempt (it never had a chance to fire); unknown rule names
        are always reported so typos cannot hide.
        """
        for (lineno, rule), used in sorted(self._markers.items()):
            if used:
                continue
            if active is not None and rule in RULE_CATALOG and rule not in active:
                continue
            yield Finding(
                rule=RULE_UNUSED_SUPPRESSION,
                message=(
                    f"allow[{rule}] suppresses nothing; remove the stale"
                    " marker (or fix the rule name)"
                ),
                path=path,
                line=lineno,
            )


def _comments(source: str) -> Iterator[tuple[int, str, bool]]:
    """(line, text, is-standalone) for each real comment token.

    Tokenizing (rather than regex over raw lines) keeps marker text
    inside strings and docstrings from registering as a suppression.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string, token.line.lstrip().startswith("#")
    except (tokenize.TokenError, IndentationError):
        return


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


@dataclass
class SourceFile:
    """One parsed module, ready for the source rules."""

    path: Path
    display: str
    tree: ast.Module
    suppressions: _Suppressions


def repo_source_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def iter_python_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.py"))


def _display_path(path: Path, base: Path | None) -> str:
    if base is not None:
        try:
            return str(path.relative_to(base))
        except ValueError:
            pass
    return str(path)


def load_files(
    paths: Iterable[Path], base: Path | None
) -> tuple[list[SourceFile], list[Finding]]:
    files: list[SourceFile] = []
    findings: list[Finding] = []
    for path in paths:
        source = Path(path).read_text(encoding="utf-8")
        display = _display_path(Path(path), base)
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule=RULE_PARSE_ERROR,
                    message=f"cannot parse: {exc.msg}",
                    path=display,
                    line=exc.lineno or 0,
                )
            )
            continue
        files.append(
            SourceFile(
                path=Path(path),
                display=display,
                tree=tree,
                suppressions=_Suppressions(source),
            )
        )
    return files, findings


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

# The rule modules import AliasResolver from here lazily, so these
# imports must come after its definition to keep the cycle harmless.
from .determinism import check_determinism  # noqa: E402
from .invariants import (  # noqa: E402
    check_ede_literals,
    check_enum_members,
    check_obs_registry_calls,
    check_tables,
)

#: AST rules applied to every analyzed module.
SOURCE_RULES: tuple[Callable[[ast.AST, str], Iterator[Finding]], ...] = (
    check_determinism,
    check_enum_members,
    check_ede_literals,
    check_obs_registry_calls,
)


def analyze_paths(
    paths: Iterable[Path],
    *,
    base: Path | None = None,
    rules: Iterable[Callable[[ast.AST, str], Iterator[Finding]]] = SOURCE_RULES,
    selected: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the analysis over ``paths``, honouring inline suppressions.

    ``selected`` restricts the run to the named rules.
    """
    chosen = frozenset(selected) if selected is not None else None
    active = frozenset(RULE_CATALOG) if chosen is None else chosen & set(RULE_CATALOG)
    files, findings = load_files(paths, base)

    for file in files:
        for rule in rules:
            for finding in rule(file.tree, file.display):
                if chosen is not None and finding.rule not in chosen:
                    continue
                if not file.suppressions.suppresses(finding):
                    findings.append(finding)

    if RULE_UNUSED_SUPPRESSION in active:
        for file in files:
            findings.extend(file.suppressions.unused(file.display, active))
    return findings


def analyze_repo(
    root: Path | None = None, selected: Iterable[str] | None = None
) -> list[Finding]:
    """The full selfcheck: source and table rules over ``src/repro``."""
    package_root = root or repo_source_root()
    chosen = frozenset(selected) if selected is not None else None
    findings = analyze_paths(
        iter_python_files(package_root),
        base=package_root.parent,
        selected=selected,
    )
    if chosen is None or chosen & set(TABLE_RULES):
        findings.extend(
            f for f in check_tables() if chosen is None or f.rule in chosen
        )
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
