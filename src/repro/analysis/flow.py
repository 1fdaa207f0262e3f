"""Interprocedural flow rules: statically enforce the serving contracts.

The stack's headline guarantees are dynamic facts — byte-identical
scans at any worker count, jitter-seed isolation of the load
scenarios — proven today by differential tests that execute long
after a violating line lands.  This module proves the *structural*
halves of those guarantees at selfcheck time, on a whole-program call
graph of ``src/repro``:

``answer-path-blocking``
    Starting from every endpoint door — ``Endpoint.handle_datagram``,
    ``handle_paved`` and ``handle_stream`` and each override — no reachable
    code may call a real-blocking primitive (``time.sleep``, socket
    recv/send, ``threading`` joins/waits) — the answer path waits only
    on the virtual clock — and every reachable ``lane_wait`` /
    ``wait_virtual`` must carry a ``wake_at`` bound, so a parked lane
    can never outlive the deadline its client is owed
    (:class:`~repro.resolver.resilience.DeadlineBudget` discipline).
    The lane pool itself (``repro.net.lanes``) is the sanctioned
    scheduler boundary: its internals are exempt, its entry points are
    where the discipline is checked.

``seed-domain-taint``
    The load engine draws from two seed domains: the *schedule* seed
    fixes everything a client could observe (arrival times, qnames,
    message IDs, report fields), the *jitter* seed feeds only retry
    jitter and chaos.  This rule classifies values by injection site
    (``jitter_seed`` / ``chaos_seed`` attribute reads, and RNGs seeded
    from them) and flags any flow into a schedule-domain or
    client-visible sink (``make_query``, ``client_arrivals``,
    ``sample``, ``_Event``, ``build_phase_report``).  The sanctioned
    injection sites — ``EngineConfig``, ``ChaosPolicy``, ``Outage``,
    ``LoadConfig`` constructions — are boundaries: jitter may flow *in*
    but the resulting config object is not itself tainted.

Call-graph construction reuses the engine's alias resolution
(:class:`~repro.analysis.engine.AliasResolver`) and adds: method
collection per class, ``self.`` dispatch through the class hierarchy
(a call on a base type also targets subclass overrides), attribute
typing from ``self.x = param`` assignments and dataclass field
annotations, parameter/return annotations (including quoted
``TYPE_CHECKING``-only names), and re-exported names followed across
``__init__`` modules.  Dynamic dispatch the builder cannot see
(``getattr``, callables passed as values) is out of scope — the
runtime sanitizer and the differential tests remain the net
under it.

Intentional exceptions live in a committed baseline
(``flow_baseline.json``) keyed by ``rule::symbol::token`` — stable
across line drift — or behind inline ``# repro: allow[rule]`` markers;
baseline entries matching no current finding are reported as
``stale-baseline`` so the allowlist can only shrink.
"""

from __future__ import annotations

import ast
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol

from .findings import Finding

RULE_ANSWER_PATH_BLOCKING = "answer-path-blocking"
RULE_SEED_DOMAIN_TAINT = "seed-domain-taint"

FLOW_RULES = (
    RULE_ANSWER_PATH_BLOCKING,
    RULE_SEED_DOMAIN_TAINT,
)

#: The door contract's entry points: these methods of any class of this
#: name, and every subclass override of them, anchor the answer-path
#: traversal.
ENTRY_CLASS = "Endpoint"
ENTRY_METHODS = ("handle_datagram", "handle_paved", "handle_stream")

#: Modules (dotted-suffix match) whose internals are the sanctioned
#: deterministic scheduler: traversal stops at their door, and the
#: wake_at discipline is enforced at their call sites instead.
BOUNDARY_MODULE_SUFFIXES = ("net.lanes",)

#: Real-blocking stdlib entry points (resolved through aliases).
_BLOCKING_CALLS = frozenset({"time.sleep"})

#: Blocking methods on objects typed from these external constructors.
_EXTERNAL_TYPES = frozenset({
    "socket.socket",
    "threading.Thread",
    "threading.Event",
    "threading.Condition",
    "threading.Lock",
    "threading.RLock",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Barrier",
})
_SOCKET_BLOCKING = frozenset({
    "recv", "recvfrom", "recvmsg", "recv_into", "recvfrom_into",
    "send", "sendto", "sendall", "sendmsg", "accept", "connect",
})
_THREADING_BLOCKING = frozenset({"join", "wait", "wait_for", "acquire"})

#: Predicate waits that must carry a ``wake_at`` bound on the answer path.
_WAIT_FUNCS = frozenset({"lane_wait", "wait_virtual"})

#: Attribute/parameter names whose values belong to the jitter domain.
_JITTER_SOURCES = frozenset({"jitter_seed", "chaos_seed"})

#: Sanctioned jitter-injection constructors: jitter flows in, the
#: resulting object is the jitter domain's own state, not a leak.
_TAINT_BOUNDARIES = frozenset({
    "EngineConfig", "ChaosPolicy", "Outage", "LoadConfig",
})

#: Schedule-domain / client-visible sinks, by callee name.
_TAINT_SINKS: dict[str, str] = {
    "make_query": "client-visible query construction (message IDs)",
    "client_arrivals": "schedule-domain arrival process",
    "sample": "schedule-domain query mix draw",
    "_Event": "client-visible event record",
    "build_phase_report": "client-visible report fields",
}


class _SourceFileLike(Protocol):
    display: str
    module: str
    tree: ast.Module
    path: Path


# ---------------------------------------------------------------------------
# Program model
# ---------------------------------------------------------------------------


@dataclass
class CallSite:
    """One resolved call expression inside a function body."""

    node: ast.Call
    line: int
    #: Terminal callee name (``sleep`` for ``self.clock.sleep(...)``).
    name: str
    #: Internal targets, as function qualnames.
    targets: tuple[str, ...] = ()
    #: External dotted targets (``time.sleep``, ``socket.socket.recv``).
    external: tuple[str, ...] = ()
    #: Classes this call constructs (internal qualnames or external dotted).
    constructs: tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    qualname: str
    module: str
    cls: str | None  # enclosing class qualname, if a method
    name: str
    node: ast.AST
    path: str
    return_types: tuple[str, ...] = ()
    calls: list[CallSite] = field(default_factory=list)
    #: id(ast.Call) -> CallSite, for the taint pass.
    call_index: dict[int, CallSite] = field(default_factory=dict)

    @property
    def short(self) -> str:
        if self.cls is not None:
            return f"{self.cls.rsplit('.', 1)[-1]}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    base_exprs: list[ast.expr] = field(default_factory=list)
    bases: list[str] = field(default_factory=list)  # resolved class qualnames
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    #: attribute name -> candidate types (class qualnames / external dotted)
    attr_types: dict[str, set[str]] = field(default_factory=dict)


@dataclass
class _Module:
    name: str
    display: str
    aliases: "object"  # AliasResolver; typed loosely to avoid the cycle
    tree: ast.Module


class Program:
    """A whole-program view: modules, classes, functions, call edges."""

    def __init__(self, files: Iterable[_SourceFileLike]):
        from .engine import AliasResolver

        self.modules: dict[str, _Module] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.subclasses: dict[str, set[str]] = {}
        ordered = sorted(files, key=lambda f: f.display)
        for file in ordered:
            is_package = Path(file.path).stem == "__init__"
            aliases = AliasResolver.collect(file.tree, file.module, is_package)
            self.modules[file.module] = _Module(
                name=file.module, display=file.display,
                aliases=aliases, tree=file.tree,
            )
            self._collect_defs(file)
        self._resolve_bases()
        # Attribute typing converges in two passes: the second lets
        # ``self.clock = fabric.clock`` style chains read the attribute
        # types the first pass discovered on other classes.
        for _ in range(2):
            for cls in self.classes.values():
                self._collect_attr_types(cls)
        for fn in self.functions.values():
            fn.return_types = tuple(
                sorted(self._annotation_types(
                    getattr(fn.node, "returns", None), fn.module
                ))
            )
        for fn in self.functions.values():
            self._analyze_body(fn)

    # -- collection ----------------------------------------------------------

    def _collect_defs(self, file: _SourceFileLike) -> None:
        for stmt in file.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                q = f"{file.module}.{stmt.name}"
                self.functions[q] = FunctionInfo(
                    qualname=q, module=file.module, cls=None,
                    name=stmt.name, node=stmt, path=file.display,
                )
            elif isinstance(stmt, ast.ClassDef):
                cq = f"{file.module}.{stmt.name}"
                cls = ClassInfo(
                    qualname=cq, module=file.module, name=stmt.name,
                    node=stmt, path=file.display,
                    base_exprs=list(stmt.bases),
                )
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mq = f"{cq}.{item.name}"
                        self.functions[mq] = FunctionInfo(
                            qualname=mq, module=file.module, cls=cq,
                            name=item.name, node=item, path=file.display,
                        )
                        cls.methods[item.name] = mq
                self.classes[cq] = cls

    def _resolve_bases(self) -> None:
        for cls in self.classes.values():
            aliases = self.modules[cls.module].aliases
            for expr in cls.base_exprs:
                target = None
                if isinstance(expr, ast.Name):
                    local = f"{cls.module}.{expr.id}"
                    if local in self.classes:
                        target = local
                if target is None:
                    dotted = aliases.dotted(expr)
                    if dotted is not None:
                        resolved = self.resolve(dotted)
                        if isinstance(resolved, ClassInfo):
                            target = resolved.qualname
                if target is not None:
                    cls.bases.append(target)
        for cls in self.classes.values():
            for base in cls.bases:
                self.subclasses.setdefault(base, set()).add(cls.qualname)

    def _collect_attr_types(self, cls: ClassInfo) -> None:
        """Instance-attribute types: dataclass field annotations in the
        class body, plus ``self.x = <inferable>`` assignments in methods."""
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                types = self._annotation_types(stmt.annotation, cls.module)
                if types:
                    cls.attr_types.setdefault(stmt.target.id, set()).update(types)
        for method_q in cls.methods.values():
            fn = self.functions[method_q]
            env = self._param_env(fn)

            def self_attr(target: ast.expr) -> str | None:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return target.attr
                return None

            def walk(stmts) -> None:
                for stmt in stmts:
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target = stmt.targets[0]
                        attr = self_attr(target)
                        types = self._infer(stmt.value, env, fn)
                        if attr is not None and types:
                            cls.attr_types.setdefault(attr, set()).update(types)
                        elif isinstance(target, ast.Name) and types:
                            env.setdefault(target.id, set()).update(types)
                    elif isinstance(stmt, ast.AnnAssign):
                        types = self._annotation_types(stmt.annotation, fn.module)
                        if stmt.value is not None:
                            types = types | self._infer(stmt.value, env, fn)
                        attr = self_attr(stmt.target)
                        if attr is not None and types:
                            cls.attr_types.setdefault(attr, set()).update(types)
                        elif isinstance(stmt.target, ast.Name) and types:
                            env.setdefault(stmt.target.id, set()).update(types)
                    for field_name in ("body", "orelse", "finalbody"):
                        walk(getattr(stmt, field_name, ()) or ())
                    for handler in getattr(stmt, "handlers", ()) or ():
                        walk(handler.body)

            walk(getattr(fn.node, "body", ()))

    # -- symbol resolution ---------------------------------------------------

    def resolve(self, dotted: str, _seen: frozenset = frozenset()):
        """A dotted name to its FunctionInfo/ClassInfo, following re-exports."""
        if dotted in _seen:
            return None
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        head, _, attr = dotted.rpartition(".")
        if head in self.classes:
            method = self.method_on(head, attr)
            if method is not None:
                return method
        # Re-export: find the longest module prefix, then follow the
        # alias its ``__init__``/module binds for the next component.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.modules.get(prefix)
            if module is None:
                continue
            target = module.aliases.names.get(parts[cut])
            if target is None:
                return None
            rest = ".".join(parts[cut + 1:])
            renamed = f"{target}.{rest}" if rest else target
            return self.resolve(renamed, _seen | {dotted})
        return None

    def method_on(self, class_q: str, name: str, _seen: frozenset = frozenset()):
        """MRO-ish lookup: the class, then its bases, depth-first."""
        if class_q in _seen:
            return None
        cls = self.classes.get(class_q)
        if cls is None:
            return None
        if name in cls.methods:
            return self.functions[cls.methods[name]]
        for base in cls.bases:
            found = self.method_on(base, name, _seen | {class_q})
            if found is not None:
                return found
        return None

    def _all_subclasses(self, class_q: str) -> set[str]:
        out: set[str] = set()
        frontier = [class_q]
        while frontier:
            current = frontier.pop()
            for sub in self.subclasses.get(current, ()):
                if sub not in out:
                    out.add(sub)
                    frontier.append(sub)
        return out

    def dispatch(self, class_q: str, name: str) -> set[str]:
        """Call targets for ``obj.name()`` where obj is statically ``class_q``:
        the inherited implementation plus every subclass override."""
        targets: set[str] = set()
        base = self.method_on(class_q, name)
        if base is not None:
            targets.add(base.qualname)
        for sub in self._all_subclasses(class_q):
            cls = self.classes[sub]
            if name in cls.methods:
                targets.add(cls.methods[name])
        return targets

    # -- annotations & type inference ---------------------------------------

    def _annotation_types(self, ann: ast.expr | None, module: str) -> set[str]:
        if ann is None:
            return set()
        if isinstance(ann, ast.Constant):
            if not isinstance(ann.value, str):
                return set()
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return set()
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._annotation_types(ann.left, module) | self._annotation_types(
                ann.right, module
            )
        if isinstance(ann, ast.Subscript):
            value = ann.value
            name = value.id if isinstance(value, ast.Name) else getattr(value, "attr", "")
            if name in ("Optional", "Union"):
                inner = ann.slice
                elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                out: set[str] = set()
                for element in elements:
                    out |= self._annotation_types(element, module)
                return out
            return set()
        if isinstance(ann, (ast.Name, ast.Attribute)):
            return self._class_types_for(ann, module)
        return set()

    def _class_types_for(self, expr: ast.expr, module: str) -> set[str]:
        """Resolve a Name/Attribute to class types (internal or external)."""
        if isinstance(expr, ast.Name):
            local = f"{module}.{expr.id}"
            if local in self.classes:
                return {local}
        aliases = self.modules[module].aliases
        dotted = aliases.dotted(expr)
        if dotted is None:
            return set()
        if dotted in _EXTERNAL_TYPES:
            return {dotted}
        resolved = self.resolve(dotted)
        if isinstance(resolved, ClassInfo):
            return {resolved.qualname}
        return set()

    def _param_env(self, fn: FunctionInfo) -> dict[str, set[str]]:
        env: dict[str, set[str]] = {}
        node = fn.node
        args = getattr(node, "args", None)
        if args is None:
            return env
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in every:
            types = self._annotation_types(arg.annotation, fn.module)
            if types:
                env[arg.arg] = types
        if fn.cls is not None and every and every[0].arg in ("self", "cls"):
            env[every[0].arg] = {fn.cls}
        return env

    def _infer(
        self, expr: ast.expr, env: dict[str, set[str]], fn: FunctionInfo
    ) -> set[str]:
        """Candidate instance types of an expression (best effort)."""
        if isinstance(expr, ast.Name):
            return set(env.get(expr.id, ()))
        if isinstance(expr, ast.Attribute):
            out: set[str] = set()
            for base_type in self._infer(expr.value, env, fn):
                cls = self.classes.get(base_type)
                if cls is not None:
                    out |= cls.attr_types.get(expr.attr, set())
            return out
        if isinstance(expr, ast.Call):
            targets, _, constructs = self._call_targets(expr, env, fn)
            out = set(constructs)
            for target in targets:
                out.update(self.functions[target].return_types)
            return out
        if isinstance(expr, ast.BoolOp):
            out = set()
            for value in expr.values:
                out |= self._infer(value, env, fn)
            return out
        if isinstance(expr, ast.IfExp):
            return self._infer(expr.body, env, fn) | self._infer(
                expr.orelse, env, fn
            )
        return set()

    def _build_env(self, fn: FunctionInfo) -> dict[str, set[str]]:
        """Parameter types plus in-order local assignment inference."""
        env = self._param_env(fn)

        def walk(stmts) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        types = self._infer(stmt.value, env, fn)
                        if types:
                            env.setdefault(target.id, set()).update(types)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    types = self._annotation_types(stmt.annotation, fn.module)
                    if types:
                        env.setdefault(stmt.target.id, set()).update(types)
                for attr in ("body", "orelse", "finalbody"):
                    walk(getattr(stmt, attr, ()) or ())
                for handler in getattr(stmt, "handlers", ()) or ():
                    walk(handler.body)
        walk(getattr(fn.node, "body", ()))
        return env

    # -- call resolution -----------------------------------------------------

    def _call_targets(
        self, call: ast.Call, env: dict[str, set[str]], fn: FunctionInfo
    ) -> tuple[set[str], set[str], set[str]]:
        """(internal targets, external dotted, constructed types)."""
        targets: set[str] = set()
        external: set[str] = set()
        constructs: set[str] = set()
        aliases = self.modules[fn.module].aliases
        func = call.func

        def note(resolved, dotted: str | None) -> None:
            if isinstance(resolved, FunctionInfo):
                targets.add(resolved.qualname)
            elif isinstance(resolved, ClassInfo):
                constructs.add(resolved.qualname)
                init = self.method_on(resolved.qualname, "__init__")
                if init is not None:
                    targets.add(init.qualname)
            elif dotted is not None:
                if dotted in _EXTERNAL_TYPES:
                    constructs.add(dotted)
                else:
                    external.add(dotted)

        if isinstance(func, ast.Name):
            local = f"{fn.module}.{func.id}"
            if local in self.functions:
                targets.add(local)
            elif local in self.classes:
                note(self.classes[local], None)
            else:
                dotted = aliases.dotted(func)
                if dotted is not None:
                    note(self.resolve(dotted), dotted)
        elif isinstance(func, ast.Attribute):
            dotted = aliases.dotted(func)
            if dotted is not None:
                note(self.resolve(dotted), dotted)
            else:
                for receiver in self._infer(func.value, env, fn):
                    if receiver in self.classes:
                        targets |= self.dispatch(receiver, func.attr)
                    else:  # external type, e.g. socket.socket
                        external.add(f"{receiver}.{func.attr}")
        return targets, external, constructs

    # -- body analysis -------------------------------------------------------

    def _analyze_body(self, fn: FunctionInfo) -> None:
        env = self._build_env(fn)

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.Call):
                targets, external, constructs = self._call_targets(node, env, fn)
                name = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name) else ""
                )
                site = CallSite(
                    node=node, line=node.lineno, name=name,
                    targets=tuple(sorted(targets)),
                    external=tuple(sorted(external)),
                    constructs=tuple(sorted(constructs)),
                )
                fn.calls.append(site)
                fn.call_index[id(node)] = site
            for child in ast.iter_child_nodes(node):
                visit(child)

        for stmt in getattr(fn.node, "body", ()):
            visit(stmt)


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def _is_boundary(module: str) -> bool:
    return any(module.endswith(suffix) for suffix in BOUNDARY_MODULE_SUFFIXES)


def find_entries(program: Program) -> list[FunctionInfo]:
    entries = {
        qualname
        for cls in program.classes.values()
        if cls.name == ENTRY_CLASS
        for method in ENTRY_METHODS
        for qualname in program.dispatch(cls.qualname, method)
    }
    return [program.functions[q] for q in sorted(entries)]


def _reachable(
    program: Program, entries: list[FunctionInfo]
) -> dict[str, str | None]:
    """BFS over call edges; returns fn qualname -> parent qualname."""
    parents: dict[str, str | None] = {fn.qualname: None for fn in entries}
    queue = deque(fn.qualname for fn in entries)
    while queue:
        current = queue.popleft()
        fn = program.functions[current]
        if _is_boundary(fn.module):
            continue  # the scheduler boundary: do not look inside
        for site in fn.calls:
            for target in site.targets:
                if target not in parents:
                    parents[target] = current
                    queue.append(target)
    return parents


def _chain(program: Program, parents: dict[str, str | None], q: str) -> str:
    hops = []
    cursor: str | None = q
    while cursor is not None:
        hops.append(program.functions[cursor].short)
        cursor = parents[cursor]
    return " <- ".join(hops) if len(hops) > 1 else hops[0]


# ---------------------------------------------------------------------------
# Rule: answer-path-blocking
# ---------------------------------------------------------------------------


def _blocking_external(dotted: str) -> bool:
    if dotted in _BLOCKING_CALLS:
        return True
    head, _, attr = dotted.rpartition(".")
    if head == "socket.socket" and attr in _SOCKET_BLOCKING:
        return True
    if head in _EXTERNAL_TYPES and head.startswith("threading.") and (
        attr in _THREADING_BLOCKING
    ):
        return True
    # Module-level blocking entry points reached without a constructor,
    # e.g. ``socket.create_connection``.
    if dotted.startswith("socket.") and attr in _SOCKET_BLOCKING | {
        "create_connection"
    }:
        return True
    return False


def _wait_is_bounded(call: ast.Call) -> bool:
    """A lane_wait/wait_virtual carries a non-None wake-up bound."""
    for kw in call.keywords:
        if kw.arg == "wake_at":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            )
    for arg in call.args[1:]:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    return False


def check_answer_path(program: Program) -> Iterator[Finding]:
    entries = find_entries(program)
    if not entries:
        return
    parents = _reachable(program, entries)
    for q in sorted(parents):
        fn = program.functions[q]
        if _is_boundary(fn.module):
            continue
        chain = _chain(program, parents, q)
        for site in fn.calls:
            for dotted in site.external:
                if _blocking_external(dotted):
                    yield Finding(
                        rule=RULE_ANSWER_PATH_BLOCKING,
                        message=(
                            f"real-blocking call `{dotted}` is reachable from"
                            f" an endpoint door (via {chain});"
                            " the answer path may only wait on the virtual"
                            " clock"
                        ),
                        path=fn.path,
                        line=site.line,
                        key=f"{RULE_ANSWER_PATH_BLOCKING}::{q}::{dotted}",
                    )
            if site.name in _WAIT_FUNCS and not _wait_is_bounded(site.node):
                yield Finding(
                    rule=RULE_ANSWER_PATH_BLOCKING,
                    message=(
                        f"`{site.name}` without a wake_at bound is reachable"
                        f" from an endpoint door (via {chain});"
                        " a parked lane could outlive its client's deadline —"
                        " pass wake_at= from the DeadlineBudget"
                    ),
                    path=fn.path,
                    line=site.line,
                    key=f"{RULE_ANSWER_PATH_BLOCKING}::{q}::unbounded:{site.name}",
                )


# ---------------------------------------------------------------------------
# Rule: seed-domain-taint
# ---------------------------------------------------------------------------


@dataclass
class _TaintResult:
    returns_tainted: bool = False
    tainted_attrs: dict[str, set[str]] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)


def _taint_function(
    fn: FunctionInfo,
    summaries: set[str],
    attr_taint: dict[str, set[str]],
    collect: bool,
) -> _TaintResult:
    result = _TaintResult()
    tainted: set[str] = set()
    node = fn.node
    args = getattr(node, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.arg in _JITTER_SOURCES:
                tainted.add(arg.arg)

    def expr_tainted(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tainted or expr.id in _JITTER_SOURCES
        if isinstance(expr, ast.Attribute):
            if expr.attr in _JITTER_SOURCES:
                return True
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and fn.cls is not None
                and expr.attr in attr_taint.get(fn.cls, ())
            ):
                return True
            return expr_tainted(expr.value)
        if isinstance(expr, ast.Call):
            site = fn.call_index.get(id(expr))
            name = site.name if site is not None else ""
            if name in _TAINT_BOUNDARIES:
                return False
            if site is not None and any(t in summaries for t in site.targets):
                return True
            if isinstance(expr.func, ast.Attribute) and expr_tainted(
                expr.func.value
            ):
                return True  # a draw from a jitter-domain RNG
            return any(expr_tainted(a) for a in expr.args) or any(
                expr_tainted(kw.value) for kw in expr.keywords
            )
        if isinstance(expr, ast.BinOp):
            return expr_tainted(expr.left) or expr_tainted(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return expr_tainted(expr.operand)
        if isinstance(expr, ast.BoolOp):
            return any(expr_tainted(v) for v in expr.values)
        if isinstance(expr, ast.IfExp):
            return expr_tainted(expr.body) or expr_tainted(expr.orelse)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(expr_tainted(e) for e in expr.elts)
        if isinstance(expr, ast.Subscript):
            return expr_tainted(expr.value)
        if isinstance(expr, ast.Starred):
            return expr_tainted(expr.value)
        return False

    def mark_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                mark_target(element)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and fn.cls is not None
        ):
            result.tainted_attrs.setdefault(fn.cls, set()).add(target.attr)

    def visit(stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Assign):
            if expr_tainted(stmt.value):
                for target in stmt.targets:
                    mark_target(target)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and expr_tainted(stmt.value):
                mark_target(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            if expr_tainted(stmt.value):
                mark_target(stmt.target)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None and expr_tainted(stmt.value):
                result.returns_tainted = True
        for child in ast.iter_child_nodes(stmt):
            visit(child)

    for stmt in getattr(node, "body", ()):
        visit(stmt)

    if collect:
        for site in fn.calls:
            desc = _TAINT_SINKS.get(site.name)
            if desc is None:
                continue
            call = site.node
            flows = [
                a for a in list(call.args) + [kw.value for kw in call.keywords]
                if expr_tainted(a)
            ]
            if flows:
                result.findings.append(
                    Finding(
                        rule=RULE_SEED_DOMAIN_TAINT,
                        message=(
                            f"jitter-domain value flows into {desc} via"
                            f" `{site.name}(...)` in {fn.short}; only the"
                            " schedule seed may shape client-visible or"
                            " schedule-domain state (jitter belongs to"
                            " retry/chaos RNGs alone)"
                        ),
                        path=fn.path,
                        line=site.line,
                        key=(
                            f"{RULE_SEED_DOMAIN_TAINT}::{fn.qualname}"
                            f"::sink:{site.name}"
                        ),
                    )
                )
    return result


def check_seed_domains(program: Program) -> Iterator[Finding]:
    summaries: set[str] = set()
    attr_taint: dict[str, set[str]] = {}
    for _ in range(10):
        changed = False
        for q in sorted(program.functions):
            fn = program.functions[q]
            partial = _taint_function(fn, summaries, attr_taint, collect=False)
            if partial.returns_tainted and q not in summaries:
                summaries.add(q)
                changed = True
            for cls, attrs in partial.tainted_attrs.items():
                known = attr_taint.setdefault(cls, set())
                if not attrs <= known:
                    known |= attrs
                    changed = True
        if not changed:
            break
    for q in sorted(program.functions):
        fn = program.functions[q]
        yield from _taint_function(fn, summaries, attr_taint, collect=True).findings


# ---------------------------------------------------------------------------
# Baseline + entry point
# ---------------------------------------------------------------------------


def load_baseline(path: Path) -> dict[str, str]:
    """``key -> reason`` from a committed baseline file (missing: empty)."""
    path = Path(path)
    if not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = payload.get("entries", [])
    return {entry["key"]: entry.get("reason", "") for entry in entries}


_RULE_CHECKS = {
    RULE_ANSWER_PATH_BLOCKING: check_answer_path,
    RULE_SEED_DOMAIN_TAINT: check_seed_domains,
}


def analyze_program(
    files: Iterable[_SourceFileLike],
    rules: Iterable[str] = FLOW_RULES,
) -> list[Finding]:
    """Build the call graph once and run the requested flow rules."""
    program = Program(files)
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(_RULE_CHECKS[rule](program))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))
