"""Every config field is one some caller sets.

A ``*Config`` dataclass field exists so that a caller can choose its
value.  A field that every caller leaves at its default is a fixed
value: it belongs in a module constant beside the code that reads it,
not in the settable surface.  This row scans ``src``, ``perf``,
``examples`` and ``tests`` and requires, for every field of every
``*Config`` dataclass in ``src/repro``, at least one setting site:

* a call of the class: a keyword of that name, or a positional
  argument in that field's place;
* a ``**mapping`` splatted into a call of the class, with a keyword of
  that name anywhere in the same module (the mapping is built by
  ``dict(...)`` or forwarded as ``**kwargs``);
* a ``replace(obj, name=...)`` call (``obj``'s class is not known
  statically, so it counts for every config class with that field);
* an assignment ``obj.name = ...`` to anything but ``self`` (likewise).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "perf", "examples", "tests")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def config_fields() -> dict[str, list[str]]:
    """``*Config`` dataclass name -> its field names, in order."""
    classes = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                classes[node.name] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
    return classes


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def set_fields(classes: dict[str, list[str]]) -> set[tuple[str, str]]:
    """Every ``(class, field)`` some scanned module sets."""
    owners: dict[str, list[str]] = {}
    for cls, fields in classes.items():
        for name in fields:
            owners.setdefault(name, []).append(cls)
    found: set[tuple[str, str]] = set()
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            keywords: set[str] = set()
            splatted: set[str] = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    named = {kw.arg for kw in node.keywords if kw.arg}
                    keywords |= named
                    called = _called_name(node)
                    if called in classes:
                        fields = classes[called]
                        found |= {(called, name) for name in fields[: len(node.args)]}
                        found |= {(called, name) for name in named if name in fields}
                        if any(kw.arg is None for kw in node.keywords):
                            splatted.add(called)
                    elif called == "replace" and node.args:
                        found |= {(cls, name) for name in named for cls in owners.get(name, ())}
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    else []
                )
                for target in targets:
                    for sub in ast.walk(target):
                        if (
                            isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and not (isinstance(sub.value, ast.Name) and sub.value.id == "self")
                        ):
                            found |= {(cls, sub.attr) for cls in owners.get(sub.attr, ())}
            for cls in splatted:
                found |= {(cls, name) for name in classes[cls] if name in keywords}
    return found


def test_every_config_field_is_set_by_some_caller():
    classes = config_fields()
    assert classes, "no *Config dataclass found under src/repro"
    found = set_fields(classes)
    unset = [
        f"{cls}.{name}"
        for cls, fields in sorted(classes.items())
        for name in fields
        if (cls, name) not in found
    ]
    assert not unset, (
        f"{len(unset)} config field(s) no caller sets; make each a module "
        "constant beside its reader:\n  " + "\n  ".join(unset)
    )
