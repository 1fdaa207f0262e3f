"""Alias-resolution unit tests: the bindings the determinism rules stand on.

``AliasResolver`` maps module-local names to the dotted entry points
they denote; these tests pin the binding forms it must handle — plain
imports, ``as`` renames, attribute chains, module-level aliases — and
that a relative import binds nothing.
"""

import ast

from repro.analysis import AliasResolver


def resolve(source, expr):
    aliases = AliasResolver.collect(ast.parse(source))
    node = ast.parse(expr, mode="eval").body
    return aliases.dotted(node)


def test_plain_import_binds_root_name():
    assert resolve("import time", "time.sleep") == "time.sleep"
    # ``import a.b`` binds only ``a``; the chain still resolves through it.
    assert resolve("import os.path", "os.path.join") == "os.path.join"


def test_import_as_binds_the_full_dotted_module():
    assert resolve("import time as t", "t.sleep") == "time.sleep"
    assert resolve("import os.path as p", "p.join") == "os.path.join"


def test_from_import_and_rename():
    assert resolve("from time import sleep", "sleep") == "time.sleep"
    assert resolve("from time import sleep as zz", "zz") == "time.sleep"
    assert resolve("from os import path as p", "p.join") == "os.path.join"


def test_module_level_alias_assignment():
    source = "import time\nwall = time.time\n"
    assert resolve(source, "wall") == "time.time"


def test_relative_import_binds_nothing():
    # A package's own ``time`` module is not the stdlib one.
    assert resolve("from . import time", "time.sleep") is None
    assert resolve("from .clock import Clock", "Clock") is None
    assert resolve("from ..dns import wire", "wire.to_bytes") is None


def test_stdlib_dotted_filters_to_tracked_modules():
    aliases = AliasResolver.collect(
        ast.parse("import time\nimport collections")
    )
    time_call = ast.parse("time.sleep", mode="eval").body
    deque_call = ast.parse("collections.deque", mode="eval").body
    assert aliases.stdlib_dotted(time_call) == "time.sleep"
    assert aliases.stdlib_dotted(deque_call) is None
