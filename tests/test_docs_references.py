"""Living docs name only things that exist.

Every back-ticked repository path, every path inside a fenced command
block and every ``python -m repro.…`` module in the documents people
are sent to read must resolve against this tree.  EXPERIMENTS.md and
CHANGES.md are logs — they name what existed when an entry was written
— and are exempt.

A path resolves when it exists relative to the repository root or to
``src/repro/``, or, given as a bare file name, when exactly one file in
the repository carries it.  ``file.py::TestClass`` and ``file.py:123``
suffixes and anything after the first space (``tools/serve.py
--shards N``) are ignored.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "docs/ARCHITECTURE.md", "docs/CONTRIBUTING.md")

#: What counts as a repository path: a file with one of the extensions
#: the tree holds, or a directory written with its trailing slash.
PATH = re.compile(r"^[\w./-]+(\.(py|md|json|toml|yml|txt)|/)$")
FENCE = re.compile(r"```.*?```", re.S)
MODULE = re.compile(r"python3? -m (repro[\w.]*)")


@functools.cache
def _basenames() -> Counter:
    names: Counter = Counter()
    for _dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [
            d for d in dirnames
            if not d.startswith(".") and d != "__pycache__" and not d.endswith(".egg-info")
        ]
        names.update(filenames)
    return names


def _path_references(text: str) -> set[str]:
    words = [word for block in FENCE.findall(text) for word in block.split() if "/" in word]
    words += [
        token.split()[0] for token in re.findall(r"`([^`\n]+)`", FENCE.sub("", text))
    ]
    references = set()
    for word in words:
        word = re.sub(r":\d+(-\d+)?$", "", word.split("::")[0])
        if PATH.match(word):
            references.add(word)
    return references


def _path_resolves(reference: str) -> bool:
    if (ROOT / reference).exists() or (ROOT / "src" / "repro" / reference).exists():
        return True
    return "/" not in reference and _basenames()[reference] == 1


def _module_runs(module: str) -> bool:
    """``python -m module`` has something to run."""
    try:
        spec = importlib.util.find_spec(module)
        if spec is not None and spec.submodule_search_locations is not None:
            spec = importlib.util.find_spec(module + ".__main__")
    except ModuleNotFoundError:
        return False
    return spec is not None


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_and_module_a_living_doc_names_exists(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    paths = _path_references(text)
    modules = set(MODULE.findall(text))
    assert paths or modules, f"{doc}: found nothing to check"
    missing = sorted(
        [path for path in paths if not _path_resolves(path)]
        + [f"python -m {module}" for module in modules if not _module_runs(module)]
    )
    assert not missing, f"{doc} names things that do not exist: {missing}"
