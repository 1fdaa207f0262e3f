"""Binding forms: how the determinism source rows see a tracked module.

The rows in ``tests/test_selfcheck.py`` resolve no aliases.  A tracked
stdlib module (``time``, ``random``, ``os``, ``datetime``, ``secrets``,
``uuid``) may be bound only by a plain ``import x`` and read only as
``x.attr``; every other binding form is itself a finding, so a read
cannot hide behind a rename.  A relative import binds the package's
own module, never the stdlib one.
"""

from .test_selfcheck import rules_of


def test_plain_import_binds_root_name():
    assert rules_of("import time\ntime.sleep(1)\n") == {"wall-clock"}
    # An untracked attribute of a tracked module is fine.
    assert rules_of("import os\npath = os.path.join('a', 'b')\n") == set()


def test_import_as_binds_the_full_dotted_module():
    assert rules_of("import time as t\nt.sleep(1)\n") == {"import-form"}
    assert rules_of("import os.path\n") == {"import-form"}


def test_from_import_and_rename():
    assert rules_of("from time import sleep\nsleep(1)\n") == {"import-form"}
    assert rules_of("from time import sleep as zz\nzz(1)\n") == {"import-form"}
    assert rules_of("from os import urandom\nkey = urandom(8)\n") == {"import-form"}


def test_module_level_alias_assignment():
    assert rules_of("import time\nwall = time.time\nnow = wall()\n") == {"wall-clock"}
    assert rules_of("import random\nrng = random\nx = rng.random()\n") == {"module-as-value"}


def test_relative_import_binds_nothing():
    # A package's own ``time`` module is not the stdlib one.
    assert rules_of("from . import time\ntime.sleep(1)\n") == set()
    assert rules_of("from .clock import Clock\nnow = Clock().now()\n") == set()


def test_stdlib_dotted_filters_to_tracked_modules():
    assert rules_of("import collections\nq = collections.deque()\n") == set()
    # ``hasattr`` only probes the module; it reads nothing through it.
    assert rules_of("import os\nok = hasattr(os, 'sched_getaffinity')\n") == set()
