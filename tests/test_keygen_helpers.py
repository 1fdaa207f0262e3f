"""The testbed's RSA keys are searched in helper processes: the same
function on the same ``(bits, seed)`` pairs, so the same keys."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.dnssec import rsa
from repro.testbed import infra


@pytest.fixture(scope="module")
def requests():
    """What ``build_testbed()`` hands to the search, and every pair it
    then asks :func:`rsa.generate_keypair` for."""
    searched, asked = [], set()
    patch = pytest.MonkeyPatch()
    generate, search = rsa.generate_keypair, infra.search_keypairs

    def asking(bits=1024, seed=None):
        asked.add((bits, seed))
        return generate(bits, seed)

    def searching(pairs):
        searched.append(set(pairs))
        search(searched[-1])

    patch.setattr(rsa, "generate_keypair", asking)
    patch.setattr(infra, "search_keypairs", searching)
    try:
        infra.build_testbed()
    finally:
        patch.undo()
    return searched, asked


@pytest.fixture()
def cpus(monkeypatch):
    """Set how many CPUs the search may use; count the helpers started."""
    started = []
    start = rsa._start_helper

    def counting(pairs):
        started.append(pairs)
        return start(pairs)

    monkeypatch.setattr(rsa, "_start_helper", counting)
    monkeypatch.setattr(rsa, "_seeded", {})

    def set_count(count):
        monkeypatch.setattr(rsa.os, "sched_getaffinity", lambda _pid: set(range(count)))
        return started

    return set_count


def test_the_builders_request_exactly_the_pairs_the_build_asks_for(requests):
    searched, asked = requests
    assert len(searched) == 1
    assert searched[0] == asked and len(asked) == 88


def test_helpers_find_the_keys_the_calling_process_finds(requests, sanitizer_if_requested):
    """Every testbed pair: a helper's key equals ``_generate_keypair`` run
    here, armed with the determinism sanitizer when requested."""
    pairs = sorted(requests[1])
    shares = pairs[0::2], pairs[1::2]
    with rsa._start_helper(shares[0]) as first, rsa._start_helper(shares[1]) as second:
        with sanitizer_if_requested():
            here = {pair: rsa._generate_keypair(*pair) for pair in pairs}
        for share, helper in zip(shares, (first, second)):
            lines = helper.stdout.read().splitlines()
            assert len(lines) == len(share)
            for (bits, seed), line in zip(share, lines):
                assert rsa._checked(line, bits) == here[bits, seed]


@pytest.mark.parametrize("count,pairs", [(1, 3), (4, 1)])
def test_one_cpu_or_one_pair_starts_no_process(cpus, count, pairs):
    started = cpus(count)
    wanted = [(512, 70_000 + seed) for seed in range(pairs)]
    rsa.search_keypairs(wanted)
    assert started == []
    assert [rsa.generate_keypair(*pair) for pair in wanted] == [
        rsa._generate_keypair(*pair) for pair in wanted
    ]


def test_a_large_mask_starts_at_most_seven_helpers(cpus):
    started = cpus(64)
    wanted = [(512, 70_050 + seed) for seed in range(12)]
    rsa.search_keypairs(wanted)
    assert len(started) == rsa._MAX_SHARES - 1 == 7
    assert [rsa.generate_keypair(*pair) for pair in wanted] == [
        rsa._generate_keypair(*pair) for pair in wanted
    ]


def test_pairs_already_found_are_not_searched_again(cpus):
    started = cpus(2)
    wanted = [(512, 70_100), (512, 70_101)]
    rsa.search_keypairs(wanted)
    rsa.search_keypairs(wanted)
    assert started == [[(512, 70_101)]]


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(rsa.RsaPrivateKey)])
def test_a_line_with_one_wrong_integer_is_rejected(field):
    key = rsa.generate_keypair(512, seed=70_200)
    line = " ".join(f"{value:x}" for value in dataclasses.astuple(key))
    assert rsa._checked(line, 512) == key
    wrong = dataclasses.replace(key, **{field: getattr(key, field) + 1})
    assert rsa._checked(" ".join(f"{v:x}" for v in dataclasses.astuple(wrong)), 512) is None
    assert rsa._checked(line, 1024) is None
    assert rsa._checked(line.rsplit(" ", 1)[0], 512) is None
    assert rsa._checked("", 512) is None


def test_a_corrupted_helper_key_is_found_again_here(cpus, monkeypatch):
    """The helper writes the first key of its share with ``dq + 1``: that
    line is refused and the key computed here equals the serial one."""
    started = cpus(2)
    original = "dataclasses.astuple(key)"
    assert original in rsa._HELPER
    monkeypatch.setattr(rsa, "_HELPER", rsa._HELPER.replace(
        original,
        "dataclasses.astuple(dataclasses.replace(key, dq=key.dq + 1) if key is keys[0] else key)",
    ))
    computed = []
    generate = rsa._generate_keypair

    def counting(bits, seed):
        computed.append((bits, seed))
        return generate(bits, seed)

    monkeypatch.setattr(rsa, "_generate_keypair", counting)
    wanted = [(512, 70_300 + seed) for seed in range(4)]
    rsa.search_keypairs(wanted)
    assert started == [wanted[1::2]]
    assert computed == [*wanted[0::2], wanted[1]]
    assert [rsa.generate_keypair(*pair) for pair in wanted] == [generate(*pair) for pair in wanted]


def test_a_helper_that_cannot_start_leaves_its_share_here(cpus, monkeypatch):
    """No Python at ``sys.executable``: starting the helper raises, and
    the caller finds every key itself, equal to the serial ones."""
    started = cpus(2)
    monkeypatch.setattr(rsa.sys, "executable", "/nonexistent/python")
    wanted = [(512, 70_400 + seed) for seed in range(4)]
    rsa.search_keypairs(wanted)
    assert started == [wanted[1::2]]
    assert [rsa.generate_keypair(*pair) for pair in wanted] == [
        rsa._generate_keypair(*pair) for pair in wanted
    ]


def test_a_helper_that_exits_at_once_leaves_its_share_here(cpus, monkeypatch):
    """A helper that reads nothing and writes nothing: its pipe may break
    while the pairs are written, or its output is empty; either way the
    caller finds the keys."""
    cpus(2)
    monkeypatch.setattr(rsa, "_HELPER", "import sys; sys.exit(3)")
    wanted = [(512, 70_500 + seed) for seed in range(4)]
    rsa.search_keypairs(wanted)
    assert [rsa.generate_keypair(*pair) for pair in wanted] == [
        rsa._generate_keypair(*pair) for pair in wanted
    ]


def test_a_frozen_interpreter_starts_no_process(cpus, monkeypatch):
    """A frozen program's ``sys.executable`` is the program itself, so
    starting it would run the caller again."""
    started = cpus(4)
    monkeypatch.setattr(rsa.sys, "frozen", True, raising=False)
    rsa.search_keypairs([(512, 70_600 + seed) for seed in range(3)])
    assert started == []


def test_a_script_without_a_main_guard_builds_the_testbed(tmp_path):
    """Helpers never import the caller's ``__main__``, so a script that
    builds at module level runs once and exits 0."""
    script = tmp_path / "build.py"
    script.write_text(textwrap.dedent("""
        from repro.dnssec import rsa
        from repro.testbed.infra import build_testbed
        from repro.testbed.subdomains import ALL_CASES

        started = []
        start = rsa._start_helper
        rsa._start_helper = lambda pairs: started.append(pairs) or start(pairs)
        testbed = build_testbed(cases=ALL_CASES[:4], key_bits=512)
        print(len(testbed.cases), len(started))
    """))
    source = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    cases, helpers = run.stdout.split()
    assert cases == "4"
    assert (int(helpers) > 0) == (len(os.sched_getaffinity(0)) > 1)
