"""The repo checks itself: determinism and protocol invariants as test rows.

Bit-for-bit replay rests on simulated code reading time only from the
injected ``Clock`` and randomness only from a seeded ``random.Random``;
the paper's numbers rest on the data tables agreeing with the registries
they cite.  Each contract is held by one row here, and each row has a
partner that feeds it a seeded violation and sees it fail:

* **Source rows** parse every module of ``src/repro`` (a file that does
  not parse fails the row) and flag wall-clock reads, OS entropy, the
  global RNG, an unseeded ``random.Random()`` and references to enum
  members that do not exist.  A tracked stdlib module may be imported
  only as a plain ``import x`` and read only as ``x.attr``, so no alias
  or ``getattr`` can hide a read from the scan.
* **Table rows** are plain checks over the imported tables: the vendor
  policies, the Table 4 transcription, the rdata parser registry and the
  resilience layer's codes.
* **Hash order**: one identity gate run under two ``PYTHONHASHSEED``
  values.
* **The runtime sanitizer** (``tests/sanitizer.py``) arms the same
  entry points to raise, for code a source scan cannot see through.
"""

from __future__ import annotations

import ast
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.dns.ede import EdeCode
from repro.dns.message import Message
from repro.dns.rcode import Rcode
from repro.dns.rdata import Rdata
from repro.dns.types import Opcode, RdataClass, RdataType
from repro.dnssec.trace import FailureReason, ResolutionEvent
from repro.net.endpoint import Endpoint
from repro.obs.trace import TraceEventKind
from repro.resolver.ede_policy import EdePolicy
from repro.resolver.profiles import ALL_PROFILES, PROFILES_BY_NAME
from repro.resolver.public import TEN_PUBLIC_RESOLVERS
from repro.resolver.resilience import RESILIENCE_EDE_CODES
from repro.testbed.expected import EXPECTED_TABLE4, PROFILE_ORDER
from repro.testbed.subdomains import CASES_BY_LABEL

from .sanitizer import DeterminismViolation, determinism_sanitizer

SRC = Path(repro.__file__).resolve().parent

# ---------------------------------------------------------------------------
# Source rows
# ---------------------------------------------------------------------------

#: Stdlib modules that reach the wall clock or ambient entropy.
TRACKED = frozenset({"time", "random", "os", "datetime", "secrets", "uuid"})

#: The wall-clock boundary: the ``Clock`` adapter, and the CLIs that time
#: their own output.  Only their wall-clock reads are exempt.
WALL_CLOCK_FILES = frozenset(
    {"net/clock.py", "experiments/__main__.py", "tools/dig.py", "tools/lint.py"}
)

_DATETIME_NOW = frozenset({
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_ENTROPY = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom"}
)

#: Enums whose ``Enum.MEMBER`` references must name a defined member.
ENUMS = {
    enum.__name__: enum
    for enum in (
        EdeCode, RdataType, RdataClass, Opcode, Rcode,
        FailureReason, ResolutionEvent, TraceEventKind,
    )
}


def _dotted(node: ast.expr) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _unseeded(call: ast.Call) -> bool:
    args = [*call.args, *(kw.value for kw in call.keywords)]
    return not args or (isinstance(args[0], ast.Constant) and args[0].value is None)


def _determinism_rule(dotted: str) -> str | None:
    module = dotted.partition(".")[0]
    if module == "time" or dotted in _DATETIME_NOW:
        return "wall-clock"
    if module == "secrets" or dotted in _ENTROPY:
        return "os-entropy"
    if module == "random" and dotted != "random.Random":
        return "global-random"
    return None


def source_findings(source: str, path: str = "<seeded>") -> list[tuple[str, int, str]]:
    """(path, line, rule) for each escape from the injected Clock and
    seeded Random, and each reference to an undefined enum member."""
    tree = ast.parse(source, filename=path)
    found: list[tuple[int, str]] = []
    tracked: set[str] = set()
    enums: dict[str, type] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] not in TRACKED:
                    continue
                if alias.asname or "." in alias.name:
                    found.append((node.lineno, "import-form"))
                else:
                    tracked.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if not node.level and node.module.partition(".")[0] in TRACKED:
                found.append((node.lineno, "import-form"))
            enums.update(
                (alias.asname or alias.name, ENUMS[alias.name])
                for alias in node.names if alias.name in ENUMS
            )
    # Where a tracked module may appear: as ``x.attr``, or probed by ``hasattr(x, ...)``.
    bases = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    bases |= {
        id(node.args[0]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _dotted(node.func) == "hasattr" and node.args
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in tracked and id(node) not in bases:
            found.append((node.lineno, "module-as-value"))  # getattr(time, ...), t = time
        elif isinstance(node, ast.Call) and _dotted(node.func) == "random.Random":
            if "random" in tracked and _unseeded(node):
                found.append((node.lineno, "unseeded-random"))
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node) or ""
            root = dotted.partition(".")[0]
            enum = enums.get(root) if isinstance(node.value, ast.Name) else None
            if enum is not None and node.attr.isupper() and node.attr not in enum.__members__:
                found.append((node.lineno, "enum-member"))
            elif root in tracked and (rule := _determinism_rule(dotted)):
                found.append((node.lineno, rule))
    return sorted(
        (path, line, rule) for line, rule in found
        if not (rule == "wall-clock" and path in WALL_CLOCK_FILES)
    )


def rules_of(source: str, path: str = "<seeded>") -> set[str]:
    return {rule for _path, _line, rule in source_findings(source, path)}


# ---------------------------------------------------------------------------
# Table rows
# ---------------------------------------------------------------------------

ASSIGNED = frozenset(int(code) for code in EdeCode)
POLICIES = [profile.policy for profile in (*ALL_PROFILES, *TEN_PUBLIC_RESOLVERS)]


def emittable(policy: EdePolicy) -> set[int]:
    """Every INFO-CODE some branch of ``policy`` can emit."""
    codes = {c for table in (policy.reason_codes, policy.event_codes)
             for row in table.values() for c in row}
    codes |= policy.policy_codes
    if policy.emit_no_reachable_authority:
        codes.add(int(EdeCode.NO_REACHABLE_AUTHORITY))
    return codes


def ede_registry_problems(policies) -> list[str]:
    return [
        f"{policy.name}: INFO-CODE {code} is not assigned in the RFC 8914 registry"
        for policy in policies for code in sorted(emittable(policy) - ASSIGNED)
    ]


def table4_problems(table4) -> list[str]:
    """Table 4 transcription <-> testbed subdomains <-> profile policies."""
    problems = [f"case {label!r} maps to no testbed subdomain"
                for label in table4 if label not in CASES_BY_LABEL]
    problems += [f"subdomain {label!r} has no Table 4 row"
                 for label in CASES_BY_LABEL if label not in table4]
    problems += [f"PROFILE_ORDER names unknown profile {name!r}"
                 for name in PROFILE_ORDER if name not in PROFILES_BY_NAME]
    for label, row in table4.items():
        problems += [f"case {label!r} has a column for unknown profile {name!r}"
                     for name in row if name not in PROFILE_ORDER]
        for name in PROFILE_ORDER:
            profile = PROFILES_BY_NAME.get(name)
            for code in row.get(name, ()):
                if code not in ASSIGNED:
                    problems.append(f"case {label!r}/{name}: INFO-CODE {code} is unassigned")
                elif profile is not None and code not in emittable(profile.policy):
                    problems.append(
                        f"case {label!r} expects EDE {code} from {name}, but no branch"
                        " of that profile's policy can emit it"
                    )
    return problems


def rdata_registry_problems(parsers) -> list[str]:
    problems = []
    for rdtype, parser in parsers.items():
        declared = getattr(getattr(parser, "__self__", None), "rdtype", rdtype)
        if not isinstance(rdtype, RdataType):
            problems.append(f"parser registered under unregistered type {rdtype!r}")
        elif isinstance(declared, RdataType) and declared != rdtype:
            problems.append(f"parser for {rdtype} declares rdtype {declared}")
    return problems


def resilience_code_problems(codes) -> list[str]:
    """Each code is assigned and some vendor profile's policy can emit it."""
    anywhere = set().union(*(emittable(p.policy) for p in ALL_PROFILES))
    return [
        f"resilience layer emits EDE {code}, which is "
        + ("unassigned" if code not in ASSIGNED else "emittable by no vendor profile")
        for code in codes if code not in ASSIGNED or code not in anywhere
    ]


# ---------------------------------------------------------------------------
# The rows
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_analyze_repo_has_no_findings(self):
        files = sorted(SRC.rglob("*.py"))
        assert WALL_CLOCK_FILES <= {str(f.relative_to(SRC)) for f in files}
        findings = [
            finding for f in files
            for finding in source_findings(f.read_text(encoding="utf-8"), str(f.relative_to(SRC)))
        ]
        assert findings == []

    def test_table_rules_hold(self):
        assert ede_registry_problems(POLICIES) == []
        assert table4_problems(EXPECTED_TABLE4) == []
        assert rdata_registry_problems(Rdata._parsers) == []
        assert resilience_code_problems(RESILIENCE_EDE_CODES) == []


class TestDeterminismRules:
    def test_wall_clock_in_simulated_path(self):
        source = "import time\n\ndef deliver(self):\n    return time.time()\n"
        assert source_findings(source) == [("<seeded>", 4, "wall-clock")]

    def test_wall_clock_via_from_import_alias(self):
        assert rules_of("from time import time as wall\nnow = wall()\n") == {"import-form"}

    def test_wall_clock_via_getattr(self):
        source = "import time\nnow = getattr(time, 'time')()\n"
        assert rules_of(source) == {"module-as-value"}

    def test_datetime_now(self):
        assert rules_of("import datetime\nstamp = datetime.datetime.now()\n") == {"wall-clock"}
        assert rules_of("from datetime import datetime\nstamp = datetime.now()\n") == {
            "import-form"
        }

    def test_global_random(self):
        assert rules_of("import random\nmsg_id = random.randrange(0x10000)\n") == {
            "global-random"
        }

    def test_unseeded_random(self):
        assert rules_of("import random\nrng = random.Random()\n") == {"unseeded-random"}
        assert rules_of("import random\nrng = random.Random(None)\n") == {"unseeded-random"}

    def test_seeded_random_is_fine(self):
        source = "import random\nrng = random.Random(20230524)\nx = rng.random()\n"
        assert source_findings(source) == []

    def test_os_entropy(self):
        assert rules_of("import os\ntoken = os.urandom(16)\n") == {"os-entropy"}
        assert rules_of("import secrets\ntoken = secrets.token_bytes(16)\n") == {"os-entropy"}
        assert rules_of("import uuid\ntoken = uuid.uuid4()\n") == {"os-entropy"}

    def test_a_file_that_does_not_parse_fails(self):
        with pytest.raises(SyntaxError):
            source_findings("def broken(:\n    pass\n")

    def test_a_wall_clock_file_may_read_only_the_wall_clock(self):
        source = "import time\nnow = time.time()\n"
        assert rules_of(source, "net/clock.py") == set()
        assert rules_of(source, "resolver/cache.py") == {"wall-clock"}
        assert rules_of("import os\nkey = os.urandom(8)\n", "tools/dig.py") == {"os-entropy"}


class TestProtocolInvariants:
    def test_unassigned_ede_code_in_policy_table(self):
        broken = EdePolicy(
            name="broken",
            reason_codes={FailureReason.ZSK_MISSING: (99,)},
            event_codes={ResolutionEvent.SERVER_REFUSED: (6,)},
        )
        problems = ede_registry_problems([broken])
        assert len(problems) == 1 and "99" in problems[0]

    def test_unassigned_ede_code_in_expected_row(self):
        row = {**EXPECTED_TABLE4["valid"], "unbound": (7, 640)}
        problems = table4_problems({**EXPECTED_TABLE4, "valid": row})
        assert problems == ["case 'valid'/unbound: INFO-CODE 640 is unassigned"]

    def test_assigned_codes_pass(self):
        policy = EdePolicy(
            name="fine",
            reason_codes={FailureReason.ZSK_MISSING: (6, 9)},
            policy_codes=frozenset({4, 15}),
        )
        assert ede_registry_problems([policy]) == []

    def test_undefined_enum_member(self):
        source = (
            "from repro.dns.types import RdataType\n"
            "from repro.dns.ede import EdeCode as EC\n"
            "a = RdataType.NSEC3PARAMS\n"
            "b = EC.DNSSEC_BOGUS\n"
        )
        assert source_findings(source) == [("<seeded>", 3, "enum-member")]

    def test_tampered_expected_matrix_is_caught(self):
        tampered = {**EXPECTED_TABLE4, "no-such-subdomain": dict.fromkeys(PROFILE_ORDER, ())}
        problems = table4_problems(tampered)
        assert problems == ["case 'no-such-subdomain' maps to no testbed subdomain"]

    def test_unreachable_code_is_caught(self):
        # BIND's policy implements no DNSSEC codes, so expecting a
        # DNSSEC Bogus (6) from it must be flagged as unreachable.
        row = {**EXPECTED_TABLE4["valid"], "bind": (6,)}
        problems = table4_problems({**EXPECTED_TABLE4, "valid": row})
        assert len(problems) == 1 and "no branch" in problems[0]

    def test_unregistered_rdata_parser_is_caught(self):
        parsers = {**Rdata._parsers, 65280: Rdata._parsers[RdataType.A]}
        assert rdata_registry_problems(parsers) == [
            "parser registered under unregistered type 65280"
        ]
        parsers = {**Rdata._parsers, RdataType.AAAA: Rdata._parsers[RdataType.A]}
        assert len(rdata_registry_problems(parsers)) == 1

    def test_resilience_codes_are_assigned_and_emittable(self):
        # 99 is unassigned; 26 (Too Early) is assigned, but no
        # vendor profile's policy can emit it.
        assert len(resilience_code_problems((*RESILIENCE_EDE_CODES, 99, 26))) == 2


class TestHashOrder:
    """Set and dict iteration order over strings depends on the hash
    seed; nothing a client or the paper sees may."""

    GATE = (
        "import hashlib, json\n"
        "from repro.scan.population import PopulationConfig, generate_population\n"
        "from repro.scan.scanner import WildScanner\n"
        "from repro.scan.wild import WildInternet\n"
        "config = PopulationConfig(scale=200_000, rare_threshold=10, seed=99)\n"
        "result = WildScanner(WildInternet(generate_population(config))).scan()\n"
        "rows = sorted((r.name, r.rcode, r.ede_codes, r.extra_texts) for r in result.records)\n"
        "digest = hashlib.sha256(json.dumps(rows, default=str).encode()).hexdigest()\n"
        "print(len(rows), result.queries_sent, digest)\n"
    )

    def test_scan_is_independent_of_the_hash_seed(self):
        """The 1 515-domain sequential scan's categorisation and datagram
        count, in two interpreters run under two hash seeds."""
        path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", self.GATE], text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for seed in ("0", "4242")
        ]
        outputs = [run.communicate(timeout=300) for run in runs]
        assert [run.returncode for run in runs] == [0, 0], [err for _out, err in outputs]
        first, second = (out for out, _err in outputs)
        assert first.split()[0] == "1515"
        assert first == second


class TestDeterminismSanitizer:
    def test_wall_clock_raises_inside(self):
        with determinism_sanitizer():
            with pytest.raises(DeterminismViolation, match="time.time"):
                time.time()
        # restored afterwards
        assert time.time() > 0

    def test_global_random_raises_inside(self):
        with determinism_sanitizer():
            with pytest.raises(DeterminismViolation, match="random.random"):
                random.random()
        assert 0.0 <= random.random() < 1.0

    def test_seeded_instances_stay_usable(self):
        rng = random.Random(7)
        with determinism_sanitizer():
            values = [rng.randrange(100) for _ in range(3)]
        replay = random.Random(7)
        assert values == [replay.randrange(100) for _ in range(3)]

    def test_reentrant(self):
        with determinism_sanitizer():
            with determinism_sanitizer():
                with pytest.raises(DeterminismViolation):
                    time.time()
            # still armed at depth 1
            with pytest.raises(DeterminismViolation):
                time.time()
        assert time.time() > 0

    def test_a_door_does_not_swallow_a_violation(self):
        """Rule 6 turns the body's violation into a SERVFAIL, and the
        armed block still raises it on exit."""

        class WallClockBody(Endpoint):
            def handle_query(self, query, source):
                time.time()
                return query.make_response()

        wire = Message.make_query("example.test.", RdataType.A, msg_id=9).to_wire()
        with pytest.raises(DeterminismViolation, match="time.time"):
            with determinism_sanitizer():
                reply = WallClockBody().handle_datagram(wire, "198.51.100.7")
        assert Message.from_wire(reply).rcode == Rcode.SERVFAIL
        # Disarmed, nothing is left over to raise.
        with determinism_sanitizer():
            pass

    def test_disarming_restores_the_classes_exactly(self):
        """``socket.socket.recv`` is inherited from ``_socket.socket``: it
        is deleted on disarm, not set back as the class's own."""
        owners = (socket.socket, threading.Event, time, random)
        before = [dict(vars(owner)) for owner in owners]
        with determinism_sanitizer():
            assert "recv" in vars(socket.socket)
            assert vars(threading.Event)["wait"] is not before[1]["wait"]
        assert [dict(vars(owner)) for owner in owners] == before
        assert "recv" not in vars(socket.socket)

    def test_fabric_resolution_is_clean_under_sanitizer(self, testbed):
        """The full resolve path — fabric, chaos hooks, resolver, message
        IDs — touches no wall clock and no global RNG."""
        from repro.resolver.profiles import get_profile
        from repro.resolver.recursive import RecursiveResolver

        resolver = RecursiveResolver(
            fabric=testbed.fabric,
            profile=get_profile("unbound"),
            root_hints=testbed.root_hints,
            trust_anchors=testbed.trust_anchors,
        )
        with determinism_sanitizer():
            response = resolver.resolve(
                "valid.extended-dns-errors.com.", want_dnssec=True
            )
        assert response.rcode == 0
