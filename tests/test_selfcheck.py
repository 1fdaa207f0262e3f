"""The repo lints itself: determinism + protocol-invariant static analysis.

Covers the acceptance criteria for the analysis subsystem: the repo at
HEAD is clean, and the pass catches (a) wall-clock reads in simulated
paths, (b) EDE codes absent from the RFC 8914 registry, and (c) unused
``# repro: allow[...]`` suppressions — each via fixture modules, each
driving a non-zero ``tools/selfcheck`` exit.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro.analysis import (
    DeterminismViolation,
    analyze_paths,
    analyze_repo,
    determinism_sanitizer,
)
from repro.analysis.engine import RULE_CATALOG
from repro.analysis.invariants import check_tables, check_testbed_matrix
from repro.dns.message import Message
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.net.endpoint import Endpoint
from repro.tools import selfcheck


def rules_of(findings):
    return {f.rule for f in findings}


def write_fixture(tmp_path, source, name="fixture_mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestRepoIsClean:
    def test_analyze_repo_has_no_findings(self):
        findings = analyze_repo()
        assert findings == [], [str(f) for f in findings]

    def test_selfcheck_cli_exits_zero(self, capsys):
        assert selfcheck.main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_table_rules_hold(self):
        assert list(check_tables()) == []


class TestDeterminismRules:
    def test_wall_clock_in_simulated_path(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "import time\n\ndef deliver(self):\n    return time.time()\n",
        )
        findings = analyze_paths([path])
        assert rules_of(findings) == {"wall-clock"}
        assert findings[0].line == 4
        assert selfcheck.main([str(path)]) == 1

    def test_wall_clock_via_from_import_alias(self, tmp_path):
        path = write_fixture(
            tmp_path, "from time import time as wall\nnow = wall()\n"
        )
        assert rules_of(analyze_paths([path])) == {"wall-clock"}

    def test_datetime_now(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "from datetime import datetime\nstamp = datetime.now()\n",
        )
        assert rules_of(analyze_paths([path])) == {"wall-clock"}

    def test_global_random(self, tmp_path):
        path = write_fixture(
            tmp_path, "import random\nmsg_id = random.randrange(0x10000)\n"
        )
        findings = analyze_paths([path])
        assert rules_of(findings) == {"global-random"}

    def test_unseeded_random(self, tmp_path):
        path = write_fixture(tmp_path, "import random\nrng = random.Random()\n")
        assert rules_of(analyze_paths([path])) == {"unseeded-random"}

    def test_seeded_random_is_fine(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "import random\nrng = random.Random(20230524)\nx = rng.random()\n",
        )
        assert analyze_paths([path]) == []

    def test_os_entropy(self, tmp_path):
        path = write_fixture(tmp_path, "import os\ntoken = os.urandom(16)\n")
        assert rules_of(analyze_paths([path])) == {"os-entropy"}


class TestSuppressions:
    def test_inline_allow_suppresses(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "import time\nnow = time.time()  # repro: allow[wall-clock]\n",
        )
        assert analyze_paths([path]) == []

    def test_standalone_allow_covers_next_line(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "import time\n# repro: allow[wall-clock]\nnow = time.time()\n",
        )
        assert analyze_paths([path]) == []

    def test_unused_suppression_is_reported(self, tmp_path):
        path = write_fixture(
            tmp_path, "value = 1  # repro: allow[wall-clock]\n"
        )
        findings = analyze_paths([path])
        assert rules_of(findings) == {"unused-suppression"}
        assert selfcheck.main([str(path)]) == 1

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "import time\nnow = time.time()  # repro: allow[global-random]\n",
        )
        assert rules_of(analyze_paths([path])) == {"wall-clock", "unused-suppression"}

    def test_marker_inside_string_is_not_a_suppression(self, tmp_path):
        path = write_fixture(
            tmp_path, 'DOC = """use # repro: allow[wall-clock] markers"""\n'
        )
        assert analyze_paths([path]) == []


class TestProtocolInvariants:
    def test_unassigned_ede_code_in_policy_table(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "policy = EdePolicy(\n"
            "    name='broken',\n"
            "    reason_codes={FR.ZSK_MISSING: (99,)},\n"
            "    event_codes={EV.SERVER_REFUSED: (6,)},\n"
            ")\n",
        )
        findings = analyze_paths([path])
        assert rules_of(findings) == {"ede-registry"}
        assert "99" in findings[0].message
        assert selfcheck.main([str(path)]) == 1

    def test_unassigned_ede_code_in_expected_row(self, tmp_path):
        path = write_fixture(tmp_path, "ROW = _row((7,), (640,))\n")
        findings = analyze_paths([path])
        assert rules_of(findings) == {"ede-registry"}

    def test_assigned_codes_pass(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "policy = EdePolicy(reason_codes={FR.ZSK_MISSING: (6, 9)},"
            " policy_codes=frozenset({4, 15}))\n",
        )
        assert analyze_paths([path]) == []

    def test_undefined_enum_member(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "from repro.dns.types import RdataType\n"
            "from repro.dns.ede import EdeCode as EC\n"
            "a = RdataType.NSEC3PARAMS\n"
            "b = EC.DNSSEC_BOGUS\n",
        )
        findings = analyze_paths([path])
        assert rules_of(findings) == {"enum-member"}
        assert "NSEC3PARAMS" in findings[0].message

    def test_tampered_expected_matrix_is_caught(self, monkeypatch):
        from repro.testbed import expected

        monkeypatch.setitem(
            expected.EXPECTED_TABLE4,
            "no-such-subdomain",
            {name: () for name in expected.PROFILE_ORDER},
        )
        findings = list(check_testbed_matrix())
        assert any("no-such-subdomain" in f.message for f in findings)

    def test_unreachable_code_is_caught(self, monkeypatch):
        from repro.testbed import expected

        # BIND's policy implements no DNSSEC codes, so expecting a
        # DNSSEC Bogus (6) from it must be flagged as unreachable.
        row = dict(expected.EXPECTED_TABLE4["valid"])
        row["bind"] = (6,)
        monkeypatch.setitem(expected.EXPECTED_TABLE4, "valid", row)
        findings = list(check_testbed_matrix())
        assert any("no branch" in f.message and "'valid'" in f.message for f in findings)


class TestSelfcheckCli:
    def test_json_output_schema(self, tmp_path, capsys):
        path = write_fixture(
            tmp_path, "import time\nnow = time.time()\n"
        )
        assert selfcheck.main(["--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == payload["total"] == 1
        record = payload["findings"][0]
        assert record["check"] == "wall-clock"
        assert record["severity"] == "error"
        assert record["line"] == 2

    def test_json_clean(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "x = 1\n")
        assert selfcheck.main(["--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "total": 0, "errors": 0}

    def test_directory_argument(self, tmp_path):
        write_fixture(tmp_path, "import time\nnow = time.time()\n", "a.py")
        write_fixture(tmp_path, "x = 1\n", "b.py")
        assert selfcheck.main([str(tmp_path)]) == 1

    def test_list_rules_and_rule_filter(self, tmp_path, capsys):
        assert selfcheck.main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == list(RULE_CATALOG)
        # A single-rule run reports only that rule.
        path = write_fixture(
            tmp_path, "import random, time\nnow = time.time()\nx = random.random()\n"
        )
        assert selfcheck.main(["--rule", "global-random", "--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [(f["check"], f["line"]) for f in payload["findings"]] == [("global-random", 3)]

    def test_rejects_unknown_rule(self):
        # The serving contracts are run-time facts (tests/test_fuzz.py,
        # tests/test_load.py, tests/test_resilience.py), not rules.
        for name in (
            "not-a-rule", "never-raise", "answer-path-blocking",
            "seed-domain-taint", "stale-baseline",
        ):
            with pytest.raises(SystemExit) as exc:
                selfcheck.main(["--rule", name])
            assert exc.value.code == 2


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

    def test_allowlist(self):
        with determinism_sanitizer(allow=["time.sleep"]):
            time.sleep(0)  # explicitly allowed
            with pytest.raises(DeterminismViolation):
                time.time()

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
