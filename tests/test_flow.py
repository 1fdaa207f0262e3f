"""Interprocedural flow rules: seeded fixtures prove exact-line reporting.

Each package under ``tests/data/flow_fixtures`` plants one deliberate
contract violation; these tests assert the rule fires on the exact
file/line — including the blocking call hidden behind one level of
indirection, which only the call graph (not a per-file AST pass) can
connect to an endpoint door.
"""

import json
import shutil
from pathlib import Path

from repro.analysis import analyze_paths, analyze_repo, findings_to_json
from repro.analysis.engine import RULE_STALE_BASELINE, iter_python_files
from repro.analysis.flow import (
    FLOW_RULES,
    RULE_ANSWER_PATH_BLOCKING,
    RULE_SEED_DOMAIN_TAINT,
)
from repro.tools import selfcheck

FIXTURES = Path(__file__).parent / "data" / "flow_fixtures"


def flow_findings(root, rules, baseline=None, repo_mode=False):
    return analyze_paths(
        iter_python_files(Path(root)),
        base=Path(root).parent,
        flow=True,
        baseline=baseline,
        repo_mode=repo_mode,
        selected=set(rules),
    )


# ---------------------------------------------------------------------------
# answer-path-blocking
# ---------------------------------------------------------------------------


def test_blocking_call_found_through_indirection():
    findings = flow_findings(FIXTURES / "blocking_pkg", [RULE_ANSWER_PATH_BLOCKING])
    sleeps = [f for f in findings if "time.sleep" in f.message]
    assert len(sleeps) == 1
    f = sleeps[0]
    # The violation lives in helpers.py — a module the frontend never
    # textually references beyond an imported name — at its exact line.
    assert f.path.endswith("helpers.py")
    assert f.line == 7
    assert f.rule == RULE_ANSWER_PATH_BLOCKING
    # The message names the call chain the graph discovered.
    assert "slow_retry" in f.message
    assert "handle_datagram" in f.message


def test_unbounded_wait_flagged_bounded_wait_not():
    findings = flow_findings(FIXTURES / "blocking_pkg", [RULE_ANSWER_PATH_BLOCKING])
    waits = [f for f in findings if "wake_at" in f.message]
    assert [(f.path.rsplit("/", 1)[-1], f.line) for f in waits] == [
        ("frontend.py", 20)
    ]
    assert "lane_wait" in waits[0].message
    # The wake_at-bounded wait_virtual on line 21 must not appear at all.
    assert not any(f.line == 21 for f in findings)


def test_no_entry_point_means_no_answer_path_findings():
    # taint_pkg defines no Endpoint: nothing is reachable.
    findings = flow_findings(FIXTURES / "taint_pkg", [RULE_ANSWER_PATH_BLOCKING])
    assert findings == []


# ---------------------------------------------------------------------------
# seed-domain-taint
# ---------------------------------------------------------------------------


def test_jitter_rng_into_client_visible_sink():
    findings = flow_findings(FIXTURES / "taint_pkg", [RULE_SEED_DOMAIN_TAINT])
    assert len(findings) == 1
    f = findings[0]
    assert f.rule == RULE_SEED_DOMAIN_TAINT
    assert f.path.endswith("engine.py")
    assert f.line == 18
    assert "make_query" in f.message
    # The schedule-domain draw two lines up stays clean: only one finding.


# ---------------------------------------------------------------------------
# inline suppression
# ---------------------------------------------------------------------------


def test_inline_suppression_silences_flow_finding(tmp_path):
    pkg = tmp_path / "blocking_pkg"
    shutil.copytree(FIXTURES / "blocking_pkg", pkg)
    helpers = pkg / "helpers.py"
    text = helpers.read_text()
    helpers.write_text(
        text.replace(
            "time.sleep(delay)",
            "time.sleep(delay)  # repro: allow[answer-path-blocking]",
        )
    )
    findings = flow_findings(pkg, [RULE_ANSWER_PATH_BLOCKING])
    # Only the unsuppressed unbounded-wait finding remains.
    assert [(f.path.rsplit("/", 1)[-1], f.line) for f in findings] == [
        ("frontend.py", 20)
    ]


# ---------------------------------------------------------------------------
# baseline workflow
# ---------------------------------------------------------------------------


def test_baseline_entry_suppresses_and_staleness_is_reported(tmp_path):
    found = flow_findings(FIXTURES / "blocking_pkg", [RULE_ANSWER_PATH_BLOCKING])
    assert found and all(f.key for f in found)  # findings always carry keys
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "entries": [
            *({"key": f.key, "reason": "fixture: intentional"} for f in found),
            {
                "key": "answer-path-blocking::ghost.module.fn::time.sleep",
                "reason": "gone",
            },
        ]
    }))
    # Non-repo mode: the matching entry suppresses, staleness is not checked.
    assert flow_findings(
        FIXTURES / "blocking_pkg", [RULE_ANSWER_PATH_BLOCKING], baseline=baseline
    ) == []
    # Repo mode: the unmatched entry surfaces as stale-baseline.
    findings = flow_findings(
        FIXTURES / "blocking_pkg",
        [RULE_ANSWER_PATH_BLOCKING, RULE_STALE_BASELINE],
        baseline=baseline,
        repo_mode=True,
    )
    assert [f.rule for f in findings] == [RULE_STALE_BASELINE]
    assert "ghost.module.fn" in findings[0].message


# ---------------------------------------------------------------------------
# the real repo, the CLI, and the schema
# ---------------------------------------------------------------------------


def test_repo_is_clean_under_all_flow_rules():
    assert analyze_repo() == []


def test_flow_findings_fit_the_shared_json_schema():
    findings = flow_findings(FIXTURES / "blocking_pkg", list(FLOW_RULES))
    assert findings
    payload = json.loads(findings_to_json(findings))
    assert payload["total"] == len(findings)
    assert payload["errors"] == len(findings)
    for record in payload["findings"]:
        assert set(record) == {"severity", "check", "message", "path", "line", "name"}
        assert record["check"] in FLOW_RULES


def test_selfcheck_cli_list_rules_and_rule_filter(capsys):
    assert selfcheck.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in FLOW_RULES:
        assert rule in out

    # A single-rule run over a violating fixture exits 1 and reports
    # only that rule.
    code = selfcheck.main(
        ["--rule", RULE_SEED_DOMAIN_TAINT, str(FIXTURES / "taint_pkg"), "--json"]
    )
    assert code == 0  # path mode runs per-file rules; taint is a flow rule
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []


def test_selfcheck_cli_rejects_unknown_rule(capsys):
    # `never-raise` is unknown too: that no door raises is checked at run
    # time (tests/test_fuzz.py), not by a flow rule.
    for name in ("not-a-rule", "never-raise"):
        try:
            selfcheck.main(["--rule", name])
        except SystemExit as exc:
            assert exc.code == 2
        else:  # pragma: no cover - argparse always raises
            raise AssertionError("expected SystemExit")
