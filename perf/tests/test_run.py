"""The runner end to end.  The subprocess cases build a wild universe
and take ~15 s each; none of this is part of the tier-1 suite."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perf import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]


def test_benchmark_json_names_what_the_runner_measures():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark["command"] == ["python3", "perf/run.py"]
    assert benchmark["paths"] == ["perf"]
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _floor in run.END_TO_END
    ]
    assert all(0 < m["bound"] <= run.MAX_BOUND for m in benchmark["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == [
        (name, unit, better) for name, unit, better, _what in layers.PER_LAYER
    ]
    pins = json.loads((ROOT / "perf" / "pins.json").read_text())
    assert sorted(pins) == sorted(workloads.WORKLOADS)


def test_pin_mismatches_and_empty_comparisons_are_problems():
    facts = {"digest": "abc", "msgs": 3023}
    assert run._pin_mismatches(facts, dict(facts)) == []
    assert len(run._pin_mismatches(facts, {"digest": "abd", "msgs": 3023})) == 1
    assert run._pin_mismatches(facts, None) and run._pin_mismatches(facts, {})


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_a_perturbed_digest_exits_non_zero(tmp_path):
    pins = json.loads((ROOT / "perf" / "pins.json").read_text())
    argv = RUN + ["--workload", "scan_seq", "--seconds", "1", "--trace", "0"]

    good = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert good.returncode == 0, good.stdout + good.stderr
    result = _last_json(good.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, *_ in run.END_TO_END]

    digest = pins["scan_seq"]["warm_digest"]
    pins["scan_seq"]["warm_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    perturbed = tmp_path / "pins.json"
    perturbed.write_text(json.dumps(pins))
    bad = subprocess.run(argv + ["--pins", str(perturbed)], capture_output=True, text=True, timeout=300)
    assert bad.returncode != 0
    assert _last_json(bad.stdout)["correct"] is False
    assert "warm_digest" in bad.stdout


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "scan_seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
