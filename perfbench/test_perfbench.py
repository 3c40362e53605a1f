"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that wrong answers are counted, that tracing does not change
any output, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402

SMALL_ROW = {
    "argv": ["dual", "ideal: x^5, x^3*y^2, x*y^4, y^6"],
    "exit": 0,
    "expect": {"ir": 3, "staircase_size": 18},
}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_corpus_lists_every_suite_in_order():
    from redix.selftest import SUITES

    suites = run.load_corpus()["selftest"]
    assert [(s["name"], s["scope"], s["mode"]) for s in suites] == [(s.name, s.scope, s.mode) for s in SUITES]
    assert tuple(s["name"] for s in suites) == run.SUITE_NAMES


def test_check_cli_catches_wrong_answers():
    doc = json.dumps({"results": {"ir": 3, "staircase_size": 18, "verdict": True}}).encode()
    assert run.check_cli(SMALL_ROW, 0, doc) is None
    assert "ir = 3" in run.check_cli({**SMALL_ROW, "expect": {"ir": 4}}, 0, doc)
    assert "verdict" in run.check_cli(SMALL_ROW, 0, doc.replace(b"true", b"false"))
    assert "exit 1" in run.check_cli(SMALL_ROW, 1, b"")
    assert run.check_cli({**SMALL_ROW, "exit": 2}, 2, b"") is None


def test_planted_wrong_expected_value_raises_fail_ratio():
    planted = {**SMALL_ROW, "expect": {"ir": 4, "staircase_size": 18}}
    result = run.measure("cli-corpus", 42, 1, False, corpus={"cli": [SMALL_ROW, planted], "selftest": []})
    attempted, failed = run.run_counts(result)
    assert failed > 0 and attempted == 2 * failed
    for rep in result["plain"]:
        assert list(rep.failures.values()) == ["ir = 3, expected 4"]


def test_stubbed_failing_suite_raises_fail_ratio(monkeypatch):
    import redix.selftest as selftest

    def failing(seed, rec):
        rec.check(True, "fine")
        rec.check(False, "planted failure")

    stubbed = tuple(
        selftest.Suite(s.name, s.scope, s.mode, s.law, failing) if s.name == "cover-uniqueness" else s
        for s in selftest.SUITES
    )
    monkeypatch.setattr(selftest, "SUITES", stubbed)
    records = child.run_suites(42, ["dual"])
    attempted, failures = run.check_suites(records, 42, ["dual"], run.load_corpus()["selftest"])
    assert attempted == 4
    assert failures == {"cover-uniqueness": "1 failed checks"}


def test_check_suites_compares_counts():
    expected = run.load_corpus()["selftest"]
    records = [
        {"name": s["name"], "scope": s["scope"], "seconds": 0.1, "checks": s["checks_at_42"], "failures": 0}
        for s in expected
        if s["scope"] == "dual"
    ]
    assert run.check_suites(records, 42, ["dual"], expected) == (4, {})
    # cover-uniqueness is seeded: its count is only known at seed 42
    records[1]["checks"] += 1
    assert run.check_suites(records, 7, ["dual"], expected) == (4, {})
    assert run.check_suites(records, 42, ["dual"], expected)[1] == {"cover-uniqueness": "130 checks, expected 129"}
    # downset-sum-lemma is exhaustive: checked at every seed
    records[2]["checks"] += 1
    assert set(run.check_suites(records, 7, ["dual"], expected)[1]) == {"downset-sum-lemma"}
    assert run.check_suites(records[:3], 42, ["dual"], expected)[1]["dual-corner-counts"] == "did not run"


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(v) for v in range(34)]) == (70, 23.0)


def test_traced_run_matches_untraced_and_nests_every_span():
    result = run.measure("cli-corpus", 42, 1, True)
    assert run.run_counts(result) == (34, 0)
    (plain,), (traced,) = result["plain"], result["traced"]
    assert traced.outputs == plain.outputs
    for p in traced.procs:
        assert len(p.trace["roots"]) == 1
        assert all(span[0] is not None for span in p.trace["spans"])
    layers = run.layer_metrics(traced, "cli-corpus")
    assert layers["bass.colon_scan_points"] > 0 and layers["bass.bass0_n"] > 0
    assert layers["cli.output_bytes"] > 2_000_000
    assert layers["abelian.lattice_builds"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
