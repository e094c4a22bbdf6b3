"""tools/bench_pairs.py: the pair summary and its JSON ledger, on synthetic runs."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_ms_p50", "unit": "ms", "better": "lower"},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher"}]


def _run(ms, ok=True):
    return {"ok": ok, "metrics": {"op_ms_p50": ms, "ops_per_s": 1e3 / ms}}


def test_summary_counts_wins_and_compares_with_the_parent_iqr():
    parent_ms, change_ms = [240.0, 250.0, 245.0, 255.0], [210.0, 251.0, 205.0, 215.0]
    pairs = [{"parent": _run(a), "change": _run(b)} for a, b in zip(parent_ms, change_ms)]
    summary = bench_pairs.summarize(pairs, METRICS)
    p50 = summary["op_ms_p50"]
    assert p50["parent"]["median"] == 247.5 and p50["change"]["median"] == 212.5
    assert p50["change_wins"] == 3 and p50["pairs"] == 4  # the 250 -> 251 pair is a loss
    assert p50["beyond_parent_iqr"]  # |212.5 - 247.5| > q3 - q1 = 7.5
    assert summary["ops_per_s"]["change_wins"] == 3  # higher is better there
    assert bench_pairs.summarize(pairs[:1], METRICS)["op_ms_p50"] is None
    line = bench_pairs.summary_lines(summary)[0]
    assert "parent median 247.5 [q1 243.75, q3 251.25]" in line and "change median 212.5" in line
    assert "change wins 3/4" in line


def test_json_ledger_keeps_every_workload(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        return _run(200.0 if checkout.name == "change" else 240.0 + len(calls), ok=workload != "bad")

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    ledger = tmp_path / "ledger.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--seed", "0", "--pairs", "3", "--json", str(ledger)]
    assert bench_pairs.main([*argv, "--workload", "transport"]) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]  # alternating order
    assert bench_pairs.main([*argv, "--workload", "bad"]) == 1
    data = json.loads(ledger.read_text())
    assert sorted(data) == ["bad-seed0", "transport-seed0"]
    transport = data["transport-seed0"]
    assert transport["all_check_ok"] and not data["bad-seed0"]["all_check_ok"]
    assert transport["checkouts"] == {"parent": "parent", "change": "change"}
    assert transport["metrics"]["op_ms_p50"]["change_wins"] == 3
    assert [list(run) for run in transport["runs"]] == [["parent", "change"], ["change", "parent"],
                                                        ["parent", "change"]]
    assert transport["runs"][0]["change"]["metrics"]["op_ms_p50"] == pytest.approx(200.0)


def test_json_ledger_keys_by_seed_and_keeps_every_rerun(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, seconds: _run(200.0 + seed))
    ledger = tmp_path / "ledger.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "cli", "--pairs", "2", "--json",
            str(ledger)]
    for seed in (0, 7, 7, 0, 7):
        assert bench_pairs.main([*argv, "--seed", str(seed)]) == 0
    data = json.loads(ledger.read_text())
    assert list(data) == ["cli-seed0", "cli-seed7", "cli-seed7-2", "cli-seed0-2", "cli-seed7-3"]
    assert [data[key]["seed"] for key in data] == [0, 7, 7, 0, 7]
    assert data["cli-seed7-3"]["runs"][0]["change"]["metrics"]["op_ms_p50"] == pytest.approx(207.0)


def test_run_once_reads_the_child_resources(tmp_path):
    # a stand-in benchmark that touches ~8 MB, so its run takes at least a thousand minor faults
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text(textwrap.dedent("""\
        import json
        block = b"x" * (8 << 20)
        print("check: ok")
        print(json.dumps({"correct": True, "failed": 0, "metrics": {"op_ms_p50": {"value": 1.5}}}))
    """))
    run = bench_pairs.run_once(tmp_path, "certify", 0, 1.0)
    assert run["ok"] and run["metrics"] == {"op_ms_p50": 1.5}
    assert sorted(run["resources"]) == ["minflt", "sys_s", "user_s"]
    assert run["resources"]["minflt"] >= 1000 and run["resources"]["user_s"] >= 0.0
    assert "minflt" in bench_pairs.resource_text(run) and bench_pairs.resource_text(_run(1.0)) == ""
