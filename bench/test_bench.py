"""Smoke test of the benchmark of record.

    PYTHONPATH=src python -m pytest bench -q

Runs every workload at ``--scale 0.05`` (durations, rounds and the HTTP
window shrink twentyfold), untraced and traced, and checks that every
metric ``BENCHMARK.json`` names is printed with its unit and that every
correctness check passes. Also checks that the command refuses to run
without the program's source, and that ``compare.py`` tells a gain, a
regression and an unresolved metric apart.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import compare

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
#: Quantities each untraced run records besides the gated metrics.
RECORDED = {
    "sim_cart": {"sim_speed", "sim_goodput_rps", "sim_p99_ms"},
    "sim_drift_observed": {"sim_speed", "sim_goodput_rps", "sim_p99_ms"},
    "svc_rounds_1k": {"round_p50_ms", "ingest_p50_ms"},
    "svc_http_mixed": {"req_p50_ms", "req_p99_ms"},
}


def run_bench(cwd: pathlib.Path, out: pathlib.Path, *args: str
              ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(tmp_path, workload, trace):
    proc = run_bench(ROOT, tmp_path, "--workload", workload, "--seed", "3",
                     "--scale", "0.05", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in wanted]
    table = [line.split() for line in lines[:-1]]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        assert [entry["name"], entry["unit"]] in (
            [row[0], row[-1]] for row in table if len(row) == 3)
        if not trace:
            assert metric["value"] > 0, entry["name"]
    assert not any("FAIL" in line for line in lines)
    suffix = "-traced" if trace else ""
    record = json.loads(
        (tmp_path / f"{workload}-s3{suffix}.json").read_text())
    assert record["checks"] and all(c["ok"] for c in record["checks"])
    if not trace:
        assert set(record["recorded"]) == RECORDED[workload] | {
            "failed_frac"}
        for name, metric in record["recorded"].items():
            assert [name, metric["unit"]] in (
                [row[0], row[-1]] for row in table if len(row) == 3)
    if trace:
        spans = (tmp_path / f"{workload}.spans.jsonl").read_text()
        first = json.loads(spans.splitlines()[0])
        assert set(first) == {"proc", "id", "parent", "name", "start",
                              "end"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "tmp*",
                                                  "__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "out", "--workload", "sim_cart",
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_compare_finds_a_gain():
    change = [value * 0.9 for value in PARENT]
    row = compare.classify(PARENT, change, "lower", 0.1)
    assert row["verdict"] == "gain"
    assert row["wins"] == 10


def test_compare_finds_a_regression():
    change = [value * 1.2 for value in PARENT]
    assert compare.classify(PARENT, change, "lower", 0.1)["verdict"] == \
        "regression"
    # Higher-is-better metrics regress downwards.
    assert compare.classify(PARENT, [v * 0.8 for v in PARENT], "higher",
                            0.1)["verdict"] == "regression"


def test_compare_reports_wide_spread_as_unresolved():
    noisy = [60.0, 150.0, 80.0, 120.0, 90.0, 140.0, 70.0, 130.0, 110.0,
             100.0]
    change = [value * 1.05 for value in reversed(noisy)]
    assert compare.classify(noisy, change, "lower", 0.1)["verdict"] == \
        "unresolved"
    # ... unless every change run beats every parent run.
    assert compare.classify(noisy, [v / 3.0 for v in noisy], "lower",
                            0.1)["verdict"] == "gain"


def test_compare_pairs_runs_by_seed(tmp_path):
    metric = SPEC["end_to_end"][0]
    for side, factor in (("parent", 1.0), ("change", 1.3)):
        directory = tmp_path / side
        directory.mkdir()
        for seed in range(10):
            first = (seed % 2 == 0) == (side == "parent")
            record = {"workload": WORKLOADS[0], "seed": seed, "trace": 0,
                      "started_at": seed * 10 + (0 if first else 1),
                      "correct": True, "failed": 0,
                      "metrics": {entry["name"]: {
                          "value": PARENT[seed] * factor,
                          "unit": entry["unit"]}
                          for entry in SPEC["end_to_end"]}}
            (directory / f"{WORKLOADS[0]}-s{seed}.json").write_text(
                json.dumps(record))
    rows, notes = compare.compare(
        compare.load_runs(tmp_path / "parent"),
        compare.load_runs(tmp_path / "change"), SPEC)
    assert not [note for note in notes if WORKLOADS[0] + ":" in note
                and "alternate" in note]
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    better = metric["better"]
    assert verdicts[metric["name"]] == ("regression" if better == "lower"
                                        else "gain")
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 1
