"""Measure the benchmark's own run-to-run spread on this host.

    python3 bench/calibrate.py

Makes :data:`RUNS` untraced runs of every workload at seed :data:`SEED`,
then two sweeps of one untraced run at each of the seeds :data:`SWEEP`
(different inputs, as the regression gate sees them), then one traced
run per workload. Workloads take turns, so slow drift of the host hits
all of them alike. For every metric it records the values, minimum,
quartiles and median, the interquartile range as a share of the median,
and the largest distance of any run from the median; for the sweeps
also how far the second sweep's median moved from the first's. The
bounds in ``BENCHMARK.json`` are set from these numbers. The report goes
to ``bench/results/calibration.json``; a full calibration takes about
45 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "calibration.json"
#: Runs at one seed, and that seed.
RUNS = 5
SEED = 42
#: The seeds of each sweep, and how many sweeps.
SWEEP = range(1, 11)
SWEEPS = 2


def one_run(workload: str, seed: int, trace: int,
            out: pathlib.Path) -> tuple[dict, float]:
    started = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--trace", str(trace), "--out", str(out)],
                   check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - started
    suffix = "-traced" if trace else ""
    record = json.loads(
        (out / f"{workload}-s{seed}{suffix}.json").read_text())
    return record, wall


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "min": min(values), "q1": q1,
            "median": median, "q3": q3,
            "iqr_pct": 100.0 * (q3 - q1) / abs(median),
            "max_dev_pct": 100.0 * max(abs(v - median)
                                       for v in values) / abs(median)}


def summarize(records: list[dict]) -> dict:
    names = list(records[0]["metrics"])
    return {name: spread([r["metrics"][name]["value"] for r in records])
            for name in names}


def shifts(first: dict, second: dict) -> dict:
    """Second sweep's median against the first's, in percent."""
    return {name: 100.0 * (second[name]["median"] - stats["median"])
            / abs(stats["median"]) for name, stats in first.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]

    same: dict[str, list] = {w: [] for w in workloads}
    sweeps: list[dict[str, list]] = [{w: [] for w in workloads}
                                     for _ in range(SWEEPS)]
    walls: dict[str, list] = {w: [] for w in workloads}
    traced = {}
    plan = [(same, SEED) for _ in range(RUNS)] + \
        [(sweep, seed) for sweep in sweeps for seed in SWEEP]
    with tempfile.TemporaryDirectory(dir=BENCH) as scratch:
        out = pathlib.Path(scratch)
        for records, seed in plan:
            for workload in workloads:
                record, wall = one_run(workload, seed, 0, out)
                records[workload].append(record)
                walls[workload].append(wall)
                print(f"seed {seed} {workload}: {wall:.1f} s, "
                      f"correct={record['correct']}", flush=True)
        for workload in workloads:
            record, wall = one_run(workload, SEED, 1, out)
            walls[workload].append(wall)
            traced[workload] = {
                "metrics": {name: metric["value"] for name, metric
                            in record["metrics"].items()},
                "ledger": record["ledger"], "correct": record["correct"]}

    import numpy

    summaries = [{w: summarize(sweep[w]) for w in workloads}
                 for sweep in sweeps]
    mean_wall = statistics.fmean(w for ws in walls.values() for w in ws)
    report = {
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "machine": platform.machine()},
        "run_seconds": spec["run_seconds"],
        "same_seed": {"seed": SEED, "runs": RUNS,
                      "workloads": {w: summarize(same[w])
                                    for w in workloads}},
        "seed_sweeps": [{"seeds": list(SWEEP), "workloads": summary}
                        for summary in summaries],
        "sweep_median_shift_pct": {
            w: shifts(summaries[0][w], summaries[-1][w])
            for w in workloads},
        "traced": traced,
        "run_wall_s": walls,
        "all_runs_estimate_s": mean_wall * (4 + 22 * len(workloads)),
        "correct": all(r["correct"] for rs in (same, *sweeps)
                       for records in rs.values() for r in records)
        and all(t["correct"] for t in traced.values()),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    kinds = [("same seed", report["same_seed"]["workloads"])] + [
        (f"sweep {index + 1}", summary)
        for index, summary in enumerate(summaries)]
    for kind, summary in kinds:
        for workload, metrics in summary.items():
            for name, stats in metrics.items():
                print(f"{kind:<10} {workload:<20} {name:<12} median "
                      f"{stats['median']:.5g}  iqr {stats['iqr_pct']:.1f}%"
                      f"  max dev {stats['max_dev_pct']:.1f}%")
    for workload, moved in report["sweep_median_shift_pct"].items():
        print(f"sweep median shift {workload:<20} " + "  ".join(
            f"{name} {value:+.1f}%" for name, value in moved.items()))
    print(f"estimated time for {4 + 22 * len(workloads)} runs: "
          f"{report['all_runs_estimate_s']:.0f} s")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
