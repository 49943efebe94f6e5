"""Judge a change against its parent from paired benchmark runs.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``bench/run.py`` wrote (``--out``)
for one commit. Runs pair up by workload and seed; make at least ten
pairs per workload and alternate which commit runs first, e.g.::

    for seed in $(seq 1 10); do
      for side in $( [ $((seed % 2)) = 1 ] && echo "parent change" \\
                                           || echo "change parent"); do
        (cd "$side" && python3 bench/run.py --seed "$seed" \\
                                            --out "$OLDPWD/runs/$side")
      done
    done
    python3 bench/compare.py runs/parent runs/change

For every workload and end-to-end metric of ``BENCHMARK.json`` it
prints one row with both medians and quartiles and a verdict:

- ``gain``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the runs spread wider than the bound (interquartile
  range over median, on either side), unless every change run beats
  every parent run;
- ``unchanged``: none of the above.

A gain on a workload where more operations failed than at the parent
is reported as ``gain-void``. The exit code is 1 when any row is a
regression or any run failed its checks, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Pairs per workload below which a workload is not compared.
MIN_PAIRS = 10


def load_runs(directory: pathlib.Path) -> dict[tuple[str, int], dict]:
    """Untraced run records by ``(workload, seed)``; the latest wins."""
    runs: dict[tuple[str, int], dict] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(record, dict) or record.get("trace") != 0 \
                or "workload" not in record:
            continue
        key = (record["workload"], record["seed"])
        if key not in runs or runs[key]["started_at"] < \
                record["started_at"]:
            runs[key] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def classify(parent: list[float], change: list[float], better: str,
             bound: float) -> dict:
    """Verdict for one metric from paired runs (``parent[i]`` ran with
    the same seed as ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(1 for gain in gains if gain > 0)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    every_better = min(sign * c for c in change) > \
        max(sign * p for p in parent)
    delta = sign * (cm - pm)
    if spread > bound and not every_better:
        verdict = "unresolved"
    elif delta < -bound * abs(pm):
        verdict = "regression"
    elif wins >= 0.9 * len(gains) and delta > p3 - p1:
        verdict = "gain"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "wins": wins, "pairs": len(gains),
            "parent": (pm, p1, p3), "change": (cm, c1, c3),
            "delta_pct": 100.0 * (cm - pm) / abs(pm), "spread": spread}


def compare(parent_runs: dict, change_runs: dict, spec: dict
            ) -> tuple[list[dict], list[str]]:
    """Rows for every workload and end-to-end metric, plus notes."""
    rows, notes = [], []
    for workload in [entry["name"] for entry in spec["workloads"]]:
        seeds = sorted(seed for (name, seed) in parent_runs
                       if name == workload
                       and (name, seed) in change_runs)
        pairs = [(parent_runs[(workload, seed)],
                  change_runs[(workload, seed)]) for seed in seeds]
        if len(pairs) < MIN_PAIRS:
            notes.append(f"{workload}: {len(pairs)} pairs, need "
                         f"{MIN_PAIRS}; not compared")
            continue
        parent_first = sum(1 for p, c in pairs
                           if p["started_at"] < c["started_at"])
        if abs(2 * parent_first - len(pairs)) > 1:
            notes.append(f"{workload}: the parent ran first in "
                         f"{parent_first} of {len(pairs)} pairs; "
                         f"alternate the order")
        for p, c in pairs:
            for side, record in (("parent", p), ("change", c)):
                if not record["correct"]:
                    notes.append(f"{workload} seed {record['seed']}: "
                                 f"{side} run failed its checks")
        more_failures = sum(c["failed"] for _p, c in pairs) > \
            sum(p["failed"] for p, _c in pairs)
        for entry in spec["end_to_end"]:
            name = entry["name"]
            row = classify([p["metrics"][name]["value"] for p, _c in pairs],
                           [c["metrics"][name]["value"] for _p, c in pairs],
                           entry["better"], entry["bound"])
            if row["verdict"] == "gain" and more_failures:
                row["verdict"] = "gain-void"
            row.update(workload=workload, metric=name, unit=entry["unit"],
                       bound=entry["bound"])
            rows.append(row)
    return rows, notes


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<20} {'metric':<18} {'parent median [q1, q3]':>32}"
             f" {'change median [q1, q3]':>32} {'delta':>8} {'wins':>7}"
             f"  verdict"]
    for row in rows:
        cells = []
        for median, q1, q3 in (row["parent"], row["change"]):
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {row['unit']}")
        lines.append(
            f"{row['workload']:<20} {row['metric']:<18} {cells[0]:>32} "
            f"{cells[1]:>32} {row['delta_pct']:>+7.1f}% "
            f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Classify a change against its parent from paired "
                    "benchmark runs.")
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, notes = compare(load_runs(args.parent), load_runs(args.change),
                          spec)
    print(render(rows))
    for note in notes:
        print(f"note: {note}")
    bad = any(row["verdict"] == "regression" for row in rows) or \
        any("failed its checks" in note for note in notes)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
