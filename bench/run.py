"""The benchmark of record: every workload, every metric, one command.

    python3 bench/run.py --workload NAME|all [--seed 42] [--seconds 20]
                         [--trace 0|1] [--out DIR] [--scale 1]

Each workload runs in a fresh subprocess (``bench/workloads.py``). The
command prints every metric by name with its unit, then the recorded
but ungated quantities, the correctness checks, and, as its last line,
one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"latency_ms": {"value": 12.3, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with no wrapper installed. With ``--trace
1`` they are the per-layer metrics of one traced rep, and the spans go
to ``<out>/<workload>.spans.jsonl``. Every run also writes its full
record to ``<out>/<workload>-s<seed>[-traced].json``, which
``bench/compare.py`` reads. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Runs must finish within this many seconds, set-up included.
DEADLINE_S = 170.0
#: Extra processes that only set up, run before and after the workload
#: process, so that set-up time of the in-process workloads is a median
#: of seven samples spread over the run: a burst of host noise at either
#: end cannot move it. The HTTP workload starts its server five times
#: instead (see ``workloads.run_http``).
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child(workload: str, args, tmp: pathlib.Path, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one workload process; its result JSON, or an exception."""
    result = tmp / f"result-{time.monotonic_ns()}.json"
    command = [sys.executable, str(BENCH / "workloads.py"), workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(args.trace),
               "--result", str(result), "--workdir", str(tmp / "work")]
    if setup_only:
        command.append("--setup-only")
    if args.trace:
        command += ["--spans", str(args.out / f"{workload}.spans.jsonl")]
    # A process group of its own, so that whatever the workload started
    # (its server) stops with it, however the workload ended.
    process = subprocess.Popen(command, stdout=sys.stderr,
                               start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} ran past the deadline") from None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    if code != 0:
        raise RuntimeError(f"{workload} exited with {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(workload: str, args, spec: dict) -> dict:
    """One run of one workload: its record, metrics in spec order."""
    deadline = time.monotonic() + DEADLINE_S
    tmp = args.out / f".tmp-{workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    started_at = time.time()
    probes = not args.trace and workload != "svc_http_mixed"

    def setup_probes(count: int) -> list[float]:
        samples = []
        for _ in range(count if probes else 0):
            samples += child(workload, args, tmp, deadline,
                             setup_only=True)["setup_samples"]
        return samples

    try:
        samples = setup_probes(SETUP_PROBES_BEFORE)
        result = child(workload, args, tmp, deadline)
        samples += result["setup_samples"]
        samples += setup_probes(SETUP_PROBES_AFTER)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured = dict(result["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        measured["setup_s"] = statistics.median(samples)
    metrics = {entry["name"]: {"value": measured[entry["name"]],
                               "unit": entry["unit"]}
               for entry in wanted}
    recorded = {name: {"value": value, "unit": unit}
                for name, (value, unit) in result["recorded"].items()}
    recorded["failed_frac"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio"}
    checks = [{"check": name, "ok": bool(ok), "detail": detail}
              for name, ok, detail in result["checks"]]
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "started_at": started_at,
        "correct": all(check["ok"] for check in checks),
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics, "recorded": recorded, "setup_samples": samples,
        "checks": checks, "details": result["details"],
        "ledger": result.get("ledger"),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
    }


def render(record: dict) -> str:
    lines = [f"{record['workload']}  seed={record['seed']}  "
             f"seconds={record['seconds']:g}  scale={record['scale']:g}  "
             f"trace={record['trace']}"]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:>14.6g} "
                     f"{metric['unit']}")
    lines.append("  recorded, not gated:")
    for name, metric in record["recorded"].items():
        lines.append(f"  {name:<40} {metric['value']:>14.6g} "
                     f"{metric['unit']}")
    lines.append(f"  attempted {record['attempted']}, failed "
                 f"{record['failed']}")
    for check in record["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        lines.append(f"  {mark} {check['check']}{detail}")
    details = ", ".join(f"{key}={value}" for key, value
                        in sorted(record["details"].items()))
    lines.append(f"  details: {details}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of record: runs workloads, prints metrics.")
    parser.add_argument("--workload", default="all",
                        help="a workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget per run (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink durations, rounds and the HTTP "
                             "window (smoke runs)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=BENCH / "out")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the cleanup in child() still
    # stops the workload's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have: {', '.join(names)}, all)")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    records = []
    for workload in (names if args.workload == "all" else [args.workload]):
        record = run_workload(workload, args, spec)
        suffix = "-traced" if args.trace else ""
        (args.out / f"{workload}-s{args.seed}{suffix}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        print(render(record), flush=True)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{record['workload']}.{name}": metric
                   for record in records
                   for name, metric in record["metrics"].items()}
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
