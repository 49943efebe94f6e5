"""Perf-regression smoke test against the committed kernel baseline.

Runs the kernel bench suite at a small scale and checks each gated
throughput against ``benchmarks/baselines/BENCH_kernel_baseline.json``.
Raw events/s follow the host: on a 2-vCPU host with three busy-loop
processes beside the run, the gated tiers fell to 0.33x-0.82x of the
committed baseline, recorded on the same host when quiet. So the gate
compares each tier's rate in units of the same report's ``reference``
tier (a fixed pure-Python heap loop that imports no simulator code)
against the baseline's same ratio; under that load those ratios read
0.54x-1.69x of the baseline's (5 runs). The 2x tolerance is there to
catch order-of-magnitude regressions (an accidentally quadratic event
loop, a lost fast path), not 10% drift.

Refresh the baseline after intentional kernel changes with::

    PYTHONPATH=src python -m repro.cli bench \
        --output benchmarks/baselines/BENCH_kernel_baseline.json
"""

import json
import pathlib

import pytest

from repro.experiments.bench import SCHEMA, run_bench_suite

BASELINE_PATH = (pathlib.Path(__file__).resolve().parent.parent /
                 "benchmarks" / "baselines" /
                 "BENCH_kernel_baseline.json")

#: Allowed slowdown factor, relative to the reference loop, vs the
#: committed baseline.
TOLERANCE = 2.0

#: (benchmark, throughput field) pairs the gate holds.
GATES = [
    ("timeout_chain", "events_per_sec"),
    ("cpu_scheduler", "events_per_sec"),
    ("pool_handoff", "grants_per_sec"),
    ("sock_shop", "requests_per_sec"),
]


def relative_rate(report: dict, bench: str, field: str) -> float:
    """``bench.field`` in units of the report's own reference loop."""
    stats = report["benchmarks"]
    return stats[bench][field] / stats["reference"]["ops_per_sec"]


def regression(baseline: dict, current: dict, bench: str,
               field: str) -> str | None:
    """Why ``current`` fails the gate on ``bench.field``, or ``None``."""
    expected = relative_rate(baseline, bench, field)
    measured = relative_rate(current, bench, field)
    floor = expected / TOLERANCE
    if measured >= floor:
        return None
    raw = current["benchmarks"][bench][field]
    return (f"{bench}.{field} regressed: {measured:.3f} per reference "
            f"op ({raw:,.0f}/s) vs baseline {expected:.3f} (floor "
            f"{floor:.3f} at {TOLERANCE:g}x tolerance). If the slowdown "
            f"is intentional, refresh {BASELINE_PATH.name} via "
            f"`repro bench --output`.")


@pytest.fixture(scope="module")
def baseline():
    assert BASELINE_PATH.exists(), (
        f"missing committed baseline {BASELINE_PATH}; regenerate it "
        "(and the root BENCH_kernel.json trends seed) with "
        "`PYTHONPATH=src python -m repro.cli bench --output "
        f"{BASELINE_PATH.relative_to(BASELINE_PATH.parents[2])}` "
        "from the repo root, then commit the refreshed report")
    report = json.loads(BASELINE_PATH.read_text())
    assert report["schema"] == SCHEMA
    return report


@pytest.fixture(scope="module")
def current():
    # Small scale + best-of-5 keeps this fast while the min over
    # repeats damps scheduler noise; throughput is roughly
    # scale-invariant so the reduced run is comparable to the
    # full-scale baseline within the gate's tolerance.
    return run_bench_suite(scale=0.05, repeats=5,
                           include_parallel=False)


@pytest.mark.parametrize("bench,field", GATES)
def test_throughput_no_regression(baseline, current, bench, field):
    assert current["benchmarks"][bench][field] > 0
    failure = regression(baseline, current, bench, field)
    assert failure is None, failure


def synthetic_report(reference: float, rates: dict[str, float]) -> dict:
    benchmarks = {"reference": {"ops_per_sec": reference}}
    for bench, field in GATES:
        benchmarks[bench] = {field: rates.get(bench, 1_000_000.0)}
    return {"schema": SCHEMA, "benchmarks": benchmarks}


def test_gate_fails_a_tier_slower_relative_to_the_reference():
    base = synthetic_report(2_000_000.0, {})
    slow = synthetic_report(2_000_000.0,
                            {"timeout_chain": 1_000_000.0 / 2.5})
    assert regression(base, slow, "timeout_chain",
                      "events_per_sec") is not None
    assert regression(base, slow, "cpu_scheduler",
                      "events_per_sec") is None


def test_gate_passes_a_uniformly_slower_host():
    base = synthetic_report(2_000_000.0, {})
    slow_host = synthetic_report(
        2_000_000.0 / 3, {bench: 1_000_000.0 / 3 for bench, _ in GATES})
    for bench, field in GATES:
        assert regression(base, slow_host, bench, field) is None


#: Committed full-scale bench report (the trends seed) — where the
#: 1000-series self-trace overhead claim is actually measured.
SEED_PATH = (pathlib.Path(__file__).resolve().parent.parent /
             "BENCH_kernel.json")


def test_selftrace_overhead_bounded(current):
    """Flight recording must stay a sub-10% tax on the control loop,
    and disabling it must not change a single decision byte.

    The 10% budget is held on the committed full-scale 1000-series
    report; the live smoke run (50 series, ~0.3 s loops) is too
    noise-dominated for a tight bound, so — like the throughput gates
    above — it only has to rule out an order-of-magnitude regression.
    The byte-identity assertions are deterministic and stay strict.
    """
    stats = current["benchmarks"]["service_selftrace"]
    assert stats["identical_decisions"] is True
    assert stats["rounds_recorded"] == stats["rounds"]
    assert stats["selftrace_overhead_pct"] < 100.0, (
        f"self-tracing more than doubled the control loop at smoke "
        f"scale ({stats['traced_seconds']:.3f}s traced vs "
        f"{stats['bare_seconds']:.3f}s bare)")

    assert SEED_PATH.exists(), (
        f"missing committed trends seed {SEED_PATH}; regenerate with "
        "`PYTHONPATH=src python -m repro.cli bench --output "
        "BENCH_kernel.json` from the repo root and commit it")
    seed = json.loads(SEED_PATH.read_text())
    full = seed["benchmarks"]["service_selftrace"]
    assert full["series"] >= 1000
    assert full["identical_decisions"] is True
    assert full["selftrace_overhead_pct"] < 10.0, (
        f"committed full-scale self-trace overhead "
        f"{full['selftrace_overhead_pct']:.1f}% exceeds the 10% "
        f"budget — fix the recorder before refreshing the seed")
