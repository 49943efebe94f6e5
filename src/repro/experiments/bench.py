"""Kernel performance suite with a machine-readable report.

Times the simulator's hot paths — DES event loop, PS-CPU scheduler,
pool handoff, heap churn at 100k pending timers, a full Sock Shop
round trip — plus the service's self-trace cost and the parallel
experiment fan-out, and renders everything into one JSON document
(``BENCH_kernel.json``). A ``reference`` tier times a fixed
pure-Python heap loop that imports no simulator code: the
perf-regression smoke test divides each tier's rate by it before
comparing against the committed baseline, so a slower or busier host
does not read as a kernel regression. ``repro bench`` regenerates the
report. End-to-end cost with its spread is measured by the benchmark
of record under ``bench/``, not here.

Workloads mirror ``benchmarks/test_perf_kernel.py`` so the two views
(pytest-benchmark statistics there, throughput JSON here) describe the
same code paths. Every benchmark reports best-of-``repeats`` wall
clock: on shared machines the *minimum* is the least noisy estimator
of the true cost.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time
import typing as _t
from heapq import heappop, heappush

import numpy as np

from repro.app.topologies import build_sock_shop
from repro.experiments.parallel import (
    default_workers,
    parallel_map,
    warm_pool,
)
from repro.resources import ProcessorSharingCpu, SoftResourcePool
from repro.sim import Environment, RandomStreams
from repro.sim.events import Event

#: Report schema tag (bump when the JSON layout changes).
SCHEMA = "repro-bench-kernel/1"

#: Default best-of count per benchmark.
REPEATS = 3

#: Cores a host needs before the fan-out's 1.5x speedup gate applies.
#: On a 2-vCPU host two sets of 5 ``bench_parallel_fanout(6, 400)``
#: runs read 1.21x-1.65x and 1.48x-1.81x, so there the gate would fail
#: at random; below this count the speedup is reported but unjudged.
SPEEDUP_GATE_CORES = 4


def _git_sha() -> str | None:
    """The working tree's commit SHA, or ``None`` outside a checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def _best_of(fn: _t.Callable[[], _t.Any],
             repeats: int) -> tuple[float, _t.Any]:
    """Run ``fn`` ``repeats`` times; return (best seconds, last value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def bench_reference(n: int = 200_000, repeats: int = REPEATS) -> dict:
    """Host-speed yardstick: a fixed pure-Python heap loop.

    Pops and re-pushes ``(time, priority, serial)`` tuples on a
    64-entry heap, the shape of the kernel's event queue, and imports
    no simulator code: its rate moves with the host (CPU, load,
    interpreter) and never with a change to ``repro``. Dividing a
    tier's rate by this one cancels host speed out of a comparison
    against a baseline recorded on another machine.
    """

    def run() -> int:
        heap = [(float(k), 1, k) for k in range(64)]
        serial = 64
        for _ in range(n):
            when, _priority, _serial = heappop(heap)
            heappush(heap, (when + 1.0 + (serial & 7) * 0.125, 1,
                            serial))
            serial += 1
        return n

    seconds, ops = _best_of(run, repeats)
    return {
        "ops": ops,
        "seconds": seconds,
        "ops_per_sec": ops / seconds,
    }


def bench_timeout_chain(n: int = 100_000,
                        repeats: int = REPEATS) -> dict:
    """Schedule+fire cost of a long timeout chain."""

    def run() -> int:
        env = Environment()

        def chain(env: Environment):
            for _ in range(n):
                yield env.timeout(0.001)

        env.process(chain(env))
        env.run()
        return env.events_scheduled

    seconds, events = _best_of(run, repeats)
    return {
        "n_timeouts": n,
        "events": events,
        "seconds": seconds,
        "events_per_sec": events / seconds,
    }


def bench_cpu_scheduler(jobs: int = 50_000,
                        repeats: int = REPEATS) -> dict:
    """Jobs through a contended PS CPU (virtual-time scheduler)."""

    def run() -> int:
        env = Environment()
        cpu = ProcessorSharingCpu(env, cores=4, overhead=0.01)

        def feeder(env: Environment):
            for _ in range(jobs):
                cpu.submit(0.002)
                yield env.timeout(0.0005)

        env.process(feeder(env))
        env.run()
        return env.events_scheduled

    seconds, events = _best_of(run, repeats)
    return {
        "jobs": jobs,
        "events": events,
        "seconds": seconds,
        "jobs_per_sec": jobs / seconds,
        "events_per_sec": events / seconds,
    }


def bench_pool_handoff(workers: int = 100, iterations: int = 200,
                       repeats: int = REPEATS) -> dict:
    """Acquire/release churn through a small pool with queueing."""

    def run() -> int:
        env = Environment()
        pool = SoftResourcePool(env, capacity=4)

        def worker(env: Environment):
            for _ in range(iterations):
                yield pool.acquire()
                yield env.timeout(0.001)
                pool.release()

        for _ in range(workers):
            env.process(worker(env))
        env.run()
        return pool.total_granted

    seconds, grants = _best_of(run, repeats)
    return {
        "grants": grants,
        "seconds": seconds,
        "grants_per_sec": grants / seconds,
    }


def bench_sock_shop(requests: int = 2000,
                    repeats: int = REPEATS) -> dict:
    """End-to-end cost of a Sock Shop cart round trip."""

    def run() -> tuple[int, int]:
        env = Environment()
        app = build_sock_shop(env, RandomStreams(1))

        def feeder(env: Environment):
            for _ in range(requests):
                app.submit("cart")
                yield env.timeout(0.004)

        env.process(feeder(env))
        env.run()
        return app.latency["cart"].total, env.events_scheduled

    seconds, (completed, events) = _best_of(run, repeats)
    return {
        "requests": completed,
        "events": events,
        "seconds": seconds,
        "requests_per_sec": completed / seconds,
        "events_per_sec": events / seconds,
    }


def bench_service_selftrace(series: int = 1000, rounds: int = 8,
                            snapshots_per_round: int = 6,
                            repeats: int = REPEATS) -> dict:
    """Flight-recorder cost on the service's recommendation path.

    Drives two :class:`~repro.service.ControlPlane` instances through
    the identical ingest → control-round sequence — ``series``
    monitored services, ``snapshots_per_round`` scrapes between
    rounds, every series estimated per round (``decide_top_k=0``) —
    once with self-tracing disabled (``flight_rounds=0``) and once
    recording full span trees. ``selftrace_overhead_pct`` is the
    relative wall-clock cost of the flight recorder (the perf gate
    holds it under 10%); ``identical_decisions`` asserts the disabled
    mode changes nothing but timing — decision bytes match exactly.
    """
    from repro.core.scg import ScatterModelConfig
    from repro.service import (
        ControlPlane,
        ServiceConfig,
        render_snapshot,
    )

    # Pre-render every scrape so both runs parse identical bytes and
    # the generator cost stays out of the measurement loop's variance.
    batches: list[list[str]] = []
    clock = 0.0
    for round_index in range(rounds):
        batch: list[str] = []
        for scrape in range(snapshots_per_round):
            clock += 1.0
            step = round_index * snapshots_per_round + scrape
            concurrency = {f"svc{i:04d}": float(1 + (step + i) % 8)
                           for i in range(series)}
            goodput = {name: 40.0 * q / (1.0 + q / 6.0)
                       for name, q in concurrency.items()}
            utilization = {name: min(0.95, 0.30 + 0.08 * q)
                           for name, q in concurrency.items()}
            allocation = {name: 4 for name in concurrency}
            batch.append(render_snapshot(
                clock, utilization, concurrency, goodput, allocation))
        batches.append(batch)

    def run(flight_rounds: int) -> tuple[float, str, int]:
        cfg = ServiceConfig(
            decide_top_k=0, max_series=max(series, 1),
            flight_rounds=flight_rounds,
            scatter=ScatterModelConfig(min_samples=8, min_distinct=4,
                                       quantum=0.5))
        plane = ControlPlane(cfg)
        start = time.perf_counter()
        for batch in batches:
            for text in batch:
                plane.ingest_metrics(text)
            plane.tick()
        elapsed = time.perf_counter() - start
        return elapsed, plane.decisions_jsonl(), len(plane.flight)

    bare_s = traced_s = float("inf")
    bare_text = traced_text = ""
    recorded = 0
    for _ in range(max(1, repeats)):
        elapsed, text, _unused = run(0)
        if elapsed < bare_s:
            bare_s = elapsed
        bare_text = text
        elapsed, text, kept = run(256)
        if elapsed < traced_s:
            traced_s = elapsed
        traced_text = text
        recorded = kept
    return {
        "series": series,
        "rounds": rounds,
        "snapshots_per_round": snapshots_per_round,
        "decisions": len(traced_text.splitlines()),
        "identical_decisions": bare_text == traced_text,
        "rounds_recorded": recorded,
        "bare_seconds": bare_s,
        "traced_seconds": traced_s,
        "bare_rounds_per_sec": rounds / bare_s,
        "traced_rounds_per_sec": rounds / traced_s,
        "selftrace_overhead_pct":
            (traced_s - bare_s) / bare_s * 100.0,
    }


def fanout_goodput(spec: tuple[int, int]) -> float:
    """One fan-out task: a seeded Sock Shop run's goodput at 400 ms.

    Module-level so worker processes can import it; the (seed,
    requests) spec fully determines the result, which is what makes
    the parallel path bit-identical to the serial one.
    """
    seed, requests = spec
    env = Environment()
    app = build_sock_shop(env, RandomStreams(seed))

    def feeder(env: Environment):
        for _ in range(requests):
            app.submit("cart")
            yield env.timeout(0.004)

    env.process(feeder(env))
    env.run()
    _times, latencies = app.latency["cart"].window()
    if latencies.size == 0:
        return 0.0
    good = int((latencies <= 0.4).sum())
    return good / (requests * 0.004)


def trace_run_digest(spec: tuple[str, float, int]) -> str:
    """Event-stream digest of one (trace, duration, seed) scenario run.

    Module-level fan-out task used by the determinism tests: a full
    Sock Shop cart scenario under the named workload trace with the
    Sora controller, fingerprinted with the validation subsystem's
    :class:`~repro.validation.fingerprint.RunRecorder`. Identical
    digests from serial and parallel execution prove the fan-out is
    byte-exact.
    """
    from repro.experiments.harness import run_scenario
    from repro.experiments.scenarios import sock_shop_cart_scenario
    from repro.validation.fingerprint import (
        RunRecorder,
        fingerprint_traces,
    )
    from repro.workloads import build_trace

    trace_name, duration, seed = spec
    trace = build_trace(trace_name, duration=duration, peak_users=60,
                        min_users=20)
    scenario = sock_shop_cart_scenario(
        trace=trace, controller="sora", autoscaler="firm", seed=seed)
    recorder = RunRecorder(scenario.env, keep_events=False)
    run_scenario(scenario, duration=duration)
    fingerprint = recorder.finish(scenario.app, extra={
        "trace_digest": fingerprint_traces(
            scenario.app.warehouse.traces()),
    })
    return fingerprint.digest


def bench_parallel_fanout(grid_points: int = 6,
                          requests: int = 500,
                          max_workers: int | None = None) -> dict:
    """Serial vs parallel wall clock over independent simulations.

    Runs the same ``grid_points`` seeded Sock Shop simulations once
    serially and once through :func:`parallel_map`, checks the results
    are identical, and reports the wall-clock speedup. Worker count is
    resolved against the cores actually available: with ≥2 cores the
    pool runs ≥2 workers (pre-warmed so spawn cost is not billed to
    the parallel path); on a single-core host ``parallel_map`` degrades
    to the serial loop and ``workers`` reports 1. ``speedup_gate`` is
    True only with ≥2 workers on ≥``SPEEDUP_GATE_CORES`` cores, the
    hosts where the 1.5x speedup gate can hold; elsewhere the speedup
    is reported but not judged.
    """
    specs = [(seed, requests) for seed in range(1, grid_points + 1)]
    cores = os.cpu_count() or 1
    if max_workers is None:
        workers = min(default_workers(), grid_points)
        if cores >= 2:
            workers = max(2, workers)
    else:
        workers = max_workers
    # The number of workers the pool will actually use.
    workers = min(workers, grid_points)
    if cores < 2:
        workers = 1

    # Untimed warm-up: the first simulation of the process pays import
    # and allocator warm-up costs that would otherwise be billed to
    # whichever path runs first and fake a speedup on 1-core hosts.
    fanout_goodput(specs[0])

    started = time.perf_counter()
    serial = [fanout_goodput(spec) for spec in specs]
    serial_seconds = time.perf_counter() - started

    if workers > 1:
        warm_pool(workers)
    started = time.perf_counter()
    parallel = parallel_map(fanout_goodput, specs,
                            max_workers=workers)
    parallel_seconds = time.perf_counter() - started

    return {
        "grid_points": grid_points,
        "requests_per_point": requests,
        "workers": workers,
        "cores": cores,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "speedup_gate": workers >= 2 and cores >= SPEEDUP_GATE_CORES,
        "identical_results": parallel == serial,
    }


def bench_timer_churn(timers: int = 100_000) -> dict:
    """Self-rescheduling timer population at a fixed pending-set size.

    ``timers`` callback events each re-arm themselves once with a
    deterministic pseudo-random gap in [0.5, 1.5) s, so the heap holds
    ~``timers`` pending entries throughout and its ``log n`` push/pop
    cost shows against the pending-set size. Pure callback events (no
    generators) keep the measurement on the scheduler itself rather
    than interpreter frame churn.
    """
    env = Environment()
    heap = env._heap
    eid = env._eid
    now_ref = env
    remaining = timers
    processed = 0

    def make(seed: int) -> Event:
        state = seed * 2654435761 % 2147483647 or 1

        def fire(event: Event) -> None:
            nonlocal remaining, processed, state
            processed += 1
            if remaining <= 0:
                return
            remaining -= 1
            state = (state * 1103515245 + 12345) % 2147483648
            gap = 0.5 + (state % 4096) / 4096.0
            event.callbacks = [fire]
            heappush(heap, (now_ref._now + gap, 1, next(eid), event))

        event = Event(env)
        event._ok = True
        event._value = None
        event.callbacks = [fire]
        return event

    for k in range(timers):
        event = make(k + 1)
        gap = 0.5 + ((k * 40503) % 4096) / 4096.0
        heappush(heap, (gap, 1, next(eid), event))

    started = time.perf_counter()
    env.run()
    seconds = time.perf_counter() - started
    return {
        "timers": timers,
        "events": processed,
        "seconds": seconds,
        "events_per_sec": processed / seconds,
    }


def run_bench_suite(scale: float = 1.0,
                    max_workers: int | None = None,
                    include_parallel: bool = True,
                    repeats: int = REPEATS) -> dict:
    """Run every kernel benchmark; return the JSON-ready report.

    Args:
        scale: workload multiplier (smoke runs use < 1.0).
        max_workers: worker count for the fan-out benchmark.
        include_parallel: skip the fan-out benchmark when False.
        repeats: best-of count per benchmark.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    def scaled(n: int, floor: int = 1) -> int:
        return max(floor, int(n * scale))

    benchmarks = {
        "reference": bench_reference(
            n=scaled(200_000, 2000), repeats=repeats),
        "timeout_chain": bench_timeout_chain(
            n=scaled(100_000, 1000), repeats=repeats),
        "cpu_scheduler": bench_cpu_scheduler(
            jobs=scaled(50_000, 500), repeats=repeats),
        "pool_handoff": bench_pool_handoff(
            workers=scaled(100, 10), iterations=200, repeats=repeats),
        "sock_shop": bench_sock_shop(
            requests=scaled(2000, 50), repeats=repeats),
        "timer_churn": bench_timer_churn(timers=scaled(100_000, 1000)),
        "service_selftrace": bench_service_selftrace(
            series=scaled(1000, 50), repeats=repeats),
    }
    if include_parallel:
        benchmarks["parallel_fanout"] = bench_parallel_fanout(
            grid_points=6, requests=scaled(500, 20),
            max_workers=max_workers)
    return {
        "schema": SCHEMA,
        "scale": scale,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      time.gmtime()),
        "benchmarks": benchmarks,
    }


def render_report(report: dict) -> str:
    """Human-readable one-line-per-benchmark summary."""
    lines = [f"kernel bench (scale={report['scale']:g}, "
             f"python {report['python']})"]
    for name, stats in report["benchmarks"].items():
        parts = [f"{name:<16}"]
        if "selftrace_overhead_pct" in stats:
            lines.append(
                f"{name:<16}  "
                f"{stats['traced_rounds_per_sec']:>8,.1f} rounds/s "
                f"self-traced vs "
                f"{stats['bare_rounds_per_sec']:>8,.1f} bare over "
                f"{stats['series']:,} series "
                f"({stats['selftrace_overhead_pct']:+.1f}% overhead, "
                f"identical decisions="
                f"{stats['identical_decisions']})")
            continue
        if "events_per_sec" in stats:
            parts.append(f"{stats['events_per_sec']:>12,.0f} events/s")
        if "requests_per_sec" in stats:
            parts.append(f"{stats['requests_per_sec']:>9,.0f} req/s")
        if "ops_per_sec" in stats:
            parts.append(f"{stats['ops_per_sec']:>12,.0f} heap ops/s")
        if "grants_per_sec" in stats:
            parts.append(f"{stats['grants_per_sec']:>9,.0f} grants/s")
        if "speedup" in stats:
            parts.append(
                f"speedup {stats['speedup']:.2f}x over "
                f"{stats['grid_points']} points "
                f"({stats['workers']} workers, identical="
                f"{stats['identical_results']})")
        if "seconds" in stats:
            parts.append(f"best {stats['seconds'] * 1000:8.1f} ms")
        lines.append("  ".join(parts))
    return "\n".join(lines)


def write_report(report: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Persist a bench report as pretty-printed JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
