"""Kernel performance suite with a machine-readable report.

Times the simulator's hot paths — DES event loop, PS-CPU scheduler,
pool handoff, a full Sock Shop round trip — plus the parallel
experiment fan-out, and renders everything into one JSON document
(``BENCH_kernel.json``). The perf-regression smoke test compares these
numbers against a committed baseline; ``repro bench`` regenerates them.

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
from heapq import heappush

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


def bench_sampling_overhead(requests: int = 2000,
                            repeats: int = REPEATS) -> dict:
    """Events/s cost of tail sampling + streaming path aggregation.

    Runs the Sock Shop cart round trip three ways — bare warehouse,
    :class:`~repro.tracing.TailSampler` attached, and sampler plus
    :class:`~repro.tracing.CriticalPathAggregator` — and reports the
    relative events/s overhead of each. Sampling draws from the
    dedicated ``tracing.sampler`` stream, so all runs schedule the
    exact same simulation events; the deltas are pure observer cost.
    ``overhead_pct`` is the tail-sampling cost (the perf gate);
    ``analytics_overhead_pct`` adds the streaming aggregation.
    """
    from repro.tracing import (
        CriticalPathAggregator,
        TailSampler,
        sampler_stream,
    )

    def run(mode: str) -> tuple[int, int, int]:
        env = Environment()
        streams = RandomStreams(1)
        app = build_sock_shop(env, streams)
        if mode != "bare":
            app.warehouse.attach(
                sampler=TailSampler(0.1, sampler_stream(streams),
                                    slo_threshold=0.4),
                analytics=(CriticalPathAggregator()
                           if mode == "analytics" else None))

        def feeder(env: Environment):
            for _ in range(requests):
                app.submit("cart")
                yield env.timeout(0.004)

        env.process(feeder(env))
        env.run()
        return (app.warehouse.total_recorded, len(app.warehouse),
                env.events_scheduled)

    base_s, (base_traces, _stored, base_events) = _best_of(
        lambda: run("bare"), repeats)
    tail_s, (tail_traces, stored, tail_events) = _best_of(
        lambda: run("tail"), repeats)
    full_s, (_traces, _stored2, full_events) = _best_of(
        lambda: run("analytics"), repeats)
    base_eps = base_events / base_s
    tail_eps = tail_events / tail_s
    full_eps = full_events / full_s
    return {
        "requests": requests,
        "events": base_events,
        "identical_events": base_events == tail_events == full_events,
        "traces": tail_traces,
        "traces_identical": base_traces == tail_traces,
        "stored_traces": stored,
        "stored_fraction": (stored / tail_traces if tail_traces
                            else 0.0),
        "baseline_seconds": base_s,
        "sampled_seconds": tail_s,
        "analytics_seconds": full_s,
        "baseline_events_per_sec": base_eps,
        "sampled_events_per_sec": tail_eps,
        "analytics_events_per_sec": full_eps,
        "overhead_pct": (base_eps - tail_eps) / base_eps * 100.0,
        "analytics_overhead_pct":
            (base_eps - full_eps) / base_eps * 100.0,
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
    to the serial loop, ``workers`` reports 1, and ``speedup_gate`` is
    False — the CI speedup gate keys off that flag rather than
    pretending a 1-core box parallelized anything.
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
        "speedup_gate": workers >= 2,
        "identical_results": parallel == serial,
    }


def _timer_churn(timers: int, budget: int) -> dict:
    """Self-rescheduling timer population at a fixed pending-set size.

    ``timers`` callback events each re-arm themselves with a
    deterministic pseudo-random gap in [0.5, 1.5) s until ``budget``
    re-arms have fired, so the heap holds ~``timers`` pending entries
    throughout and its ``log n`` push/pop cost shows against the
    pending-set size. Pure callback events (no generators) keep the
    measurement on the scheduler itself rather than interpreter frame
    churn.
    """
    env = Environment()
    heap = env._heap
    eid = env._eid
    now_ref = env
    remaining = budget
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


def _des_closed_loop(users: int, duration: float) -> dict:
    """Full-fidelity DES point: a fixed closed-loop population on Sock
    Shop (cart), exercising batch user step-up, PS CPUs and pools.

    Think time scales with the population (mean ``users / 200`` s) so
    the offered load stays ~200 req/s — the fleet regime, where most
    users are thinking and the kernel carries ``users`` pending timers
    while requests flow at a rate the topology can actually serve.
    Without that scaling a 10k-user population would bury the default
    Sock Shop and measure queue explosion, not kernel throughput.
    """
    from repro.sim.distributions import Exponential
    from repro.workloads.drivers import ClosedLoopDriver
    from repro.workloads.traces import WorkloadTrace

    env = Environment()
    streams = RandomStreams(97)
    app = build_sock_shop(env, streams)
    trace = WorkloadTrace("flat", duration, users, users,
                          lambda u: 1.0)
    driver = ClosedLoopDriver(env, app, "cart", trace,
                              streams.stream("driver"),
                              think_time=Exponential(
                                  mean=max(1.0, users / 200.0)))
    driver.start()
    started = time.perf_counter()
    env.run(until=duration)
    seconds = time.perf_counter() - started
    events = env.events_scheduled
    completed = app.latency["cart"].total
    return {
        "users": users,
        "sim_duration": duration,
        "requests": completed,
        "events": events,
        "seconds": seconds,
        "requests_per_sec": completed / seconds,
        "events_per_sec": events / seconds,
    }


def _fluid_diurnal(users: int) -> dict:
    """Hybrid fast path: a full 24 h diurnal day on Social Network at
    ``users`` peak population, solved analytically (repro.sim.fluid)."""
    from repro.app.topologies import build_social_network
    from repro.sim.fluid import run_fluid
    from repro.workloads.traces import diurnal

    env = Environment()
    app = build_social_network(env, RandomStreams(7))
    trace = diurnal(peak_users=users,
                    min_users=max(1, users // 20))
    started = time.perf_counter()
    result = run_fluid(app, "read_home_timeline", trace,
                       think_time=1.0, interval=60.0)
    seconds = time.perf_counter() - started
    return {
        "users": users,
        "trace_duration": trace.duration,
        "samples": int(len(result.times)),
        "seconds": seconds,
        "total_requests": result.total_requests,
        "peak_throughput": float(result.throughput.max()),
    }


def bench_scale_sweep(sizes: _t.Sequence[int] = (10_000, 100_000,
                                                 1_000_000),
                      des_users: int = 10_000,
                      des_duration: float = 5.0) -> dict:
    """The 10k→1M-user scaling story, in three tiers of fidelity.

    For each population size: the timer-churn microbenchmark measuring
    heap throughput at that pending-set size (the isolated kernel
    effect), one full-fidelity closed-loop DES point at
    ``des_users`` (the largest size where per-user simulation is the
    right tool), and the fluid fast path sweeping a complete diurnal
    day at every size (how a million users actually gets run).
    """
    churn = []
    for timers in sizes:
        budget = min(1_000_000, max(timers, 100_000))
        churn.append(_timer_churn(timers, budget))
    return {
        "sizes": list(sizes),
        "timer_churn": churn,
        "des_closed_loop": _des_closed_loop(des_users, des_duration),
        "fluid_diurnal": [_fluid_diurnal(n) for n in sizes],
    }


def run_bench_suite(scale: float = 1.0,
                    max_workers: int | None = None,
                    include_parallel: bool = True,
                    include_scale_sweep: bool = False,
                    repeats: int = REPEATS) -> dict:
    """Run every kernel benchmark; return the JSON-ready report.

    Args:
        scale: workload multiplier (smoke runs use < 1.0).
        max_workers: worker count for the fan-out benchmark.
        include_parallel: skip the fan-out benchmark when False.
        include_scale_sweep: add the 10k→1M scale sweep (sizes also
            follow ``scale``, so smoke runs stay cheap). Off by
            default — the perf-regression gate doesn't need it.
        repeats: best-of count per benchmark.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    def scaled(n: int, floor: int = 1) -> int:
        return max(floor, int(n * scale))

    benchmarks = {
        "timeout_chain": bench_timeout_chain(
            n=scaled(100_000, 1000), repeats=repeats),
        "cpu_scheduler": bench_cpu_scheduler(
            jobs=scaled(50_000, 500), repeats=repeats),
        "pool_handoff": bench_pool_handoff(
            workers=scaled(100, 10), iterations=200, repeats=repeats),
        "sock_shop": bench_sock_shop(
            requests=scaled(2000, 50), repeats=repeats),
        "sampling_overhead": bench_sampling_overhead(
            requests=scaled(2000, 50), repeats=repeats),
        "service_selftrace": bench_service_selftrace(
            series=scaled(1000, 50), repeats=repeats),
    }
    if include_parallel:
        benchmarks["parallel_fanout"] = bench_parallel_fanout(
            grid_points=6, requests=scaled(500, 20),
            max_workers=max_workers)
    if include_scale_sweep:
        benchmarks["scale_sweep"] = bench_scale_sweep(
            sizes=tuple(scaled(n, 1000)
                        for n in (10_000, 100_000, 1_000_000)),
            des_users=scaled(10_000, 200),
            des_duration=max(1.0, 5.0 * min(1.0, scale * 10)))
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
        if name == "scale_sweep":
            for tier in stats["timer_churn"]:
                lines.append(
                    f"scale_sweep churn {tier['timers']:>9,} timers: "
                    f"{tier['events_per_sec']:>12,.0f} ev/s")
            des = stats["des_closed_loop"]
            lines.append(
                f"scale_sweep DES {des['users']:>11,} users: "
                f"{des['events_per_sec']:>12,.0f} ev/s "
                f"({des['requests']:,} requests)")
            for tier in stats["fluid_diurnal"]:
                lines.append(
                    f"scale_sweep fluid {tier['users']:>9,} users: "
                    f"24h day in {tier['seconds']:.2f} s "
                    f"({tier['total_requests']:,.0f} requests)")
            continue
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
        if "overhead_pct" in stats:
            lines.append(
                f"{name:<16}  "
                f"{stats['sampled_events_per_sec']:>12,.0f} events/s "
                f"tail-sampled vs "
                f"{stats['baseline_events_per_sec']:>12,.0f} bare "
                f"({stats['overhead_pct']:+.1f}% overhead, "
                f"{stats['analytics_overhead_pct']:+.1f}% with "
                f"aggregation, stored {stats['stored_fraction']:.0%} "
                f"of {stats['traces']:,} traces)")
            continue
        if "events_per_sec" in stats:
            parts.append(f"{stats['events_per_sec']:>12,.0f} events/s")
        if "requests_per_sec" in stats:
            parts.append(f"{stats['requests_per_sec']:>9,.0f} req/s")
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
