"""Command-line interface: run reproduction scenarios from the shell.

Examples::

    python -m repro.cli traces
    python -m repro.cli run --scenario cart --trace steep_tri_phase \\
        --controller sora --autoscaler firm --duration 240
    python -m repro.cli compare --scenario drift --trace large_variation
    python -m repro.cli validate conformance --verbose
    python -m repro.cli validate replay --scenario tandem_balanced
    python -m repro.cli obs report --scenario cart --controller sora \\
        --html report.html --jsonl decisions.jsonl
    python -m repro.cli obs dashboard --scenario cart --controller sora \\
        --html dashboard.html --save run.json
    python -m repro.cli obs dashboard --input run.json
    python -m repro.cli obs export --format openmetrics --input run.json
    python -m repro.cli faults example > plan.json
    python -m repro.cli faults run --plan plan.json --scenario drift \\
        --controller sora --autoscaler hpa --report
    python -m repro.cli zoo list
    python -m repro.cli zoo show --archetype quorum_reads
    python -m repro.cli matrix run --out results/matrix --parallel \\
        --rerun-check
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    ascii_table,
    run_scenario,
    social_network_drift_scenario,
    sock_shop_cart_scenario,
    sock_shop_catalogue_scenario,
)
from repro.experiments.reporting import sparkline
from repro.workloads import TRACE_NAMES, build_trace

SCENARIOS = {
    "cart": sock_shop_cart_scenario,
    "catalogue": sock_shop_catalogue_scenario,
    "drift": social_network_drift_scenario,
}


def _build_scenario(args, controller: str, obs=None, fault_plan=None):
    trace = build_trace(args.trace, duration=args.duration,
                        peak_users=args.peak_users,
                        min_users=args.min_users)
    builder = SCENARIOS[args.scenario]
    kwargs = dict(trace=trace, controller=controller,
                  autoscaler=args.autoscaler, sla=args.sla,
                  seed=args.seed)
    if obs is not None:
        kwargs["obs"] = obs
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if args.scenario == "drift":
        kwargs["drift_at"] = args.duration / 3.0
    return builder(**kwargs)


def _attach_sampling(args, scenario, obs) -> bool:
    """Attach the requested trace sampler + streaming aggregator.

    Sampling decisions draw from the dedicated ``tracing.sampler``
    stream, so the simulated outcome stays byte-identical to an
    unsampled run. Returns ``False`` on invalid arguments (after
    printing the error).
    """
    if getattr(args, "sampler", "none") == "none":
        return True
    from repro.tracing import (
        CriticalPathAggregator,
        HeadSampler,
        TailSampler,
        sampler_stream,
    )

    if not 0.0 <= args.sample_rate <= 1.0:
        print(f"error: --sample-rate must be in [0, 1], got "
              f"{args.sample_rate}", file=sys.stderr)
        return False
    rng = sampler_stream(scenario.streams)
    if args.sampler == "head":
        sampler = HeadSampler(args.sample_rate, rng,
                              slo_threshold=args.sla)
    else:
        sampler = TailSampler(args.sample_rate, rng,
                              slo_threshold=args.sla)
    scenario.app.warehouse.attach(sampler=sampler,
                                  analytics=CriticalPathAggregator())
    obs.attach_trace_analytics(scenario.app.warehouse)
    return True


def _report(result, label: str) -> list:
    summary = result.summary_row()
    _t, rt = result.response_time_series(interval=args_interval(result))
    print(f"{label:<14} p95 over time: {sparkline(rt * 1000)}")
    return [label, summary["goodput_rps"], summary["p95_ms"],
            summary["p99_ms"], len(result.scale_events),
            len(result.adaptation_actions)]


def args_interval(result) -> float:
    return max(2.0, result.duration / 48.0)


def cmd_traces(_args) -> int:
    rows = []
    for name in TRACE_NAMES:
        trace = build_trace(name, duration=120.0, peak_users=100,
                            min_users=10)
        users = [u for _t, u in trace.series(interval=2.0)]
        rows.append([name, sparkline(users, width=48)])
    print(ascii_table(["trace", "shape"], rows,
                      title="The six bursty workload traces (Table 2)"))
    return 0


def cmd_run(args) -> int:
    scenario = _build_scenario(args, args.controller)
    result = run_scenario(scenario, duration=args.duration)
    row = _report(result, args.controller)
    print(ascii_table(
        ["controller", "goodput [req/s]", "p95 [ms]", "p99 [ms]",
         "HW scalings", "adaptations"], [row],
        title=f"{args.scenario} / {args.trace} "
              f"(SLA {args.sla * 1000:.0f} ms)"))
    return 0


def cmd_compare(args) -> int:
    rows = []
    for controller in ("none", args.controller):
        scenario = _build_scenario(args, controller)
        result = run_scenario(scenario, duration=args.duration)
        label = ("hardware-only" if controller == "none"
                 else controller)
        rows.append(_report(result, label))
    print(ascii_table(
        ["controller", "goodput [req/s]", "p95 [ms]", "p99 [ms]",
         "HW scalings", "adaptations"], rows,
        title=f"{args.scenario} / {args.trace} "
              f"(SLA {args.sla * 1000:.0f} ms)"))
    return 0


def cmd_bench(args) -> int:
    from repro.experiments.bench import (
        render_report,
        run_bench_suite,
        write_report,
    )

    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    report = run_bench_suite(scale=args.scale,
                             max_workers=args.workers,
                             include_parallel=not args.no_parallel,
                             include_scale_sweep=not args.no_scale_sweep,
                             repeats=args.repeats)
    print(render_report(report))
    if args.output:
        path = write_report(report, args.output)
        print(f"wrote {path}")
    return 0


def cmd_hybrid(args) -> int:
    from repro.sim.fluid import run_scenario_hybrid
    from repro.workloads.traces import WorkloadTrace

    if args.des_window <= 0 or args.des_window > args.duration:
        print("error: need 0 < --des-window <= --duration",
              file=sys.stderr)
        return 2
    target = build_trace(args.trace, duration=args.duration,
                         peak_users=args.peak_users,
                         min_users=args.min_users)
    # The DES head runs a small flat calibration population: measured
    # per-request demands don't depend on how many users submit, and a
    # million-user head would take longer than the day it calibrates.
    calibration = WorkloadTrace(
        "calibration", max(args.des_window, 1.0),
        args.calibration_users, args.calibration_users, lambda u: 1.0)
    builder = SCENARIOS[args.scenario]
    scenario = builder(trace=calibration, controller=args.controller,
                       autoscaler=args.autoscaler, sla=args.sla,
                       seed=args.seed)
    result = run_scenario_hybrid(scenario, duration=args.duration,
                                 des_window=args.des_window,
                                 interval=args.interval,
                                 fluid_trace=target)
    fluid = result.fluid
    print(f"{args.scenario} / {args.trace}: DES head "
          f"{args.des_window:g}s ({args.calibration_users} users) + "
          f"fluid tail to {args.duration:g}s "
          f"(peak {args.peak_users:,} users)")
    print(f"fluid sweep: {len(fluid.times)} samples in "
          f"{fluid.elapsed:.2f}s wall")
    print(f"users      : {sparkline(fluid.populations)}")
    print(f"throughput : {sparkline(fluid.throughput)}  "
          f"peak {float(fluid.throughput.max()):,.0f} req/s")
    print(f"response   : {sparkline(fluid.response_times * 1000)}  "
          f"max {float(fluid.response_times.max()) * 1000:,.1f} ms")
    print(f"requests served (trapezoid): "
          f"{fluid.total_requests:,.0f}")
    rows = [[name, f"{demand * 1000:.3f}",
             f"{result.calibrated_visits.get(name, 1.0):.2f}"]
            for name, demand in
            sorted(result.calibrated_demands.items())]
    print(ascii_table(["service", "demand [ms]", "visits"], rows,
                      title="calibrated from the DES head"))
    return 0


def cmd_obs_report(args) -> int:
    from repro.obs import (
        Observability,
        configure_logging,
        render_html,
        render_text,
    )

    if args.log_level:
        configure_logging(args.log_level)
    obs = Observability()
    scenario = _build_scenario(args, args.controller, obs=obs)
    if not _attach_sampling(args, scenario, obs):
        return 2
    result = run_scenario(scenario, duration=args.duration)
    title = (f"{args.scenario} / {args.trace} / "
             f"{args.controller}+{args.autoscaler} "
             f"(SLA {args.sla * 1000:.0f} ms)")
    print(render_text(obs, title=title))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(obs, title=title))
        print(f"wrote {args.html}")
    if args.jsonl:
        count = obs.decisions.write_jsonl(args.jsonl)
        print(f"wrote {count} records to {args.jsonl}")
    if args.traces_out:
        from repro.tracing.export import write_traces

        roots = scenario.app.warehouse.traces(
            0.0, result.duration + 10.0)
        count = write_traces(args.traces_out, roots,
                             decisions=obs.decisions.applied())
        print(f"wrote {count} traces to {args.traces_out}")
    return 0


def _obs_from_args(args, *, need_telemetry: bool = True):
    """Shared front half of ``obs dashboard``/``obs export``.

    Either loads a persisted run (``--input``) or runs one scenario
    live with telemetry + SLO monitoring enabled. Returns
    ``(obs, title)`` or an exit code on error.
    """
    from repro.obs import Observability, SLOSpec

    if args.input:
        from repro.experiments.persistence import load_result

        try:
            result = load_result(args.input)
        except (OSError, ValueError) as error:
            print(f"error: cannot load {args.input!r}: {error}",
                  file=sys.stderr)
            return 2
        obs = result.obs
        if need_telemetry and not obs:
            print(f"error: {args.input!r} carries no telemetry "
                  "(was the run made with observability enabled?)",
                  file=sys.stderr)
            return 2
        return obs, result.name
    obs = Observability()
    scenario = _build_scenario(args, args.controller, obs=obs)
    if not _attach_sampling(args, scenario, obs):
        return 2
    scenario.slo = SLOSpec(name=f"{args.scenario}-rt",
                           latency_threshold=args.sla,
                           objective=args.slo_objective)
    result = run_scenario(scenario, duration=args.duration)
    if args.save:
        from repro.experiments.persistence import save_result

        save_result(args.save, result)
        print(f"wrote {args.save}", file=sys.stderr)
    title = (f"{args.scenario} / {args.trace} / "
             f"{args.controller}+{args.autoscaler} "
             f"(SLA {args.sla * 1000:.0f} ms)")
    return obs, title


def cmd_obs_dashboard(args) -> int:
    from repro.obs import render_dashboard_html, render_sparklines

    resolved = _obs_from_args(args)
    if isinstance(resolved, int):
        return resolved
    obs, title = resolved
    try:
        html = render_dashboard_html(obs, title=title)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(html)
        print(f"wrote {args.html}", file=sys.stderr)
    if not args.html or args.text:
        print(render_sparklines(obs, title=title))
    return 0


def cmd_obs_export(args) -> int:
    from repro.obs import render_openmetrics

    resolved = _obs_from_args(args, need_telemetry=False)
    if isinstance(resolved, int):
        return resolved
    obs, _title = resolved
    text = render_openmetrics(obs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_obs_trends(args) -> int:
    from repro.obs.trends import (
        collect_artifacts,
        find_crossings,
        render_trends_html,
    )

    points = collect_artifacts(args.paths)
    if len(points) < 2:
        print(f"error: found {len(points)} recognizable artifact(s) "
              f"under {args.paths}; need at least 2 for a trend "
              f"(commit BENCH_*.json reports or matrix index.json "
              f"files)", file=sys.stderr)
        return 2
    html = render_trends_html(points, threshold_pct=args.threshold,
                              title=args.title)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(html)
    crossings = find_crossings(points, args.threshold)
    print(f"aggregated {len(points)} artifacts "
          f"({points[0].timestamp} .. {points[-1].timestamp}); "
          f"{len(crossings)} threshold crossing(s) at "
          f"±{args.threshold:g}%")
    for entry in crossings[:10]:
        print(f"  {entry['metric']}: {entry['before']:g} -> "
              f"{entry['after']:g} ({entry['change_pct']:+.1f}%) "
              f"between {entry['from']} and {entry['to']}")
    print(f"wrote {args.output}")
    return 0


#: Sample plan printed by ``repro faults example`` — one spec of each
#: kind, sized for the default cart scenario.
_EXAMPLE_PLAN = {
    "faults": [
        {"kind": "crash", "service": "cart-db", "at": 60.0,
         "mode": "drain", "restart_after": 10.0},
        {"kind": "interference", "service": "cart", "at": 100.0,
         "duration": 40.0, "demand_factor": 2.0, "core_steal": 0.25},
        {"kind": "edge-latency", "caller": "cart", "callee": "cart-db",
         "at": 150.0, "duration": 20.0, "delay": 0.02, "jitter": 0.5},
        {"kind": "edge-failure", "caller": "front-end", "callee": "cart",
         "at": 180.0, "duration": 15.0, "probability": 0.2},
        {"kind": "blackout", "service": "cart", "at": 200.0,
         "duration": 15.0, "replicas": 1},
    ],
}


def cmd_faults_example(_args) -> int:
    from repro.faults import FaultPlan

    print(FaultPlan.from_dict(_EXAMPLE_PLAN).to_json())
    return 0


def cmd_faults_run(args) -> int:
    from repro.faults import FaultPlan
    from repro.obs import Observability, render_text

    try:
        plan = FaultPlan.read_json(args.plan)
    except (OSError, ValueError) as error:
        print(f"error: cannot load plan {args.plan!r}: {error}",
              file=sys.stderr)
        return 2
    if not plan:
        print(f"error: plan {args.plan!r} has no faults",
              file=sys.stderr)
        return 2
    obs = Observability()
    try:
        scenario = _build_scenario(args, args.controller, obs=obs,
                                   fault_plan=plan)
        scenario.faults.plan.validate(scenario.app)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_scenario(scenario, duration=args.duration)
    rows = [[f"{r.time:.1f}", r.fault, r.phase, r.service or r.edge or ""]
            for r in result.fault_events]
    print(ascii_table(["t [s]", "fault", "phase", "where"], rows,
                      title=f"Fault plan {args.plan} "
                            f"({len(plan)} specs)"))
    row = _report(result, args.controller)
    print(ascii_table(
        ["controller", "goodput [req/s]", "p95 [ms]", "p99 [ms]",
         "HW scalings", "adaptations"], [row],
        title=f"{args.scenario} / {args.trace} under faults "
              f"(SLA {args.sla * 1000:.0f} ms, "
              f"{result.failed_total} requests failed)"))
    if args.report:
        print(render_text(obs, title=f"{args.scenario} under faults"))
    if args.jsonl:
        count = obs.decisions.write_jsonl(args.jsonl)
        print(f"wrote {count} records to {args.jsonl}")
    return 0


def cmd_zoo_list(_args) -> int:
    from repro.scenarios import ARCHETYPES, ZooParams, bottleneck_service

    rows = []
    for archetype in ARCHETYPES:
        params = ZooParams(archetype=archetype)
        rows.append([archetype, params.label,
                     bottleneck_service(params)])
    print(ascii_table(["archetype", "default label", "bottleneck"],
                      rows, title="Scenario zoo archetypes"))
    return 0


def cmd_zoo_show(args) -> int:
    import json as _json

    from repro.scenarios import (
        ZooParams,
        build_topology,
        topology_fingerprint,
        topology_to_dict,
    )
    from repro.sim import Environment, RandomStreams

    params = ZooParams(archetype=args.archetype, shards=args.shards,
                       storm_at=args.storm_at)
    env = Environment()
    topology = build_topology(env, RandomStreams(args.seed), params)
    print(_json.dumps(topology_to_dict(topology.app), indent=2,
                      sort_keys=True))
    print(f"# structural fingerprint: "
          f"{topology_fingerprint(topology.app)}", file=sys.stderr)
    return 0


def cmd_matrix_run(args) -> int:
    import os

    from repro.experiments.matrix import default_matrix, run_matrix
    from repro.scenarios import ZOO_FAULT_KINDS

    smoke = os.environ.get("REPRO_EXAMPLE_SMOKE", "") == "1"
    archetypes = (args.archetypes.split(",") if args.archetypes
                  else ["fanout_slow_shard", "cache_aside",
                        "quorum_reads"])
    traces = (args.traces.split(",") if args.traces
              else ["slowly_varying", "big_spike"])
    faults = (args.faults.split(",") if args.faults
              else ["none", "interference"])
    controllers = (args.controllers.split(",") if args.controllers
                   else ["none", "sora"])
    for fault in faults:
        if fault not in ZOO_FAULT_KINDS:
            print(f"error: unknown fault kind {fault!r} "
                  f"(have: {', '.join(ZOO_FAULT_KINDS)})",
                  file=sys.stderr)
            return 2
    if smoke:
        # CI mini-matrix: 2x2x1, short runs, under results/smoke/.
        archetypes = archetypes[:2]
        traces = traces[:2]
        faults = faults[:1]
        controllers = controllers[:1]
        duration, peak_users, min_users = 20.0, 30, 10
    else:
        duration, peak_users, min_users = (args.duration,
                                           args.peak_users,
                                           args.min_users)
    out_dir = args.out
    if out_dir is None:
        base = os.path.join("benchmarks", "results")
        out_dir = (os.path.join(base, "smoke", "matrix") if smoke
                   else os.path.join(base, "matrix"))
    try:
        cells = default_matrix(
            archetypes=archetypes, traces=traces, faults=faults,
            controllers=controllers, autoscaler=args.autoscaler,
            duration=duration, peak_users=peak_users,
            min_users=min_users, seed=args.seed, sla=args.sla,
            telemetry=args.telemetry)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"running {len(cells)} cells "
          f"({len(archetypes)} topologies x {len(traces)} traces x "
          f"{len(faults)} faults x {len(controllers)} controllers) "
          f"-> {out_dir}", file=sys.stderr)
    matrix = run_matrix(cells, out_dir, parallel=args.parallel,
                        max_workers=args.workers,
                        rerun_check=args.rerun_check)
    print(matrix.summary_table())
    print(f"index: {os.path.join(out_dir, 'index.html')}")
    if args.rerun_check:
        failures = matrix.replay_failures
        if failures:
            print(f"replay FAILED for {len(failures)} cells: "
                  f"{', '.join(failures)}", file=sys.stderr)
            return 1
        print(f"replay OK: all {len(matrix)} cells reproduced "
              "byte-identical fingerprints")
    return 0


def cmd_validate_conformance(args) -> int:
    from repro.validation import (
        generate_scenarios,
        run_conformance,
        scenario_by_name,
    )

    if args.replications < 1:
        print("error: --replications must be >= 1", file=sys.stderr)
        return 2
    if args.duration_scale <= 0:
        print("error: --duration-scale must be positive",
              file=sys.stderr)
        return 2
    if args.scenario:
        try:
            scenarios = [scenario_by_name(name)
                         for name in args.scenario]
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        scenarios = generate_scenarios()
    report = run_conformance(scenarios, seed=args.seed,
                             duration_scale=args.duration_scale,
                             replications=args.replications)
    print(report.render(verbose=args.verbose))
    print(f"\n{sum(r.passed for r in report.results)}"
          f"/{len(report.results)} scenarios within tolerance")
    return 0 if report.passed else 1


def cmd_validate_replay(args) -> int:
    from repro.validation import check_replay

    if args.duration <= 0:
        print("error: --duration must be positive", file=sys.stderr)
        return 2
    try:
        result = check_replay(args.scenario, seed=args.seed,
                              duration=args.duration,
                              across_processes=not args.no_subprocess,
                              perturb_at=args.perturb_at)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    print(result.render())
    if args.perturb_at is not None:
        # Perturbed mode *demonstrates* detection: divergence expected.
        if result.identical:
            print("expected divergence was NOT detected")
            return 1
        return 0
    return 0 if result.identical else 1


def _exclude_services(args) -> tuple:
    """Resolve ``--exclude`` flags: absent means the front-end default,
    given flags *replace* it (so the default can be un-excluded), and
    empty strings are dropped (``--exclude ''`` excludes nothing)."""
    if args.exclude is None:
        return ("front-end",)
    return tuple(service for service in args.exclude if service)


def _service_config(args):
    """Build a :class:`~repro.service.domain.ServiceConfig` from the
    shared service flags (``serve`` / ``service drive --spawn`` /
    ``service replay`` must agree for replay to be exact)."""
    from repro.core.scg import ScatterModelConfig
    from repro.service import ServiceConfig

    return ServiceConfig(
        sla=args.sla,
        cadence=args.round_interval,
        window=args.window,
        utilization_threshold=args.utilization_threshold,
        max_pending=args.max_pending,
        decide_top_k=args.decide_top_k,
        exclude=_exclude_services(args),
        latency_slo=args.latency_slo,
        flight_rounds=args.flight_rounds,
        scatter=ScatterModelConfig(min_samples=args.min_samples,
                                   min_distinct=args.min_distinct,
                                   quantum=args.quantum))


def cmd_serve(args) -> int:
    from repro.obs import configure_logging
    from repro.service import ControllerService

    if args.log_level:
        configure_logging(args.log_level)
    service = ControllerService(
        _service_config(args), host=args.host, port=args.port,
        cadence=args.cadence, journal_path=args.journal,
        decisions_path=args.decisions,
        journal_segment_bytes=args.journal_segment_bytes,
        journal_segment_age=args.journal_segment_age,
        journal_compact=args.journal_compact)

    def announce(message: str) -> None:
        print(message, flush=True)
        if args.port_file:
            import pathlib

            path = pathlib.Path(args.port_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"{service.port}\n", encoding="utf-8")

    service.run(announce=announce)
    return 0


def cmd_service_drive(args) -> int:
    import json
    import os
    import pathlib
    import subprocess
    import time
    import urllib.request

    from repro.obs import configure_logging
    from repro.service import (
        ServiceClient,
        drive,
        verify_chain,
        verify_replay,
    )

    if args.log_level:
        configure_logging(args.log_level)
    duration = args.duration
    if os.environ.get("REPRO_EXAMPLE_SMOKE"):
        duration = min(duration, 60.0)

    out = pathlib.Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    process = None
    journal = decisions = None
    url = args.url
    try:
        if args.spawn:
            artifacts = out or pathlib.Path("service-artifacts")
            artifacts.mkdir(parents=True, exist_ok=True)
            journal = artifacts / "journal.jsonl"
            decisions = artifacts / "decisions.jsonl"
            port_file = artifacts / "port"
            if port_file.exists():
                port_file.unlink()
            command = [sys.executable, "-m", "repro.cli", "serve",
                       "--host", "127.0.0.1", "--port", "0",
                       "--port-file", str(port_file),
                       "--journal", str(journal),
                       "--decisions", str(decisions)]
            if args.journal_segment_bytes:
                command.extend(["--journal-segment-bytes",
                                str(args.journal_segment_bytes)])
            if args.journal_segment_age:
                command.extend(["--journal-segment-age",
                                str(args.journal_segment_age)])
            if args.journal_compact:
                command.append("--journal-compact")
            if args.log_level:
                command.extend(["--log-level", args.log_level])
            command.extend(_service_flag_values(args))
            process = subprocess.Popen(command)
            deadline = time.time() + 30.0
            while not port_file.exists():
                if process.poll() is not None:
                    print("error: spawned service exited early",
                          file=sys.stderr)
                    return 1
                if time.time() > deadline:
                    print("error: spawned service never announced "
                          "its port", file=sys.stderr)
                    return 1
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            url = f"http://127.0.0.1:{port}"
        if url is None:
            print("error: --url or --spawn is required",
                  file=sys.stderr)
            return 2

        report = drive(
            url, scenario=args.scenario, trace=args.trace,
            duration=duration, interval=args.interval,
            tick_every=args.tick_every, sla=args.sla,
            seed=args.seed, peak_users=args.peak_users,
            min_users=args.min_users, autoscaler=args.autoscaler,
            apply=args.apply,
            traces_per_batch=args.traces_per_batch)

        client = ServiceClient(url)
        if out is not None:
            (out / "drive.json").write_text(
                json.dumps(report.to_dict(), indent=2,
                           sort_keys=True) + "\n", encoding="utf-8")
            (out / "report.txt").write_text(
                client.request("GET", "/report")["text"],
                encoding="utf-8")
            # Flight-recorder artifacts: per-round span summaries,
            # the live ops console, and journal lifecycle health.
            (out / "rounds.json").write_text(
                json.dumps(client.request("GET", "/debug/rounds"),
                           indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            (out / "dashboard.html").write_text(
                client.request("GET", "/debug/dashboard")["text"],
                encoding="utf-8")
            (out / "journal_health.json").write_text(
                json.dumps(client.request("GET", "/debug/journal"),
                           indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        if args.spawn:
            try:
                client.request("POST", "/admin/shutdown", b"")
            except (urllib.error.URLError, ConnectionError):
                pass
    finally:
        if process is not None:
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    recommendations = report.recommendations
    print(f"drove {duration:g}s of simulated {args.scenario!r} load: "
          f"{report.snapshots} snapshots, {report.traces_sent} traces "
          f"in {report.trace_batches} batches, {report.ticks} rounds")
    for name, rec in sorted(recommendations.items()):
        print(f"  {name}: allocation {rec['before']} -> "
              f"{rec['allocation']} ({rec['method']}, threshold "
              f"{rec['threshold'] * 1e3:.0f} ms, "
              f"{rec['samples']} samples)")
    latency = report.status.get("recommendation_latency", {})
    if latency.get("count"):
        print(f"  controller: p50 {latency['p50_ms']:.2f} ms / "
              f"p99 {latency['p99_ms']:.2f} ms over "
              f"{latency['count']} recommendations")

    if journal is not None and decisions is not None \
            and decisions.exists():
        identical, detail = verify_replay(journal, decisions,
                                          _service_config(args))
        print(f"  audit replay: {detail}")
        if not identical:
            return 1
        intact, chain_detail = verify_chain(journal)
        print(f"  audit chain: {chain_detail}")
        if not intact:
            return 1
    if args.expect_recommendation and not recommendations:
        print("error: no recommendation was served", file=sys.stderr)
        return 1
    return 0


def _service_flag_values(args) -> list:
    """Config flags forwarded verbatim to a spawned ``serve``."""
    flags = ["--sla", str(args.sla),
             "--round-interval", str(args.round_interval),
             "--window", str(args.window),
             "--utilization-threshold",
             str(args.utilization_threshold),
             "--max-pending", str(args.max_pending),
             "--decide-top-k", str(args.decide_top_k),
             "--min-samples", str(args.min_samples),
             "--min-distinct", str(args.min_distinct),
             "--quantum", str(args.quantum),
             "--latency-slo", str(args.latency_slo),
             "--flight-rounds", str(args.flight_rounds)]
    excluded = _exclude_services(args)
    for service in excluded:
        flags.extend(["--exclude", service])
    if not excluded:
        # Forward the emptiness explicitly, or the spawned serve would
        # fall back to its own front-end default and replay diverges.
        flags.extend(["--exclude", ""])
    return flags


def cmd_service_replay(args) -> int:
    from repro.service import verify_replay

    identical, detail = verify_replay(args.journal, args.decisions,
                                      _service_config(args))
    print(detail)
    return 0 if identical else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sora (Middleware '23) reproduction scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("traces", help="show the six workload trace shapes")

    def add_run_args(p):
        p.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default="cart")
        p.add_argument("--trace", choices=TRACE_NAMES,
                       default="steep_tri_phase")
        p.add_argument("--controller",
                       choices=("sora", "conscale", "none"),
                       default="sora")
        p.add_argument("--autoscaler",
                       choices=("firm", "vpa", "hpa", "none"),
                       default="firm")
        p.add_argument("--duration", type=float, default=240.0)
        p.add_argument("--peak-users", type=int, default=450)
        p.add_argument("--min-users", type=int, default=80)
        p.add_argument("--sla", type=float, default=0.4,
                       help="end-to-end SLA in seconds")
        p.add_argument("--seed", type=int, default=42)

    run_parser = sub.add_parser("run", help="run one scenario")
    add_run_args(run_parser)
    compare_parser = sub.add_parser(
        "compare",
        help="run hardware-only vs the chosen controller side by side")
    add_run_args(compare_parser)

    bench = sub.add_parser(
        "bench",
        help="kernel performance suite (events/sec, requests/sec, "
             "parallel fan-out speedup)")
    bench.add_argument("--scale", type=float, default=1.0,
                       help="workload multiplier (smoke: < 1.0)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="best-of count per benchmark")
    bench.add_argument("--workers", type=int, default=None,
                       help="worker processes for the fan-out bench "
                            "(default: CPU count)")
    bench.add_argument("--no-parallel", action="store_true",
                       help="skip the parallel fan-out benchmark")
    bench.add_argument("--no-scale-sweep", action="store_true",
                       help="skip the 10k-1M user scale sweep "
                            "(heap timer churn, DES point, fluid "
                            "diurnal day)")
    bench.add_argument("--output", default=None, metavar="PATH",
                       help="also write the JSON report here "
                            "(e.g. benchmarks/results/"
                            "BENCH_kernel.json)")

    hybrid = sub.add_parser(
        "hybrid",
        help="hybrid fluid/DES: simulate a short head for calibration, "
             "sweep the rest of the trace analytically (a million-user "
             "day in seconds)")
    hybrid.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="cart")
    hybrid.add_argument("--trace",
                        choices=TRACE_NAMES + ("diurnal",),
                        default="diurnal")
    hybrid.add_argument("--duration", type=float, default=86400.0,
                        help="target trace horizon in seconds")
    hybrid.add_argument("--peak-users", type=int, default=1_000_000)
    hybrid.add_argument("--min-users", type=int, default=50_000)
    hybrid.add_argument("--des-window", type=float, default=60.0,
                        help="simulated seconds of DES head used to "
                             "calibrate the fluid model")
    hybrid.add_argument("--interval", type=float, default=60.0,
                        help="fluid sweep sampling interval")
    hybrid.add_argument("--calibration-users", type=int, default=80,
                        help="flat population for the DES head")
    hybrid.add_argument("--controller",
                        choices=("sora", "conscale", "none"),
                        default="none")
    hybrid.add_argument("--autoscaler",
                        choices=("firm", "vpa", "hpa", "none"),
                        default="none")
    hybrid.add_argument("--sla", type=float, default=0.4)
    hybrid.add_argument("--seed", type=int, default=42)

    obs = sub.add_parser(
        "obs",
        help="observability: run a scenario with the audit trail on "
             "and render the explainability report")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="run one scenario with observability enabled and explain "
             "every adaptation decision")
    def add_sampler_args(p):
        p.add_argument("--sampler", choices=("none", "head", "tail"),
                       default="none",
                       help="trace sampler for the live run's "
                            "warehouse: 'tail' retains every "
                            "SLO-violating/cancelled trace and "
                            "downsamples the healthy bulk; 'head' "
                            "flips a coin up front")
        p.add_argument("--sample-rate", type=float, default=0.1,
                       help="bulk keep probability (default 0.1)")

    add_run_args(report)
    add_sampler_args(report)
    report.add_argument("--html", default=None, metavar="PATH",
                        help="also write an HTML report here")
    report.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write the decision log as JSONL here")
    report.add_argument("--traces-out", default=None, metavar="PATH",
                        help="write decision-tagged Jaeger traces here")
    report.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="also stream repro.* logs to stderr")

    def add_telemetry_source_args(p):
        p.add_argument("--input", default=None, metavar="PATH",
                       help="render a persisted run (from --save or "
                            "save_result) instead of running live")
        p.add_argument("--save", default=None, metavar="PATH",
                       help="persist the live run's result (with "
                            "telemetry) here")
        p.add_argument("--slo-objective", type=float, default=0.99,
                       help="SLO good-fraction objective for the live "
                            "run (default 0.99; threshold is --sla)")

    dashboard = obs_sub.add_parser(
        "dashboard",
        help="annotated telemetry dashboard (self-contained HTML or "
             "text sparklines) for a live or persisted run")
    add_run_args(dashboard)
    add_sampler_args(dashboard)
    add_telemetry_source_args(dashboard)
    dashboard.add_argument("--html", default=None, metavar="PATH",
                           help="write the self-contained HTML "
                                "dashboard here")
    dashboard.add_argument("--text", action="store_true",
                           help="print text sparklines even when "
                                "--html is given")

    export = obs_sub.add_parser(
        "export",
        help="expose the metrics registry + final SLO state in "
             "OpenMetrics text format")
    add_run_args(export)
    add_sampler_args(export)
    add_telemetry_source_args(export)
    export.add_argument("--format", choices=("openmetrics",),
                        default="openmetrics")
    export.add_argument("--output", default=None, metavar="PATH",
                        help="write the exposition here instead of "
                             "stdout")

    trends = obs_sub.add_parser(
        "trends",
        help="longitudinal perf trends: aggregate committed "
             "BENCH_*.json reports and matrix index.json files into "
             "a regression-timeline HTML report")
    trends.add_argument("paths", nargs="*",
                        default=["BENCH_kernel.json", "benchmarks"],
                        metavar="PATH",
                        help="artifact files or directories to sweep "
                             "(default: BENCH_kernel.json + "
                             "benchmarks/)")
    trends.add_argument("--output", default="trends.html",
                        metavar="PATH",
                        help="write the self-contained HTML report "
                             "here (default trends.html)")
    trends.add_argument("--threshold", type=float, default=20.0,
                        help="callout threshold in percent for "
                             "consecutive-artifact moves (default 20)")
    trends.add_argument("--title", default="repro perf trends")

    faults = sub.add_parser(
        "faults",
        help="fault injection: run a scenario under a JSON fault plan")
    faults_sub = faults.add_subparsers(dest="faults_command",
                                       required=True)
    faults_run = faults_sub.add_parser(
        "run",
        help="run one scenario with a fault plan injected and report "
             "fault transitions + goodput impact")
    add_run_args(faults_run)
    faults_run.add_argument("--plan", required=True, metavar="PATH",
                            help="JSON fault plan (see 'faults example')")
    faults_run.add_argument("--report", action="store_true",
                            help="also render the full observability "
                                 "report (faults + decisions)")
    faults_run.add_argument("--jsonl", default=None, metavar="PATH",
                            help="write the decision log (including "
                                 "fault records) as JSONL here")
    faults_sub.add_parser(
        "example",
        help="print a sample fault plan covering every fault kind")

    zoo = sub.add_parser(
        "zoo",
        help="generated scenario archetypes (repro.scenarios.zoo)")
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)
    zoo_sub.add_parser("list", help="list the generator archetypes")
    zoo_show = zoo_sub.add_parser(
        "show",
        help="print one generated topology's canonical structural "
             "JSON (the golden-snapshot form)")
    zoo_show.add_argument("--archetype", required=True,
                          help="archetype name (see 'zoo list')")
    zoo_show.add_argument("--shards", type=int, default=4)
    zoo_show.add_argument("--storm-at", type=float, default=None,
                          help="cache_aside invalidation-storm start")
    zoo_show.add_argument("--seed", type=int, default=42)

    matrix = sub.add_parser(
        "matrix",
        help="matrix runner: topology x workload x fault x controller "
             "grids over generated scenarios")
    matrix_sub = matrix.add_subparsers(dest="matrix_command",
                                       required=True)
    matrix_run = matrix_sub.add_parser(
        "run",
        help="run a cell grid, persist per-cell JSONs, and write a "
             "queryable index (REPRO_EXAMPLE_SMOKE=1 shrinks to a "
             "CI mini-matrix)")
    matrix_run.add_argument("--out", default=None, metavar="DIR",
                            help="results directory (default: "
                                 "benchmarks/results/matrix, or "
                                 ".../smoke/matrix under "
                                 "REPRO_EXAMPLE_SMOKE=1)")
    matrix_run.add_argument("--archetypes", default=None,
                            help="comma-separated archetype names")
    matrix_run.add_argument("--traces", default=None,
                            help="comma-separated trace names")
    matrix_run.add_argument("--faults", default=None,
                            help="comma-separated zoo fault kinds")
    matrix_run.add_argument("--controllers", default=None,
                            help="comma-separated controller kinds")
    matrix_run.add_argument("--autoscaler",
                            choices=("firm", "vpa", "hpa", "none"),
                            default="hpa")
    matrix_run.add_argument("--duration", type=float, default=90.0)
    matrix_run.add_argument("--peak-users", type=int, default=100)
    matrix_run.add_argument("--min-users", type=int, default=25)
    matrix_run.add_argument("--sla", type=float, default=0.4)
    matrix_run.add_argument("--seed", type=int, default=42)
    matrix_run.add_argument("--parallel", action="store_true",
                            help="fan cells out over worker processes")
    matrix_run.add_argument("--workers", type=int, default=None)
    matrix_run.add_argument("--rerun-check", action="store_true",
                            help="re-run every cell and verify "
                                 "byte-identical replay fingerprints")
    matrix_run.add_argument("--telemetry", action="store_true",
                            help="stream per-cell telemetry with tail "
                                 "sampling and emit a dashboard HTML + "
                                 "sampling-coverage JSON next to each "
                                 "cell result, linked from index.html")

    def add_service_config_args(p):
        p.add_argument("--sla", type=float, default=0.4,
                       help="end-to-end SLA in seconds")
        p.add_argument("--round-interval", type=float, default=15.0,
                       help="logical seconds one control round "
                            "advances the service clock")
        p.add_argument("--window", type=float, default=120.0,
                       help="logical seconds of <Q, GP> pairs per "
                            "round")
        p.add_argument("--utilization-threshold", type=float,
                       default=0.7)
        p.add_argument("--max-pending", type=int, default=256,
                       help="snapshots allowed to queue between "
                            "rounds before HTTP 429")
        p.add_argument("--decide-top-k", type=int, default=1,
                       help="correlation-ranked services estimated "
                            "per round (0 = every series)")
        p.add_argument("--min-samples", type=int, default=30,
                       help="scatter-model minimum pair count")
        p.add_argument("--min-distinct", type=int, default=5,
                       help="scatter-model minimum distinct "
                            "concurrency levels")
        p.add_argument("--quantum", type=float, default=1.0,
                       help="scatter-model concurrency grid")
        p.add_argument("--latency-slo", type=float, default=0.25,
                       help="wall seconds one recommendation may "
                            "take (controller's own SLO)")
        p.add_argument("--exclude", action="append",
                       default=None, metavar="SERVICE",
                       help="service never nominated as critical "
                            "(repeatable; replaces the default of "
                            "front-end; pass an empty string to "
                            "exclude nothing)")
        p.add_argument("--flight-rounds", type=int, default=256,
                       help="control rounds the self-tracing flight "
                            "recorder retains (0 disables "
                            "self-tracing entirely)")

    def add_journal_lifecycle_args(p):
        p.add_argument("--journal-segment-bytes", type=int, default=0,
                       help="rotate the audit journal into a numbered "
                            "segment once the active file reaches "
                            "this many bytes (0 = never)")
        p.add_argument("--journal-segment-age", type=float,
                       default=0.0,
                       help="rotate once the active segment spans "
                            "this many logical seconds (0 = never)")
        p.add_argument("--journal-compact", action="store_true",
                       help="collapse closed segments into a "
                            "checkpoint entry after each rotation "
                            "(drops superseded snapshots, keeps "
                            "every decision; replay stays "
                            "byte-identical)")
        p.add_argument("--log-level", default=None,
                       choices=("debug", "info", "warning", "error"),
                       help="stream repro.* logs to stderr")

    serve = sub.add_parser(
        "serve",
        help="run the standalone Sora control-plane service "
             "(asyncio HTTP JSON API)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address; the API is unauthenticated, "
                            "so non-loopback binds expose ingestion "
                            "and /admin/shutdown to the network")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--cadence", type=float, default=0.0,
                       help="wall seconds between automatic control "
                            "rounds (0 = rounds only via "
                            "POST /control/tick)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="JSONL audit journal of accepted stimuli")
    serve.add_argument("--decisions", default=None, metavar="PATH",
                       help="decision-log JSONL, rewritten each round")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here after startup")
    add_service_config_args(serve)
    add_journal_lifecycle_args(serve)

    service = sub.add_parser(
        "service",
        help="drive or audit a running control-plane service")
    service_sub = service.add_subparsers(dest="service_command",
                                         required=True)
    service_drive = service_sub.add_parser(
        "drive",
        help="point the simulator at a service as a load generator")
    service_drive.add_argument("--url", default=None,
                               help="base URL of a running service")
    service_drive.add_argument("--spawn", action="store_true",
                               help="boot a serve subprocess, drive "
                                    "it, shut it down, verify replay")
    service_drive.add_argument("--scenario",
                               choices=sorted(SCENARIOS),
                               default="cart")
    service_drive.add_argument("--trace", choices=TRACE_NAMES,
                               default="steep_tri_phase")
    service_drive.add_argument("--duration", type=float, default=120.0)
    service_drive.add_argument("--interval", type=float, default=0.5,
                               help="simulated seconds per exported "
                                    "snapshot")
    service_drive.add_argument("--tick-every", type=float,
                               default=15.0,
                               help="simulated seconds between forced "
                                    "control rounds")
    service_drive.add_argument("--seed", type=int, default=42)
    service_drive.add_argument("--peak-users", type=int, default=250)
    service_drive.add_argument("--min-users", type=int, default=40)
    service_drive.add_argument("--autoscaler",
                               choices=("firm", "vpa", "hpa", "none"),
                               default="none")
    service_drive.add_argument("--apply", action="store_true",
                               help="apply recommendations back onto "
                                    "the simulated pool")
    service_drive.add_argument("--traces-per-batch", type=int,
                               default=200)
    service_drive.add_argument("--out", default=None, metavar="DIR",
                               help="write drive.json + report.txt "
                                    "(and spawn artifacts) here")
    service_drive.add_argument("--expect-recommendation",
                               action="store_true",
                               help="exit non-zero unless at least "
                                    "one recommendation was served")
    add_service_config_args(service_drive)
    add_journal_lifecycle_args(service_drive)
    service_replay = service_sub.add_parser(
        "replay",
        help="re-derive the decision log from a journal and verify "
             "byte-identity")
    service_replay.add_argument("--journal", required=True)
    service_replay.add_argument("--decisions", required=True)
    add_service_config_args(service_replay)

    validate = sub.add_parser(
        "validate",
        help="validation subsystem: theory conformance and replay")
    validate_sub = validate.add_subparsers(dest="validate_command",
                                           required=True)
    conf = validate_sub.add_parser(
        "conformance",
        help="check the simulator against exact MVA on a scenario "
             "family")
    conf.add_argument("--scenario", action="append", default=None,
                      help="run only this scenario (repeatable; "
                           "default: the whole family)")
    conf.add_argument("--seed", type=int, default=17)
    conf.add_argument("--replications", type=int, default=2)
    conf.add_argument("--duration-scale", type=float, default=1.0,
                      help="scale scenario durations (sub-unity for "
                           "smoke runs; tolerances assume 1.0)")
    conf.add_argument("--verbose", action="store_true",
                      help="per-station residence and queue detail")
    replay = validate_sub.add_parser(
        "replay",
        help="verify deterministic replay (same seed => identical "
             "event stream, in-process and across processes)")
    replay.add_argument("--scenario", default="tandem_balanced")
    replay.add_argument("--seed", type=int, default=17)
    replay.add_argument("--duration", type=float, default=40.0)
    replay.add_argument("--no-subprocess", action="store_true",
                        help="skip the spawned-subprocess run")
    replay.add_argument("--perturb-at", type=float, default=None,
                        help="inject a divergence at this simulated "
                             "time to demonstrate detection")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "traces":
        return cmd_traces(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "hybrid":
        return cmd_hybrid(args)
    if args.command == "obs":
        if args.obs_command == "report":
            return cmd_obs_report(args)
        if args.obs_command == "dashboard":
            return cmd_obs_dashboard(args)
        if args.obs_command == "export":
            return cmd_obs_export(args)
        if args.obs_command == "trends":
            return cmd_obs_trends(args)
    if args.command == "faults":
        if args.faults_command == "run":
            return cmd_faults_run(args)
        if args.faults_command == "example":
            return cmd_faults_example(args)
    if args.command == "zoo":
        if args.zoo_command == "list":
            return cmd_zoo_list(args)
        if args.zoo_command == "show":
            return cmd_zoo_show(args)
    if args.command == "matrix":
        if args.matrix_command == "run":
            return cmd_matrix_run(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "service":
        if args.service_command == "drive":
            return cmd_service_drive(args)
        if args.service_command == "replay":
            return cmd_service_replay(args)
    if args.command == "validate":
        if args.validate_command == "conformance":
            return cmd_validate_conformance(args)
        if args.validate_command == "replay":
            return cmd_validate_replay(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
