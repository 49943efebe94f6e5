"""The benchmark's four workloads; each run happens in its own process.

``python bench/workloads.py WORKLOAD --seed N --seconds S --result PATH``
runs one workload and writes its result as JSON to ``PATH``.
``bench/run.py`` starts this script once per run (plus the set-up probes
below) and turns the results into metrics; use that instead.

Set-up time is measured from this process's entry to the point where
the workload is ready: imports plus the scenario or control plane built,
or the server answering ``/healthz``. Payload generation is excluded.
``--setup-only`` stops there, which is how the orchestrator takes
several set-up samples in one run.

A *rep* is one fixed unit of work: one whole scenario, or one fresh
control plane through its timed rounds. An untraced run makes a fixed
number of reps (:func:`rep_count`); the metrics keep each unit's
fastest repetition (see :func:`fastest`). The HTTP workload instead
serves one request plan to two fresh servers. A traced
run (``--trace 1``) makes exactly one untraced and one traced rep (or
server), checks that both produced the same outputs, and reports the
per-layer ledger of the traced one.
"""

from __future__ import annotations

import time

_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import payloads  # noqa: E402

#: End-to-end SLA of the simulated applications (seconds).
SLA = 0.4
#: Simulated seconds ``run_scenario`` adds for in-flight requests.
DRAIN = 2.0

#: Scenario lengths in simulated seconds. Sock Shop runs the 240 s trace
#: length of the committed Table 2 / Fig. 10 benches (the paper's 720 s,
#: compressed as everywhere in this repo); the observed Social Network
#: run is half that, because observability, sampling and aggregation
#: roughly double its cost per simulated second.
SIM_DURATION = {"sim_cart": 240.0, "sim_drift_observed": 120.0}

#: Nominal seconds of one rep on the 2-vCPU host of bench/README.md.
#: Only :func:`rep_count` reads it.
REP_S = {"sim_cart": 6.5, "sim_drift_observed": 9.0, "svc_rounds_1k": 9.0}

#: Control-plane round workload: 1000 series; a 48-snapshot warm-up
#: fills the 120 s estimation window (2.5 s apart); each timed round is
#: 6 snapshots (one 15 s cadence), one 256-trace batch and one tick.
SERIES = 1000
WARMUP_SNAPSHOTS = 48
ROUNDS = 8
SNAPSHOTS_PER_ROUND = 6
TRACES_PER_ROUND = 256
SNAPSHOT_SPACING = 2.5

#: Mixed HTTP workload: open loop at 100 req/s, one connection at a
#: time; snapshots carry 200 series and are 3 logical seconds apart
#: (7 per block, so each block outruns the 15 s round cadence).
HTTP_RATE = 100.0
HTTP_SERIES = 200
HTTP_TRACES = 64
HTTP_SPACING = 3.0
#: Flags shared by the served plane and the replay check, so both build
#: the same configuration. 1 is also the CLI's default; naming it pins
#: the workload should that default change.
SERVE_FLAGS = ["--decide-top-k", "1"]
#: Requests sent later than this after their due time count as late.
LATE_S = 0.001


def ready_after(payload_s: float) -> float:
    """Set-up seconds so far: process entry until now, minus payloads."""
    return time.perf_counter() - _ENTRY - payload_s


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rep_count(workload: str, seconds: float) -> int:
    """Reps of an untraced run: the nominal reps that fit ``seconds``,
    at least two.

    The count follows ``--seconds`` alone, never how fast the reps ran,
    so a faster program cannot earn an extra rep (and a lower minimum in
    :func:`fastest`) that its code did not.
    """
    return max(2, round(seconds / REP_S[workload]))


def repeat(rep, count: int) -> list[dict]:
    """``count`` untraced runs of ``rep``."""
    reps = []
    for _ in range(count):
        gc.collect()  # the previous rep's garbage, outside the timing
        reps.append(rep(None))
    return reps


def fastest(samples: list[list[float]]) -> list[float]:
    """Each unit's fastest repetition: ``samples[rep][unit]`` -> unit.

    Reps repeat identical work, so unit ``i`` of every rep did the same
    thing. This host slows down in bursts of one to four seconds when
    other tenants contend for its cores (a fixed loop then takes up to
    50% longer); a burst rarely hits the same unit in every rep, so the
    fastest copy of each unit measures the program rather than the
    neighbours.
    """
    return [min(unit) for unit in zip(*samples)]


def traced_pair(rep) -> tuple[dict, dict, layers.Tracer]:
    """One untraced rep, then one with every layer wrapped."""
    gc.collect()
    bare = rep(None)
    gc.collect()
    tracer = layers.Tracer().install()
    try:
        traced = rep(tracer)
    finally:
        tracer.uninstall()
    return bare, traced, tracer


def root(tracer: layers.Tracer | None):
    """The traced rep's root span, or nothing for an untraced rep."""
    return tracer.root() if tracer is not None else contextlib.nullcontext()


def ledger(summary: dict, wall_s: float, extra: dict) -> dict:
    """Per-layer metric values, the summary, and the self-time check."""
    self_sum = sum(stats["self_s"] for stats in summary.values())
    return {
        "metrics": layers.layer_metrics(summary, wall_s, extra),
        "ledger": {"wall_s": wall_s, "self_sum_s": self_sum,
                   "layers": summary},
        "checks": [("self times sum to the traced wall time (5%)",
                    abs(self_sum - wall_s) <= 0.05 * wall_s,
                    f"{self_sum:.4f} s vs {wall_s:.4f} s")],
    }


def overhead_pct(traced_s: float, bare_s: float) -> float:
    return 100.0 * (traced_s - bare_s) / bare_s


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def build_cart(seed: int, duration: float):
    """§5.2: Sock Shop cart, Sora + FIRM, observability off."""
    from repro.experiments.scenarios import sock_shop_cart_scenario
    from repro.workloads import build_trace

    trace = build_trace("steep_tri_phase", duration=duration,
                        peak_users=450, min_users=80)
    return sock_shop_cart_scenario(trace=trace, controller="sora",
                                   autoscaler="firm", seed=seed, sla=SLA)


def build_drift(seed: int, duration: float):
    """Fig. 12 drift run with the whole observation stack attached."""
    import repro.obs as obs_mod
    from repro.core.sora import FrameworkConfig, SoraController
    from repro.experiments.scenarios import social_network_drift_scenario
    from repro.tracing import (
        CriticalPathAggregator,
        TailSampler,
        sampler_stream,
    )
    from repro.workloads import large_variation

    obs = obs_mod.Observability()
    scenario = social_network_drift_scenario(
        trace=large_variation(duration=duration, peak_users=560,
                              min_users=260),
        controller="none", autoscaler="hpa", drift_at=duration / 2.0,
        sla=SLA, obs=obs, seed=seed)
    scenario.app.warehouse.attach(
        sampler=TailSampler(0.1, sampler_stream(scenario.streams),
                            slo_threshold=SLA),
        analytics=CriticalPathAggregator())
    obs.attach_trace_analytics(scenario.app.warehouse)
    scenario.controller = SoraController(
        scenario.env, scenario.app, scenario.monitoring,
        [scenario.target], sla=SLA, autoscaler=scenario.autoscaler,
        obs=obs, config=FrameworkConfig(localize_from_aggregates=True,
                                        detect_drift=True))
    scenario.slo = obs_mod.SLOSpec(name="timeline-rt",
                                   latency_threshold=SLA)
    return scenario


def sim_rep(build, seed: int, duration: float,
            tracer: layers.Tracer | None) -> dict:
    from repro.experiments.harness import run_scenario

    scenario = build(seed, duration)
    # The harness samples probes once per simulated second; this one
    # reads the host clock, splitting the run into per-second units. It
    # feeds nothing back, so the simulated outcome does not change.
    scenario.extra_probes["bench.host_clock"] = time.perf_counter
    started = time.perf_counter()
    with root(tracer):
        result = run_scenario(scenario, duration=duration, drain=DRAIN)
    wall = time.perf_counter() - started
    _times, clock = result.series("bench.host_clock")
    app = scenario.app
    # The scheduling serial counter: every event the run scheduled. Read
    # it only after the run, since reading it advances it.
    events = next(scenario.env._eid)
    return {"wall_s": wall, "sim_s": duration + DRAIN,
            "second_s": [float(b - a) for a, b in zip(clock, clock[1:])],
            "outputs": {
        "events": events,
        "submitted": app.total_submitted,
        "completed": sum(log.total for log in app.latency.values()),
        "failed": app.failed_total,
        "in_flight": app.in_flight,
        "goodput_rps": result.goodput(),
        "sim_p99_ms": result.percentile(99.0) * 1e3,
        "adaptations": len(result.adaptation_actions),
        "scale_events": len(result.scale_events),
    }}


def sim_checks(reps: list[dict]) -> list:
    outputs = [rep["outputs"] for rep in reps]
    return [
        ("every rep: completed + failed + in_flight == submitted",
         all(o["completed"] + o["failed"] + o["in_flight"]
             == o["submitted"] for o in outputs),
         f"{outputs[0]['submitted']} submitted"),
        ("every rep: requests completed under the SLA",
         all(o["goodput_rps"] > 0 for o in outputs),
         f"{outputs[0]['goodput_rps']:.1f} req/s"),
        ("identical outputs from every rep of the seed",
         all(o == outputs[0] for o in outputs), f"{len(reps)} reps")]


def run_sim(args, build) -> dict:
    duration = SIM_DURATION[args.workload] * args.scale
    build(args.seed, duration)  # set-up: imports plus one scenario
    result = {"setup_samples": [ready_after(0.0)]}
    if args.setup_only:
        return result

    def rep(tracer):
        return sim_rep(build, args.seed, duration, tracer)

    if args.trace:
        bare, traced, tracer = traced_pair(rep)
        reps = [bare, traced]
        result.update(ledger(tracer.summary(), traced["wall_s"], {
            "sim.events": traced["outputs"]["events"],
            "trace_overhead_pct": overhead_pct(traced["wall_s"],
                                               bare["wall_s"])}))
        result["spans"] = [("bench", tracer.names, tracer.spans)]
    else:
        reps = repeat(rep, rep_count(args.workload, args.seconds))
        clean_s = sum(fastest([r["second_s"] for r in reps]))
        result["metrics"] = {
            "latency_ms": 1e3 * clean_s / reps[0]["sim_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        result["checks"] = []
    # With a traced run, reps are the untraced and the traced one, so
    # the identity check below compares them.
    result["checks"] += sim_checks(reps)
    result["attempted"] = sum(r["outputs"]["submitted"] for r in reps)
    result["failed"] = sum(r["outputs"]["failed"] for r in reps)
    outputs = reps[0]["outputs"]
    # sim_speed is latency_ms inverted; goodput and P99 are fixed by the
    # seed, so every rep is checked to repeat them instead.
    result["recorded"] = {
        "sim_goodput_rps": [outputs["goodput_rps"], "1/s"],
        "sim_p99_ms": [outputs["sim_p99_ms"], "ms"]}
    if not args.trace:
        result["recorded"]["sim_speed"] = [reps[0]["sim_s"] / clean_s,
                                           "sim_s/s"]
    result["details"] = {
        "simulated_s": duration + DRAIN, "reps": len(reps),
        "rep_wall_s": [r["wall_s"] for r in reps], **outputs}
    return result


# ----------------------------------------------------------------------
# In-process control-plane rounds
# ----------------------------------------------------------------------
def new_plane():
    from repro.service import ControlPlane, ServiceConfig

    return ControlPlane(ServiceConfig(decide_top_k=0))


def rounds_rep(payload: dict, tracer: layers.Tracer | None) -> dict:
    from repro.service import IngestError

    plane = new_plane()
    for text in payload["warmup"]:
        plane.ingest_metrics(text)
    plane.ingest_traces(payload["warmup_traces"])
    ingest_s, tick_s, round_s = [], [], []
    rejected = 0
    clock = time.perf_counter
    started = clock()
    with root(tracer):
        for snapshots, traces in payload["rounds"]:
            round_begun = clock()
            for text in snapshots:
                begun = clock()
                try:
                    plane.ingest_metrics(text)
                except IngestError:
                    rejected += 1
                ingest_s.append(clock() - begun)
            try:
                plane.ingest_traces(traces)
            except IngestError:
                rejected += 1
            begun = clock()
            plane.tick()
            ended = clock()
            tick_s.append(ended - begun)
            round_s.append(ended - round_begun)
    wall = clock() - started
    decisions = plane.decisions_jsonl().encode("utf-8")
    return {"wall_s": wall, "ingest_s": ingest_s, "tick_s": tick_s,
            "round_s": round_s, "rejected": rejected, "outputs": {
                "rounds": plane.rounds,
                "decisions_made": plane.decisions_made,
                "recommendations": len(plane.recommendations),
                "decisions_sha256": hashlib.sha256(decisions).hexdigest(),
            }}


def rounds_checks(reps: list[dict], rounds: int) -> list:
    outputs = [rep["outputs"] for rep in reps]
    return [
        (f"every rep: decisions_made == {SERIES} series x {rounds} rounds",
         all(o["decisions_made"] == SERIES * rounds for o in outputs),
         str(outputs[0]["decisions_made"])),
        ("every rep: every series has a recommendation",
         all(o["recommendations"] == SERIES for o in outputs),
         str(outputs[0]["recommendations"])),
        ("every rep: no snapshot or trace batch rejected",
         all(rep["rejected"] == 0 for rep in reps),
         str(sum(rep["rejected"] for rep in reps))),
        ("identical decision JSONL from every rep",
         all(o == outputs[0] for o in outputs),
         outputs[0]["decisions_sha256"][:16])]


def run_rounds(args) -> dict:
    rounds = max(1, round(ROUNDS * args.scale))
    payload_s = 0.0
    if not args.setup_only:
        begun = time.perf_counter()
        payload = payloads.rounds_payload(
            args.seed, SERIES, WARMUP_SNAPSHOTS, rounds,
            SNAPSHOTS_PER_ROUND, TRACES_PER_ROUND, SNAPSHOT_SPACING)
        payload_s = time.perf_counter() - begun
    new_plane()
    result = {"setup_samples": [ready_after(payload_s)]}
    if args.setup_only:
        return result

    def rep(tracer):
        return rounds_rep(payload, tracer)

    if args.trace:
        bare, traced, tracer = traced_pair(rep)
        reps = [bare, traced]
        result.update(ledger(tracer.summary(), traced["wall_s"], {
            "trace_overhead_pct": overhead_pct(traced["wall_s"],
                                               bare["wall_s"])}))
        result["spans"] = [("bench", tracer.names, tracer.spans)]
        ticks, ingests = bare["tick_s"], bare["ingest_s"]
    else:
        reps = repeat(rep, rep_count(args.workload, args.seconds))
        ticks = fastest([r["tick_s"] for r in reps])
        ingests = fastest([r["ingest_s"] for r in reps])
        # A whole round (its snapshots, its trace batch and the tick) is
        # what a caller feeding the plane waits for, so one metric gates
        # the ingest path and the estimation path together.
        result["metrics"] = {
            "latency_ms": 1e3 * statistics.median(
                fastest([r["round_s"] for r in reps])),
            "peak_rss_mb": peak_rss_mb(),
        }
        result["checks"] = []
    # With a traced run, reps are the untraced and the traced one, so
    # the identity check below compares them.
    result["checks"] += rounds_checks(reps, rounds)
    result["attempted"] = rounds * (SNAPSHOTS_PER_ROUND + 2) * len(reps)
    result["failed"] = sum(r["rejected"] for r in reps)
    result["recorded"] = {
        "round_p50_ms": [1e3 * statistics.median(ticks), "ms"],
        "ingest_p50_ms": [1e3 * statistics.median(ingests), "ms"]}
    result["details"] = {
        "series": SERIES, "rounds_per_rep": rounds, "reps": len(reps),
        "round_samples": len(ticks), "round_max_ms": 1e3 * max(ticks),
        "ingest_samples": len(ingests), **reps[0]["outputs"]}
    return result


# ----------------------------------------------------------------------
# Mixed HTTP traffic against `repro serve`
# ----------------------------------------------------------------------
def _request(port: int, method: str, path: str,
             body: str | None) -> int:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=30.0)
    try:
        data = body.encode("utf-8") if body is not None else None
        headers = {"Content-Type": "text/plain"} if data else {}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def _vm_hwm_mb(pid: int) -> float:
    """A live process's peak resident set size, from ``/proc``."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Server:
    """One ``repro serve`` subprocess with its own journal directory.

    The constructor returns once ``/healthz`` answers; ``setup_s`` is the
    time from spawning the process until then.
    """

    def __init__(self, workdir: pathlib.Path, traced: bool) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.journal = workdir / "journal.jsonl"
        self.decisions = workdir / "decisions.jsonl"
        self.ledger = workdir / "server-ledger.json"
        port_file = workdir / "port"
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--port-file", str(port_file),
                 "--journal", str(self.journal),
                 "--decisions", str(self.decisions), *SERVE_FLAGS]
        if traced:
            command = [sys.executable, str(BENCH / "serve_traced.py"),
                       str(self.ledger), *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.log = (workdir / "server.log").open("w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_healthy(port_file)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, port_file: pathlib.Path) -> int:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; "
                    f"see {self.workdir / 'server.log'}")
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip():
                try:
                    if _request(int(text), "GET", "/healthz", None) == 200:
                        return int(text)
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def stop(self) -> None:
        """Ask for a clean shutdown and wait until the process ends."""
        try:
            _request(self.port, "POST", "/admin/shutdown", "")
            self.process.wait(timeout=60.0)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.log.close()


def open_loop(port: int, plan: list) -> tuple[list, float, float]:
    """Send ``plan`` at :data:`HTTP_RATE`, each request when it is due.

    Returns ``(path, due, sent, done, status)`` per request (status 0 on
    a socket error) and the window's start and end.
    """
    records = []
    clock = time.perf_counter
    start = clock() + 0.01
    for index, (method, path, body) in enumerate(plan):
        due = start + index / HTTP_RATE
        while clock() < due:  # spin: see pin_to_one_cpu()
            pass
        sent = clock()
        try:
            status = _request(port, method, path, body)
        except OSError:
            status = 0
        records.append((path, due, sent, clock(), status))
    return records, start, clock()


def replay_matches(server: Server) -> tuple[bool, str]:
    """Re-derive the served decisions from the journal via the CLI."""
    from repro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["service", "replay",
                         "--journal", str(server.journal),
                         "--decisions", str(server.decisions),
                         *SERVE_FLAGS])
    return code == 0, out.getvalue().strip()


def http_session(workdir: pathlib.Path, plan: list, traced: bool) -> dict:
    from repro.service import verify_chain

    label = f"{workdir.name} server" + (" (traced)" if traced else "")
    server = Server(workdir, traced)
    try:
        records, start, end = open_loop(server.port, plan)
        rss = _vm_hwm_mb(server.process.pid)
    finally:
        server.stop()
    chain_ok, chain_detail = verify_chain(server.journal)
    replay_ok, replay_detail = replay_matches(server)
    bad = sum(1 for record in records if not 200 <= record[4] < 300)
    session = {
        "records": records, "start": start, "end": end, "rss_mb": rss,
        "setup_s": server.setup_s,
        "decisions": server.decisions.read_bytes(),
        "checks": [
            (f"{label}: journal chain intact", chain_ok, chain_detail),
            (f"{label}: journal replay reproduces the served decisions",
             replay_ok, replay_detail),
            (f"{label}: every request answered 2xx", bad == 0,
             f"{bad} of {len(records)} not")]}
    if traced:
        session["server"] = json.loads(server.ledger.read_text())
    return session


def http_ledger(traced: dict, bare: dict) -> dict:
    """Client request spans with the server's wrapped calls inside."""
    records = traced["records"]
    requests = [(index + 2, sent, done)
                for index, (_p, _d, sent, done, _s) in enumerate(records)]
    server, covered, server_spans, uncontained = layers.fold_server(
        requests, traced["server"])
    wall = traced["end"] - traced["start"]
    names = [layers.ROOT]
    client_spans = [(1, 0, 0, traced["start"], traced["end"])]
    summary = dict(server)
    summary[layers.ROOT] = {"calls": 1, "total_s": wall, "self_s": wall,
                            "hits": 0}
    for (path, _due, sent, done, _status), (span_id, _s, _e), inside in \
            zip(records, requests, covered):
        name = f"http.{layers.ROUTES[path]}"
        if name not in names:
            names.append(name)
            summary[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                             "hits": 0}
        stats = summary[name]
        stats["calls"] += 1
        stats["total_s"] += done - sent
        stats["self_s"] += done - sent - inside
        summary[layers.ROOT]["self_s"] -= done - sent
        client_spans.append((span_id, 1, names.index(name), sent, done))
    statuses = [record[4] for record in records]
    busy = sum(done - sent for _p, _d, sent, done, _s in records)
    bare_busy = sum(done - sent for _p, _d, sent, done, _s
                    in bare["records"])
    result = ledger(summary, wall, {
        "http.self_pct": 100.0 * sum(
            stats["self_s"] for name, stats in summary.items()
            if name.startswith("http.")) / wall,
        "http.status.2xx": sum(1 for s in statuses if 200 <= s < 300),
        "http.status.other": sum(1 for s in statuses
                                 if not 200 <= s < 300),
        "gen.late_pct": 100.0 * sum(
            1 for _p, due, sent, _d, _s in records
            if sent - due > LATE_S) / len(records),
        "trace_overhead_pct": overhead_pct(busy, bare_busy)})
    result["ledger"]["uncontained_server_spans"] = uncontained
    result["spans"] = [("client", names, client_spans),
                       ("server", traced["server"]["names"],
                        server_spans)]
    return result


def latency_s(records: list) -> list[float]:
    """Seconds from due to response; a failed request never arrives."""
    return [done - due if 200 <= status < 300 else float("inf")
            for _path, due, _sent, done, status in records]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def pin_to_one_cpu() -> None:
    """Keep this process and the servers it starts on one CPU.

    With the client sleeping between requests, both vCPUs of a virtual
    machine halt, and every request then waits for the host to schedule
    them again: under contention from other tenants that added up to 85%
    to the median. On one CPU, with the client spinning until each
    request is due, the CPU never halts and no wakeup crosses CPUs. The
    client and server take turns anyway (one connection at a time).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_http(args) -> dict:
    if args.setup_only:
        raise SystemExit("svc_http_mixed takes its set-up samples itself")
    pin_to_one_cpu()
    # Two fresh servers take the identical plan for half the window each.
    # In a traced run the second one is traced; otherwise the pair gives
    # every request a repetition (see fastest()).
    requests = max(len(payloads.BLOCK),
                   int(HTTP_RATE * args.seconds * args.scale / 2))
    plan = payloads.http_payload(args.seed, requests, HTTP_SERIES,
                                 HTTP_TRACES, HTTP_SPACING)
    work = pathlib.Path(args.workdir)

    def probe_setups(names: list[str]) -> list[float]:
        """Start and stop a server per name; their set-up seconds."""
        setups = []
        for name in names:
            probe = Server(work / name, traced=False)
            setups.append(probe.setup_s)
            probe.stop()
        return setups

    # Extra server starts before and after the sessions, so that set-up
    # time is a median of five, spread over the run.
    setups = [] if args.trace else probe_setups(["probe0"])
    first = http_session(work / "first", plan, traced=False)
    second = http_session(work / "second", plan, traced=bool(args.trace))
    sessions = [first, second]
    setups += [session["setup_s"] for session in sessions]
    if not args.trace:
        setups += probe_setups(["probe1", "probe2"])
    result = {"setup_samples": setups,
              "checks": first["checks"] + second["checks"] + [(
                  "both servers served the same decisions",
                  first["decisions"] == second["decisions"], "")]}
    if args.trace:
        ledger_result = http_ledger(second, first)
        result["checks"] += ledger_result.pop("checks")
        result.update(ledger_result)
        latencies = latency_s(first["records"])
    else:
        latencies = fastest([latency_s(s["records"]) for s in sessions])
        result["metrics"] = {
            "latency_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": max(s["rss_mb"] for s in sessions),
        }
    result["attempted"] = sum(len(s["records"]) for s in sessions)
    result["failed"] = sum(1 for s in sessions for r in s["records"]
                           if not 200 <= r[4] < 300)
    records = first["records"]
    by_route: dict[str, list[float]] = {}
    for path, due, _sent, finished, _status in records:
        by_route.setdefault(path, []).append(finished - due)
    # req_p50_ms is the gated latency_ms of an untraced run.
    result["recorded"] = {
        "req_p50_ms": [1e3 * statistics.median(latencies), "ms"],
        "req_p99_ms": [1e3 * nearest_rank(latencies, 0.99), "ms"]}
    result["details"] = {
        "requests_per_session": len(records), "rate_per_s": HTTP_RATE,
        "busy_pct": 100.0 * sum(done - sent for _p, _d, sent, done, _s
                                in records) / (first["end"] - first["start"]),
        "beyond_p99": len(records) - 1 - int(0.99 * len(records)),
        "gen_lag_p99_ms": 1e3 * nearest_rank(
            [sent - due for _p, due, sent, _d, _s in records], 0.99),
        "route_p50_ms": {path: 1e3 * statistics.median(values)
                         for path, values in sorted(by_route.items())},
        "server_setups_s": setups,
    }
    return result


WORKLOADS = {
    "sim_cart": lambda args: run_sim(args, build_cart),
    "sim_drift_observed": lambda args: run_sim(args, build_drift),
    "svc_rounds_1k": run_rounds,
    "svc_http_mixed": run_http,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True,
                        help="where to write the result JSON")
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (HTTP journals)")
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](args)
    spans = result.pop("spans", None)
    if spans is not None and args.spans:
        result["spans_written"] = layers.write_spans(
            pathlib.Path(args.spans), spans)
    pathlib.Path(args.result).write_text(
        json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
