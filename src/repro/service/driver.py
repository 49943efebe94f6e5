"""Load generator: point the simulator at a running control plane.

This closes the loop the tentpole asks for — the DES simulator plays
the role of "any system" and the service plays the controller:

1. build an uncontrolled scenario (``controller="none"``) and step its
   environment in wall-bounded chunks;
2. after each chunk, render a hand-written OpenMetrics snapshot (the
   same exposition format the strict parser accepts): per-service
   utilization from the monitoring module, plus the soft-resource
   target's ``<concurrency, goodput>`` interval means from a
   :class:`~repro.metrics.sampler.ConcurrencyGoodputSampler`;
3. export the chunk's finished traces as a Jaeger-shaped batch;
4. POST both to the service, forcing a control round every
   ``tick_every`` simulated seconds;
5. optionally apply returned recommendations back onto the simulated
   pool (``apply=True``), making the external service the closed-loop
   controller of the simulation.

The HTTP client is stdlib ``urllib`` — the driver deliberately talks
to the service the way an external exporter would, over real sockets,
not via in-process calls.
"""

from __future__ import annotations

import json
import time as _time
import typing as _t
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from repro.experiments import (
    social_network_drift_scenario,
    sock_shop_cart_scenario,
    sock_shop_catalogue_scenario,
)
from repro.metrics.sampler import ConcurrencyGoodputSampler
from repro.tracing.export import export_traces
from repro.workloads import build_trace

__all__ = ["DriveReport", "drive", "render_snapshot"]

SCENARIOS = {
    "cart": sock_shop_cart_scenario,
    "catalogue": sock_shop_catalogue_scenario,
    "drift": social_network_drift_scenario,
}


@dataclass
class DriveReport:
    """Outcome of one drive session against a running service.

    Attributes:
        duration: simulated seconds driven.
        snapshots / trace_batches / ticks: requests issued per kind.
        traces_sent: finished traces shipped in Jaeger batches.
        applied: ``(time, service, allocation)`` recommendations the
            driver applied back onto the simulation (``apply=True``).
        recommendations: the service's final recommendation map.
        status: the service's final ``/status`` body.
    """

    duration: float
    snapshots: int = 0
    trace_batches: int = 0
    ticks: int = 0
    traces_sent: int = 0
    applied: list[tuple[float, str, int]] = field(default_factory=list)
    recommendations: dict[str, dict] = field(default_factory=dict)
    status: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready summary."""
        return {
            "duration": self.duration,
            "snapshots": self.snapshots,
            "trace_batches": self.trace_batches,
            "ticks": self.ticks,
            "traces_sent": self.traces_sent,
            "applied": [[t, s, a] for t, s, a in self.applied],
            "recommendations": self.recommendations,
            "status": self.status,
        }


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def render_snapshot(now: float, utilization: dict[str, float],
                    concurrency: dict[str, float],
                    goodput: dict[str, float],
                    allocation: dict[str, int] | None = None, *,
                    label: str = "service",
                    prefix: str = "sora") -> str:
    """Render one scrape in the exposition the service ingests.

    The output parses under the strict OpenMetrics line grammar that
    :func:`repro.obs.parse_openmetrics` and
    :func:`repro.service.parse_metrics_snapshot` share; family names
    follow the service's defaults (``sora_concurrency``,
    ``sora_goodput``, ``sora_utilization``, ``sora_allocation``,
    ``sora_now``).
    """
    lines: list[str] = []

    def family(name: str, values: _t.Mapping[str, float]) -> None:
        if not values:
            return
        lines.append(f"# TYPE {prefix}_{name} gauge")
        for service in sorted(values):
            value = float(values[service])
            lines.append(
                f'{prefix}_{name}{{{label}="{_escape(service)}"}} '
                f"{value:.10g}")

    lines.append(f"# TYPE {prefix}_now gauge")
    lines.append(f"{prefix}_now {now:.10g}")
    family("concurrency", concurrency)
    family("goodput", goodput)
    family("utilization", utilization)
    if allocation:
        family("allocation", {k: float(v)
                              for k, v in allocation.items()})
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class ServiceClient:
    """Tiny stdlib HTTP client for the service's JSON API."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, method: str, path: str,
                body: str | bytes | None = None,
                content_type: str = "text/plain") -> dict:
        """One request; JSON bodies are decoded, errors raised."""
        data = (body.encode("utf-8") if isinstance(body, str)
                else body)
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": content_type} if data else {})
        with urllib.request.urlopen(request,
                                    timeout=self.timeout) as reply:
            text = reply.read().decode("utf-8")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return {"text": text}

    def wait_healthy(self, attempts: int = 50,
                     delay: float = 0.1) -> dict:
        """Poll ``/healthz`` until the service answers."""
        last: Exception | None = None
        for _attempt in range(attempts):
            try:
                return self.request("GET", "/healthz")
            except (urllib.error.URLError, ConnectionError) as exc:
                last = exc
                _time.sleep(delay)
        raise RuntimeError(
            f"service at {self.base_url} never became healthy: {last}")


def drive(url: str, *, scenario: str = "cart",
          trace: str = "steep_tri_phase", duration: float = 120.0,
          interval: float = 0.5, tick_every: float = 15.0,
          sla: float = 0.4, seed: int = 42, peak_users: int = 250,
          min_users: int = 40, autoscaler: str = "none",
          apply: bool = False, traces_per_batch: int = 200,
          client: ServiceClient | None = None) -> DriveReport:
    """Drive a simulated workload into the service at ``url``.

    Args:
        url: service base URL (e.g. ``http://127.0.0.1:8787``).
        scenario: ``cart`` / ``catalogue`` / ``drift``.
        trace: workload trace shape name.
        duration: simulated seconds to drive.
        interval: simulated seconds per exported snapshot.
        tick_every: simulated seconds between forced control rounds.
        sla: end-to-end SLA handed to the scenario and used as the
            goodput threshold the exporter measures against.
        seed / peak_users / min_users: workload shaping.
        autoscaler: hardware autoscaler kind for the scenario
            (``none`` keeps the pool the only control surface).
        apply: apply returned recommendations onto the simulated pool
            after each tick (full closed loop).
        traces_per_batch: cap on traces shipped per chunk.
        client: injected HTTP client (tests); defaults to a
            :class:`ServiceClient` for ``url``.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r} "
                         f"(have {sorted(SCENARIOS)})")
    http = client if client is not None else ServiceClient(url)
    http.wait_healthy()

    workload = build_trace(trace, duration=duration,
                           peak_users=peak_users, min_users=min_users)
    built = SCENARIOS[scenario](
        trace=workload, controller="none",
        autoscaler=_t.cast(_t.Any, autoscaler), sla=sla, seed=seed)
    env, app, target = built.env, built.app, built.target
    assert target is not None
    monitoring = built.monitoring
    monitoring.start()
    if built.autoscaler is not None:
        built.autoscaler.start()
    sampler = ConcurrencyGoodputSampler(
        env, target.concurrency_integral,
        lambda since, until: target.completion_latencies(since, until),
        threshold_provider=lambda: sla,
        name=f"drive:{target.name}")
    sampler.start()
    for load in built.drivers:
        load.start()

    report = DriveReport(duration=duration)
    service_name = target.service.name
    next_tick = tick_every
    steps = max(1, int(round(duration / interval)))
    last_t = 0.0
    for step in range(1, steps + 1):
        t = min(duration, step * interval)
        env.run(until=t)
        chunk = t - last_t
        concurrency_values, goodput_values = sampler.pairs(last_t, t)
        if concurrency_values.size:
            pairs = {service_name: float(concurrency_values.mean())}
            rates = {service_name: float(goodput_values.mean())}
        else:
            pairs = {service_name: float(target.concurrency())}
            rates = {service_name: 0.0}
        utilization = {name: monitoring.utilization_over(name, chunk)
                       for name in app.services}
        snapshot = render_snapshot(
            t, utilization, pairs, rates,
            {service_name: target.allocation()})
        http.request("POST", "/ingest/openmetrics", snapshot,
                     content_type="application/openmetrics-text")
        report.snapshots += 1

        roots = app.warehouse.traces(last_t, t)
        if roots:
            roots = roots[:traces_per_batch]
            http.request("POST", "/ingest/jaeger",
                         export_traces(roots),
                         content_type="application/json")
            report.trace_batches += 1
            report.traces_sent += len(roots)

        if t >= next_tick or step == steps:
            reply = http.request("POST", "/control/tick", b"")
            report.ticks += 1
            next_tick += tick_every
            if apply:
                recs = reply.get("recommendations", {})
                rec = recs.get(service_name)
                if rec and rec["allocation"] != target.allocation():
                    target.apply(int(rec["allocation"]))
                    report.applied.append(
                        (t, service_name, int(rec["allocation"])))
        last_t = t

    report.recommendations = http.request(
        "GET", "/recommendations")["recommendations"]
    report.status = http.request("GET", "/status")
    return report
