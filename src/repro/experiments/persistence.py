"""Persist scenario results to JSON for offline post-processing.

A :class:`~repro.experiments.harness.ScenarioResult` holds everything a
figure needs (latency log, probe series, action logs); saving it lets
plotting or statistics happen outside the simulation process — the
analogue of archiving a testbed run's metrics dump.
"""

from __future__ import annotations

import json
import typing as _t

import numpy as np

import repro.obs as obs_mod
from repro.autoscalers.base import ScaleEvent
from repro.core.sora import AdaptationAction
from repro.experiments.harness import ScenarioResult
from repro.obs.events import FaultRecord
from repro.obs.slo import SLOMonitor
from repro.obs.timeline import Timeline

FORMAT_VERSION = 1


def _telemetry_to_dict(obs: "obs_mod.Observability") -> dict | None:
    """Timeline + decision log + SLO state, when the run captured any.

    The payload is what ``repro obs dashboard``/``export`` need to
    render a persisted run without re-simulating it.
    """
    if not obs:
        return None
    payload: dict[str, _t.Any] = {}
    if obs.timeline and len(obs.timeline):
        payload["timeline"] = obs.timeline.to_dict()
    if len(obs.decisions):
        payload["decisions"] = [record.to_dict()
                                for record in obs.decisions]
    if obs.slo is not None:
        payload["slo"] = obs.slo.state_dict()
    metrics = obs.registry.snapshot()
    if metrics:
        payload["metrics"] = metrics
    return payload or None


def _telemetry_from_dict(payload: dict | None
                         ) -> "obs_mod.Observability":
    """Rebuild an enabled Observability scope from persisted telemetry.

    Only the persisted halves are restored (timeline, decision log,
    SLO state); the flight recorder starts empty and the metrics
    snapshot — being point-in-time summaries, not instruments — is
    kept on the returned scope as ``restored_metrics``.
    """
    if not payload:
        return obs_mod.NULL
    obs = obs_mod.Observability(enabled=True)
    timeline = payload.get("timeline")
    if timeline:
        obs.timeline = Timeline.from_dict(timeline)
    for record in payload.get("decisions", ()):
        obs.decisions.append(obs_mod.record_from_dict(record))
    slo = payload.get("slo")
    if slo:
        obs.slo = SLOMonitor.from_state_dict(slo)
    obs.restored_metrics = dict(payload.get("metrics", {}))
    return obs


def result_to_dict(result: ScenarioResult) -> dict:
    """A JSON-serializable dict capturing the full result."""
    telemetry = _telemetry_to_dict(result.obs)
    extra = {"telemetry": telemetry} if telemetry else {}
    return {
        **extra,
        "version": FORMAT_VERSION,
        "name": result.name,
        "request_type": result.request_type,
        "sla": result.sla,
        "duration": result.duration,
        "total_submitted": result.total_submitted,
        "completion_times": result.completion_times.tolist(),
        "response_times": result.response_times.tolist(),
        "samples": {
            name: {"times": times.tolist(), "values": values.tolist()}
            for name, (times, values) in result.samples.items()
        },
        "scale_events": [
            {"time": e.time, "service": e.service, "kind": e.kind,
             "before": e.before, "after": e.after}
            for e in result.scale_events
        ],
        "adaptation_actions": [
            {"time": a.time, "target": a.target, "before": a.before,
             "after": a.after, "method": a.method, "trigger": a.trigger,
             "threshold": a.threshold}
            for a in result.adaptation_actions
        ],
        "failed_total": result.failed_total,
        "fault_events": [r.to_dict() for r in result.fault_events],
    }


def result_from_dict(payload: dict) -> ScenarioResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported result format version {version!r}")
    return ScenarioResult(
        name=payload["name"],
        request_type=payload["request_type"],
        sla=payload["sla"],
        duration=payload["duration"],
        completion_times=np.asarray(payload["completion_times"]),
        response_times=np.asarray(payload["response_times"]),
        samples={
            name: (np.asarray(series["times"]),
                   np.asarray(series["values"]))
            for name, series in payload["samples"].items()
        },
        scale_events=[
            ScaleEvent(time=e["time"], service=e["service"],
                       kind=e["kind"], before=e["before"],
                       after=e["after"])
            for e in payload["scale_events"]
        ],
        adaptation_actions=[
            AdaptationAction(time=a["time"], target=a["target"],
                             before=a["before"], after=a["after"],
                             method=a["method"], trigger=a["trigger"],
                             threshold=a["threshold"])
            for a in payload["adaptation_actions"]
        ],
        total_submitted=payload["total_submitted"],
        obs=_telemetry_from_dict(payload.get("telemetry")),
        failed_total=payload.get("failed_total", 0),
        fault_events=[FaultRecord.from_dict(r)
                      for r in payload.get("fault_events", [])],
    )


def save_result(path: str, result: ScenarioResult) -> None:
    """Write a result to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_to_dict(result), handle)


def load_result(path: str) -> ScenarioResult:
    """Read a result previously written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        return result_from_dict(json.load(handle))
