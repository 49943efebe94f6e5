"""Per-run explainability report: text and HTML renderings.

Turns an :class:`~repro.obs.Observability` capture (decision log +
phase timings + event-loop summary + metrics) into the artifact a human
reads after a run: a timeline of every adaptation with its recorded
cause (knee point, propagated threshold, saturation rule), knee-curve
snapshots, hardware scale events, and where the controller's wall time
went. ``repro obs report`` is the CLI entry point.
"""

from __future__ import annotations

import html as _html
import typing as _t

from repro.obs.events import DecisionLog, DriftRecord, TargetDecision

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs import Observability


def _fmt_ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.1f}"


def _fmt_opt(value: float | None, spec: str = ".1f") -> str:
    return "-" if value is None else format(value, spec)


def _confidence(decision: TargetDecision) -> str:
    """Compact knee-confidence cell: samples / fit R² / prominence."""
    if (decision.samples is None and decision.fit_r2 is None
            and decision.knee_prominence is None):
        return "-"
    return (f"n={decision.samples if decision.samples is not None else '-'}"
            f" R²={_fmt_opt(decision.fit_r2, '.3f')}"
            f" prom={_fmt_opt(decision.knee_prominence, '.3f')}")


def _decision_rows(log: DecisionLog) -> list[list[str]]:
    rows = []
    for when, decision in log.applied():
        rows.append([
            f"{when:.1f}",
            decision.target,
            f"{decision.before} -> {decision.after}",
            decision.reason,
            decision.trigger,
            _fmt_ms(decision.threshold),
            _fmt_opt(decision.knee_concurrency),
            _fmt_opt(float(decision.poly_degree), ".0f")
            if decision.poly_degree is not None else "-",
            _confidence(decision),
        ])
    return rows


_DECISION_HEADERS = ["t[s]", "target", "allocation", "reason",
                     "trigger", "threshold[ms]", "knee Q", "degree",
                     "confidence"]


def _hold_rows(log: DecisionLog) -> list[list[str]]:
    counts: dict[str, int] = {}
    for record in log.rounds():
        for decision in record.decisions:
            if decision.outcome == "hold":
                counts[decision.reason] = \
                    counts.get(decision.reason, 0) + 1
    return [[reason, str(count)] for reason, count in sorted(counts.items())]


def _curve_snapshots(log: DecisionLog, limit: int = 4
                     ) -> list[tuple[float, TargetDecision]]:
    """The most recent applied decisions that carry a curve."""
    with_curves = [(when, d) for when, d in log.applied()
                   if d.curve]
    return with_curves[-limit:]


def _scale_rows(log: DecisionLog) -> list[list[str]]:
    return [[f"{r.time:.1f}", r.service, r.scale_kind,
             f"{r.before:g} -> {r.after:g}", r.autoscaler or "-"]
            for r in log.scale_events()]


_SCALE_HEADERS = ["t[s]", "service", "kind", "change", "autoscaler"]


def _drift_rows(log: DecisionLog) -> list[list[str]]:
    return [[f"{r.time:.1f}", r.target] for r in log.records("drift")
            if isinstance(r, DriftRecord)]


def _fault_rows(log: DecisionLog) -> list[list[str]]:
    return [[f"{r.time:.1f}", r.fault, r.phase,
             r.service or r.edge or "-",
             " ".join(f"{k}={v:g}" if isinstance(v, (int, float))
                      else f"{k}={v}"
                      for k, v in sorted(r.detail.items())) or "-"]
            for r in log.fault_events()]


_FAULT_HEADERS = ["t[s]", "fault", "phase", "where", "detail"]


def _alert_rows(log: DecisionLog) -> list[list[str]]:
    return [[f"{r.time:.1f}", r.slo, r.rule, r.phase, r.severity,
             f"{r.burn_long:.1f}x/{r.burn_short:.1f}x (>= {r.factor:g}x)",
             f"{r.budget_remaining * 100:.0f}%"]
            for r in log.alerts()]


_ALERT_HEADERS = ["t[s]", "slo", "rule", "phase", "severity",
                  "burn long/short", "budget left"]


def _localization_rows(log: DecisionLog,
                       limit: int = 8) -> list[list[str]]:
    rows = []
    for record in log.rounds()[-limit:]:
        top = sorted(record.correlations.items(),
                     key=lambda item: -item[1])[:3]
        rows.append([
            f"{record.time:.1f}",
            record.critical_service or "-",
            " ".join(f"{s}:{c:.2f}" for s, c in top) or "-",
            ",".join(record.candidates) or "-",
            str(record.traces),
        ])
    return rows


_LOCALIZATION_HEADERS = ["t[s]", "critical", "top correlations",
                         "util candidates", "traces"]


def _trace_analytics_rows(analytics) -> list[list[str]]:
    """Per-service streaming critical-path aggregates, worst first."""
    from repro.tracing.analytics import QUANTILES

    rows = []
    q_hi = max(QUANTILES)
    for service in sorted(
            analytics.services(),
            key=lambda s: -analytics.self_time[s].mean):
        sketch = analytics.self_time[service]
        contribution = analytics.contribution[service]
        exemplar = analytics.slowest_by_service.get(service)
        rows.append([
            service,
            str(sketch.count),
            f"{sketch.mean * 1e3:.1f}",
            f"{sketch.quantile(0.5) * 1e3:.1f}",
            f"{sketch.quantile(q_hi) * 1e3:.1f}",
            f"{contribution.mean * 100:.0f}%",
            f"{analytics.correlations()[service]:.2f}",
            format(exemplar.trace_id, "x") if exemplar else "-",
        ])
    return rows


_TRACE_ANALYTICS_HEADERS = ["service", "n", "mean self[ms]", "p50[ms]",
                            "p99[ms]", "contrib", "PCC",
                            "exemplar trace"]


def _trace_path_rows(analytics) -> list[list[str]]:
    return [[" → ".join(p["services"]), str(p["count"]),
             f"{p['mean_duration'] * 1e3:.1f}"]
            for p in analytics.paths.top(5)]


_TRACE_PATH_HEADERS = ["critical path", "count", "mean duration[ms]"]


# ----------------------------------------------------------------------
# Report body (shared by both renderers)
# ----------------------------------------------------------------------
_PHASE_HEADERS = ["phase", "calls", "total[ms]", "mean[ms]", "max[ms]"]


def _phase_rows(phases: dict[str, dict]) -> list[list[str]]:
    return [[name, str(stats["count"]), f"{stats['total_ms']:.2f}",
             f"{stats['mean_ms']:.3f}", f"{stats['max_ms']:.3f}"]
            for name, stats in phases.items()]


def _sampling_line(obs: "Observability") -> str | None:
    """Trace-sampling coverage sentence, or ``None`` without a sampler."""
    sampler = getattr(obs, "trace_sampler", None)
    if sampler is None or not sampler.total:
        return None
    cov = sampler.coverage()
    violating = cov["slo_violating"]
    return (f"{cov['sampler']} sampler kept {cov['kept']}/{cov['total']}"
            f" ({cov['stored_fraction'] * 100:.1f}%), SLO-violating "
            f"retention {violating['retention'] * 100:.1f}% "
            f"({violating['kept']}/{violating['total']})")


def _metric_rows(obs: "Observability") -> list[list[str]]:
    rows = []
    for name, snap in obs.registry.snapshot().items():
        if snap["type"] == "counter":
            rows.append([name, f"{snap['value']:g}"])
        elif snap["type"] == "gauge":
            rows.append([name, _fmt_opt(snap["value"], "g")])
        else:
            rows.append([name, f"n={snap['count']}" + (
                f" mean={snap['mean']:.4g} p95={snap['p95']:.4g}"
                if snap["count"] else "")])
    return rows


def _event_loop(obs: "Observability",
                phases: dict[str, dict]) -> str | None:
    """One-line event-loop summary of a simulator run, else ``None``.

    Events come from the ``sim.events`` counter the harness sets after
    the run, wall seconds from the recorder's ``run`` phase, and queue
    depth from the ``sim.queue_depth`` series of the telemetry pump.
    """
    run = phases.get("run")
    if run is None or "sim.events" not in obs.registry.names():
        return None
    events = obs.registry.counter("sim.events").value
    wall = run["total_ms"] / 1e3
    rate = events / wall if wall > 0 else 0.0
    line = (f"{events:,.0f} events in {wall:.3f}s wall "
            f"({rate:,.0f} events/s)")
    if "sim.queue_depth" in obs.timeline.names():
        _times, depths = obs.timeline.series("sim.queue_depth").data()
        if depths.size:
            line += (f", queue depth mean {depths.mean():.1f} "
                     f"max {depths.max():.0f}")
    return line


def _counts(log: DecisionLog) -> list[str]:
    return [f"{len(log.rounds())} control rounds",
            f"{len(log.applied())} adaptations applied",
            f"{len(log.scale_events())} hardware scale events",
            f"{len(_drift_rows(log))} drift detections",
            f"{len(log.fault_events())} fault transitions",
            f"{len(log.alerts())} SLO alert transitions",
            f"{log.total_recorded} records total"]


def _blocks(obs: "Observability") -> list[tuple[str, _t.Any, _t.Any]]:
    """The report body in order, empty sections left out.

    Each block is ``(title, headers, body)``: a table when ``headers``
    is set, else a sentence (``body`` is a string) or the knee-curve
    snapshots (``body`` is a list of ``(time, decision)``).
    """
    log = obs.decisions
    blocks = [
        ("Injected faults (what the plan did to the system)",
         _FAULT_HEADERS, _fault_rows(log)),
        ("SLO burn-rate alerts (fire/clear transitions)",
         _ALERT_HEADERS, _alert_rows(log)),
        ("Adaptation timeline (why each pool size changed)",
         _DECISION_HEADERS, _decision_rows(log)) if log.applied() else
        ("Adaptation timeline", None, "No adaptations were applied."),
        ("Hold decisions (rounds that changed nothing)",
         ["hold reason", "rounds"], _hold_rows(log)),
        ("Knee-curve snapshots (rate vs concurrency; * marks the knee)",
         None, _curve_snapshots(log)),
        ("Localization (most recent rounds)", _LOCALIZATION_HEADERS,
         _localization_rows(log)),
    ]
    analytics = getattr(obs, "trace_analytics", None)
    if analytics is not None and analytics.traces_observed:
        blocks += [
            (f"Streaming critical-path aggregates "
             f"({analytics.traces_observed} traces, pre-sampling)",
             _TRACE_ANALYTICS_HEADERS, _trace_analytics_rows(analytics)),
            ("Top critical-path patterns", _TRACE_PATH_HEADERS,
             _trace_path_rows(analytics))]
    phases = obs.flight.phase_summary()
    blocks += [
        ("Trace sampling", None, _sampling_line(obs)),
        ("Hardware scale events", _SCALE_HEADERS, _scale_rows(log)),
        ("Drift detections", ["t[s]", "target"], _drift_rows(log)),
        ("Control-loop phase timings (wall clock)", _PHASE_HEADERS,
         _phase_rows(phases)),
        ("Event loop", None, _event_loop(obs, phases)),
        ("Metrics registry", ["metric", "value"], _metric_rows(obs)),
    ]
    return [block for block in blocks if block[2]]


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def render_text(obs: "Observability", *, title: str = "run") -> str:
    """The explainability report as plain text."""
    from repro.experiments.reporting import ascii_table, sparkline

    lines = [f"obs report — {title}", "=" * (13 + len(title)), "",
             ", ".join(_counts(obs.decisions)), ""]
    for heading, headers, body in _blocks(obs):
        if headers is not None:
            lines.append(ascii_table(headers, body, title=heading))
        elif isinstance(body, str):
            lines.append(f"{heading}: {body}")
        else:
            lines.append(heading)
            for when, decision in body:
                rates = [rate for _q, rate in decision.curve]
                marker = ""
                if decision.knee_concurrency is not None:
                    qs = [q for q, _r in decision.curve]
                    nearest = min(range(len(qs)), key=lambda i: abs(
                        qs[i] - decision.knee_concurrency))
                    marker = (f"  knee at "
                              f"Q={decision.knee_concurrency:.1f}"
                              f" (col {nearest + 1})")
                lines.append(f"  t={when:.1f} {decision.target} "
                             f"[{decision.method}] "
                             f"{sparkline(rates, width=48)}{marker}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #cbd2dc; padding: 0.25em 0.6em;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #eef1f6; }
.summary { color: #444; }
svg { background: #fafbfd; border: 1px solid #cbd2dc; }
.knee-label { font-size: 11px; fill: #b4231f; }
"""


def _html_table(headers: _t.Sequence[str],
                rows: _t.Sequence[_t.Sequence[str]]) -> str:
    head = "".join(f"<th>{_html.escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_html.escape(str(c))}</td>"
                         for c in row) + "</tr>"
        for row in rows)
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _curve_svg(decision: TargetDecision, width: int = 320,
               height: int = 120, pad: int = 8) -> str:
    """Inline SVG of one fitted curve with the knee marked."""
    assert decision.curve is not None
    qs = [q for q, _r in decision.curve]
    rs = [r for _q, r in decision.curve]
    q_lo, q_hi = min(qs), max(qs)
    r_lo, r_hi = min(rs), max(rs)
    q_span = (q_hi - q_lo) or 1.0
    r_span = (r_hi - r_lo) or 1.0

    def sx(q: float) -> float:
        return pad + (q - q_lo) / q_span * (width - 2 * pad)

    def sy(r: float) -> float:
        return height - pad - (r - r_lo) / r_span * (height - 2 * pad)

    points = " ".join(f"{sx(q):.1f},{sy(r):.1f}"
                      for q, r in zip(qs, rs))
    knee = ""
    if decision.knee_concurrency is not None:
        kx = sx(decision.knee_concurrency)
        knee = (f'<line x1="{kx:.1f}" y1="{pad}" x2="{kx:.1f}" '
                f'y2="{height - pad}" stroke="#b4231f" '
                f'stroke-dasharray="4 3"/>'
                f'<text x="{kx + 4:.1f}" y="{pad + 10}" '
                f'class="knee-label">knee '
                f'Q={decision.knee_concurrency:.1f}</text>')
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="#2a6fb0" '
            f'stroke-width="1.5" points="{points}"/>{knee}</svg>')


def render_html(obs: "Observability", *, title: str = "run") -> str:
    """The explainability report as a self-contained HTML document."""
    parts: list[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>obs report — {_html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>obs report — {_html.escape(title)}</h1>",
        f"<p class='summary'>{' · '.join(_counts(obs.decisions))}</p>",
    ]
    for heading, headers, body in _blocks(obs):
        parts.append(f"<h2>{_html.escape(heading)}</h2>")
        if headers is not None:
            parts.append(_html_table(headers, body))
        elif isinstance(body, str):
            parts.append(f"<p>{_html.escape(body)}</p>")
        else:
            for when, decision in body:
                parts.append(
                    f"<p>t={when:.1f}s — {_html.escape(decision.target)} "
                    f"({_html.escape(decision.method or '-')}, "
                    f"{decision.before} → {decision.after})</p>")
                parts.append(_curve_svg(decision))
    parts.append("</body></html>")
    return "".join(parts)
