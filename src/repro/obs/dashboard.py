"""Annotated run dashboard: self-contained HTML and text sparklines.

Renders the streaming telemetry of one run — every
:class:`~repro.obs.timeline.Timeline` series stacked on a shared
simulated-time axis, with decision / drift / fault / scale / SLO-alert
annotations projected from the :class:`~repro.obs.events.DecisionLog`
as vertical markers across *all* panels. That single shared axis is the
point: "the fault landed, burn rate spiked, the fast-burn alert paged,
drift fired, the pool re-converged" reads as one left-to-right story.

The HTML document is fully self-contained — inline SVG, inline CSS and
a small inline script (marker-class toggles); no external URLs, fonts,
or CDN assets — so it can be archived next to the run result and opened
from anywhere (``tools/check_links.py --html`` enforces this).
``render_sparklines`` is the terminal-friendly fallback for the same
data.
"""

from __future__ import annotations

import html as _html
import math
import typing as _t

from repro.obs.timeline import Annotation, Timeline, annotations_from_log

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability

__all__ = ["render_dashboard_html", "render_sparklines"]

#: Marker palette per annotation kind (also the legend order).
_KIND_STYLE: dict[str, tuple[str, str]] = {
    "fault": ("#b4771f", "fault injected/recovered"),
    "alert": ("#d1242f", "SLO burn-rate alert"),
    "drift": ("#7a1fa2", "Page-Hinkley drift"),
    "decision": ("#2a6fb0", "pool adaptation applied"),
    "scale": ("#1f7a4d", "hardware scale event"),
}


def _time_domain(timeline: Timeline,
                 annotations: _t.Sequence[Annotation]
                 ) -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for _name, series in timeline.items():
        times, _values = series.data()
        if times.size:
            lo = min(lo, float(times[0]))
            hi = max(hi, float(times[-1]))
    for note in annotations:
        lo = min(lo, note.time)
        hi = max(hi, note.time)
    if lo > hi:
        return 0.0, 1.0
    if lo == hi:
        return lo, lo + 1.0
    return lo, hi


def _finite_points(times, values) -> list[tuple[float, float]]:
    return [(float(t), float(v)) for t, v in zip(times, values)
            if v == v and not math.isinf(v)]


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
_WIDTH, _PANEL_H, _PAD_L, _PAD_R, _PAD_V = 860, 110, 64, 12, 14

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 64em; color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.05em; margin: 1.2em 0 0.2em; }
.summary { color: #444; }
svg { background: #fafbfd; border: 1px solid #cbd2dc; display: block; }
.axis { font-size: 11px; fill: #555; }
.series-line { fill: none; stroke: #2a6fb0; stroke-width: 1.4; }
.marker { stroke-width: 1.2; stroke-dasharray: 3 3; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #cbd2dc; padding: 0.2em 0.55em;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #eef1f6; }
.legend span { margin-right: 1.2em; white-space: nowrap; }
.swatch { display: inline-block; width: 0.9em; height: 0.9em;
          vertical-align: -0.1em; margin-right: 0.35em; }
label.toggle { margin-right: 1em; user-select: none; }
"""

_JS = """
function toggleKind(kind, visible) {
  document.querySelectorAll('.marker-' + kind).forEach(function (el) {
    el.style.display = visible ? '' : 'none';
  });
}
document.querySelectorAll('input[data-kind]').forEach(function (box) {
  box.addEventListener('change', function () {
    toggleKind(box.dataset.kind, box.checked);
  });
});
"""


def _fmt_axis(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.01:
        return f"{value:.2g}"
    return f"{value:.4g}"


def _panel_svg(name: str, points: list[tuple[float, float]],
               t_lo: float, t_hi: float,
               annotations: _t.Sequence[Annotation]) -> str:
    """One series panel: polyline + shared-axis annotation markers."""
    width, height = _WIDTH, _PANEL_H
    plot_w = width - _PAD_L - _PAD_R
    plot_h = height - 2 * _PAD_V
    values = [v for _t_, v in points]
    v_lo = min(values) if values else 0.0
    v_hi = max(values) if values else 1.0
    if v_lo == v_hi:
        v_lo, v_hi = v_lo - 0.5, v_hi + 0.5
    t_span = (t_hi - t_lo) or 1.0
    v_span = v_hi - v_lo

    def sx(t: float) -> float:
        return _PAD_L + (t - t_lo) / t_span * plot_w

    def sy(v: float) -> float:
        return height - _PAD_V - (v - v_lo) / v_span * plot_h

    poly = " ".join(f"{sx(t):.1f},{sy(v):.1f}" for t, v in points)
    markers = []
    for note in annotations:
        color, _ = _KIND_STYLE.get(note.kind, ("#888", ""))
        x = sx(note.time)
        markers.append(
            f'<line class="marker marker-{note.kind}" x1="{x:.1f}" '
            f'y1="{_PAD_V}" x2="{x:.1f}" y2="{height - _PAD_V}" '
            f'stroke="{color}"><title>t={note.time:.1f}s '
            f'{_html.escape(note.label)}</title></line>')
    return (
        f'<h2>{_html.escape(name)}</h2>'
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{_html.escape(name)} over simulated time">'
        f'<text class="axis" x="4" y="{_PAD_V + 9}">'
        f'{_fmt_axis(v_hi)}</text>'
        f'<text class="axis" x="4" y="{height - _PAD_V}">'
        f'{_fmt_axis(v_lo)}</text>'
        f'<text class="axis" x="{_PAD_L}" y="{height - 2}">'
        f'{t_lo:.0f}s</text>'
        f'<text class="axis" x="{width - _PAD_R - 40}" '
        f'y="{height - 2}">{t_hi:.0f}s</text>'
        f'<polyline class="series-line" points="{poly}"/>'
        f'{"".join(markers)}</svg>')


# Flame-segment palette, assigned to services in sorted order.
_FLAME_COLORS = ("#2a6fb0", "#1f7a4d", "#b4771f", "#7a1fa2", "#d1242f",
                 "#0f766e", "#9a3412", "#4c1d95", "#155e75", "#713f12")


def _flame_svg(analytics, q_max: float) -> str:
    """Critical-path flame view: top path patterns as stacked bars.

    One row per top path pattern (by observed count); within a row,
    one segment per service sized by its mean critical-path self time,
    over a faint bar showing the pattern's mean end-to-end duration.
    Hover a segment for mean and ``q_max``-quantile self time.
    """
    paths = analytics.paths.top(5)
    if not paths:
        return ""
    color = {service: _FLAME_COLORS[i % len(_FLAME_COLORS)]
             for i, service in enumerate(analytics.services())}
    row_h, gap = 24, 8
    plot_w = _WIDTH - _PAD_L - _PAD_R - 150
    scale = max(p["mean_duration"] for p in paths) or 1.0
    height = (row_h + gap) * len(paths) + 2 * _PAD_V
    total = sum(p["count"] for p in paths) or 1
    parts = [
        f'<svg width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}" role="img" '
        f'aria-label="critical-path flame view">']
    y = float(_PAD_V)
    for rank, p in enumerate(paths, start=1):
        bar_w = p["mean_duration"] / scale * plot_w
        parts.append(
            f'<text class="axis" x="4" y="{y + row_h / 2 + 4:.1f}">'
            f'#{rank}</text>')
        parts.append(
            f'<rect x="{_PAD_L}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{row_h}" fill="#e4e9f1"/>')
        x = float(_PAD_L)
        for service in p["services"]:
            sketch = analytics.self_time.get(service)
            if sketch is None or not sketch.count:
                continue
            seg_w = max(1.0, sketch.mean / scale * plot_w)
            p99 = sketch.quantile(q_max)
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{seg_w:.1f}" '
                f'height="{row_h}" fill="{color[service]}" '
                f'stroke="#fafbfd" stroke-width="0.5">'
                f'<title>{_html.escape(service)}: mean self '
                f'{sketch.mean * 1e3:.1f}ms · p{q_max * 100:g} '
                f'{p99 * 1e3:.1f}ms</title></rect>')
            if seg_w > 7 * len(service):
                parts.append(
                    f'<text class="axis" x="{x + 3:.1f}" '
                    f'y="{y + row_h / 2 + 4:.1f}" fill="#fff">'
                    f'{_html.escape(service)}</text>')
            x += seg_w
        parts.append(
            f'<text class="axis" x="{_PAD_L + plot_w + 8:.1f}" '
            f'y="{y + row_h / 2 + 4:.1f}">×{p["count"]} '
            f'({p["count"] / total * 100:.0f}%) '
            f'{p["mean_duration"] * 1e3:.0f}ms</text>')
        y += row_h + gap
    parts.append("</svg>")
    return "".join(parts)


def _coverage_table(sampler) -> str:
    """Sampling-coverage panel: totals, reasons, SLO retention."""
    cov = sampler.coverage()
    slo = cov["slo_violating"]
    reasons = ", ".join(f"{reason}: {count}" for reason, count
                        in cov["kept_by_reason"].items()) or "—"
    retention = (f"{slo['retention'] * 100:.1f}% "
                 f"({slo['kept']}/{slo['total']})"
                 if slo["total"] else "no violations")
    rows = [
        ("sampler", f"{cov['sampler']}"
         + (f" (bulk rate {cov['rate']:g})" if "rate" in cov else "")),
        ("traces seen", f"{cov['total']}"),
        ("traces stored", f"{cov['kept']} "
         f"({cov['stored_fraction'] * 100:.1f}%)"),
        ("kept by reason", reasons),
        ("SLO-violating retained", retention),
    ]
    body = "".join(f"<tr><th>{_html.escape(k)}</th>"
                   f"<td>{_html.escape(v)}</td></tr>" for k, v in rows)
    return f"<table><tbody>{body}</tbody></table>"


def render_dashboard_html(obs: "Observability", *,
                          title: str = "run",
                          extra_html: str = "") -> str:
    """The annotated run dashboard as one self-contained HTML page.

    Every recorded timeline series becomes a stacked SVG panel over a
    shared simulated-time axis; decision-log annotations are drawn as
    vertical markers on every panel (hover for detail, checkboxes to
    toggle per kind). Raises ``ValueError`` when the run recorded no
    telemetry at all.

    ``extra_html`` is injected verbatim before the closing script tag
    — callers (the service's live ops console) append their own
    sections while reusing the page chrome; they are responsible for
    keeping it self-contained (no external references).
    """
    timeline = obs.timeline
    annotations = annotations_from_log(obs.decisions)
    analytics = getattr(obs, "trace_analytics", None)
    sampler = getattr(obs, "trace_sampler", None)
    if analytics is not None and not analytics.traces_observed:
        analytics = None
    if len(timeline) == 0 and not annotations and analytics is None:
        raise ValueError(
            "nothing to render: the run recorded no timeline series "
            "and no decision-log annotations (telemetry disabled?)")
    t_lo, t_hi = _time_domain(timeline, annotations)

    parts: list[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>obs dashboard — {_html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>obs dashboard — {_html.escape(title)}</h1>",
        f"<p class='summary'>{len(timeline)} series · "
        f"{len(annotations)} annotations · "
        f"t ∈ [{t_lo:.0f}s, {t_hi:.0f}s]",
    ]
    if obs.slo is not None:
        slo = obs.slo
        compliance = slo.compliance()
        parts.append(
            f" · SLO «{_html.escape(slo.spec.name)}»: "
            f"{compliance * 100:.2f}% good "
            f"(objective {slo.spec.objective * 100:g}%, "
            f"{slo.alerts_fired} alerts fired)"
            if compliance == compliance else
            f" · SLO «{_html.escape(slo.spec.name)}»: no traffic")
    parts.append("</p>")

    used_kinds = sorted({note.kind for note in annotations})
    if used_kinds:
        parts.append("<p class='legend'>")
        for kind in _KIND_STYLE:
            if kind not in used_kinds:
                continue
            color, caption = _KIND_STYLE[kind]
            parts.append(
                f"<label class='toggle'><input type='checkbox' checked "
                f"data-kind='{kind}'>"
                f"<span class='swatch' style='background:{color}'></span>"
                f"{_html.escape(caption)}</label>")
        parts.append("</p>")

    for name, series in timeline.items():
        points = _finite_points(*series.data())
        if not points:
            continue
        parts.append(_panel_svg(name, points, t_lo, t_hi, annotations))

    if analytics is not None:
        from repro.tracing.analytics import QUANTILES

        q_max = max(QUANTILES)
        parts.append("<h2>Critical-path flame view</h2>")
        parts.append(
            f"<p class='summary'>{analytics.traces_observed} traces "
            f"aggregated (streaming, pre-sampling) · end-to-end "
            f"p{q_max * 100:g} "
            f"{analytics.duration.quantile(q_max) * 1e3:.1f}ms · "
            f"{len(analytics.paths)} path patterns</p>")
        parts.append(_flame_svg(analytics, q_max))
    if sampler is not None:
        parts.append("<h2>Sampling coverage</h2>")
        parts.append(_coverage_table(sampler))

    if annotations:
        parts.append("<h2>Annotations</h2>")
        rows = "".join(
            f"<tr><td>{note.time:.1f}</td>"
            f"<td>{_html.escape(note.kind)}</td>"
            f"<td>{_html.escape(note.label)}</td></tr>"
            for note in annotations)
        parts.append(
            "<table><thead><tr><th>t[s]</th><th>kind</th>"
            "<th>event</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>")

    if extra_html:
        parts.append(extra_html)
    parts.append(f"<script>{_JS}</script></body></html>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def render_sparklines(obs: "Observability", *, title: str = "run",
                      width: int = 60) -> str:
    """The dashboard's terminal fallback: one sparkline per series.

    Annotations are rendered as a marker row under each sparkline
    (``f``\\ ault, ``a``\\ lert, ``d``\\ rift, adaptation ``p``\\ ool
    change, ``s``\\ cale) plus a chronological event list.
    """
    from repro.experiments.reporting import sparkline

    timeline = obs.timeline
    annotations = annotations_from_log(obs.decisions)
    t_lo, t_hi = _time_domain(timeline, annotations)
    t_span = (t_hi - t_lo) or 1.0
    glyphs = {"fault": "f", "alert": "a", "drift": "d",
              "decision": "p", "scale": "s"}

    marker_row = [" "] * width
    for note in annotations:
        column = int((note.time - t_lo) / t_span * (width - 1))
        marker_row[column] = glyphs.get(note.kind, "?")
    marker_line = "".join(marker_row)

    lines = [f"obs dashboard — {title}",
             "=" * (16 + len(title)), "",
             f"t ∈ [{t_lo:.0f}s, {t_hi:.0f}s] · {len(timeline)} series "
             f"· {len(annotations)} annotations "
             f"(f=fault a=alert d=drift p=pool s=scale)", ""]
    name_width = max((len(name) for name, _s in timeline.items()),
                     default=0)
    for name, series in timeline.items():
        points = _finite_points(*series.data())
        if not points:
            continue
        values = [v for _t_, v in points]
        lines.append(
            f"{name:<{name_width}} {sparkline(values, width=width)} "
            f"last={_fmt_axis(values[-1])} "
            f"[{_fmt_axis(min(values))}, {_fmt_axis(max(values))}]")
    if annotations:
        lines.append(f"{'':<{name_width}} {marker_line}")
        lines.append("")
        lines.append("events:")
        for note in annotations:
            lines.append(f"  t={note.time:7.1f}s "
                         f"[{note.kind:<8}] {note.label}")
    if obs.slo is not None:
        slo = obs.slo
        compliance = slo.compliance()
        lines.append("")
        lines.append(
            f"SLO {slo.spec.name}: "
            + (f"{compliance * 100:.2f}% good" if compliance == compliance
               else "no traffic")
            + f" (objective {slo.spec.objective * 100:g}%, "
            f"{slo.alerts_fired} alerts fired, active: "
            f"{', '.join(slo.active_alerts()) or 'none'})")
    return "\n".join(lines).rstrip() + "\n"
