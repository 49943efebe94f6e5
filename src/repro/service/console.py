"""Live ops console: the service's own dashboard, served over HTTP.

``GET /debug/dashboard`` renders one self-contained HTML page — no
external scripts, stylesheets, or fonts, the same contract
``tools/check_links.py --html`` enforces on every other generated
report — by reusing the simulator dashboard's chrome
(:func:`repro.obs.dashboard.render_dashboard_html` with its
``extra_html`` hook) and appending four service-specific sections:

- **round latency** — a sparkline of flight-recorded wall ms per
  control round;
- **per-phase flame strips** — one stacked bar per recent round,
  segmented by pipeline phase, linking each strip to its
  ``/debug/rounds/{id}`` span tree;
- **ingest backpressure** — pending-vs-capacity, rejected ingests,
  accepted snapshot/trace totals;
- **journal health** — segments, active bytes, rotation/compaction
  counts, and the tamper-chain head.

Early in a run the plane's timeline may be empty (the base renderer
raises ``ValueError``); the console then falls back to a minimal page
carrying just the service sections, so the endpoint never 500s while
warming up.
"""

from __future__ import annotations

import html as _html
import typing as _t

from repro.obs.dashboard import _CSS, _panel_svg, render_dashboard_html
from repro.obs.flight import PHASES

if _t.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.service.audit import AuditJournal
    from repro.service.control import ControlPlane

__all__ = ["render_service_dashboard"]

#: Phase → color, pipeline order (colorblind-safe Set2-ish palette).
_PHASE_COLORS = tuple(zip(PHASES, ("#8da0cb", "#66c2a5", "#fc8d62",
                                   "#e78ac3", "#a6d854")))

#: Flame strips drawn on the console (newest rounds).
_STRIP_ROUNDS = 24


def _latency_panel(flight) -> str:
    points = [(float(entry["round"]), entry["wall_ms"])
              for entry in flight.summaries()]
    t_lo = points[0][0]
    t_hi = max(points[-1][0], t_lo + 1.0)
    return _panel_svg("round wall [ms]", points, t_lo, t_hi, ())


def _flame_strips(summaries: list[dict]) -> str:
    """Stacked per-phase bars, one row per recent round."""
    recent = summaries[-_STRIP_ROUNDS:]
    scale_ms = max(
        (sum(entry["phase_ms"].values()) for entry in recent),
        default=0.0) or 1.0
    row_h, gap, label_w, plot_w = 18, 6, 90, 560
    height = (row_h + gap) * len(recent) + 10
    parts = [
        f'<svg width="{label_w + plot_w + 10}" height="{height}">']
    for row, entry in enumerate(recent):
        y = 5 + row * (row_h + gap)
        total = sum(entry["phase_ms"].values())
        parts.append(
            f'<text x="4" y="{y + row_h - 5}" class="axis">'
            f'round {entry["round"]} · {total:.2f}ms</text>')
        x = float(label_w)
        for phase, color in _PHASE_COLORS:
            span_ms = entry["phase_ms"].get(phase, 0.0)
            width = plot_w * span_ms / scale_ms
            if width <= 0.0:
                continue
            title = (f'round {entry["round"]} {phase}: '
                     f'{span_ms:.3f}ms — see '
                     f'/debug/rounds/{entry["round"]}')
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(width, 1.0):.1f}"'
                f' height="{row_h}" fill="{color}">'
                f'<title>{_html.escape(title)}</title></rect>')
            x += max(width, 1.0)
    parts.append("</svg>")
    legend = " ".join(
        f"<label class='toggle'><span class='swatch' "
        f"style='background:{color}'></span>{phase}</label>"
        for phase, color in _PHASE_COLORS)
    return f"<p class='legend'>{legend}</p>" + "".join(parts)


def _key_value_table(rows: _t.Sequence[tuple[str, _t.Any]]) -> str:
    body = "".join(
        f"<tr><td>{_html.escape(key)}</td>"
        f"<td>{_html.escape(str(value))}</td></tr>"
        for key, value in rows)
    return (f"<table><tbody>{body}</tbody></table>")


def render_flight_sections(plane: "ControlPlane",
                           journal: "AuditJournal") -> str:
    """The service-specific console sections (self-contained HTML)."""
    parts: list[str] = []
    flight = plane.flight
    parts.append("<h2>Control-round latency (self-trace)</h2>")
    if flight and len(flight):
        summaries = flight.summaries()
        parts.append(
            f"<p class='summary'>{flight.rounds_recorded} rounds "
            f"recorded · {len(flight)} retained "
            f"(capacity {flight.max_rounds}) · per-round span trees "
            f"at <code>/debug/rounds/&lt;round&gt;</code></p>")
        parts.append(_latency_panel(flight))
        parts.append("<h2>Per-phase flame strips</h2>")
        parts.append(_flame_strips(summaries))
    else:
        parts.append(
            "<p class='summary'>flight recorder "
            + ("has no rounds yet" if flight else
               "disabled (flight_rounds=0)") + "</p>")

    cfg = plane.config
    rejected = plane.obs.registry.counter("service.rejected").value
    parts.append("<h2>Ingest backpressure</h2>")
    parts.append(_key_value_table([
        ("pending snapshots", f"{plane.pending} / {cfg.max_pending}"),
        ("rejected ingests", int(rejected)),
        ("snapshots accepted", plane.snapshots_ingested),
        ("traces accepted", plane.traces_ingested),
        ("tracked series", len(plane._series)),
    ]))

    health = journal.health()
    parts.append("<h2>Journal health</h2>")
    parts.append(_key_value_table([
        ("segments", health["segments"]),
        ("active bytes", health["active_bytes"]),
        ("active entries", health["active_entries"]),
        ("rotations", health["rotations"]),
        ("compactions", health["compactions"]),
        ("entries dropped by compaction", health["entries_dropped"]),
        ("rotate at bytes", health["segment_bytes"] or "disabled"),
        ("rotate at logical age [s]",
         health["segment_age"] or "disabled"),
        ("chain head", health["chain_head"] or "(empty)"),
    ]))
    return "".join(parts)


def render_service_dashboard(plane: "ControlPlane",
                             journal: "AuditJournal", *,
                             title: str = "sora-service") -> str:
    """The full live ops console page."""
    sections = render_flight_sections(plane, journal)
    try:
        return render_dashboard_html(plane.obs, title=title,
                                     extra_html=sections)
    except ValueError:
        # Nothing on the timeline yet (no recommendations recorded):
        # serve the service sections on their own, same chrome.
        safe = _html.escape(title)
        return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
                f"<title>ops console — {safe}</title>"
                f"<style>{_CSS}</style></head><body>"
                f"<h1>ops console — {safe}</h1>"
                f"{sections}</body></html>")
