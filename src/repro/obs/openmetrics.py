"""OpenMetrics text exposition of a run's final telemetry state.

Renders the metrics registry and the final SLO/burn-rate state in the
OpenMetrics text format (the Prometheus exposition format with typed
metric families and a terminating ``# EOF``), so a persisted run can be
scraped into any Prometheus-compatible tooling:

- registry ``Counter`` → OpenMetrics ``counter`` (``_total`` sample);
- registry ``Gauge`` → ``gauge``;
- registry histogram (a :class:`~repro.obs.sketch.QuantileSketch`) →
  ``summary`` (P50/P95 samples plus ``_count``/``_sum``);
- SLO state → ``repro_slo_*`` families (good/bad totals, compliance,
  budget remaining, per-rule burn rates and firing flags);
- trace analytics (when a sampler/aggregator is attached, see
  :mod:`repro.tracing.analytics`) → ``repro_trace_*`` families:
  sampling coverage counters and per-service critical-path latency
  summaries whose ``_count`` samples carry **exemplars** — OpenMetrics
  ``# {trace_id="<032x>"} value timestamp`` suffixes linking the worst
  observed trace, so a dashboard can jump from a P99 to the exact
  Jaeger trace that produced it.

Dotted registry names are sanitized to the metric-name grammar
(``sora.adaptations.applied`` → ``repro_sora_adaptations_applied``).
:func:`parse_openmetrics` is the inverse used by the round-trip sanity
test — a small, strict parser for exactly the dialect rendered here.
Its line grammar, :func:`scan_openmetrics`, is the only one in the
repository: the control-plane service scans scrapes with it too
(:func:`repro.service.parse_metrics_snapshot`), keeping only the
families it reads.
"""

from __future__ import annotations

import math
import re
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.slo import SLOMonitor

__all__ = ["Exemplar", "Sample", "label_value", "parse_openmetrics",
           "render_openmetrics", "scan_openmetrics"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(raw: str, prefix: str = "repro_") -> str:
    name = _NAME_OK.sub("_", raw.replace(".", "_"))
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        name = "_" + name
    return prefix + name


def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in pairs.items())
    return "{" + inner + "}"


def _exemplar_suffix(trace_id: int, value: float,
                     timestamp: float | None = None) -> str:
    """OpenMetrics exemplar clause appended to a sample line."""
    clause = (f' # {_labels({"trace_id": format(int(trace_id), "032x")})}'
              f" {_fmt(value)}")
    if timestamp is not None:
        clause += f" {_fmt(timestamp)}"
    return clause


def _summary_lines(name: str, sketch, labels: dict[str, str],
                   exemplar=None) -> list[str]:
    """Quantile/sum/count samples for one trace-analytics sketch."""
    from repro.tracing.analytics import QUANTILES

    lines = []
    for q in QUANTILES:
        lines.append(
            f"{name}{_labels({**labels, 'quantile': _fmt(q)})} "
            f"{_fmt(sketch.quantile(q))}")
    lines.append(f"{name}_sum{_labels(labels)} {_fmt(sketch.total)}")
    count_line = f"{name}_count{_labels(labels)} {_fmt(sketch.count)}"
    if exemplar is not None:
        count_line += _exemplar_suffix(exemplar.trace_id, exemplar.value,
                                       exemplar.timestamp)
    lines.append(count_line)
    return lines


def _trace_lines(analytics, sampler) -> list[str]:
    """``repro_trace_*`` families from the streaming trace analytics."""
    lines: list[str] = []
    if sampler is not None:
        cov = sampler.coverage()
        lines += [
            "# TYPE repro_trace_sampling_seen counter",
            "# HELP repro_trace_sampling_seen Finished traces offered "
            "to the sampler.",
            f"repro_trace_sampling_seen_total"
            f"{_labels({'sampler': cov['sampler']})} {_fmt(cov['total'])}",
            "# TYPE repro_trace_sampling_kept counter",
            "# HELP repro_trace_sampling_kept Traces stored, by "
            "retention reason.",
        ]
        for reason, count in cov["kept_by_reason"].items():
            lines.append(
                f"repro_trace_sampling_kept_total"
                f"{_labels({'reason': reason})} {_fmt(count)}")
        lines += [
            "# TYPE repro_trace_sampling_stored_fraction gauge",
            f"repro_trace_sampling_stored_fraction "
            f"{_fmt(cov['stored_fraction'])}",
            "# TYPE repro_trace_sampling_slo_retention gauge",
            "# HELP repro_trace_sampling_slo_retention Fraction of "
            "SLO-violating traces retained.",
            f"repro_trace_sampling_slo_retention "
            f"{_fmt(cov['slo_violating']['retention'])}",
        ]
    if analytics is not None and analytics.traces_observed:
        lines += [
            "# TYPE repro_trace_critical_path_duration_seconds summary",
            "# HELP repro_trace_critical_path_duration_seconds "
            "End-to-end critical-path duration (streaming).",
        ]
        lines += _summary_lines(
            "repro_trace_critical_path_duration_seconds",
            analytics.duration, {}, analytics.slowest)
        lines += [
            "# TYPE repro_trace_self_time_seconds summary",
            "# HELP repro_trace_self_time_seconds Per-service "
            "critical-path self time (streaming).",
        ]
        for service in analytics.services():
            lines += _summary_lines(
                "repro_trace_self_time_seconds",
                analytics.self_time[service], {"service": service},
                analytics.slowest_by_service.get(service))
    return lines


def _slo_lines(slo: "SLOMonitor", now: float | None) -> list[str]:
    if now is None:
        buckets = slo._buckets
        now = (buckets[-1][0] + slo.bucket_width if buckets else 0.0)
    name = slo.spec.name
    lines = [
        "# TYPE repro_slo_requests counter",
        "# HELP repro_slo_requests Requests classified against the SLO.",
        f'repro_slo_requests_total{_labels({"slo": name, "verdict": "good"})}'
        f" {_fmt(slo.good_total)}",
        f'repro_slo_requests_total{_labels({"slo": name, "verdict": "bad"})}'
        f" {_fmt(slo.bad_total)}",
        "# TYPE repro_slo_objective gauge",
        f'repro_slo_objective{_labels({"slo": name})} '
        f"{_fmt(slo.spec.objective)}",
        "# TYPE repro_slo_latency_threshold_seconds gauge",
        f'repro_slo_latency_threshold_seconds{_labels({"slo": name})} '
        f"{_fmt(slo.spec.latency_threshold)}",
        "# TYPE repro_slo_compliance gauge",
        "# HELP repro_slo_compliance Lifetime good fraction.",
        f'repro_slo_compliance{_labels({"slo": name})} '
        f"{_fmt(slo.compliance())}",
        "# TYPE repro_slo_budget_remaining gauge",
        f'repro_slo_budget_remaining{_labels({"slo": name})} '
        f"{_fmt(slo.budget_remaining(now))}",
        "# TYPE repro_slo_alerts_fired counter",
        f'repro_slo_alerts_fired_total{_labels({"slo": name})} '
        f"{_fmt(slo.alerts_fired)}",
    ]
    lines.append("# TYPE repro_slo_burn_rate gauge")
    lines.append("# HELP repro_slo_burn_rate Error-budget burn rate "
                 "per rule window.")
    active = set(slo.active_alerts())
    firing_lines = ["# TYPE repro_slo_alert_firing gauge"]
    for rule in slo.rules:
        for window_name, window in (("long", rule.long_window),
                                    ("short", rule.short_window)):
            labels = _labels({"slo": name, "rule": rule.name,
                              "window": window_name})
            lines.append(f"repro_slo_burn_rate{labels} "
                         f"{_fmt(slo.burn_rate(now, window))}")
        firing = _labels({"slo": name, "rule": rule.name})
        firing_lines.append(
            f"repro_slo_alert_firing{firing} "
            f"{_fmt(1.0 if rule.name in active else 0.0)}")
    return lines + firing_lines


def render_openmetrics(obs: "Observability",
                       now: float | None = None) -> str:
    """OpenMetrics text exposition of ``obs``'s final state.

    Args:
        obs: the run's observability scope.
        now: simulated time for window-relative SLO gauges; defaults
            to the end of the monitor's last bucket.
    """
    lines: list[str] = []
    # A live run exposes its registry; a persisted run restored by
    # repro.experiments.persistence exposes the archived snapshot.
    metrics = (obs.registry.snapshot()
               or getattr(obs, "restored_metrics", {}))
    for raw_name, snap in metrics.items():
        kind = snap["type"]
        name = _metric_name(raw_name)
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}_total {_fmt(snap['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            value = snap["value"]
            lines.append(
                f"{name} {_fmt(value if value is not None else float('nan'))}")
        elif kind == "histogram":
            lines.append(f"# TYPE {name} summary")
            count = snap.get("count", 0)
            if count:
                for q, key in ((0.5, "p50"), (0.95, "p95")):
                    lines.append(
                        f'{name}{_labels({"quantile": _fmt(q)})} '
                        f"{_fmt(snap[key])}")
                mean = snap.get("mean", float("nan"))
                lines.append(f"{name}_sum {_fmt(mean * count)}")
            count_line = f"{name}_count {_fmt(count)}"
            exemplar = snap.get("exemplar")
            if exemplar is not None:
                count_line += _exemplar_suffix(
                    exemplar["trace_id"], exemplar["value"],
                    exemplar.get("timestamp"))
            lines.append(count_line)
    if obs.slo is not None:
        lines.extend(_slo_lines(obs.slo, now))
    lines.extend(_trace_lines(getattr(obs, "trace_analytics", None),
                              getattr(obs, "trace_sampler", None)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class Exemplar(_t.NamedTuple):
    """One parsed exemplar clause (``# {labels} value [timestamp]``)."""

    labels: dict[str, str]
    value: float
    timestamp: float | None = None

    @property
    def trace_id(self) -> int | None:
        """The linked trace id, when the exemplar carries one."""
        raw = self.labels.get("trace_id")
        return int(raw, 16) if raw is not None else None


class Sample(_t.NamedTuple):
    """One parsed exposition sample."""

    name: str
    labels: dict[str, str]
    value: float
    exemplar: Exemplar | None = None


#: One line of the dialect, matched over the whole text at once (with
#: ``re.M`` and ``\n`` as the only line break): a sample (name, braced
#: labels, value, then an optional exemplar of braced labels, value and
#: timestamp), a comment, or a blank line. No class crosses a line.
_LINE = re.compile(
    r"^(?:(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}\n]*\})?"
    r"[^\S\n]+(?P<value>\S+)"
    r"(?:[^\S\n]+#[^\S\n]+(?P<exlabels>\{[^}\n]*\})[^\S\n]+"
    r"(?P<exvalue>\S+)(?:[^\S\n]+(?P<exts>\S+))?)?[^\S\n]*"
    r"|(?P<comment>#.*)|[^\S\n]*)$", re.M)
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>'
                    r'(?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _parse_labels(raw: str | None) -> dict[str, str]:
    labels: dict[str, str] = {}
    if raw:
        for pair in _LABEL.finditer(raw):
            labels[pair.group("key")] = _unescape_label(
                pair.group("value"))
    return labels


def label_value(raw: str | None, key: str) -> str | None:
    """The value of label ``key`` in a sample's raw label text, as
    :func:`parse_openmetrics` would read it (the last ``key`` wins),
    or ``None`` when the sample does not carry it."""
    value = None
    if raw and key in raw:
        for name, text in _LABEL.findall(raw):
            if name == key:
                value = text
    if value is None or "\\" not in value:
        return value
    return _unescape_label(value)


_SUFFIXES = ("_total", "_count", "_sum")


def scan_openmetrics(text: str) -> _t.Iterator[tuple]:
    """The one strict line grammar of the dialect rendered here.

    Yields ``(family, type, None, 0.0, None)`` for each ``# TYPE``
    line, and ``(family, None, fields, value, exemplar)`` for each
    sample line: ``fields`` holds the line's raw ``(name, labels,
    value, exemplar labels, exemplar value, exemplar timestamp)`` text
    (``None`` where absent), ``value`` its parsed value and
    ``exemplar`` the parsed ``(value, timestamp)`` of its exemplar
    clause, or ``None``. A sample belongs to the family its name
    declares, after stripping a ``_total``/``_count``/``_sum`` suffix
    whose base family is declared. Lines are those of
    ``text.splitlines()``. Raises ``ValueError`` on malformed lines, a
    sample of an undeclared family, or a missing ``# EOF`` terminator,
    at the first fault in line order.

    One ``findall`` matches every line; only when a line fails is the
    text walked again to find the first that does. Each distinct sample
    name resolves to its family once per ``# TYPE`` run.
    """
    lines = text.splitlines()
    rows = _LINE.findall("\n".join(lines)) if lines else []
    bad = len(rows)
    if bad != len(lines):
        bad = next(index for index, line in enumerate(lines)
                   if _LINE.match(line) is None)
        del rows[bad:]
    declared: set[str] = set()
    #: Sample name -> family, valid until the next ``# TYPE``.
    families: dict[str, str] = {}
    saw_eof = False
    for lineno, (name, labels, value, exlabels, exvalue, exts,
                 comment) in enumerate(rows, start=1):
        if name:
            if saw_eof:
                raise ValueError(f"line {lineno}: content after # EOF")
            exemplar = None
            if exvalue:
                exemplar = (float(exvalue), float(exts) if exts else None)
            family = families.get(name)
            if family is None:
                family = name
                if name.endswith(_SUFFIXES):
                    base = name[:name.rindex("_")]
                    if base in declared:
                        family = base
                if family not in declared:
                    raise ValueError(
                        f"line {lineno}: sample {name!r} without # TYPE")
                families[name] = family
            yield family, None, (
                name, labels[1:-1] if labels else None, value,
                exlabels[1:-1] if exvalue else None, exvalue or None,
                exts or None), float(value), exemplar
        elif comment:
            if saw_eof:
                raise ValueError(f"line {lineno}: content after # EOF")
            parts = comment.split(None, 3)
            if len(parts) >= 2 and parts[1] == "EOF":
                saw_eof = True
            elif len(parts) >= 4 and parts[1] == "TYPE":
                declared.add(parts[2])
                families.clear()
                yield parts[2], parts[3], None, 0.0, None
            elif len(parts) < 2 or parts[1] != "HELP":
                raise ValueError(f"line {lineno}: bad comment {comment!r}")
    if bad < len(lines):
        raise ValueError(f"line {bad + 1}: content after # EOF" if saw_eof
                         else f"line {bad + 1}: bad sample {lines[bad]!r}")
    if not saw_eof:
        raise ValueError("missing # EOF terminator")


def parse_openmetrics(text: str) -> dict[str, dict]:
    """Parse exposition text produced by :func:`render_openmetrics`.

    Returns ``family -> {"type": str, "samples": [Sample, ...]}``,
    where counter/summary suffixes (``_total``, ``_count``, ``_sum``)
    stay on the sample names; a repeated ``# TYPE`` restarts its
    family. Raises ``ValueError`` on malformed lines or a missing
    ``# EOF`` terminator (see :func:`scan_openmetrics`).
    """
    families: dict[str, dict] = {}
    for family, kind, fields, value, exemplar in scan_openmetrics(text):
        if fields is None:
            families[family] = {"type": kind, "samples": []}
            continue
        families[family]["samples"].append(Sample(
            fields[0], _parse_labels(fields[1]), value,
            None if exemplar is None else Exemplar(
                _parse_labels(fields[3]), *exemplar)))
    return families
