"""End-to-end tests for the streaming telemetry pipeline (ISSUE tentpole).

A scenario run with an SLO attached must record bounded timeline series
(goodput, latency percentiles, pool size, CPU), render a fully
self-contained HTML dashboard and a text sparkline view, export valid
OpenMetrics, and survive a persistence round trip. With telemetry
disabled (the default), the pipeline must be invisible: no pump
process, no series, and bit-identical simulation outcomes.
"""

import re

import numpy as np
import pytest

from repro.experiments import run_scenario, sock_shop_cart_scenario
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.obs import (
    NULL,
    Observability,
    SLOSpec,
    parse_openmetrics,
    render_dashboard_html,
    render_openmetrics,
    render_sparklines,
)
from repro.workloads import build_trace

DURATION = 60.0


def _scenario(obs=None, slo=True, seed=42):
    trace = build_trace("steep_tri_phase", duration=DURATION,
                        peak_users=300, min_users=80)
    scenario = sock_shop_cart_scenario(
        trace=trace, controller="sora", autoscaler="firm", seed=seed,
        obs=obs)
    if slo and obs is not None and obs:
        scenario.slo = SLOSpec(name="cart-rt", latency_threshold=0.4)
    return scenario


@pytest.fixture(scope="module")
def telemetry_run():
    obs = Observability()
    result = run_scenario(_scenario(obs=obs), duration=DURATION)
    return obs, result


@pytest.mark.integration
class TestTimelineEmission:
    def test_core_series_are_recorded(self, telemetry_run):
        obs, _result = telemetry_run
        names = obs.timeline.names()
        for expected in ("goodput", "latency.p50", "latency.p99",
                         "slo.budget_remaining"):
            assert expected in names, f"missing series {expected}"
        assert any(name.startswith("pool.") for name in names)
        assert any(name.startswith("cpu.") for name in names)
        assert any(name.startswith("burn.") for name in names)

    def test_series_are_bounded_and_in_sim_time(self, telemetry_run):
        obs, _result = telemetry_run
        for name, series in obs.timeline.items():
            assert len(series) <= series.capacity
            times, _values = series.data()
            assert times.size > 0, f"series {name} is empty"
            assert times[0] >= 0.0
            # run_scenario allows a 2 s drain past the workload window.
            assert times[-1] <= DURATION + 2.0
            assert list(times) == sorted(times)

    def test_percentiles_are_ordered(self, telemetry_run):
        obs, _result = telemetry_run
        _t50, p50 = obs.timeline.series("latency.p50").latest()
        _t99, p99 = obs.timeline.series("latency.p99").latest()
        assert 0.0 < p50 <= p99

    def test_percentiles_cover_their_own_tick(self, telemetry_run):
        # Per-interval quantiles, not run-lifetime ones: the last p99 is
        # the quantile of the requests completed in the last tick only.
        obs, result = telemetry_run
        when, p99 = obs.timeline.series("latency.p99").latest()
        completed = result.completion_times
        tick = result.response_times[(completed >= when - 1.0)
                                     & (completed < when)]
        assert tick.size > 0
        assert p99 == np.quantile(tick, 0.99)

    def test_slo_monitor_attached_and_fed(self, telemetry_run):
        obs, result = telemetry_run
        assert obs.slo is not None
        assert obs.slo.spec.name == "cart-rt"
        assert obs.slo.total > 0
        # The monitor saw the same traffic the result reports.
        assert obs.slo.total <= result.total_submitted

    def test_slo_requires_enabled_obs(self):
        scenario = _scenario(obs=None, slo=False)
        scenario.slo = SLOSpec(name="x", latency_threshold=0.4)
        with pytest.raises(ValueError, match="enabled Observability"):
            run_scenario(scenario, duration=5.0)


@pytest.mark.integration
class TestDashboard:
    def test_html_is_self_contained(self, telemetry_run):
        obs, _result = telemetry_run
        html = render_dashboard_html(obs, title="telemetry-run")
        assert html.lstrip().startswith("<!DOCTYPE html>")
        # No external fetches of any kind: scripts, styles, images,
        # fonts all inline.
        assert "http://" not in html
        assert "https://" not in html
        assert not re.search(r'src\s*=\s*["\'](?!data:)', html)
        assert "<link" not in html
        assert "@import" not in html
        for name in ("goodput", "latency.p99"):
            assert name in html

    def test_html_shows_annotations(self, telemetry_run):
        obs, _result = telemetry_run
        html = render_dashboard_html(obs, title="telemetry-run")
        # The Sora run applies decisions; each becomes a marker.
        if obs.decisions.applied():
            assert "marker-decision" in html

    def test_sparklines_render(self, telemetry_run):
        obs, _result = telemetry_run
        text = render_sparklines(obs, title="telemetry-run")
        assert "goodput" in text
        assert "latency.p99" in text

    def test_empty_obs_raises(self):
        with pytest.raises(ValueError):
            render_dashboard_html(Observability(), title="empty")


@pytest.mark.integration
class TestOpenMetrics:
    def test_round_trip(self, telemetry_run):
        obs, _result = telemetry_run
        text = render_openmetrics(obs)
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)
        assert "repro_slo_requests" in families
        samples = families["repro_slo_requests"]["samples"]
        by_verdict = {s.labels["verdict"]: s.value for s in samples}
        assert by_verdict["good"] == obs.slo.good_total
        assert by_verdict["bad"] == obs.slo.bad_total
        compliance = families["repro_slo_compliance"]["samples"][0]
        assert compliance.value == pytest.approx(obs.slo.compliance())

    def test_parser_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE x gauge\nx 1\n")

    def test_parser_rejects_untyped_sample(self):
        with pytest.raises(ValueError, match="without # TYPE"):
            parse_openmetrics("mystery 1\n# EOF\n")


@pytest.mark.integration
class TestPersistenceRoundTrip:
    def test_telemetry_survives_save_load(self, telemetry_run):
        obs, result = telemetry_run
        clone = result_from_dict(result_to_dict(result))
        assert clone.obs  # telemetry restored as an enabled scope
        assert clone.obs.timeline.names() == obs.timeline.names()
        for name in obs.timeline.names():
            np.testing.assert_allclose(
                clone.obs.timeline.series(name).data()[1],
                obs.timeline.series(name).data()[1], atol=1e-6)
        assert clone.obs.slo is not None
        assert clone.obs.slo.good_total == obs.slo.good_total
        assert len(clone.obs.decisions) == len(obs.decisions)

    def test_restored_run_renders_dashboard_and_openmetrics(
            self, telemetry_run):
        obs, result = telemetry_run
        clone = result_from_dict(result_to_dict(result))
        html = render_dashboard_html(clone.obs, title=clone.name)
        assert "goodput" in html
        families = parse_openmetrics(render_openmetrics(clone.obs))
        assert "repro_slo_compliance" in families

    def test_runs_without_telemetry_persist_unchanged(self):
        result = run_scenario(_scenario(), duration=10.0)
        payload = result_to_dict(result)
        assert "telemetry" not in payload
        clone = result_from_dict(payload)
        assert not clone.obs


@pytest.mark.integration
class TestDisabledModePurity:
    def test_default_run_has_no_telemetry_machinery(self):
        scenario = _scenario()
        assert scenario.obs is NULL
        run_scenario(scenario, duration=10.0)
        assert not scenario.obs.timeline
        assert scenario.obs.slo is None

    def test_telemetry_is_a_pure_observer(self):
        # Same seed, with and without the full pipeline: the simulation
        # must compute bit-identical outcomes (the pump only reads).
        plain = run_scenario(_scenario(), duration=30.0)
        obs = Observability()
        observed = run_scenario(_scenario(obs=obs), duration=30.0)
        np.testing.assert_array_equal(plain.response_times,
                                      observed.response_times)
        np.testing.assert_array_equal(plain.completion_times,
                                      observed.completion_times)
        assert plain.total_submitted == observed.total_submitted


@pytest.mark.integration
class TestSpanIdDeterminism:
    def test_two_runs_in_one_process_allocate_identical_ids(self):
        ids = []
        for _attempt in range(2):
            scenario = _scenario(slo=False)
            run_scenario(scenario, duration=10.0)
            ids.append([
                span.span_id
                for root in scenario.app.warehouse.traces()
                for span in root.walk()])
        assert ids[0], "run produced no traces"
        assert ids[0] == ids[1]


class TestTraceExemplars:
    """Exemplar trace ids on the OpenMetrics trace families."""

    def scope(self, traces=20):
        from repro.tracing import (
            CriticalPathAggregator,
            TailSampler,
            TraceWarehouse,
        )
        from tests.test_tracing_sampling import make_trace

        obs = Observability(telemetry=False)
        warehouse = TraceWarehouse(
            sampler=TailSampler(1.0, np.random.default_rng(0),
                                slo_threshold=0.05),
            analytics=CriticalPathAggregator())
        obs.attach_trace_analytics(warehouse)
        for index in range(traces):
            warehouse.record(make_trace(
                trace_id=index + 1,
                duration=0.01 * (index + 1)))
        return obs, warehouse

    def test_histogram_exemplar_pins_the_slowest_trace(self):
        obs, warehouse = self.scope()
        histogram = obs.registry.histogram("trace.latency")
        assert histogram.count == 20
        slowest = warehouse.analytics.slowest
        # One sketch: the registry entry is the aggregator's duration,
        # its exemplar the aggregator's slowest trace.
        assert histogram is warehouse.analytics.duration
        assert histogram.exemplar is slowest
        assert slowest.trace_id == 20
        assert slowest.value == pytest.approx(0.2)

    def test_exemplars_survive_render_and_reparse(self):
        obs, warehouse = self.scope()
        families = parse_openmetrics(render_openmetrics(obs))
        slowest = warehouse.analytics.slowest
        for family in ("repro_trace_latency",
                       "repro_trace_critical_path_duration_seconds"):
            counts = [s for s in families[family]["samples"]
                      if s.name.endswith("_count")]
            assert counts, family
            exemplar = counts[0].exemplar
            assert exemplar is not None, family
            assert exemplar.trace_id == slowest.trace_id
            assert exemplar.value == pytest.approx(slowest.value)

    def test_per_service_exemplars_link_self_time_peaks(self):
        obs, warehouse = self.scope()
        families = parse_openmetrics(render_openmetrics(obs))
        samples = families["repro_trace_self_time_seconds"]["samples"]
        by_service = {s.labels["service"]: s.exemplar
                      for s in samples if s.name.endswith("_count")}
        expected = warehouse.analytics.slowest_by_service
        assert set(by_service) == set(expected)
        for service, exemplar in by_service.items():
            assert exemplar.trace_id == expected[service].trace_id

    def test_sampling_coverage_families_render(self):
        obs, _warehouse = self.scope()
        families = parse_openmetrics(render_openmetrics(obs))
        seen = families["repro_trace_sampling_seen"]["samples"][0]
        assert seen.labels == {"sampler": "tail"}
        assert seen.value == 20
        assert families["repro_trace_sampling_slo_retention"][
            "samples"][0].value == 1.0
        # Ordinary samples default to carrying no exemplar.
        assert seen.exemplar is None
