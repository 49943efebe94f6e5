"""Integration tests: full stack (topology + workload + controllers).

These run small but complete closed-loop experiments — the same wiring
the benchmark harness uses — and assert the paper's qualitative claims
at miniature scale.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.experiments import (
    run_scenario,
    social_network_drift_scenario,
    sock_shop_cart_scenario,
)
from repro.workloads import WorkloadTrace, big_spike, steep_tri_phase

pytestmark = pytest.mark.integration

#: Adaptation actions of the embedded controller, recorded from a run
#: of the same scenario; any change to the adapter's decisions shows up
#: here as a diff.
GOLDEN_ACTIONS = (pathlib.Path(__file__).resolve().parent / "golden"
                  / "controller_actions")


def assert_actions_match_golden(name, actions):
    observed = [dataclasses.asdict(action) for action in actions]
    expected = json.loads(
        (GOLDEN_ACTIONS / f"{name}.json").read_text(encoding="utf-8"))
    assert observed == expected


def flat_trace(users, duration):
    return WorkloadTrace("flat", duration, users, users, lambda u: 1.0)


class TestSockShopScenario:
    def test_runs_and_collects_series(self):
        trace = flat_trace(150, 30.0)
        scenario = sock_shop_cart_scenario(trace=trace, controller="sora",
                                           autoscaler="firm")
        result = run_scenario(scenario, duration=30.0)
        assert result.response_times.size > 1000
        assert "cart.threads.allocation" in result.samples
        assert result.goodput() > 0
        assert result.throughput() >= result.goodput()

    def test_sora_beats_no_adaptation_under_burst(self):
        """Miniature Table 2: Sora+FIRM must beat FIRM alone on a trace
        whose burst exceeds the initial thread allocation."""
        results = {}
        for controller in ("none", "sora"):
            trace = steep_tri_phase(duration=150.0, peak_users=420,
                                    min_users=80)
            scenario = sock_shop_cart_scenario(
                trace=trace, controller=controller, autoscaler="firm")
            results[controller] = run_scenario(scenario, duration=150.0)
        assert results["sora"].goodput() > results["none"].goodput()
        assert_actions_match_golden("sock_shop_burst",
                                    scenario.controller.actions)

    def test_deterministic_given_seed(self):
        outputs = []
        for _ in range(2):
            trace = big_spike(duration=40.0, peak_users=200, min_users=50)
            scenario = sock_shop_cart_scenario(
                trace=trace, controller="sora", autoscaler="firm", seed=9)
            result = run_scenario(scenario, duration=40.0)
            outputs.append((result.response_times.sum(),
                            result.response_times.size))
        assert outputs[0] == outputs[1]

    def test_seed_changes_outcome(self):
        outputs = []
        for seed in (1, 2):
            trace = big_spike(duration=30.0, peak_users=150, min_users=50)
            scenario = sock_shop_cart_scenario(
                trace=trace, controller="none", autoscaler="none",
                seed=seed)
            result = run_scenario(scenario, duration=30.0)
            outputs.append(result.response_times.sum())
        assert outputs[0] != outputs[1]

    def test_firm_scales_cart_only(self):
        trace = flat_trace(430, 90.0)
        scenario = sock_shop_cart_scenario(trace=trace, controller="none",
                                           autoscaler="firm")
        result = run_scenario(scenario, duration=90.0)
        assert result.scale_events, "overload must trigger FIRM"
        assert all(e.service == "cart" for e in result.scale_events)
        assert all(e.kind == "vertical" for e in result.scale_events)

    def test_conscale_adapts_but_ignores_latency(self):
        trace = flat_trace(420, 90.0)
        scenario = sock_shop_cart_scenario(
            trace=trace, controller="conscale", autoscaler="vpa")
        result = run_scenario(scenario, duration=90.0)
        # ConScale adapts (throughput knee) ...
        assert result.adaptation_actions
        # ... and its estimates carry no latency threshold.
        assert all(a.threshold == float("inf")
                   for a in result.adaptation_actions)
        assert_actions_match_golden("sock_shop_conscale_vpa",
                                    result.adaptation_actions)


class TestSocialNetworkScenario:
    def test_drift_scenario_runs(self):
        trace = flat_trace(300, 60.0)
        scenario = social_network_drift_scenario(
            trace=trace, controller="sora", autoscaler="hpa",
            drift_at=30.0)
        result = run_scenario(scenario, duration=60.0)
        assert result.response_times.size > 5000
        key = "home-timeline.poststorage->post-storage.allocation"
        assert key in result.samples

    def test_sora_improves_goodput_after_drift(self):
        results = {}
        for controller in ("none", "sora"):
            trace = flat_trace(450, 120.0)
            scenario = social_network_drift_scenario(
                trace=trace, controller=controller, autoscaler="hpa",
                drift_at=40.0)
            results[controller] = run_scenario(scenario, duration=120.0)
        assert results["sora"].goodput() > results["none"].goodput()
        assert_actions_match_golden("social_network_drift",
                                    scenario.controller.actions)

    def test_heavy_phase_slower_than_light(self):
        trace = flat_trace(300, 80.0)
        scenario = social_network_drift_scenario(
            trace=trace, controller="none", autoscaler="none",
            drift_at=40.0)
        result = run_scenario(scenario, duration=80.0)
        light = result.response_times[result.completion_times < 40.0]
        heavy = result.response_times[result.completion_times > 45.0]
        assert np.percentile(heavy, 95) > 2 * np.percentile(light, 95)


class TestResultApi:
    def test_summary_and_series_helpers(self):
        trace = flat_trace(100, 20.0)
        scenario = sock_shop_cart_scenario(trace=trace, controller="none",
                                           autoscaler="none")
        result = run_scenario(scenario, duration=20.0)
        row = result.summary_row()
        assert set(row) == {"requests", "throughput_rps", "goodput_rps",
                            "p50_ms", "p95_ms", "p99_ms"}
        times, gp = result.goodput_series(interval=5.0)
        assert len(times) == 4
        times, rt = result.response_time_series(interval=5.0)
        assert len(rt) == 4
        with pytest.raises(KeyError):
            result.series("bogus")

    def test_goodput_threshold_monotone(self):
        trace = flat_trace(100, 20.0)
        scenario = sock_shop_cart_scenario(trace=trace, controller="none",
                                           autoscaler="none")
        result = run_scenario(scenario, duration=20.0)
        assert result.goodput(0.05) <= result.goodput(0.5)
