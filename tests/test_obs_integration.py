"""End-to-end acceptance for the observability layer (ISSUE tentpole).

A Sock Shop run under the Sora controller must yield a decision log in
which every pool-size change is traceable — to the knee point the SCG
model accepted, or to the named adaptation rule that fired — always
with the propagated RT threshold recorded, and the explainability
report must render it. Observability must also be a pure observer:
enabling it must not change what the simulation computes.
"""

import numpy as np
import pytest

from repro.experiments import run_scenario, sock_shop_cart_scenario
from repro.obs import (
    PHASES,
    DecisionLog,
    Observability,
    render_html,
    render_text,
)
from repro.sim import Environment
from repro.workloads import build_trace

DURATION = 120.0

#: Rules whose decisions are not model-estimate-driven, so a knee point
#: is not expected (the reason itself is the explanation).
RULE_REASONS = {
    "saturation-grow", "saturation-capped", "overload-shed",
    "overload-floor", "edge-grow", "edge-shrink", "proportional",
    "replica-track",
}


def _run(obs=None, seed=42):
    trace = build_trace("steep_tri_phase", duration=DURATION,
                        peak_users=450, min_users=80)
    scenario = sock_shop_cart_scenario(
        trace=trace, controller="sora", autoscaler="firm", seed=seed,
        obs=obs)
    return run_scenario(scenario, duration=DURATION)


@pytest.fixture(scope="module")
def observed_run():
    obs = Observability()
    result = _run(obs=obs)
    return obs, result


@pytest.mark.integration
class TestDecisionTraceability:
    def test_every_pool_change_is_explained(self, observed_run):
        obs, result = observed_run
        applied = obs.decisions.applied()
        assert applied, "run produced no adaptation decisions"
        for when, decision in applied:
            assert decision.after != decision.before
            assert decision.reason, f"t={when}: decision without reason"
            # Sora propagates a finite RT threshold to the target; every
            # change must record the threshold it was made under.
            assert decision.threshold is not None
            assert 0.0 < decision.threshold < 10.0
            if decision.reason in ("knee", "argmax"):
                # Model-driven: the knee/argmax point and the fit that
                # produced it must be on the record.
                assert decision.method == decision.reason
                assert decision.knee_concurrency is not None
                assert decision.poly_degree is not None
                assert decision.samples and decision.samples > 0
            else:
                assert decision.reason in RULE_REASONS

    def test_changes_match_controller_actions(self, observed_run):
        obs, result = observed_run
        applied = obs.decisions.applied()
        # One applied decision per recorded adaptation action, in the
        # same order with the same allocations: the audit trail is the
        # controller's actual history, not a parallel account.
        actions = result.adaptation_actions
        assert len(applied) == len(actions)
        for (_when, decision), action in zip(applied, actions):
            assert decision.after == action.after
            assert decision.before == action.before

    def test_rounds_carry_localization_context(self, observed_run):
        obs, _result = observed_run
        periodic = [r for r in obs.decisions.rounds()
                    if r.trigger == "periodic"]
        assert periodic
        localized = [r for r in periodic if r.critical_service]
        assert localized, "no round localized a critical service"
        for record in localized:
            assert record.correlations
            assert record.critical_service in record.correlations
            assert record.traces > 0
            assert record.wall_ms is not None

    def test_scale_events_recorded(self, observed_run):
        obs, result = observed_run
        recorded = obs.decisions.scale_events()
        assert len(recorded) == len(result.scale_events)
        for rec, event in zip(recorded, result.scale_events):
            assert (rec.time, rec.service, rec.before, rec.after) == \
                (event.time, event.service, event.before, event.after)
            assert rec.autoscaler == "FirmAutoscaler"

    def test_profiles_and_metrics_populated(self, observed_run):
        obs, _result = observed_run
        phases = obs.flight.phase_summary()
        for phase in PHASES + ("estimate",):
            assert phases[phase]["count"] > 0
        assert phases["run"]["count"] == 1
        metrics = obs.registry.snapshot()
        assert metrics["sim.events"]["value"] > 10_000
        assert metrics["controller.rounds"]["value"] > 0
        assert metrics["sampler.ticks"]["value"] > 0
        # Every periodic round is self-traced, and its wall time is the
        # one stamped on the round's decision record.
        assert obs.flight.rounds_recorded == \
            metrics["controller.rounds"]["value"]
        periodic = [r for r in obs.decisions.rounds()
                    if r.trigger == "periodic"]
        assert [r.wall_ms for r in periodic[-len(obs.flight):]] == \
            [entry["wall_ms"] for entry in obs.flight.summaries()]
        _times, depths = obs.timeline.series("sim.queue_depth").data()
        assert depths.size > 0 and depths.max() > 0

    def test_report_renders_the_run(self, observed_run):
        obs, _result = observed_run
        text = render_text(obs, title="acceptance")
        assert "cart.threads" in text
        assert "Adaptation timeline" in text
        assert "Event loop: " in text and "queue depth mean" in text
        html = render_html(obs, title="acceptance")
        assert html.startswith("<!DOCTYPE html>")
        assert "cart.threads" in html

    def test_jsonl_round_trip(self, observed_run, tmp_path):
        obs, _result = observed_run
        path = tmp_path / "decisions.jsonl"
        count = obs.decisions.write_jsonl(path)
        assert count == len(obs.decisions)
        restored = DecisionLog.read_jsonl(path)
        assert restored.to_jsonl() == obs.decisions.to_jsonl()
        assert [d.after for _t, d in restored.applied()] == \
            [d.after for _t, d in obs.decisions.applied()]


@pytest.mark.integration
class TestObserverPurity:
    def test_no_per_event_monitor(self, monkeypatch):
        calls = []
        original = Environment.add_monitor

        def recording(env, monitor):
            calls.append(monitor)
            original(env, monitor)

        monkeypatch.setattr(Environment, "add_monitor", recording)
        result = _run(obs=Observability())
        assert result.obs.flight.rounds_recorded > 0
        assert calls == []

    def test_enabling_observability_changes_nothing(self, observed_run):
        _obs, observed = observed_run
        plain = _run(obs=None)
        # Same seed, observability off: identical simulated outcomes.
        assert plain.total_submitted == observed.total_submitted
        np.testing.assert_array_equal(plain.response_times,
                                      observed.response_times)
        assert [(e.time, e.service, e.after)
                for e in plain.scale_events] == \
            [(e.time, e.service, e.after)
             for e in observed.scale_events]
        assert [a.after for a in plain.adaptation_actions] == \
            [a.after for a in observed.adaptation_actions]
        # And the unobserved run recorded nothing.
        assert len(plain.obs.decisions) == 0
        assert not plain.obs
