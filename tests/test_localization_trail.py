"""Golden trail of windowed localization, propagation and residences.

A short Sock Shop cart run under Sora + FIRM (seed 42) records every
localization report both controllers produced, every threshold the
deadline propagator returned, and the conformance harness's per-station
residences for two scenarios. Floats are stored as ``float.hex`` and
dicts as ordered pairs, so a change of one bit or of one dict order
shows up as a diff. Deliberate changes regenerate the golden with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_localization_trail.py
"""

import dataclasses
import json
import os
import pathlib

from repro.experiments import run_scenario, sock_shop_cart_scenario
from repro.validation.conformance import _measure
from repro.validation.scenarios import scenario_by_name
from repro.workloads import steep_tri_phase

GOLDEN = (pathlib.Path(__file__).resolve().parent / "golden"
          / "localization_trail.json")
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") == "1"

#: Conformance scenarios whose residences the trail pins: a plain
#: tandem, and one that visits its downstream station twice per trace.
CONFORMANCE = ("tandem_bottleneck", "repeat_calls")


def report_trail(report) -> dict:
    return {
        "critical_service": report.critical_service,
        "dominant_path": list(report.dominant_path),
        "correlations": [[service, value.hex()]
                         for service, value in report.correlations.items()],
        "path_frequencies": [[list(path), count] for path, count
                             in report.path_frequencies.items()],
        "candidates": list(report.candidates),
    }


def run_trail() -> dict:
    trace = steep_tri_phase(duration=90.0, peak_users=420, min_users=80)
    scenario = sock_shop_cart_scenario(trace=trace, controller="sora",
                                       autoscaler="firm", seed=42)
    propagator = scenario.controller.propagator
    propagate = propagator.propagate
    thresholds = []

    def recording(traces, service):
        deadline = propagate(traces, service)
        thresholds.append([scenario.env.now, service,
                           deadline.threshold.hex(),
                           deadline.upstream_budget.hex(),
                           deadline.samples])
        return deadline

    propagator.propagate = recording
    run_scenario(scenario, duration=90.0)
    residences = {}
    for name in CONFORMANCE:
        conformance = dataclasses.replace(scenario_by_name(name),
                                          duration=60.0)
        _x, _cycle, stations = _measure(conformance, 42)
        residences[name] = [[station, mean.hex(), count]
                            for station, (mean, count) in stations.items()]
    return {
        "controller": [report_trail(report)
                       for report in scenario.controller.reports],
        "autoscaler": [report_trail(report)
                       for report in scenario.autoscaler.reports],
        "thresholds": thresholds,
        "residences": residences,
    }


def test_localization_trail_matches_golden():
    actual = run_trail()
    if REGEN:
        GOLDEN.write_text(json.dumps(actual, indent=1) + "\n",
                          encoding="utf-8")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(actual["controller"]) >= 5
    assert len(actual["autoscaler"]) >= 5
    assert actual["thresholds"]
    for key in expected:
        assert actual[key] == expected[key], key
    assert actual.keys() == expected.keys()
