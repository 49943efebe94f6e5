"""The control plane's columnar series store against the per-series
state it replaced, and checkpoint compatibility across the change.

:class:`OracleSeries` is that per-series state: one two-column
:class:`~repro.metrics.sampler.TimeSeries` of ``(concurrency, rate)``
per service, windowed and pruned one service at a time. :class:`OraclePlane` applies snapshots
to it the way the control plane did, stale-snapshot rejection
included. Every window the store serves must equal the oracle's, bit
for bit.

The golden files under ``golden/service_checkpoint`` hold a checkpoint
cut after the first ``GOLDEN_CUT`` entries of :func:`golden_stimuli`,
the journal tail after the cut (kept as written: span ids in the trace
batches come from a process-wide counter), and the decision JSONL of
the whole run. The per-series implementation wrote the tail and
``checkpoint_without_processing.json``, a checkpoint from before the
plane kept span processing times; the plane's shared adaptation policy
wrote ``checkpoint_v1.json`` and the decisions, with series state
identical to the older checkpoint's. Both are version 1, whose
analytics sketches are P² marker states. ``checkpoint.json`` is the
same cut at version 2, whose sketches are log-bucketed.
"""

import json
import pathlib
import random

import numpy as np
import pytest

from repro.core.scg import ScatterModelConfig
from repro.metrics.sampler import TimeSeries
from repro.service import (
    ControlPlane,
    IngestError,
    ServiceConfig,
    parse_metrics_snapshot,
    render_snapshot,
)
from repro.tracing.export import export_traces
from repro.tracing.span import Span

GOLDEN = (pathlib.Path(__file__).resolve().parent / "golden"
          / "service_checkpoint")


class OracleSeries:
    """One service's ``(concurrency, rate)`` pairs in a time log."""

    def __init__(self) -> None:
        self.log = TimeSeries(2)
        self.utilization = None
        self.allocation = None
        self.snapshots = 0
        self.updated = 0.0

    def observe(self, time, concurrency, rate, utilization, allocation):
        self.log.append(time, float(concurrency), float(rate))
        if utilization is not None:
            self.utilization = float(utilization)
        if allocation is not None:
            self.allocation = max(1, int(round(allocation)))
        self.snapshots += 1
        self.updated = time

    def pairs(self, since):
        _times, concurrency, rate = self.log.window(since)
        return concurrency, rate

    def prune(self, before):
        self.log.prune(before)

    def state_dict(self):
        times, concurrency, rate = self.log.window(float("-inf"))
        return {"concurrency": {"times": times.tolist(),
                                "values": concurrency.tolist()},
                "rate": {"times": times.tolist(), "values": rate.tolist()},
                "utilization": self.utilization,
                "allocation": self.allocation,
                "snapshots": self.snapshots, "updated": self.updated}


class OraclePlane:
    """Per-series snapshot bookkeeping: series limit, stale check,
    utilization-only enrichment."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.series: dict[str, OracleSeries] = {}
        self.now = 0.0

    def ingest(self, text: str) -> str | None:
        """Apply one snapshot; the rejection code, or ``None``."""
        snapshot = parse_metrics_snapshot(text, self.config).series
        fresh = [name for name in snapshot if name not in self.series]
        if len(self.series) + len(fresh) > self.config.max_series:
            return "series-limit"
        time = parse_metrics_snapshot(text, self.config).time
        now = time if time is not None else self.now + 1.0
        if any(not (np.isnan(sample.concurrency) or np.isnan(sample.rate))
               and name in self.series
               and self.series[name].snapshots > 0
               and now < self.series[name].updated
               for name, sample in snapshot.items()):
            return "stale-snapshot"
        self.now = max(self.now, now)
        for name, sample in snapshot.items():
            state = self.series.setdefault(name, OracleSeries())
            if np.isnan(sample.concurrency) or np.isnan(sample.rate):
                if sample.utilization is not None:
                    state.utilization = float(sample.utilization)
                continue
            state.observe(now, sample.concurrency, sample.rate,
                          sample.utilization, sample.allocation)
        return None


def ingest(plane: ControlPlane, text: str) -> str | None:
    try:
        plane.ingest_metrics(text)
    except IngestError as exc:
        return exc.code
    return None


def store_windows(plane: ControlPlane, names, since):
    return plane._store.windows(names, since)


def assert_same_state(plane: ControlPlane, oracle: OraclePlane,
                      sinces) -> None:
    names = list(oracle.series)
    assert plane._store.names == names  # first-seen column order
    for since in sinces:
        for name, (concurrency, rate) in zip(
                names, store_windows(plane, names, since)):
            want_c, want_r = oracle.series[name].pairs(since)
            assert concurrency.tobytes() == want_c.tobytes(), (name, since)
            assert rate.tobytes() == want_r.tobytes(), (name, since)
    assert json.dumps(plane.checkpoint()["series"], sort_keys=True) == \
        json.dumps({name: oracle.series[name].state_dict()
                    for name in sorted(oracle.series)}, sort_keys=True)


def config(**overrides) -> ServiceConfig:
    defaults = dict(window=4.0, max_pending=10**6, decide_top_k=0,
                    scatter=ScatterModelConfig(min_samples=3,
                                               min_distinct=3,
                                               quantum=1.0))
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_store_edge_cases_match_per_series_state():
    cfg = config()
    plane, oracle = ControlPlane(cfg), OraclePlane(cfg)

    def feed(now, utilization, concurrency, goodput, allocation=None,
             expect=None):
        text = render_snapshot(now, utilization, concurrency, goodput,
                               allocation)
        assert ingest(plane, text) == oracle.ingest(text) == expect

    # a and b paired, c utilization-only.
    feed(1.0, {"c": 0.8}, {"a": 1.0, "b": 2.0}, {"a": 10.0, "b": 20.0},
         {"a": 2.4})
    # b skips a snapshot; d appears late.
    feed(2.0, {}, {"a": 2.0, "d": 1.0}, {"a": 11.0, "d": 5.0})
    # A second snapshot at the same timestamp.
    feed(2.0, {"a": 0.9}, {"a": 3.0, "d": 2.0}, {"a": 12.0, "d": 6.0},
         {"a": 3.5})
    # An older time than the plane clock, accepted for lagging b.
    feed(1.5, {}, {"b": 3.0}, {"b": 21.0})
    # a utilization-only between a's pairs (e pairs in its place).
    feed(0.5, {"a": 0.95}, {"e": 1.0}, {"e": 1.0})
    # An older time for a: rejected, nothing changes.
    feed(1.0, {}, {"a": 9.0, "f": 1.0}, {"a": 9.0, "f": 1.0},
         expect="stale-snapshot")
    feed(3.0, {}, {"a": 4.0, "b": 4.0}, {"a": 13.0, "b": 22.0})
    # Windows starting exactly at a sample time keep that sample.
    times = (0.5, 1.0, 1.5, 2.0, 3.0)
    assert_same_state(plane, oracle, (0.0,) + times + (3.5,))
    # Prune at exactly 1.0 (tick at 9.0 with window 4.0): the samples
    # at 1.0 survive, the one at 0.5 goes.
    plane.tick(now=9.0)
    for series in oracle.series.values():
        series.prune(1.0)
    assert_same_state(plane, oracle, (0.0,) + times)
    assert [len(window[0]) for window in store_windows(
        plane, ["a", "b", "e"], 0.0)] == [4, 3, 0]
    # Then at 1.5: the samples at 1.0 go, b's lagging one stays.
    plane.tick(now=9.5)
    for series in oracle.series.values():
        series.prune(1.5)
    assert_same_state(plane, oracle, (0.0,) + times)
    assert plane.checkpoint()["series"]["b"]["concurrency"] == {
        "times": [1.5, 3.0], "values": [3.0, 4.0]}
    assert plane.checkpoint()["series"]["a"]["allocation"] == 4


@pytest.mark.parametrize("seed", range(6))
def test_random_streams_match_per_series_state(seed):
    rng = random.Random(seed)
    cfg = config(max_series=14)
    plane, oracle = ControlPlane(cfg), OraclePlane(cfg)
    services = [f"s{index:02d}" for index in range(16)]
    clock = 1.0
    codes = set()
    for _step in range(160):
        if rng.random() < 0.12:
            now = clock + rng.choice([0.0, 0.5, 3.0])
            plane.tick(now=now)
            for series in oracle.series.values():
                series.prune(now - 2.0 * cfg.window)
            continue
        clock += rng.choice([0.0, 0.0, 0.5, 1.0])
        now = clock - (rng.choice([0.5, 1.0, 4.0])
                       if rng.random() < 0.2 else 0.0)
        paired = rng.sample(services, rng.randrange(1, 6))
        text = render_snapshot(
            now,
            {name: rng.random() for name in rng.sample(services, 3)},
            {name: float(rng.randrange(0, 8)) for name in paired},
            {name: rng.uniform(0.0, 50.0) for name in paired},
            {name: rng.uniform(0.5, 9.0) for name in paired
             if rng.random() < 0.3})
        code = ingest(plane, text)
        assert code == oracle.ingest(text)
        codes.add(code)
        sinces = (now - cfg.window, now, clock - 1.0,
                  rng.choice([0.0, now - 0.5]))
        assert_same_state(plane, oracle, sinces)
    assert {None, "stale-snapshot"} <= codes


# ----------------------------------------------------------------------
# Checkpoints written by the per-series store and their successors
# ----------------------------------------------------------------------
def golden_config() -> ServiceConfig:
    return ServiceConfig(
        window=20.0, decide_top_k=0, exclude=("front-end",),
        scatter=ScatterModelConfig(min_samples=8, min_distinct=4,
                                   quantum=1.0))


def _trace(index: int, arrival: float, service: str) -> Span:
    root = Span(trace_id=index + 1, service="front-end",
                operation="request", arrival=arrival)
    root.started = arrival
    child = Span(trace_id=index + 1, service=service, operation="work",
                 arrival=arrival + 0.01, parent=root)
    child.started = child.arrival + 0.002
    child.departure = child.arrival + 0.05 + 0.01 * (index % 7)
    root.departure = child.departure + 0.01
    return root


def golden_stimuli() -> list[tuple[str, float, str | None]]:
    """``(kind, time, body)`` journal entries of a run whose series come
    late, skip scrapes, lag, report utilization only, and share
    timestamps."""
    rng = random.Random(2023)
    services = ["cart", "catalogue", "orders", "payment", "user"]
    knees = {name: rng.uniform(3.0, 9.0) for name in services}
    stimuli: list[tuple[str, float, str | None]] = []
    time = 0.0
    traces = 0
    last: dict[str, float] = {}
    for step in range(90):
        time += rng.choice([0.0, 1.0, 1.0, 1.0, 2.0])
        live = services[:2 + min(3, step // 15)]
        reporting = [name for name in live if rng.random() < 0.8]
        when = time
        if step % 11 == 5:
            # A late scrape: only services that skipped the scrapes
            # since then may report at the older time.
            when = time - 1.5
            reporting = [name for name in live
                         if last.get(name, when) <= when]
        concurrency = {name: float(1 + (step * 7 + index) % 12)
                       for index, name in enumerate(reporting)}
        goodput = {name: 30.0 * q / (1.0 + q / knees[name])
                   + rng.gauss(0.0, 1.0)
                   for name, q in concurrency.items()}
        utilization = {name: round(rng.uniform(0.5, 0.99), 3)
                       for name in live + ["front-end"]
                       if rng.random() < 0.7}
        allocation = {name: rng.randrange(2, 12) for name in reporting
                      if rng.random() < 0.3}
        if not reporting:
            continue
        last.update((name, when) for name in reporting)
        stimuli.append(("metrics", when, render_snapshot(
            when, utilization, concurrency, goodput, allocation)))
        if step % 9 == 8:
            roots = [_trace(traces + index, time - 1.0 + 0.1 * index,
                            rng.choice(live)) for index in range(12)]
            traces += len(roots)
            stimuli.append(("traces", time, export_traces(roots)))
        if step % 10 == 9:
            stimuli.append(("tick", time, None))
    stimuli.append(("tick", time + 1.0, None))
    return stimuli


#: Stimuli applied before the golden checkpoint was cut.
GOLDEN_CUT = 64


def apply(plane: ControlPlane, stimuli) -> None:
    for kind, time, body in stimuli:
        if kind == "metrics":
            plane.ingest_metrics(body)
        elif kind == "traces":
            plane.ingest_traces(body)
        else:
            plane.tick(now=time)


def golden_checkpoint_text(plane: ControlPlane) -> str:
    """A checkpoint body as journal compaction writes it."""
    return json.dumps({"state": plane.checkpoint(),
                       "decisions": plane.decisions_jsonl().splitlines()},
                      sort_keys=True) + "\n"


def golden_tail() -> list[tuple[str, float, str | None]]:
    """The journal entries after the golden checkpoint, as written."""
    return [tuple(json.loads(line)) for line in
            (GOLDEN / "tail.jsonl").read_text().splitlines()]


def test_checkpoint_restores_and_reemits_byte_identically():
    text = (GOLDEN / "checkpoint.json").read_text()
    payload = json.loads(text)
    plane = ControlPlane(golden_config())
    plane.restore(payload["state"])
    plane.seed_decisions(payload["decisions"])
    assert golden_checkpoint_text(plane) == text


def replay_tail_after(name: str) -> None:
    payload = json.loads((GOLDEN / name).read_text())
    plane = ControlPlane(golden_config())
    plane.restore(payload["state"])
    plane.seed_decisions(payload["decisions"])
    apply(plane, golden_tail())
    decisions = (GOLDEN / "decisions.jsonl").read_text()
    assert plane.decisions_jsonl() == decisions
    assert '"outcome": "applied"' in decisions


def test_journal_tail_after_golden_checkpoint_replays_decisions():
    replay_tail_after("checkpoint.json")


def test_journal_tail_after_version_1_checkpoint_replays_decisions():
    replay_tail_after("checkpoint_v1.json")


_SKETCHES = ("duration", "self_time")


def without_sketches(state: dict) -> dict:
    """``state`` minus its version and its analytics sketch entries."""
    analytics = {key: value for key, value in state["analytics"].items()
                 if key not in _SKETCHES}
    return {**state, "version": None, "analytics": analytics}


def legacy_sketches(analytics: dict) -> dict[str, dict]:
    return {"duration": analytics["duration"],
            **{f"self_time.{service}": sketch for service, sketch
               in analytics["self_time"].items()}}


def assert_exact_aggregates(analytics: dict, legacy: dict) -> None:
    """Version-2 sketches carry the version-1 count, sum, min and max
    exactly."""
    sketches = legacy_sketches(analytics)
    assert sketches.keys() == legacy_sketches(legacy).keys()
    for key, old in legacy_sketches(legacy).items():
        new = sketches[key]
        assert (new["count"], new["sum"], new["min"], new["max"]) == \
            (old["count"], old["total"], old["min"], old["max"])
        assert new["zero"] + sum(count for _, count in new["bins"]) == \
            old["count"]


def test_version_1_and_2_checkpoints_differ_only_in_sketches():
    old = json.loads((GOLDEN / "checkpoint_v1.json").read_text())
    new = json.loads((GOLDEN / "checkpoint.json").read_text())
    assert (old["state"]["version"], new["state"]["version"]) == (1, 2)
    assert old["decisions"] == new["decisions"]
    assert without_sketches(old["state"]) == without_sketches(new["state"])
    legacy = old["state"]["analytics"]
    assert_exact_aggregates(new["state"]["analytics"], legacy)
    plane = ControlPlane(golden_config())
    plane.restore(old["state"])
    assert_exact_aggregates(plane.checkpoint()["analytics"], legacy)


def test_checkpoint_without_processing_times_restores():
    # Written before the plane kept span processing times: each of its
    # traces restores with no processing evidence, the rest exactly.
    payload = json.loads(
        (GOLDEN / "checkpoint_without_processing.json").read_text())
    plane = ControlPlane(golden_config())
    plane.restore(payload["state"])
    state = plane.checkpoint()
    assert state.pop("processing") == \
        [[]] * len(payload["state"]["budgets"])
    assert json.dumps(without_sketches(state), sort_keys=True) == \
        json.dumps(without_sketches(payload["state"]), sort_keys=True)
    assert_exact_aggregates(state["analytics"],
                            payload["state"]["analytics"])
    plane.seed_decisions(payload["decisions"])
    rounds = plane.rounds
    apply(plane, golden_tail())
    assert plane.rounds > rounds
    assert len(plane.decisions_jsonl().splitlines()) > \
        len(payload["decisions"])


def test_live_run_writes_the_golden_checkpoint():
    plane = ControlPlane(golden_config())
    apply(plane, golden_stimuli()[:GOLDEN_CUT])
    assert golden_checkpoint_text(plane) == \
        (GOLDEN / "checkpoint.json").read_text()
    apply(plane, golden_tail())
    assert plane.decisions_jsonl() == \
        (GOLDEN / "decisions.jsonl").read_text()
