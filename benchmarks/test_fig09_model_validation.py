"""Figure 9 — SCG estimates validated against allocation sweeps.

Three case studies, one per soft-resource kind:

- (a) threads in Cart (SpringBoot-style server pool),
- (b) DB connections in Catalogue (Golang database/sql pool),
- (c) request connections to Post Storage (Thrift ClientPool).

For each: run with a liberal allocation, let the SCG model estimate the
optimal concurrency from the live scatter ("Model Estimation"), then
re-run with the recommendation and adjacent allocations and check the
recommendation achieves (nearly) the highest goodput
("Model Validation").
"""

from benchmarks._common import once, publish, scaled
from benchmarks._subjects import ALL_SUBJECTS, THRESHOLD
from repro.core import SCGModel
from repro.experiments.reporting import ascii_table
from repro.metrics import ConcurrencyGoodputSampler

ESTIMATION_DURATION = 120.0
VALIDATION_DURATION = 60.0
LIBERAL_ALLOCATION = 30


def run_all():
    outcome = {}
    for subject in ALL_SUBJECTS:
        duration = scaled(ESTIMATION_DURATION)
        env, app, target = subject.start_run(
            LIBERAL_ALLOCATION, duration, seed=21)
        sampler = ConcurrencyGoodputSampler(
            env, concurrency_integral=target.concurrency_integral,
            completion_source=target.completion_latencies,
            threshold_provider=lambda: THRESHOLD)
        sampler.start()
        env.run(until=duration + 2.0)
        concurrency, goodput = sampler.pairs(since=env.now - duration)
        estimate = SCGModel().estimate(concurrency, goodput,
                                       threshold=THRESHOLD)
        recommended = (estimate.optimal_concurrency
                       if estimate is not None else LIBERAL_ALLOCATION)

        candidates = sorted({max(2, recommended // 2), recommended,
                             recommended * 2, recommended * 4})
        validation = {}
        for allocation in candidates:
            v_duration = scaled(VALIDATION_DURATION)
            env, app, _target = subject.start_run(allocation,
                                                  v_duration, seed=22)
            env.run(until=v_duration + 2.0)
            validation[allocation] = subject.goodput(app, v_duration)
        outcome[subject.name] = (subject, estimate, recommended,
                                 validation)
    return outcome


def render(outcome) -> str:
    sections = []
    for subject, estimate, recommended, validation in outcome.values():
        method = "-" if estimate is None else estimate.method
        rows = [[alloc, round(gp, 1),
                 "<= SCG recommendation" if alloc == recommended else ""]
                for alloc, gp in sorted(validation.items())]
        sections.append(ascii_table(
            ["allocation",
             f"goodput @{THRESHOLD * 1000:.0f}ms [req/s]", ""],
            rows,
            title=f"--- {subject.name}: SCG recommends {recommended} "
                  f"({method}) ---"))
    return "\n\n".join(sections)


def test_fig09_model_validation(benchmark):
    outcome = once(benchmark, run_all)
    publish("fig09_model_validation", render(outcome))
    for subject, estimate, recommended, validation in outcome.values():
        assert estimate is not None, f"{subject.name}: no estimate"
        best = max(validation, key=validation.get)
        # The recommendation must be at least 90% of the best candidate
        # (the paper's validation shows it beating all adjacent ones).
        assert validation[recommended] >= 0.9 * validation[best], (
            f"{subject.name}: recommended {recommended} "
            f"({validation[recommended]:.1f} req/s) far below best "
            f"{best} ({validation[best]:.1f} req/s)")
