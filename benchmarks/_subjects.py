"""Calibrated estimation subjects shared by the Fig. 9 and Table 1
benches.

Each subject pins one of the paper's three instrumented soft resources
at an operating point where the resource actually *binds* (an interior
goodput optimum exists), so model-validation and accuracy measurements
are meaningful:

- **Cart threads**: the 2-core SpringBoot-style Cart under an
  oscillating load that sweeps its thread pool through under- and
  over-allocation.
- **Catalogue DB connections**: Catalogue given enough CPU that the
  database stage (heavier per-query demand) is the contended stage its
  connection pool gates.
- **Post Storage request connections**: the heavy (10-post) request
  mix, under which connection holding times stretch on the downstream
  store (cf. Fig. 3(f)).
"""

from __future__ import annotations

import math

import numpy as np

from repro.app.topologies import (
    build_social_network,
    build_sock_shop,
    set_request_weight,
)
from repro.core import ClientPoolTarget, ThreadPoolTarget
from repro.sim import Environment, RandomStreams
from repro.workloads import ClosedLoopDriver, WorkloadTrace

THRESHOLD = 0.200


def oscillating(duration: float, peak: int, low: int) -> WorkloadTrace:
    """The bursty profile used for scatter collection (6 cycles)."""
    return WorkloadTrace(
        "osc", duration, peak, low,
        lambda u: 0.5 + 0.5 * math.sin(2 * math.pi * 6.0 * u))


class EstimationSubject:
    """A service + soft resource + calibrated workload."""

    def __init__(self, name: str, build, request_type: str,
                 peak_users: int, sweep_candidates: list[int]) -> None:
        self.name = name
        self.build = build  # (env, streams, allocation) -> (app, target)
        self.request_type = request_type
        self.peak_users = peak_users
        self.sweep_candidates = sweep_candidates

    def start_run(self, allocation: int, duration: float, seed: int):
        """Assemble app + driver; returns (env, app, target)."""
        env = Environment()
        streams = RandomStreams(seed)
        app, target = self.build(env, streams, allocation)
        trace = oscillating(duration, self.peak_users,
                            self.peak_users // 4)
        driver = ClosedLoopDriver(env, app, self.request_type, trace,
                                  streams.stream("drv"), ramp_up=5.0)
        driver.start()
        return env, app, target

    def goodput(self, app, duration: float) -> float:
        latencies = app.latency[self.request_type].window()[1]
        return float(
            np.count_nonzero(latencies <= THRESHOLD)) / duration


def _build_cart(env, streams, allocation):
    app = build_sock_shop(env, streams, cart_threads=allocation,
                          cart_cores=2.0)
    return app, ThreadPoolTarget(app.service("cart"))


def _build_catalogue(env, streams, allocation):
    app = build_sock_shop(env, streams,
                          catalogue_db_connections=allocation,
                          catalogue_cores=4.0,
                          catalogue_db_demand_ms=12.0)
    return app, ClientPoolTarget(app.service("catalogue"), "db",
                                 app.service("catalogue-db"))


def _build_post_storage(env, streams, allocation):
    app = build_social_network(env, streams,
                               post_storage_connections=allocation,
                               post_storage_replicas=1)
    set_request_weight(app, 10)  # heavy requests: conns bind
    return app, ClientPoolTarget(app.service("home-timeline"),
                                 "poststorage",
                                 app.service("post-storage"))


CART = EstimationSubject("Cart threads", _build_cart, "cart", 420,
                         [4, 6, 8, 10, 15])
CATALOGUE = EstimationSubject("Catalogue DB conns", _build_catalogue,
                              "catalogue", 420, [3, 4, 5, 6, 7, 8])
POST_STORAGE = EstimationSubject("Post Storage conns",
                                 _build_post_storage,
                                 "read_home_timeline", 480,
                                 [3, 4, 6, 8, 10])

ALL_SUBJECTS = [CART, CATALOGUE, POST_STORAGE]
