"""``repro.service``: Sora as a standalone control-plane service.

The paper's pipeline — critical-service localization, latency-deadline
propagation, SCG-based soft-resource estimation — packaged as a
long-lived asyncio service any system can point telemetry at, with
clean layering:

- **domain** (:mod:`repro.service.domain`) — config, the columnar
  series store, recommendations, the typed ingest-error taxonomy;
- **adapters** (:mod:`repro.service.ingest`) — strict OpenMetrics
  snapshots (one column per service) and Jaeger-shaped trace batches
  in, domain observations out;
- **application** (:mod:`repro.service.control`) — the online
  localization → propagation → estimation loop over streaming state,
  emitting typed decision records with SLOs on the controller itself;
- **infrastructure** (:mod:`repro.service.api`,
  :mod:`repro.service.audit`) — the stdlib-asyncio HTTP JSON API plus
  JSONL journal/decision persistence with byte-exact audit replay,
  segment rotation, tamper chaining, and checkpoint compaction;
- **observability of the observer** (:mod:`repro.obs.flight`,
  :mod:`repro.service.console`) — the flight recorder that self-traces
  every control round (the same recorder the embedded controller
  uses) and the live ops console that serves it;
- **driver** (:mod:`repro.service.driver`) — the DES simulator as an
  external load generator, closing the loop over real sockets.

CLI entry points: ``repro serve`` boots the service,
``repro service drive`` points the simulator at it,
``repro service replay`` re-derives the decision log from the journal
and verifies byte-identity.
"""

from repro.obs.flight import FlightRecorder
from repro.service.api import ControllerService
from repro.service.audit import (
    AuditJournal,
    JournalEntry,
    journal_segments,
    read_journal,
    replay_journal,
    verify_chain,
    verify_replay,
)
from repro.service.console import render_service_dashboard
from repro.service.control import ControlPlane
from repro.service.domain import (
    IngestError,
    Recommendation,
    SeriesStore,
    ServiceConfig,
)
from repro.service.driver import (
    DriveReport,
    ServiceClient,
    drive,
    render_snapshot,
)
from repro.service.ingest import (
    MetricsSnapshot,
    SeriesSample,
    parse_metrics_snapshot,
    parse_trace_batch,
)

__all__ = [
    "AuditJournal",
    "ControlPlane",
    "ControllerService",
    "DriveReport",
    "FlightRecorder",
    "IngestError",
    "JournalEntry",
    "MetricsSnapshot",
    "Recommendation",
    "SeriesSample",
    "SeriesStore",
    "ServiceClient",
    "ServiceConfig",
    "drive",
    "journal_segments",
    "parse_metrics_snapshot",
    "parse_trace_batch",
    "read_journal",
    "render_service_dashboard",
    "render_snapshot",
    "replay_journal",
    "verify_chain",
    "verify_replay",
]
