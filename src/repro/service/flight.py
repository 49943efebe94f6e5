"""Re-export of :class:`repro.obs.flight.FlightRecorder`.

The benchmark's per-layer tracer (``bench/layers.py``) wraps
``FlightRecorder.record_round`` by this module path, so the path stays.
"""

from repro.obs.flight import FlightRecorder

__all__ = ["FlightRecorder"]
