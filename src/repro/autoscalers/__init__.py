"""Hardware-only autoscalers: HPA, VPA, FIRM-like, and a no-op."""

from repro.autoscalers.base import Autoscaler, NullAutoscaler, ScaleEvent
from repro.autoscalers.firm import FirmAutoscaler
from repro.autoscalers.hpa import HorizontalPodAutoscaler
from repro.autoscalers.vpa import VerticalPodAutoscaler

__all__ = [
    "Autoscaler",
    "FirmAutoscaler",
    "HorizontalPodAutoscaler",
    "NullAutoscaler",
    "ScaleEvent",
    "VerticalPodAutoscaler",
]
