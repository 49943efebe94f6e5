"""The paper's primary contribution: the SCG model and Sora framework."""

from repro.core.deadline import DeadlinePropagator, PropagatedDeadline
from repro.core.localization import (
    CriticalServiceLocator,
    LocalizationReport,
)
from repro.core.monitoring import MonitoringModule
from repro.core.scg import (
    ConcurrencyEstimate,
    ScatterCurveModel,
    ScatterModelConfig,
    SCGModel,
    SCTModel,
)
from repro.core.sora import (
    AdaptationAction,
    ConcurrencyAdaptationFramework,
    ConScaleController,
    EstimatorConfig,
    FrameworkConfig,
    SoraController,
)
from repro.core.search import HillClimbConfig, HillClimbController
from repro.core.unified import UnifiedConfig, UnifiedSoraController
from repro.core.targets import (
    ClientPoolTarget,
    SoftResourceTarget,
    ThreadPoolTarget,
)

__all__ = [
    "AdaptationAction",
    "ClientPoolTarget",
    "ConcurrencyAdaptationFramework",
    "ConcurrencyEstimate",
    "ConScaleController",
    "CriticalServiceLocator",
    "DeadlinePropagator",
    "EstimatorConfig",
    "FrameworkConfig",
    "HillClimbConfig",
    "HillClimbController",
    "LocalizationReport",
    "MonitoringModule",
    "PropagatedDeadline",
    "SCGModel",
    "SCTModel",
    "ScatterCurveModel",
    "ScatterModelConfig",
    "SoftResourceTarget",
    "SoraController",
    "ThreadPoolTarget",
    "UnifiedConfig",
    "UnifiedSoraController",
]
