"""Pearson correlation (used for critical service localization, §3.2)."""

from __future__ import annotations

import typing as _t

import numpy as np


def pearson(x: _t.Sequence[float] | np.ndarray,
            y: _t.Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length samples.

    Degenerate inputs (fewer than two points, or zero variance in either
    sample) return 0.0 rather than NaN: a constant processing time
    cannot explain end-to-end variation, which is exactly the semantics
    the localizer needs.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        return 0.0
    a_centered = _unit_scale(a - a.mean())
    b_centered = _unit_scale(b - b.mean())
    denom = float(np.sqrt(np.sum(a_centered ** 2) * np.sum(b_centered ** 2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(a_centered * b_centered) / denom)


def _unit_scale(centered: np.ndarray) -> np.ndarray:
    """Rescale by the power of two that brings the largest magnitude
    into ``[0.5, 1)``, so tiny deviations cannot underflow to subnormal
    squares (which break ``|r| <= 1``). Multiplying by a power of two is
    exact, so normal-range inputs give the same bits as unscaled ones."""
    peak = float(np.max(np.abs(centered)))
    if peak == 0.0 or not np.isfinite(peak):
        return centered
    return np.ldexp(centered, -np.frexp(peak)[1])
