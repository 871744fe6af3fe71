"""Evaluation metrics: UPR, OPR-8, WAE, CSI, RMSE, and stratified reporting.

All rates use strict inequalities (a prediction exactly on time or exactly
tau late counts as satisfied). WAE is the evaluation-time name of the mean
asymmetric loss. CSI combines the two rates into one score in
[1 - alpha/(alpha+beta), 1]; 1 is perfect.

Reductions use integer counts and compensated summation so chunked/parallel
evaluation can combine partial results exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import MAGNITUDES
from .losses import LossConfig, math_fsum, piecewise_loss_vec


@dataclass(frozen=True)
class PredictionSet:
    """Paired (predicted, actual) durations in hours, optionally stratified."""

    preds: np.ndarray
    actuals: np.ndarray
    strata: tuple[str, ...] | None = None

    def __post_init__(self):
        preds = np.asarray(self.preds, dtype=np.float64)
        actuals = np.asarray(self.actuals, dtype=np.float64)
        object.__setattr__(self, "preds", preds)
        object.__setattr__(self, "actuals", actuals)
        if preds.shape != actuals.shape or preds.ndim != 1:
            raise ValueError(f"shape mismatch: {preds.shape} vs {actuals.shape}")
        if preds.size == 0:
            raise ValueError("PredictionSet: empty")
        if not (np.all(np.isfinite(preds)) and np.all(np.isfinite(actuals))):
            raise ValueError("PredictionSet: non-finite values")
        if np.any(actuals < 0):
            raise ValueError("PredictionSet: negative actual durations")
        if self.strata is not None and len(self.strata) != preds.size:
            raise ValueError("PredictionSet: strata length mismatch")


def upr(preds, actuals) -> float:
    """Fraction of strictly under-predicted pairs (pred < actual)."""
    preds = np.asarray(preds, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("upr: empty input")
    return int(np.count_nonzero(preds < actuals)) / preds.size


def opr8(preds, actuals, tau: float = 8.0) -> float:
    """Fraction over-predicted by strictly more than tau hours."""
    preds = np.asarray(preds, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("opr8: empty input")
    return int(np.count_nonzero(preds - actuals > tau)) / preds.size


def wae(preds, actuals, cfg: LossConfig = LossConfig()) -> float:
    """Mean piecewise asymmetric loss (the weighted asymmetric error)."""
    preds = np.asarray(preds, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("wae: empty input")
    with np.errstate(over="ignore"):
        return _finite(math_fsum(piecewise_loss_vec(preds - actuals, cfg)) / preds.size, "wae")


def csi(upr_value: float, opr8_value: float, cfg: LossConfig = LossConfig()) -> float:
    """1 - (alpha * UPR + beta * OPR-8) / (alpha + beta)."""
    for name, v in (("upr", upr_value), ("opr8", opr8_value)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"csi: {name} must lie in [0, 1], got {v}")
    return 1.0 - (cfg.alpha * upr_value + cfg.beta * opr8_value) / (cfg.alpha + cfg.beta)


def rmse(preds, actuals) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("rmse: empty input")
    with np.errstate(over="ignore"):
        eps = preds - actuals
        return _finite(math.sqrt(math_fsum(eps * eps) / preds.size), "rmse")


def _finite(value: float, metric: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{metric} is not finite: the predictions are too far from the actuals")
    return value


@dataclass(frozen=True)
class MetricRow:
    upr: float
    opr8: float
    wae: float
    csi: float
    rmse: float
    count: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalReport:
    """Per-stratum and overall metric rows; empty strata become notes."""

    overall: MetricRow
    strata: Mapping[str, MetricRow]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "strata": {name: row.to_dict() for name, row in self.strata.items()},
            "notes": list(self.notes),
        }


def _metric_row(preds: np.ndarray, actuals: np.ndarray, cfg: LossConfig) -> MetricRow:
    u = upr(preds, actuals)
    o = opr8(preds, actuals, cfg.tau)
    return MetricRow(
        upr=u,
        opr8=o,
        wae=wae(preds, actuals, cfg),
        csi=csi(u, o, cfg),
        rmse=rmse(preds, actuals),
        count=int(preds.size),
    )


def eval_report(pset: PredictionSet, cfg: LossConfig = LossConfig()) -> EvalReport:
    """All five metrics overall and per stratum (pooled counts, not stratum means)."""
    overall = _metric_row(pset.preds, pset.actuals, cfg)
    strata: dict[str, MetricRow] = {}
    notes: list[str] = []
    if pset.strata is not None:
        labels = np.asarray(pset.strata)
        present = set(labels.tolist())
        order = [s for s in MAGNITUDES if s in present]
        order += sorted(present - set(MAGNITUDES))
        for name in MAGNITUDES:
            if name not in present:
                notes.append(f"stratum {name} has no pairs; omitted")
        for name in order:
            sel = labels == name
            strata[name] = _metric_row(pset.preds[sel], pset.actuals[sel], cfg)
    return EvalReport(overall=overall, strata=strata, notes=tuple(notes))


def format_report(report: EvalReport, title: str = "evaluation") -> str:
    """Fixed-width table, one row per stratum plus overall."""
    lines = [
        f"# {title}",
        f"{'stratum':<10} {'count':>6} {'UPR':>8} {'OPR-8':>8} {'WAE':>10} {'CSI':>8} {'RMSE':>10}",
    ]

    def fmt(name: str, row: MetricRow) -> str:
        return (
            f"{name:<10} {row.count:>6d} {row.upr:>8.4f} {row.opr8:>8.4f} "
            f"{row.wae:>10.4f} {row.csi:>8.4f} {row.rmse:>10.4f}"
        )

    for name, row in report.strata.items():
        lines.append(fmt(name, row))
    lines.append(fmt("overall", report.overall))
    for note in report.notes:
        lines.append(f"# note: {note}")
    return "\n".join(lines) + "\n"
