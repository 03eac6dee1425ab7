"""Multi-label precision/recall/F1, micro and macro averaged."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DialoforgeError


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise, and 0 where den is 0 (every den here is >= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, np.true_divide(num, den), 0.0)


def _f1(p, r) -> np.ndarray:
    return _ratio(2 * p * r, p + r)


@dataclass
class ActionScore:
    action_index: int
    tp: int
    fp: int
    fn: int
    support: int
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_action: list[ActionScore] = field(default_factory=list)
    n_samples: int = 0

    def pretty(self, action_names: list[str] | None = None) -> str:
        lines = [
            f"samples            {self.n_samples}",
            f"micro  P/R/F1      {self.micro_precision:.4f} / {self.micro_recall:.4f} / {self.micro_f1:.4f}",
            f"macro  P/R/F1      {self.macro_precision:.4f} / {self.macro_recall:.4f} / {self.macro_f1:.4f}",
        ]
        for a in self.per_action:
            name = action_names[a.action_index] if action_names else f"action[{a.action_index}]"
            lines.append(
                f"  {name:<40} support={a.support:<6} P={a.precision:.3f} R={a.recall:.3f} F1={a.f1:.3f}"
            )
        return "\n".join(lines)


def compute_metrics(predictions, golds) -> MetricsReport:
    """Pool TP/FP/FN over all (turn, action) pairs; macro averages skip
    actions with zero gold support; zero denominators score 0."""
    preds = np.asarray(predictions, dtype=np.uint8)
    gold = np.asarray(golds, dtype=np.uint8)
    if preds.shape != gold.shape:
        raise DialoforgeError(f"shape mismatch: {preds.shape} vs {gold.shape}")
    if preds.ndim != 2:
        raise DialoforgeError("expected 2-D (samples x actions) inputs")

    tp = ((preds == 1) & (gold == 1)).sum(axis=0)
    fp = ((preds == 1) & (gold == 0)).sum(axis=0)
    fn = ((preds == 0) & (gold == 1)).sum(axis=0)
    support = gold.sum(axis=0)

    micro_p = _ratio(tp.sum(), tp.sum() + fp.sum())
    micro_r = _ratio(tp.sum(), tp.sum() + fn.sum())
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    f1 = _f1(precision, recall)
    rows = zip(*(column.tolist() for column in (tp, fp, fn, support, precision, recall, f1)))
    per_action = [ActionScore(i, *row) for i, row in enumerate(rows)]
    scored = support > 0

    def macro(scores: np.ndarray) -> float:
        return float(np.mean(scores[scored])) if scored.any() else 0.0

    return MetricsReport(
        micro_precision=float(micro_p),
        micro_recall=float(micro_r),
        micro_f1=float(_f1(micro_p, micro_r)),
        macro_precision=macro(precision),
        macro_recall=macro(recall),
        macro_f1=macro(f1),
        per_action=per_action,
        n_samples=int(preds.shape[0]),
    )
