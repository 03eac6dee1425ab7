"""Multi-label precision/recall/F1, micro and macro averaged."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DialoforgeError


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _f1(p: float, r: float) -> float:
    return _safe_div(2 * p * r, p + r)


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

    micro_p = _safe_div(float(tp.sum()), float(tp.sum() + fp.sum()))
    micro_r = _safe_div(float(tp.sum()), float(tp.sum() + fn.sum()))

    per_action = []
    macro_p_parts, macro_r_parts, macro_f_parts = [], [], []
    for i in range(preds.shape[1]):
        p = _safe_div(float(tp[i]), float(tp[i] + fp[i]))
        r = _safe_div(float(tp[i]), float(tp[i] + fn[i]))
        f = _f1(p, r)
        per_action.append(
            ActionScore(
                action_index=i,
                tp=int(tp[i]),
                fp=int(fp[i]),
                fn=int(fn[i]),
                support=int(support[i]),
                precision=p,
                recall=r,
                f1=f,
            )
        )
        if support[i] > 0:
            macro_p_parts.append(p)
            macro_r_parts.append(r)
            macro_f_parts.append(f)

    return MetricsReport(
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=_f1(micro_p, micro_r),
        macro_precision=float(np.mean(macro_p_parts)) if macro_p_parts else 0.0,
        macro_recall=float(np.mean(macro_r_parts)) if macro_r_parts else 0.0,
        macro_f1=float(np.mean(macro_f_parts)) if macro_f_parts else 0.0,
        per_action=per_action,
        n_samples=int(preds.shape[0]),
    )
