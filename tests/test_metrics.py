from __future__ import annotations

import numpy as np
import pytest

from dialoforge.errors import DialoforgeError
from dialoforge.metrics import compute_metrics


def test_identity_scores_one():
    golds = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]], dtype=np.uint8)
    rep = compute_metrics(golds, golds)
    assert rep.micro_precision == rep.micro_recall == rep.micro_f1 == 1.0
    assert rep.macro_precision == rep.macro_recall == rep.macro_f1 == 1.0


def test_single_turn_partial_overlap():
    gold = np.array([[1, 0]], dtype=np.uint8)  # gold = {a}
    pred = np.array([[1, 1]], dtype=np.uint8)  # pred = {a, b}
    rep = compute_metrics(pred, gold)
    assert rep.micro_precision == 0.5
    assert rep.micro_recall == 1.0
    assert abs(rep.micro_f1 - 2 / 3) < 1e-12


def test_total_miss_scores_zero():
    gold = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    pred = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    rep = compute_metrics(pred, gold)
    assert rep.micro_precision == rep.micro_recall == rep.micro_f1 == 0.0
    assert rep.macro_f1 == 0.0


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    gold = (rng.random((40, 6)) < 0.3).astype(np.uint8)
    pred = (rng.random((40, 6)) < 0.3).astype(np.uint8)
    rep1 = compute_metrics(pred, gold)
    order = rng.permutation(40)
    rep2 = compute_metrics(pred[order], gold[order])
    assert rep1.micro_f1 == rep2.micro_f1
    assert rep1.macro_f1 == rep2.macro_f1


def test_micro_f1_harmonic_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        gold = (rng.random((30, 5)) < 0.4).astype(np.uint8)
        pred = (rng.random((30, 5)) < 0.4).astype(np.uint8)
        rep = compute_metrics(pred, gold)
        p, r = rep.micro_precision, rep.micro_recall
        if p + r > 0:
            assert abs(rep.micro_f1 - 2 * p * r / (p + r)) <= 1e-12


def test_macro_skips_zero_support_actions():
    gold = np.array([[1, 0], [1, 0]], dtype=np.uint8)  # action 1 never appears
    pred = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    rep = compute_metrics(pred, gold)
    assert rep.macro_recall == 0.5  # averaged over action 0 only


def test_brute_force_oracle_agreement():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        a = int(rng.integers(1, 7))
        gold = (rng.random((n, a)) < 0.35).astype(np.uint8)
        pred = (rng.random((n, a)) < 0.35).astype(np.uint8)
        rep = compute_metrics(pred, gold)

        tp = fp = fn = 0
        for i in range(n):
            for j in range(a):
                if pred[i, j] and gold[i, j]:
                    tp += 1
                elif pred[i, j]:
                    fp += 1
                elif gold[i, j]:
                    fn += 1
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert rep.micro_precision == p
        assert rep.micro_recall == r
        assert abs(rep.micro_f1 - f) <= 1e-15


def test_one_dimensional_input_rejected():
    with pytest.raises(DialoforgeError, match="expected 2-D"):
        compute_metrics(np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8))


def test_shape_mismatch_rejected():
    for preds, gold in (((2, 3), (3, 3)), ((2, 3), (2, 4))):
        with pytest.raises(DialoforgeError, match="shape mismatch") as err:
            compute_metrics(np.zeros(preds, dtype=np.uint8), np.zeros(gold, dtype=np.uint8))
        assert type(err.value) is DialoforgeError
