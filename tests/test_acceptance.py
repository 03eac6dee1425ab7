"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to watch them);
thresholds and grids are fixed here, not tuned at runtime.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from dialoforge.cli import run_cli
from dialoforge.dataset import generate_dataset
from dialoforge.diagnostics import check_dialogue_invariants
from dialoforge.encoding import encode_dataset
from dialoforge.engine import GeneratorConfig
from dialoforge.harness import (
    linear_fit_r2,
    logistic_loss_and_grad,
    predict,
    robustness_sweep,
    train_memorizer,
)
from dialoforge.injection import ErrorConfig, inject_errors
from dialoforge.metrics import compute_metrics
from dialoforge.ontology import preset_ontology

from .conftest import preset_config

PRESETS = ("simple", "medium", "hard")
TABLE = {
    # dialogues, domains, actions, (train, val, test)
    "simple": (2000, 2, 8, (1200, 400, 400)),
    "medium": (6000, 5, 13, (3600, 1200, 1200)),
    "hard": (10438, 7, 26, (8438, 1000, 1000)),
}
CEILING = {"simple": 0.995, "medium": 0.99, "hard": 0.99}
CEILING_SEEDS = (1, 2, 3)
SWEEP_GRID = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def preset_datasets():
    """One full-size dataset per (preset, seed), with generation timings."""
    out = {}
    timings = {}
    for preset in PRESETS:
        ontology = preset_ontology(preset)
        for seed in CEILING_SEEDS:
            cfg = preset_config(ontology, seed=seed)
            start = time.perf_counter()
            ds = generate_dataset(ontology, cfg)
            elapsed = time.perf_counter() - start
            out[(preset, seed)] = ds
            timings.setdefault(preset, []).append(elapsed)
    return out, timings


def test_criterion_preset_fidelity(preset_datasets):
    datasets, timings = preset_datasets
    details = []
    ok = True
    for preset in PRESETS:
        n, n_domains, n_actions, split = TABLE[preset]
        ontology = preset_ontology(preset)
        ds = datasets[(preset, CEILING_SEEDS[0])]
        sizes = ds.split_sizes()
        good = (
            ds.n_dialogues == n
            and len(ontology.domains) == n_domains
            and len(ontology.action_catalog) == n_actions
            and (sizes["train"], sizes["val"], sizes["test"]) == split
            and max(timings[preset]) < 60.0
        )
        ok &= good
        details.append(
            f"{preset}: {ds.n_dialogues} dlgs {len(ontology.domains)}d "
            f"{len(ontology.action_catalog)}a {sizes} {max(timings[preset]):.1f}s"
        )
    _report("preset-fidelity", ok, "; ".join(details))


def test_criterion_clean_data_ceiling(preset_datasets):
    datasets, _ = preset_datasets
    details = []
    ok = True
    for preset in PRESETS:
        ontology = preset_ontology(preset)
        start = time.perf_counter()
        scores = []
        for seed in CEILING_SEEDS:
            enc = encode_dataset(datasets[(preset, seed)], ontology)
            model = train_memorizer(enc.splits["train"])
            preds = predict(model, enc.splits["test"][0])
            scores.append(compute_metrics(preds, enc.splits["test"][1]).micro_f1)
        elapsed = time.perf_counter() - start
        good = all(s >= CEILING[preset] for s in scores) and elapsed < 120.0
        ok &= good
        details.append(
            f"{preset}>= {CEILING[preset]}: " + "/".join(f"{s:.4f}" for s in scores)
            + f" in {elapsed:.0f}s"
        )
    _report("clean-data-ceiling", ok, "; ".join(details))


def test_criterion_degradation_reproduction():
    ontology = preset_ontology("simple")
    cfg = preset_config(ontology, seed=11)
    start = time.perf_counter()
    result = robustness_sweep(
        ontology, cfg, SWEEP_GRID, ["memorizer"], seed=17, n_seeds=3
    )
    elapsed = time.perf_counter() - start
    curve = result.mean_f1("memorizer")
    f1s = [f for _, f in curve]
    monotone = all(b <= a + 1e-12 for a, b in zip(f1s, f1s[1:]))
    r2 = linear_fit_r2(curve)
    ok = monotone and r2 >= 0.9 and elapsed < 900.0
    _report(
        "degradation-reproduction",
        ok,
        f"monotone={monotone} R2={r2:.3f} curve="
        + ",".join(f"{f:.3f}" for f in f1s)
        + f" in {elapsed:.0f}s",
    )


def test_criterion_injection_statistics():
    ontology = preset_ontology("simple")
    ds = generate_dataset(ontology, GeneratorConfig(n_dialogues=5000, seed=77))
    n_intents = sum(len(t.user_acts) for _, d in ds.iter_dialogues() for t in d.turns)
    n_actions = sum(len(t.system_acts) for _, d in ds.iter_dialogues() for t in d.turns)
    n_slots = sum(
        1 for _, d in ds.iter_dialogues() for t in d.turns for a in t.user_acts
        if a.slot is not None
    )
    counts = {"intent": n_intents, "action": n_actions, "slot": n_slots}
    ok = all(n >= 10_000 for n in counts.values())
    details = [f"labels={counts}"]

    for p in (0.05, 0.2, 0.5):
        cfg = ErrorConfig(p_intent=p, p_action=p, p_slot=p, seed=int(p * 1000) + 1)
        _, records = inject_errors(ds, ontology, cfg)
        by_kind = {"intent": 0, "action": 0, "slot": 0}
        for r in records:
            by_kind[r.element.value] += 1
        for kind, n in counts.items():
            rate = by_kind[kind] / n
            sigma = math.sqrt(p * (1 - p) / n)
            good = abs(rate - p) <= 3 * sigma
            ok &= good
            details.append(f"p={p} {kind} {rate:.4f} (3s={3 * sigma:.4f})")

    from dialoforge.dataset import dumps_dialogue

    clean_bytes = "".join(dumps_dialogue(d) for _, d in ds.iter_dialogues())
    out0, rec0 = inject_errors(ds, ontology, ErrorConfig(seed=1))
    identity = (
        rec0 == []
        and "".join(dumps_dialogue(d) for _, d in out0.iter_dialogues()) == clean_bytes
    )
    _, rec1 = inject_errors(
        ds, ontology, ErrorConfig(p_intent=1, p_action=1, p_slot=1, seed=2)
    )
    total = sum(counts.values())
    totality = len(rec1) == total
    ok &= identity and totality
    details.append(f"p=0 identity={identity}; p=1 perturbed {len(rec1)}/{total}")
    _report("injection-statistics", ok, "; ".join(details))


def test_criterion_rule_invariant_suite():
    details = []
    ok = True
    for preset in PRESETS:
        ontology = preset_ontology(preset)
        cfg = GeneratorConfig(n_dialogues=1000, seed=4242)
        ds = generate_dataset(ontology, cfg)
        violations = []
        for _, d in ds.iter_dialogues():
            violations += check_dialogue_invariants(d, ontology)
        ok &= not violations
        details.append(f"{preset}: {len(violations)} violations / 1000 dialogues")
        if violations:
            details.append(violations[0])
    _report("rule-invariant-suite", ok, "; ".join(details))


def test_criterion_determinism(tmp_path):
    def tree(path):
        return {
            str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*"))
            if p.is_file()
        }

    args = ["generate", "--preset", "simple", "--dialogues", "400", "--seed", "13"]
    dirs = [tmp_path / n for n in ("r1", "r2", "j2")]
    assert run_cli(args + ["--out", str(dirs[0])]) == 0
    assert run_cli(args + ["--out", str(dirs[1])]) == 0
    assert run_cli(args + ["--jobs", "2", "--out", str(dirs[2])]) == 0
    t0 = tree(dirs[0])
    rerun_ok = t0 == tree(dirs[1])
    jobs_ok = t0 == tree(dirs[2])
    _report(
        "determinism",
        rerun_ok and jobs_ok,
        f"rerun identical={rerun_ok}, jobs-invariant={jobs_ok}, files={len(t0)}",
    )


def test_criterion_numerical_checks():
    rng = np.random.default_rng(2718)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        states = (rng.random((8, 4)) < 0.5).astype(np.float64)
        targets = (rng.random((8, 3)) < 0.4).astype(np.float64)
        weights = rng.normal(scale=0.8, size=(4, 3))
        bias = rng.normal(scale=0.8, size=3)
        l2 = float(rng.random() * 0.1)
        _, grad_w, grad_b = logistic_loss_and_grad(weights, bias, states, targets, l2)
        for idx in np.ndindex(weights.shape):
            w_p, w_m = weights.copy(), weights.copy()
            w_p[idx] += eps
            w_m[idx] -= eps
            lp, _, _ = logistic_loss_and_grad(w_p, bias, states, targets, l2)
            lm, _, _ = logistic_loss_and_grad(w_m, bias, states, targets, l2)
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - grad_w[idx]) / max(1.0, abs(fd)))
        for i in range(3):
            b_p, b_m = bias.copy(), bias.copy()
            b_p[i] += eps
            b_m[i] -= eps
            lp, _, _ = logistic_loss_and_grad(weights, b_p, states, targets, l2)
            lm, _, _ = logistic_loss_and_grad(weights, b_m, states, targets, l2)
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - grad_b[i]) / max(1.0, abs(fd)))
    grad_ok = worst <= 1e-5

    mism = 0
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        a = int(rng.integers(1, 6))
        gold = (rng.random((n, a)) < 0.35).astype(np.uint8)
        pred = (rng.random((n, a)) < 0.35).astype(np.uint8)
        rep = compute_metrics(pred, gold)
        tp = int(((pred == 1) & (gold == 1)).sum())
        fp = int(((pred == 1) & (gold == 0)).sum())
        fn = int(((pred == 0) & (gold == 1)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        if rep.micro_precision != p or rep.micro_recall != r or abs(rep.micro_f1 - f) > 1e-15:
            mism += 1
    metrics_ok = mism == 0
    _report(
        "numerical-checks",
        grad_ok and metrics_ok,
        f"max grad rel err={worst:.2e} (<=1e-5), metric mismatches={mism}/1000",
    )
