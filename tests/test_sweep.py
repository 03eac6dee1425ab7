from __future__ import annotations

import ast
import contextlib
import gc
from pathlib import Path

import numpy as np
import pytest

import dialoforge
from dialoforge import harness
from dialoforge.dataset import generate_dataset, read_dataset, write_dataset
from dialoforge.encoding import encode_dataset
from dialoforge.engine import GeneratorConfig
from dialoforge.errors import ValidationError
from dialoforge.harness import (
    linear_fit_r2,
    predict,
    robustness_sweep,
    train_linear,
    train_memorizer,
    write_sweep_csv,
)
from dialoforge.injection import ErrorConfig, inject_errors
from dialoforge.metrics import compute_metrics
from dialoforge.rng import derive_seed


def _small_cfg(seed=0, n=250):
    return GeneratorConfig(n_dialogues=n, seed=seed)


def test_sweep_memorizer_f1_non_increasing(simple_ontology):
    cfg = _small_cfg(seed=4)
    result = robustness_sweep(
        simple_ontology, cfg, [0.0, 0.5, 1.0], ["memorizer"], seed=1, n_seeds=2
    )
    curve = result.mean_f1("memorizer")
    assert [r for r, _ in curve] == [0.0, 0.5, 1.0]
    f1s = [f for _, f in curve]
    assert all(b <= a for a, b in zip(f1s, f1s[1:]))
    assert f1s[0] > 0.95


def test_rate_one_unk_only_equals_fallback_score(simple_ontology):
    cfg = _small_cfg(seed=9, n=120)
    clean = generate_dataset(simple_ontology, cfg)
    noisy, _ = inject_errors(
        clean, simple_ontology, ErrorConfig(1.0, 1.0, 1.0, mode_weights=(0.0, 1.0), seed=3)
    )
    enc = encode_dataset(noisy, simple_ontology)
    model = train_memorizer(enc.splits["train"])

    preds = predict(model, enc.splits["test"][0])
    rep = compute_metrics(preds, enc.splits["test"][1])

    # closed form: every prediction is the fallback set (tables hit it too,
    # since all-UNK data collapses states), so score the fallback directly
    fallback = np.tile(model.fallback, (enc.splits["test"][1].shape[0], 1))
    oracle = compute_metrics(fallback, enc.splits["test"][1])
    assert rep.micro_f1 == oracle.micro_f1
    assert rep.micro_precision == oracle.micro_precision


def test_sweep_rows_sorted_and_reproducible(simple_ontology):
    cfg = _small_cfg(seed=2, n=80)
    r1 = robustness_sweep(simple_ontology, cfg, [0.0, 0.4], ["memorizer"], seed=5, n_seeds=2)
    r2 = robustness_sweep(simple_ontology, cfg, [0.0, 0.4], ["memorizer"], seed=5, n_seeds=2)
    key = [(row.error_rate, row.model, row.seed) for row in r1.rows]
    assert key == sorted(key)
    assert key == [(row.error_rate, row.model, row.seed) for row in r2.rows]
    assert [row.report.micro_f1 for row in r1.rows] == [
        row.report.micro_f1 for row in r2.rows
    ]


def _sweep_rows_one_cell_at_a_time(ontology, cfg, rates, models, seed, n_seeds):
    """The sweep's rows, each cell's models trained alone on it."""
    clean = generate_dataset(ontology, cfg)
    rows = []
    for rate_index, rate in enumerate(rates):
        for k in range(n_seeds):
            inj_seed = derive_seed(seed, rate_index * 1009 + k)
            err_cfg = ErrorConfig(rate, rate, rate, mode_weights=(0.5, 0.5), seed=inj_seed)
            encoded = encode_dataset(inject_errors(clean, ontology, err_cfg)[0], ontology)
            train, (states, golds) = encoded.splits["train"], encoded.splits["test"]
            trainers = {"memorizer": train_memorizer,
                        "linear": lambda train: train_linear(train, seed=inj_seed)}
            for kind in models:
                model = trainers[kind](train)
                rows.append((rate, kind, inj_seed, compute_metrics(predict(model, states), golds)))
    return sorted(rows, key=lambda row: row[:3])


@pytest.mark.parametrize("models", [["linear"], ["memorizer"], ["memorizer", "linear"]],
                         ids="-".join)
def test_sweep_rows_equal_each_cell_trained_alone(models, simple_ontology):
    cfg = _small_cfg(seed=6, n=120)
    rates = [0.0, 0.3, 0.8]
    result = robustness_sweep(simple_ontology, cfg, rates, models, seed=8, n_seeds=2)
    got = [(row.error_rate, row.model, row.seed, row.report) for row in result.rows]
    assert got == _sweep_rows_one_cell_at_a_time(simple_ontology, cfg, rates, models, 8, 2)


def test_sweep_rate_validation(simple_ontology):
    cfg = _small_cfg()
    with pytest.raises(ValidationError):
        robustness_sweep(simple_ontology, cfg, [0.4, 0.1], ["memorizer"])
    with pytest.raises(ValidationError):
        robustness_sweep(simple_ontology, cfg, [0.0, 1.2], ["memorizer"])
    with pytest.raises(ValidationError):
        robustness_sweep(simple_ontology, cfg, [0.0], ["transformer"])


@pytest.mark.parametrize(
    "setting, value",
    [
        *(pytest.param("n_seeds", n, id=str(n)) for n in (0, -1, 1.5, True)),
        *(pytest.param("seed", s, id=f"seed-{s}") for s in (1.5, None, True)),
        pytest.param("mode_weights", (1.0,), id="mode_weights-one"),
        pytest.param("mode_weights", (0.0, 0.0), id="mode_weights-both-zero"),
        pytest.param("error_rates", ["0.5"], id="error_rates-string"),
        pytest.param("error_rates", [True], id="error_rates-True"),
        pytest.param("error_rates", [], id="error_rates-empty"),
        pytest.param("models", [], id="models-empty"),
        pytest.param("models", ["memorizer", "memorizer"], id="models-repeated"),
    ],
)
def test_sweep_needs_at_least_one_seed(setting, value, simple_ontology, monkeypatch):
    # Every setting is checked before the clean dataset is built.
    monkeypatch.setattr(harness, "generate_dataset", lambda *a: pytest.fail("generated"))
    kwargs = {"error_rates": [0.0], "models": ["memorizer"], setting: value}
    with pytest.raises(ValidationError, match=rf"^{setting}\b.* must .*, got "):
        robustness_sweep(simple_ontology, _small_cfg(n=30), **kwargs)


def test_sweep_csv_exports(simple_ontology, tmp_path):
    cfg = _small_cfg(seed=6, n=60)
    result = robustness_sweep(
        simple_ontology, cfg, [0.0, 0.8], ["memorizer", "linear"], seed=7, n_seeds=1
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rate,model,micro_f1,micro_p,micro_r,macro_f1,macro_p,macro_r,seed"
    assert len(lines) == 1 + 4  # one line per (rate, model, seed)
    for line, row in zip(lines[1:], result.rows):
        rep = row.report
        metrics = (rep.micro_f1, rep.micro_precision, rep.micro_recall,
                   rep.macro_f1, rep.macro_precision, rep.macro_recall)
        assert line.split(",") == [
            f"{row.error_rate:g}", row.model, *(f"{m:.6f}" for m in metrics), str(row.seed)
        ]


def test_linear_fit_r2_on_perfect_line():
    pts = [(0.0, 1.0), (0.5, 0.6), (1.0, 0.2)]
    assert linear_fit_r2(pts) == pytest.approx(1.0)
    noisy = [(0.0, 1.0), (0.25, 0.9), (0.5, 0.55), (0.75, 0.4), (1.0, 0.1)]
    assert 0.9 < linear_fit_r2(noisy) <= 1.0


@pytest.mark.parametrize(
    "split, cfg",
    [
        ("test", GeneratorConfig(n_dialogues=3, seed=1)),  # splits 3/0/0
        ("train", GeneratorConfig(n_dialogues=4, seed=1, split_fractions=(0.0, 0.5, 0.5))),
    ],
)
def test_sweep_rejects_an_empty_split(split, cfg, simple_ontology):
    with pytest.raises(ValidationError, match=f"the {split} split is empty"):
        robustness_sweep(simple_ontology, cfg, [0.0], ["memorizer"], n_seeds=1)


def test_sweep_base_dataset_must_be_the_one_described(simple_ontology, medium_ontology):
    cfg = _small_cfg(seed=2, n=30)
    base = generate_dataset(simple_ontology, cfg)
    with pytest.raises(ValidationError, match="gen_cfg"):
        robustness_sweep(simple_ontology, _small_cfg(seed=3, n=30), [0.0], ["memorizer"],
                         n_seeds=1, base_dataset=base)
    with pytest.raises(ValidationError, match="ontology_hash"):
        robustness_sweep(medium_ontology, cfg, [0.0], ["memorizer"], n_seeds=1,
                         base_dataset=base)
    result = robustness_sweep(simple_ontology, cfg, [0.0], ["memorizer"], n_seeds=1,
                              base_dataset=base)
    assert result.manifest["generator_config"]["seed"] == 2


def test_sweep_takes_the_dataset_read_back_for_a_list_fraction_config(simple_ontology, tmp_path):
    cfg = GeneratorConfig(n_dialogues=30, seed=2, split_fractions=[0.5, 0.25, 0.25])
    write_dataset(generate_dataset(simple_ontology, cfg), tmp_path)
    result = robustness_sweep(simple_ontology, cfg, [0.0], ["memorizer"], n_seeds=1,
                              base_dataset=read_dataset(tmp_path))
    assert result.manifest["generator_config"]["split_fractions"] == (0.5, 0.25, 0.25)


@pytest.mark.parametrize("caller_collects", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("cell_raises", [False, True], ids=["returns", "raises"])
def test_sweep_restores_the_collector_setting_on_every_exit(
    cell_raises, caller_collects, simple_ontology, monkeypatch
):
    seen = []

    def spy(train):
        seen.append(gc.isenabled())
        if cell_raises:
            raise RuntimeError("bug")
        return train_memorizer(train)

    monkeypatch.setattr(harness, "train_memorizer", spy)
    if not caller_collects:
        gc.disable()
    try:
        with pytest.raises(RuntimeError) if cell_raises else contextlib.nullcontext():
            robustness_sweep(simple_ontology, _small_cfg(n=30), [0.0, 0.5], ["memorizer"],
                             n_seeds=1)
        assert gc.isenabled() is caller_collects
    finally:
        gc.enable()
    assert seen == ([False] if cell_raises else [False, False])


def _cyclic_garbage_of_a_sweep(ontology, n_dialogues: int) -> int:
    robustness_sweep(ontology, _small_cfg(n=n_dialogues), [0.0, 0.5], ["memorizer"], n_seeds=1)
    return gc.collect()


def test_cyclic_garbage_of_a_sweep_does_not_grow_with_the_data(simple_ontology):
    # The library twin of the CLI test in test_cli.py: what a sweep leaves in
    # cycles while the collector is paused must not be a share of the data.
    gc.collect()
    small = _cyclic_garbage_of_a_sweep(simple_ontology, 20)
    large = _cyclic_garbage_of_a_sweep(simple_ontology, 400)
    assert small == large


def test_only_collector_paused_touches_the_collector():
    """One module imports gc, and only collector_paused switches it."""
    importers, switchers = [], set()
    for path in sorted(Path(dialoforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "gc"
               for node in ast.walk(tree)):
            importers.append(path.name)
        for top in tree.body:  # a switch is named by the def or class around it
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in ("disable", "enable")
                        and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                    switchers.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    assert importers == ["harness.py"]
    assert switchers == {"harness.py:collector_paused"}
