from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from dialoforge.dataset import generate_dataset
from dialoforge.encoding import encode_dataset
from dialoforge.engine import GeneratorConfig
from dialoforge.errors import DialoforgeError, ValidationError
from dialoforge.harness import (
    BATCH_SIZE,
    LinearModel,
    _sigmoid,
    _train_linear_stack,
    load_model,
    logistic_loss_and_grad,
    predict,
    save_model,
    train_linear,
    train_memorizer,
)
from dialoforge.metrics import compute_metrics


def _split(states, targets):
    return np.asarray(states, dtype=np.uint8), np.asarray(targets, dtype=np.uint8)


def _toy():
    """Four one-hot states, linearly separable into two actions."""
    return _split(np.eye(4), [[1, 0], [1, 0], [0, 1], [0, 1]])


# -- memorizer ---------------------------------------------------------------


def test_memorizer_stores_exact_mapping():
    states = np.eye(4, dtype=np.uint8)
    targets = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.uint8)
    model = train_memorizer(_split(states, targets))
    assert len(model.table) == 4
    assert np.array_equal(predict(model, states), targets)


def test_memorizer_majority_vote():
    s = np.array([[1, 0]] * 3, dtype=np.uint8)
    t = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    model = train_memorizer(_split(s, t))
    assert np.array_equal(predict(model, s[:1]), [[1, 0]])


def test_memorizer_tie_breaks_to_smallest_serialized():
    s = np.array([[1, 0]] * 2, dtype=np.uint8)
    t = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    model = train_memorizer(_split(s, t))
    assert np.array_equal(predict(model, s[:1]), [[0, 1]])  # b"\x00\x01" < b"\x01\x00"


def test_memorizer_fallback_for_unseen_state():
    states = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.uint8)
    targets = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    model = train_memorizer(_split(states, targets))
    unseen = np.array([[0, 0, 1]], dtype=np.uint8)
    assert np.array_equal(predict(model, unseen), [[1, 0]])  # global majority


def test_memorizer_perfect_on_own_training_split(simple_ontology):
    ds = generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=200, seed=3))
    enc = encode_dataset(ds, simple_ontology)
    model = train_memorizer(enc.splits["train"])
    preds = predict(model, enc.splits["train"][0])
    rep = compute_metrics(preds, enc.splits["train"][1])
    assert rep.micro_f1 == 1.0


def test_empty_split_rejected():
    for train in (train_memorizer, train_linear):
        with pytest.raises(ValidationError, match="^cannot train on an empty split$"):
            train(_split(np.zeros((0, 3)), np.zeros((0, 2))))


@pytest.mark.parametrize("train", [train_memorizer, train_linear], ids=["memorizer", "linear"])
def test_row_count_mismatch_rejected(train):
    with pytest.raises(ValidationError, match="^10 state rows but 5 target rows$"):
        train(_split(np.zeros((10, 3)), np.zeros((5, 2))))


# -- linear model ------------------------------------------------------------


def test_linear_separable_toy_reaches_full_accuracy():
    states, targets = _toy()
    model = train_linear((states, targets), epochs=200, learning_rate=2.0, seed=0)
    assert np.array_equal(predict(model, states), targets)


def test_zero_learning_rate_leaves_weights_unchanged():
    states = np.eye(3, dtype=np.uint8)
    targets = np.array([[1], [0], [1]], dtype=np.uint8)
    model = train_linear(_split(states, targets), epochs=5, learning_rate=0.0, seed=1)
    assert not model.weights.any()
    assert not model.bias.any()


def test_training_loss_non_increasing_per_epoch():
    rng = np.random.default_rng(7)
    states = (rng.random((120, 10)) < 0.5).astype(np.uint8)
    weights = rng.normal(size=(10, 3))
    logits = states @ weights
    targets = (logits > logits.mean(axis=0)).astype(np.uint8)
    model = train_linear(_split(states, targets), epochs=25, learning_rate=0.5, seed=2)
    smoothed = model.loss_history
    assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(12)
    states = (rng.random((8, 4)) < 0.5).astype(np.float64)
    targets = (rng.random((8, 3)) < 0.4).astype(np.float64)
    weights = rng.normal(scale=0.5, size=(4, 3))
    bias = rng.normal(scale=0.5, size=3)
    _, grad_w, grad_b = logistic_loss_and_grad(weights, bias, states, targets, l2=0.01)

    eps = 1e-6
    for idx in np.ndindex(weights.shape):
        w_plus, w_minus = weights.copy(), weights.copy()
        w_plus[idx] += eps
        w_minus[idx] -= eps
        lp, _, _ = logistic_loss_and_grad(w_plus, bias, states, targets, l2=0.01)
        lm, _, _ = logistic_loss_and_grad(w_minus, bias, states, targets, l2=0.01)
        fd = (lp - lm) / (2 * eps)
        assert abs(fd - grad_w[idx]) <= 1e-5 * max(1.0, abs(fd))
    for i in range(bias.size):
        b_plus, b_minus = bias.copy(), bias.copy()
        b_plus[i] += eps
        b_minus[i] -= eps
        lp, _, _ = logistic_loss_and_grad(weights, b_plus, states, targets, l2=0.01)
        lm, _, _ = logistic_loss_and_grad(weights, b_minus, states, targets, l2=0.01)
        fd = (lp - lm) / (2 * eps)
        assert abs(fd - grad_b[i]) <= 1e-5 * max(1.0, abs(fd))


def _sigmoid_branchwise(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bits_match_the_branchwise_formula():
    edges = [0.0, 1e-300, 5e-324, 1.0, 30.0, 36.8, 700.0, 745.2, 1e308, np.inf, np.nan]
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000123], dtype=np.uint64).view(np.float64)
    z = np.concatenate(
        [edges, np.negative(edges), nans, np.random.default_rng(0).normal(0.0, 20.0, 4096)]
    )
    assert _sigmoid(z).tobytes() == _sigmoid_branchwise(z).tobytes()


@pytest.mark.parametrize(
    "setting, value",
    [
        ("l2", -1.0), ("l2", math.nan), ("l2", math.inf), ("l2", "0.1"),
        ("learning_rate", -0.5), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("epochs", 0), ("epochs", 2.5), ("epochs", True),
        ("seed", -1), ("seed", 1.0), ("seed", None),
    ],
)
def test_bad_training_setting_rejected(setting, value):
    with pytest.raises(ValidationError, match=f"^{setting} must be"):
        train_linear(_toy(), **{setting: value})


def test_divergence_raises():
    with pytest.raises(DialoforgeError, match="loss became non-finite") as err:
        train_linear(_toy(), epochs=50, learning_rate=1e307, seed=0)
    assert type(err.value) is DialoforgeError  # a runtime error: exit 2


def _random_split(rng, n, width, actions):
    return _split(rng.random((n, width)) < 0.4, rng.random((n, actions)) < 0.3)


def _train_alone_reference(train, seed, epochs, learning_rate, l2):
    """The trainer as a loop over one model, each step taking its batch from
    the training set by the epoch's permutation."""
    states, targets = train
    weights = np.zeros((states.shape[1], targets.shape[1]))
    bias = np.zeros(targets.shape[1])
    shuffler = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        order = shuffler.permutation(len(states))
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(states), BATCH_SIZE):
            sel = order[start : start + BATCH_SIZE]
            loss, gw, gb = logistic_loss_and_grad(weights, bias, states[sel], targets[sel], l2)
            weights -= learning_rate * gw
            bias -= learning_rate * gb
            epoch_loss += loss
            batches += 1
        history.append(epoch_loss / batches)
    return weights, bias, history


def test_a_stack_trains_each_model_bit_for_bit_as_alone():
    rng = np.random.default_rng(5)
    n = 2 * BATCH_SIZE + 37  # the last batch of each epoch is short
    trains = [_random_split(rng, n, 9, 4) for _ in range(3)]
    seeds = [3, 11, 40]
    block = tuple(np.concatenate(rows) for rows in zip(*trains))
    stack = _train_linear_stack(block, seeds, epochs=4, learning_rate=0.7, l2=0.01)
    for train, seed, model in zip(trains, seeds, stack):
        alone = train_linear(train, epochs=4, learning_rate=0.7, l2=0.01, seed=seed)
        weights, bias, history = _train_alone_reference(train, seed, 4, 0.7, 0.01)
        for got in (model, alone):
            assert got.weights.tobytes() == weights.tobytes()
            assert got.bias.tobytes() == bias.tobytes()
            assert np.array(got.loss_history).tobytes() == np.array(history).tobytes()


@pytest.mark.parametrize("rows, seeds", [(61, [0, 1]), (2, [0, 1, 2])],
                         ids=["one-row-over", "fewer-rows-than-seeds"])
def test_a_stack_refuses_a_block_that_does_not_divide_into_its_seeds(rows, seeds):
    block = _random_split(np.random.default_rng(8), rows, 6, 2)
    with pytest.raises(ValidationError,
                       match=f"^{rows} rows do not divide into {len(seeds)} sets, one per seed$"):
        _train_linear_stack(block, seeds, epochs=2, learning_rate=0.5, l2=0.0)


def test_one_diverging_model_stops_the_stack():
    calm = _split(np.zeros((4, 4)), np.zeros((4, 2)))  # no bit set: its loss stays finite
    train_linear(calm, epochs=50, learning_rate=1e307, seed=0)
    block = tuple(np.concatenate(rows) for rows in zip(calm, _toy()))
    with pytest.raises(DialoforgeError, match="loss became non-finite") as err:
        _train_linear_stack(block, [0, 0], epochs=50, learning_rate=1e307, l2=0.0)
    assert type(err.value) is DialoforgeError  # a runtime error: exit 2


def test_loss_is_the_cross_entropy_to_rounding():
    rng = np.random.default_rng(21)
    l2 = 0.01
    for n, width, actions in ((1, 3, 2), (128, 33, 8), (77, 75, 26)):
        states, targets = _random_split(rng, n, width, actions)
        weights = rng.normal(scale=3.0, size=(width, actions))
        bias = rng.normal(scale=3.0, size=actions)
        loss, _, _ = logistic_loss_and_grad(weights, bias, states, targets, l2)
        z = states @ weights + bias
        terms = [
            max(v, 0.0) + math.log1p(math.exp(-abs(v))) - y * v
            for v, y in zip(z.ravel().tolist(), targets.ravel().tolist())
        ]
        penalty = 0.5 * l2 * math.fsum((weights * weights).ravel().tolist())
        expected = math.fsum(terms) / (n * actions) + penalty
        assert abs(loss - expected) <= 1e-12 * expected


@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("z", [0.0, 40.0, -40.0, 1e3, -1e3, math.inf, -math.inf])
def test_loss_is_finite_where_the_logaddexp_form_is(z, y):
    loss, _, _ = logistic_loss_and_grad(
        np.zeros((1, 1)), np.array([z]), np.zeros((1, 1), np.uint8), np.array([[y]], np.uint8)
    )
    with np.errstate(invalid="ignore"):
        reference = float(np.logaddexp(0.0, z) - y * z)
    assert math.isfinite(loss) == math.isfinite(reference)
    if math.isfinite(reference):
        assert loss == pytest.approx(reference, rel=1e-12)


def test_linear_deterministic_given_seed():
    rng = np.random.default_rng(3)
    states = (rng.random((50, 6)) < 0.5).astype(np.uint8)
    targets = (rng.random((50, 2)) < 0.5).astype(np.uint8)
    m1 = train_linear(_split(states, targets), epochs=10, learning_rate=0.3, seed=9)
    m2 = train_linear(_split(states, targets), epochs=10, learning_rate=0.3, seed=9)
    assert np.array_equal(m1.weights, m2.weights)


# -- predict -----------------------------------------------------------------


def test_all_zero_weights_predict_full_catalog():
    model = LinearModel(weights=np.zeros((4, 3)), bias=np.zeros(3))
    out = predict(model, np.ones((1, 4), dtype=np.uint8))
    assert out.tolist() == [[1, 1, 1]]  # every sigmoid score is exactly 0.5


def test_below_threshold_falls_back_to_argmax():
    weights = np.array([[-3.0, -2.0, -4.0]])
    model = LinearModel(weights=weights, bias=np.array([0.0, 0.0, 0.0]))
    out = predict(model, np.ones((1, 1), dtype=np.uint8))
    assert out.tolist() == [[0, 1, 0]]  # single argmax bit


def test_argmax_tie_breaks_to_lowest_index():
    weights = np.array([[-2.0, -2.0]])
    model = LinearModel(weights=weights, bias=np.zeros(2))
    out = predict(model, np.ones((1, 1), dtype=np.uint8))
    assert out.tolist() == [[1, 0]]


def test_width_mismatch_rejected():
    model = LinearModel(weights=np.zeros((4, 2)), bias=np.zeros(2))
    with pytest.raises(DialoforgeError, match="state width 5 != 4") as err:
        predict(model, np.ones((1, 5), dtype=np.uint8))
    assert type(err.value) is DialoforgeError


@pytest.mark.parametrize("kind", ["memorizer", "linear"])
@pytest.mark.parametrize("shape", [(4,), (), (1, 1, 4)], ids=["1-d", "0-d", "3-d"])
def test_predict_takes_only_a_batch(kind, shape):
    model = (train_memorizer if kind == "memorizer" else train_linear)(_toy())
    with pytest.raises(DialoforgeError, match="expected a 2-D") as err:
        predict(model, np.ones(shape, dtype=np.uint8))
    assert type(err.value) is DialoforgeError


# -- model files -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memorizer", "linear"])
def test_save_load_round_trip_predicts_identically(kind, simple_ontology, tmp_path):
    ds = generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=60, seed=4))
    enc = encode_dataset(ds, simple_ontology)
    train = enc.splits["train"]
    model = train_memorizer(train) if kind == "memorizer" else train_linear(train, epochs=3)
    path = tmp_path / f"{kind}.npz"
    save_model(model, path, enc.ontology_hash)
    with np.load(path) as blob:
        assert "threshold" not in blob.files
    loaded, ontology_hash = load_model(path)
    assert type(loaded) is type(model)
    for f in dataclasses.fields(model):  # equal in value and in type
        got, want = getattr(loaded, f.name), getattr(model, f.name)
        assert type(got) is type(want), f.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        elif isinstance(want, list):  # the loss history
            assert got == want and list(map(type, got)) == list(map(type, want)), f.name
        else:
            assert got == want, f.name
    states = np.concatenate([enc.splits["test"][0], 1 - enc.splits["test"][0][:5]])
    assert np.array_equal(predict(loaded, states), predict(model, states))
    assert ontology_hash == enc.ontology_hash == simple_ontology.content_hash()
    again = tmp_path / f"{kind}-again.npz"
    save_model(loaded, again, ontology_hash)
    assert again.read_bytes() == path.read_bytes()


def test_linear_file_with_a_threshold_member_loads(tmp_path):
    # Model files once carried the 0.5 cut as a member of their own.
    model = LinearModel(weights=np.array([[2.0, -2.0]]), bias=np.zeros(2), loss_history=[0.5])
    path = tmp_path / "old.npz"
    np.savez(path, kind="linear", weights=model.weights, bias=model.bias, threshold=0.5,
             loss_history=np.array(model.loss_history), ontology_hash="abc")
    loaded, ontology_hash = load_model(path)
    assert ontology_hash == "abc" and loaded.loss_history == [0.5]
    assert np.array_equal(loaded.weights, model.weights)
    states = np.array([[0], [1]], dtype=np.uint8)
    assert predict(loaded, states).tolist() == [[1, 1], [1, 0]]


def test_load_model_rejects_a_loss_history_that_is_no_list(tmp_path):
    path = tmp_path / "scalar.npz"
    np.savez(path, kind="linear", weights=np.zeros((3, 2)), bias=np.zeros(2), loss_history=0.5,
             ontology_hash="abc")
    with pytest.raises(ValidationError, match="loss_history dimensions 0, expected 1"):
        load_model(path)


def test_load_model_rejects_unknown_kind(tmp_path):
    from dialoforge.errors import ValidationError

    path = tmp_path / "odd.npz"
    np.savez(path, kind="forest")
    with pytest.raises(ValidationError):
        load_model(path)


def test_readme_python_api_block_runs(capsys):
    """The README's "Python API" example runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("samples ")
