"""Baseline policies and the error-rate robustness sweep.

Two framework-free baselines exercise the task interface: a memorizing
lookup table (clean synthetic data is exactly solvable, so it doubles as an
oracle) and per-action logistic regression trained with mini-batch gradient
descent.
"""

from __future__ import annotations

import csv
import gc
import zipfile
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import ClassVar, Optional, Union

import numpy as np

from .dataset import SPLIT_NAMES, Dataset, generate_dataset
from .encoding import encode_dataset
from .engine import GeneratorConfig, split_counts
from .errors import DialoforgeError, ValidationError
from .injection import ErrorConfig, inject_errors
from .metrics import MetricsReport, compute_metrics
from .ontology import Ontology, check_setting
from .rng import derive_seed

BATCH_SIZE = 128  # minibatch rows per gradient step of train_linear
_EPOCHS, _LEARNING_RATE, _L2 = 30, 0.5, 0.0  # train_linear's defaults, and the sweep's


@dataclass
class MemorizerModel:
    """Maps each training state to its majority target set.  Its fields are
    what its file holds: the distinct training states, bit-packed row by row
    in first-seen order, the target row of each, and the fallback target."""

    KIND: ClassVar[str] = "memorizer"
    state_width: int
    packed_states: np.ndarray  # (n, ceil(state_width / 8)) uint8
    targets: np.ndarray  # (n, target_width) uint8
    fallback: np.ndarray  # (target_width,) uint8

    @property
    def target_width(self) -> int:
        return self.fallback.shape[0]

    @cached_property
    def table(self) -> dict[bytes, np.ndarray]:
        """The target row of each packed state, as predict looks it up."""
        return {row.tobytes(): target for row, target in zip(self.packed_states, self.targets)}


@dataclass
class LinearModel:
    """Independent per-action sigmoid scorers over the binary state."""

    KIND: ClassVar[str] = "linear"
    weights: np.ndarray  # (state_width, n_actions)
    bias: np.ndarray  # (n_actions,)
    loss_history: list[float] = field(default_factory=list)

    @property
    def state_width(self) -> int:
        return self.weights.shape[0]

    def scores(self, states: np.ndarray) -> np.ndarray:
        return _sigmoid(states.astype(np.float64) @ self.weights + self.bias)


Model = Union[MemorizerModel, LinearModel]
_MODEL_CLASSES = {cls.KIND: cls for cls in (MemorizerModel, LinearModel)}
MODEL_KINDS = tuple(_MODEL_CLASSES)


def _pack_rows(states: np.ndarray) -> list[bytes]:
    packed = np.packbits(states.astype(np.uint8), axis=1)
    return [row.tobytes() for row in packed]


def _training_pair(train: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The (states, targets) a trainer takes: as many target rows as state
    rows, and at least one."""
    states, targets = train
    if states.shape[0] != targets.shape[0]:
        raise ValidationError(f"{states.shape[0]} state rows but {targets.shape[0]} target rows")
    if states.shape[0] == 0:
        raise ValidationError("cannot train on an empty split")
    return states, targets


def train_memorizer(train: tuple[np.ndarray, np.ndarray]) -> MemorizerModel:
    """Majority target per distinct state; ties break to the lexicographically
    smallest serialized target, and the fallback is the global majority."""
    states, targets = _training_pair(train)

    per_state: dict[bytes, Counter] = {}
    overall: Counter = Counter()
    target_bytes = [t.tobytes() for t in targets.astype(np.uint8)]
    for key, tb in zip(_pack_rows(states), target_bytes):
        per_state.setdefault(key, Counter())[tb] += 1
        overall[tb] += 1

    def majority(counter: Counter) -> np.ndarray:
        best = min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        return np.frombuffer(best, dtype=np.uint8).copy()

    return MemorizerModel(
        state_width=states.shape[1],
        packed_states=np.stack([np.frombuffer(key, dtype=np.uint8) for key in per_state]),
        targets=np.stack([majority(c) for c in per_state.values()]),
        fallback=majority(overall),
    )


def _sigmoid(z: np.ndarray, e: Optional[np.ndarray] = None) -> np.ndarray:
    """1 / (1 + e^-z) without overflow, from e = exp(-|z|), computed here when
    not given.  ``minimum(z, -z)`` is -|z| that keeps a NaN's sign and
    payload, so every z maps to the bits of the branchwise formula."""
    if e is None:
        e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    states: np.ndarray,
    targets: np.ndarray,
    l2: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean binary cross-entropy over (sample, action) pairs plus an L2 term,
    with its analytic gradient, for one model or a stack of them: leading
    axes of ``weights`` (..., width, actions) and ``bias`` (..., actions)
    pair with those of ``states`` (..., n, width) and ``targets``
    (..., n, actions), and the loss then has their shape.

    The loss ``max(z, 0) + log1p(e) - y*z`` shares the sigmoid's
    ``e = exp(-|z|)``, so each step takes one exponential.  ``exp`` and
    ``log1p`` run NumPy's SIMD code, whose last bit can differ by CPU, so a
    model's bits are those of the machine's NumPy SIMD path."""
    x = states.astype(np.float64)
    y = targets.astype(np.float64)
    n, a = y.shape[-2:]
    # A diverging run overflows to inf and then nan; the trainer stops it.
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ weights + bias[..., None, :]
        e = np.exp(np.minimum(z, -z))
        loss = (np.maximum(z, 0.0) + np.log1p(e) - y * z).sum(axis=(-2, -1)) / (n * a)
        loss += 0.5 * l2 * (weights * weights).sum(axis=(-2, -1))
        residual = _sigmoid(z, e) - y
        grad_w = x.swapaxes(-1, -2) @ residual / (n * a) + l2 * weights
        grad_b = residual.sum(axis=-2) / (n * a)
    return loss, grad_w, grad_b


# The rule of each setting of train_linear (see ontology.check_setting), in
# the order they are checked; the train command's flags must meet them too.
LINEAR_RULES = {
    **dict.fromkeys(("learning_rate", "l2"), "a finite number >= 0"),
    "epochs": "an int >= 1",
    "seed": "an int >= 0",  # NumPy's generator takes no negative seed
}


def _train_linear_stack(
    train: tuple[np.ndarray, np.ndarray],
    seeds: list[int],
    epochs: int,
    learning_rate: float,
    l2: float,
) -> list[LinearModel]:
    """One linear model per seed, all trained in lockstep: each pass of the
    loop takes every model's step at once, with one index into ``train``,
    which holds ``len(seeds)`` training sets of one size end to end.  Model i
    trains on set i and shuffles with ``default_rng(seeds[i])``, so it gets
    the bits it gets trained alone."""
    for seed in seeds:
        settings = {"learning_rate": learning_rate, "l2": l2, "epochs": epochs, "seed": seed}
        for name, rule in LINEAR_RULES.items():
            check_setting(name, settings[name], rule)
    states, targets = _training_pair(train)
    m = len(seeds)
    if len(states) % m:
        raise ValidationError(f"{len(states)} rows do not divide into {m} sets, one per seed")
    n = len(states) // m
    weights = np.zeros((m, states.shape[1], targets.shape[1]), dtype=np.float64)
    bias = np.zeros((m, targets.shape[1]), dtype=np.float64)
    shufflers = [np.random.default_rng(seed) for seed in seeds]
    offsets = np.arange(0, m * n, n)[:, None]
    history = np.empty((epochs, m))
    batches = range(0, n, BATCH_SIZE)
    for epoch in range(epochs):
        orders = np.stack([shuffler.permutation(n) for shuffler in shufflers]) + offsets
        epoch_loss = np.zeros(m)
        for start in batches:
            sel = orders[:, start : start + BATCH_SIZE]
            loss, gw, gb = logistic_loss_and_grad(
                weights, bias, states.take(sel, axis=0), targets.take(sel, axis=0), l2
            )
            finite = np.isfinite(loss)
            if not finite.all():
                raise DialoforgeError(f"loss became non-finite ({float(loss[~finite][0])})")
            weights -= learning_rate * gw
            bias -= learning_rate * gb
            epoch_loss += loss
        history[epoch] = epoch_loss / len(batches)

    return [
        LinearModel(weights=weights[i], bias=bias[i], loss_history=history[:, i].tolist())
        for i in range(m)
    ]


def train_linear(
    train: tuple[np.ndarray, np.ndarray],
    epochs: int = _EPOCHS,
    learning_rate: float = _LEARNING_RATE,
    l2: float = _L2,
    seed: int = 0,
) -> LinearModel:
    """Per-action logistic regression by mini-batch gradient descent, with
    batches of BATCH_SIZE rows drawn in the order ``default_rng(seed)``
    shuffles each epoch to."""
    (model,) = _train_linear_stack(train, [seed], epochs, learning_rate, l2)
    return model


def predict(model: Model, states: np.ndarray) -> np.ndarray:
    """Target rows of an (n, state_width) batch.  The linear model predicts each
    action that scores at least 0.5, or its best one where none does."""
    if states.ndim != 2:
        raise DialoforgeError(f"expected a 2-D (samples x state) batch, got shape {states.shape}")
    if states.shape[1] != model.state_width:
        raise DialoforgeError(f"state width {states.shape[1]} != {model.state_width}")
    if isinstance(model, MemorizerModel):
        table, fallback = model.table, model.fallback
        return np.array(
            [table.get(key, fallback) for key in _pack_rows(states)], dtype=np.uint8
        ).reshape(-1, model.target_width)
    scores = model.scores(states)
    out = (scores >= 0.5).astype(np.uint8)
    empty = ~out.any(axis=1)
    if empty.any():  # argmax ties resolve to the lowest index
        out[empty, np.argmax(scores[empty], axis=1)] = 1
    return out


def save_model(model: Model, path, ontology_hash: str) -> None:
    """Write a model as .npz: its kind, each of its fields, and the ontology
    its data came from.  A memorizer's file also holds a copy of its
    target_width, after its state_width, which load_model checks."""
    members = {"kind": model.KIND}
    for f in fields(model):
        members[f.name] = getattr(model, f.name)
        if f.name == "state_width":
            members["target_width"] = model.target_width
    with open(path, "wb") as fh:
        np.savez(fh, **members, ontology_hash=ontology_hash)


# The dtype of each array member save_model writes, by model kind.
_DTYPES = {
    "memorizer": dict.fromkeys(("packed_states", "targets", "fallback"), np.dtype(np.uint8)),
    "linear": dict.fromkeys(("weights", "bias", "loss_history"), np.dtype(np.float64)),
}


def _mismatch(kind: str, arrays: dict) -> Optional[str]:
    """The first model array not of the dtype save_model writes, or whose
    values or shape disagree with the others, if any."""
    for name, dtype in _DTYPES[kind].items():
        if arrays[name].dtype != dtype:
            return f"{name} dtype {arrays[name].dtype}, expected {dtype}"
    if kind == "memorizer":
        for name in ("targets", "fallback"):
            if arrays[name].max(initial=0) > 1:
                return f"{name} holds a value other than 0 and 1"
        packed, fallback = arrays["packed_states"], arrays["fallback"]
        n, width = len(packed), len(fallback)
        checks = (
            ("fallback shape", fallback.shape, (width,)),
            ("targets shape", arrays["targets"].shape, (n, width)),
            ("packed_states shape", packed.shape, (n, (int(arrays["state_width"]) + 7) // 8)),
            ("target_width", int(arrays["target_width"]), width),
        )
    else:
        weights, bias = arrays["weights"], arrays["bias"]
        checks = (
            ("weights dimensions", weights.ndim, 2),
            ("bias shape", bias.shape, weights.shape[1:]),
            ("loss_history dimensions", arrays["loss_history"].ndim, 1),
        )
    for what, got, expected in checks:
        if got != expected:
            return f"{what} {got}, expected {expected}"
    return None


def load_model(path) -> tuple[Model, str]:
    """Read a model written by save_model, with the ontology hash it was tagged
    with: the class its kind names, built from the members named after its
    fields.  A missing file raises OSError; a damaged one, or one whose arrays
    disagree in dtype, values or shape, raises ValidationError."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as blob:
                arrays = dict(blob)  # each access to blob reads the member again
            kind = str(arrays["kind"])
            if kind not in MODEL_KINDS:
                raise ValidationError(f"{path}: unknown model kind {kind!r}")
            mismatch = _mismatch(kind, arrays)
            if mismatch is not None:
                raise ValidationError(f"{path}: {mismatch}")
            # An array field is read as stored, any other (a width, a loss
            # history) as the Python value it was written from.
            cls = _MODEL_CLASSES[kind]
            model = cls(**{
                f.name: arrays[f.name] if f.type == "np.ndarray" else arrays[f.name].tolist()
                for f in fields(cls)
            })
            return model, str(arrays["ontology_hash"])
        except (
            ValueError, TypeError, EOFError, RuntimeError, OSError, zipfile.BadZipFile
        ) as exc:
            # Not an .npz archive, or a member zipfile cannot read: one flagged as
            # encrypted raises RuntimeError, an unknown compression method its
            # subclass NotImplementedError, and a central directory offset past
            # the end of the file an OSError from the seek.
            raise ValidationError(f"{path}: not a model file: {exc}") from None
        except KeyError as exc:
            raise ValidationError(f"{path}: model file has no member {exc}") from None


# ---------------------------------------------------------------------------
# Robustness sweep


@dataclass
class SweepRow:
    error_rate: float
    model: str
    report: MetricsReport
    seed: int


@dataclass
class SweepResult:
    rows: list[SweepRow]
    manifest: dict

    def mean_f1(self, model: str) -> list[tuple[float, float]]:
        """Per-rate mean micro-F1 for one model, in rate order."""
        rates: dict[float, list[float]] = {}
        for row in self.rows:
            if row.model == model:
                rates.setdefault(row.error_rate, []).append(row.report.micro_f1)
        return [(rate, float(np.mean(v))) for rate, v in sorted(rates.items())]


def _pack(pair: tuple[np.ndarray, np.ndarray]) -> tuple[tuple[np.ndarray, int], ...]:
    """A (states, targets) pair of 0/1 rows, each bit-packed with its width."""
    return tuple((np.packbits(rows, axis=1), rows.shape[1]) for rows in pair)


def _unpack(*packed: tuple[tuple[np.ndarray, int], ...]) -> tuple[np.ndarray, ...]:
    """The rows of one or more packed (states, targets) pairs, end to end."""
    return tuple(
        np.unpackbits(np.concatenate([bits for bits, _ in rows]), axis=1, count=rows[0][1])
        for rows in zip(*packed)
    )


class collector_paused:
    """Pause the cyclic collector for a call that owns its run (a command or a
    sweep); the caller's setting is back on every way out, and nothing is
    allocated once it is, so no collection fires on the way out."""

    def __enter__(self) -> None:
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.collecting:
            gc.enable()


def robustness_sweep(
    ontology: Ontology,
    gen_cfg: GeneratorConfig,
    error_rates: list[float],
    models: list[str],
    seed: int = 0,
    n_seeds: int = 3,
    mode_weights: tuple[float, float] = (0.5, 0.5),
    base_dataset: Optional[Dataset] = None,
) -> SweepResult:
    """Inject increasing error rates into one clean dataset and score each
    model on the perturbed train/test splits.  Injection relabels acts but
    never adds or drops a turn, so every cell's train split has as many rows
    as the clean one, and the linear cells' packed train rows join into one
    block, unpacked once, on which one lockstep stack trains them all."""
    for i, rate in enumerate(error_rates):  # a rate is each p_ of an ErrorConfig
        check_setting(f"error_rates[{i}]", rate, ErrorConfig.RULES["p_intent"])
    if any(b <= a for a, b in zip(error_rates, error_rates[1:])):
        raise ValidationError("error rates must be strictly increasing")
    for kind in models:
        if kind not in MODEL_KINDS:
            raise ValidationError(f"unknown model kind {kind!r}")
    for name, values in (("error_rates", error_rates), ("models", models)):
        if len(values) == 0 or len(set(values)) < len(values):
            raise ValidationError(f"{name} must be one or more distinct values, got {values!r}")
    check_setting("n_seeds", n_seeds, "an int >= 1")
    check_setting("seed", seed, "an int")
    ErrorConfig(mode_weights=mode_weights)  # checks them before the clean set is built

    if base_dataset is not None:  # the manifest describes it by gen_cfg and the ontology
        if base_dataset.config != gen_cfg:
            raise ValidationError(
                f"base_dataset was generated with {base_dataset.config}, not gen_cfg {gen_cfg}"
            )
        if base_dataset.ontology_hash != ontology.content_hash():
            raise ValidationError(
                f"base_dataset's ontology_hash {base_dataset.ontology_hash} differs from "
                f"the ontology's {ontology.content_hash()}"
            )

    if base_dataset is None:
        sizes = dict(zip(SPLIT_NAMES, split_counts(gen_cfg.n_dialogues, gen_cfg.split_fractions)))
    else:
        sizes = base_dataset.split_sizes()
    for split in ("train", "test"):
        if not sizes[split]:
            raise ValidationError(
                f"the {split} split is empty (train/val/test {sizes['train']}/"
                f"{sizes['val']}/{sizes['test']} dialogues); the sweep trains on "
                "train and scores on test"
            )

    with collector_paused():  # the run builds and drops a dataset per cell
        clean = base_dataset if base_dataset is not None else generate_dataset(ontology, gen_cfg)
        rows: list[SweepRow] = []
        # (rate, seed, train, test) of each linear cell, its 0/1 rows bit-packed
        # until every cell is encoded and one lockstep run trains them all.
        linear_cells = []
        for rate_index, rate in enumerate(error_rates):
            for k in range(n_seeds):
                inj_seed = derive_seed(seed, rate_index * 1009 + k)
                err_cfg = ErrorConfig(
                    p_intent=rate, p_action=rate, p_slot=rate,
                    mode_weights=mode_weights, seed=inj_seed,
                )
                # val is injected too, as each dialogue's stream follows from its
                # position in the dataset, but only train and test are encoded.
                perturbed = inject_errors(clean, ontology, err_cfg)[0]
                scored = {split: perturbed.splits[split] for split in ("train", "test")}
                encoded = encode_dataset(replace(perturbed, splits=scored), ontology)
                train, test = encoded.splits["train"], encoded.splits["test"]
                if "memorizer" in models:
                    report = compute_metrics(predict(train_memorizer(train), test[0]), test[1])
                    rows.append(SweepRow(rate, "memorizer", report, inj_seed))
                if "linear" in models:
                    linear_cells.append((rate, inj_seed, _pack(train), _pack(test)))
                # Drop the cell's data before the next cell is injected, so
                # that no two cells' datasets are held at once.
                del perturbed, scored, encoded, train, test

        if linear_cells:
            trained = _train_linear_stack(
                _unpack(*(train for _, _, train, _ in linear_cells)),
                [inj_seed for _, inj_seed, _, _ in linear_cells], _EPOCHS, _LEARNING_RATE, _L2,
            )
            for (rate, inj_seed, _, test), model in zip(linear_cells, trained):
                states, golds = _unpack(test)
                report = compute_metrics(predict(model, states), golds)
                rows.append(SweepRow(rate, "linear", report, inj_seed))

    rows.sort(key=lambda r: (r.error_rate, r.model, r.seed))
    manifest = {
        "error_rates": list(error_rates),
        "models": list(models),
        "seed": seed,
        "n_seeds": n_seeds,
        "mode_weights": list(mode_weights),
        "noise_applied_to": "all splits",
        "generator_config": asdict(gen_cfg),
        "ontology_hash": ontology.content_hash(),
    }
    return SweepResult(rows=rows, manifest=manifest)


# (column, MetricsReport attribute) of each metric column of sweep.csv.
_SWEEP_METRICS = (
    ("micro_f1", "micro_f1"),
    ("micro_p", "micro_precision"),
    ("micro_r", "micro_recall"),
    ("macro_f1", "macro_f1"),
    ("macro_p", "macro_precision"),
    ("macro_r", "macro_recall"),
)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One line per sweep row: its rate, model, six metrics and seed."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rate", "model", *(column for column, _ in _SWEEP_METRICS), "seed"])
        for row in result.rows:
            values = (f"{getattr(row.report, attr):.6f}" for _, attr in _SWEEP_METRICS)
            writer.writerow([f"{row.error_rate:g}", row.model, *values, row.seed])


def linear_fit_r2(points: list[tuple[float, float]]) -> float:
    """Coefficient of determination of the least-squares line through points."""
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
