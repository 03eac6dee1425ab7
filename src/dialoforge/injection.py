"""Controlled label noise: relabeling and UNK substitution with an audit log.

Each label instance is perturbed independently (Bernoulli per element, one
probability per category), the gold system acts of touched turns are never
re-derived, and every change is recorded so the exact original dataset can be
reconstructed from the log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional

from .dataset import Dataset, read_jsonl, write_jsonl
from .engine import DialogueTurn, UserAct
from .errors import ValidationError
from .ontology import IntentKind, Ontology, UNK_TOKEN, check_object
from .rng import derive_seed


class PerturbMode(Enum):
    RELABEL = "relabel"
    UNK = "unk"


class ElementKind(Enum):
    INTENT = "intent"
    ACTION = "action"
    SLOT = "slot"


@dataclass(frozen=True)
class ErrorConfig:
    p_intent: float = 0.0
    p_action: float = 0.0
    p_slot: float = 0.0
    mode_weights: tuple[float, float] = (0.5, 0.5)  # (relabel, unk)
    seed: int = 0

    def __post_init__(self):
        for name in ("p_intent", "p_action", "p_slot"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1]")
        w_relabel, w_unk = self.mode_weights
        if w_relabel < 0 or w_unk < 0 or w_relabel + w_unk == 0:
            raise ValidationError("mode_weights must be non-negative, not both zero")


_RECORD_KEYS = {
    **dict.fromkeys(("dialogue_id", "element", "original", "new", "mode"), "string"),
    **dict.fromkeys(("turn_index", "index"), "integer"),
}


@dataclass(frozen=True)
class PerturbationRecord:
    dialogue_id: str
    turn_index: int
    element: ElementKind
    index: int  # position of the element within its act list
    original: str
    new: str
    mode: PerturbMode

    def to_dict(self) -> dict:
        return dict(vars(self), element=self.element.value, mode=self.mode.value)

    @classmethod
    def from_dict(cls, obj: dict) -> "PerturbationRecord":
        check_object(obj, "$", _RECORD_KEYS)
        return cls(**dict(obj, element=ElementKind(obj["element"]), mode=PerturbMode(obj["mode"])))


def _draw_mode(rng: random.Random, weights: tuple[float, float]) -> PerturbMode:
    w_relabel, w_unk = weights
    if rng.random() * (w_relabel + w_unk) < w_relabel:
        return PerturbMode.RELABEL
    return PerturbMode.UNK


_INTENT_LABEL = {kind: kind.value for kind in IntentKind}
_INTENT_KIND = {kind.value: kind for kind in IntentKind}


def _labels(turn: DialogueTurn, kind: ElementKind) -> Iterable[tuple[int, str]]:
    """(index, label) of every label of one kind in a turn."""
    if kind is ElementKind.INTENT:
        return enumerate([_INTENT_LABEL[act.kind] for act in turn.user_acts])
    if kind is ElementKind.SLOT:
        return [(i, act.slot) for i, act in enumerate(turn.user_acts) if act.slot is not None]
    return enumerate(turn.system_acts)


def _label_at(turn: DialogueTurn, kind: ElementKind, index: int) -> Optional[str]:
    """The label of one kind at ``index`` of a turn, None where there is none."""
    acts = turn.system_acts if kind is ElementKind.ACTION else turn.user_acts
    if not isinstance(index, int) or not 0 <= index < len(acts):
        return None
    if kind is ElementKind.ACTION:
        return acts[index]
    act = acts[index]
    return _INTENT_LABEL[act.kind] if kind is ElementKind.INTENT else act.slot


def _relabel(turn: DialogueTurn, kind: ElementKind, index: int, label: str) -> None:
    """Make one label of a turn that ``_apply`` copied read ``label``.  A user
    act is replaced, never changed in place.  The new act is built attribute by
    attribute in the order of ``UserAct.from_dict``, so that it keeps the
    instance-dict layout every other act shares, and like ``from_dict`` it does
    not check that a noisy kind fits its slot and value."""
    if kind is ElementKind.ACTION:
        turn.system_acts[index] = label
        return
    old = turn.user_acts[index]
    act = UserAct.__new__(UserAct)
    act.kind = _INTENT_KIND[label] if kind is ElementKind.INTENT else old.kind
    act.domain = old.domain
    act.topic = old.topic
    act.slot = label if kind is ElementKind.SLOT else old.slot
    act.value = old.value
    turn.user_acts[index] = act


def _apply(dataset: Dataset, edits: Iterable[tuple[PerturbationRecord, str, str]]) -> Dataset:
    """The one writer of labels: a new dataset in which each ``(record, old, new)``
    edit turns the addressed label from ``old`` into ``new``. An edited turn is
    copied once, at its first edit; untouched dialogues and turns are the
    input's own objects, so no code may mutate a built dialogue."""
    turns_by_id: dict[str, list[DialogueTurn]] = {}
    for _, dlg in dataset.iter_dialogues():
        if dlg.id in turns_by_id:
            raise ValidationError(f"dialogue id {dlg.id!r} is repeated; the log needs unique ids")
        turns_by_id[dlg.id] = dlg.turns
    changed: dict[str, list[DialogueTurn]] = {}  # the new turn list of each edited dialogue
    for rec, old, new in edits:
        turns = changed.get(rec.dialogue_id)
        if turns is None:
            turns = changed[rec.dialogue_id] = list(turns_by_id.get(rec.dialogue_id, []))
        turn = turns[rec.turn_index] if 0 <= rec.turn_index < len(turns) else None
        if (
            turn is None
            or _label_at(turn, rec.element, rec.index) != old
            or (rec.element is ElementKind.INTENT and new not in _INTENT_KIND)
        ):
            raise ValidationError(f"record does not match dataset: {rec}")
        if turn is turns_by_id[rec.dialogue_id][rec.turn_index]:  # not yet copied
            turn = turns[rec.turn_index] = DialogueTurn(
                list(turn.user_acts), list(turn.system_acts), turn.event
            )
        _relabel(turn, rec.element, rec.index, new)
    splits = {
        split: [replace(d, turns=changed[d.id]) if d.id in changed else d for d in dialogues]
        for split, dialogues in dataset.splits.items()
    }
    return replace(dataset, splits=splits)


def inject_errors(
    dataset: Dataset,
    ontology: Ontology,
    cfg: ErrorConfig,
    splits: str = "all",
) -> tuple[Dataset, list[PerturbationRecord]]:
    """Perturb a dataset's labels; returns a new dataset plus the audit log.

    The input dataset is left untouched.  ``splits`` may be "all" or "train"
    to restrict which splits receive noise; labels outside the ontology raise
    a ``ValidationError`` in every split, and so does a lane that may relabel
    (its ``p_`` and the relabel weight above 0) over a catalog of fewer than
    two labels, before anything is drawn.
    """
    if splits not in ("all", "train"):
        raise ValidationError("splits must be 'all' or 'train'")
    # Per lane, every known label (the catalog plus UNK) maps to the catalog
    # minus that label, the list a relabel draws from uniformly.  Per turn,
    # intents are drawn before slots before actions: this order defines the
    # RNG stream of a seed.
    lanes = []
    for kind, catalog, p in (
        (ElementKind.INTENT, list(ontology.intent_catalog), cfg.p_intent),
        (ElementKind.SLOT, ontology.all_slot_names(), cfg.p_slot),
        (ElementKind.ACTION, list(ontology.action_catalog), cfg.p_action),
    ):
        if p > 0 and cfg.mode_weights[0] > 0 and len(catalog) < 2:
            raise ValidationError(
                f"p_{kind.value} is {p} and relabeling is on, but the {kind.value} "
                f"catalog has {len(catalog)} label(s); relabeling needs >= 2"
            )
        others = {label: [c for c in catalog if c != label] for label in [*catalog, UNK_TOKEN]}
        lanes.append((kind, others, p))

    records: list[PerturbationRecord] = []
    for ordinal, (split, dlg) in enumerate(dataset.iter_dialogues()):
        noisy = splits == "all" or split == "train"
        rng = random.Random(derive_seed(cfg.seed, ordinal)) if noisy else None
        for ti, turn in enumerate(dlg.turns):
            for kind, others, p in lanes:
                draw = noisy and p > 0
                for index, label in _labels(turn, kind):
                    candidates = others.get(label)
                    if candidates is None:
                        raise ValidationError(f"{dlg.id} turn {ti}: {kind.value} {label!r}")
                    if not draw or rng.random() >= p:
                        continue
                    mode = _draw_mode(rng, cfg.mode_weights)
                    new = UNK_TOKEN if mode is PerturbMode.UNK else rng.choice(candidates)
                    if new != label:
                        records.append(
                            PerturbationRecord(dlg.id, ti, kind, index, label, new, mode)
                        )
    return _apply(dataset, ((r, r.original, r.new) for r in records)), records


def revert_errors(dataset: Dataset, records: list[PerturbationRecord]) -> Dataset:
    """Undo a perturbation pass, restoring the original dataset exactly."""
    return _apply(dataset, ((r, r.new, r.original) for r in records))


def write_records(records: list[PerturbationRecord], path) -> None:
    write_jsonl(path, (r.to_dict() for r in records))


def read_records(path) -> list[PerturbationRecord]:
    return read_jsonl(path, PerturbationRecord.from_dict)
