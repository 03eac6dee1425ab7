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
from typing import ClassVar, Iterable, Optional

from .dataset import Dataset, read_jsonl, write_jsonl
from .engine import Dialogue, DialogueTurn, UserAct
from .errors import ValidationError
from .ontology import IntentKind, Ontology, UNK_TOKEN, check_object, check_setting
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
    # The rule of each field (see ontology.check_setting), which the CLI's
    # flags and the sweep's rates must meet too.
    RULES: ClassVar[dict[str, str]] = {
        **dict.fromkeys(("p_intent", "p_action", "p_slot"), "a number in [0, 1]"),
        "mode_weights": "two finite numbers >= 0",
        "seed": "an int",
    }

    def __post_init__(self):
        for name, rule in self.RULES.items():
            check_setting(name, getattr(self, name), rule)
        # Stored as a tuple, so a config given a list equals and hashes like its twin.
        object.__setattr__(self, "mode_weights", tuple(self.mode_weights))
        if sum(self.mode_weights) == 0:
            raise ValidationError(f"mode_weights must not both be zero, got {self.mode_weights!r}")


_RECORD_KEYS = {
    **dict.fromkeys(("dialogue_id", "element", "original", "new", "mode"), "a string"),
    **dict.fromkeys(("turn_index", "index"), "an int"),
}


@dataclass(slots=True)
class PerturbationRecord:
    dialogue_id: str
    turn_index: int
    element: ElementKind
    index: int  # position of the element within its act list
    original: str
    new: str
    mode: PerturbMode

    def to_dict(self) -> dict:
        return {
            "dialogue_id": self.dialogue_id,
            "turn_index": self.turn_index,
            "element": self.element.value,
            "index": self.index,
            "original": self.original,
            "new": self.new,
            "mode": self.mode.value,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PerturbationRecord":
        check_object(obj, "$", _RECORD_KEYS)
        return cls(**dict(obj, element=ElementKind(obj["element"]), mode=PerturbMode(obj["mode"])))


def _draw(
    rng: random.Random, weights: tuple[float, float], candidates: list[str]
) -> tuple[str, PerturbMode]:
    """The new label and mode of a label whose Bernoulli draw hit: the mode
    draw, then for a relabel a uniform choice among ``candidates``."""
    w_relabel, w_unk = weights
    if rng.random() * (w_relabel + w_unk) < w_relabel:
        return rng.choice(candidates), PerturbMode.RELABEL
    return UNK_TOKEN, PerturbMode.UNK


NOISE_SPLITS = ("all", "train")  # inject_errors' splits: noise everywhere, or in train
_INTENT_LABEL = {kind: kind.value for kind in IntentKind}
_INTENT_KIND = {kind.value: kind for kind in IntentKind}


def _label_at(turn: DialogueTurn, kind: ElementKind, index: int) -> Optional[str]:
    """The label of one kind at ``index`` of a turn, None where there is none."""
    acts = turn.system_acts if kind is ElementKind.ACTION else turn.user_acts
    if not isinstance(index, int) or not 0 <= index < len(acts):
        return None
    if kind is ElementKind.ACTION:
        return acts[index]
    act = acts[index]
    return _INTENT_LABEL[act.kind] if kind is ElementKind.INTENT else act.slot


def _write_turn(turn: DialogueTurn, edits: Iterable[tuple[ElementKind, int, str]]) -> DialogueTurn:
    """The one writer of labels: a copy of ``turn`` in which each ``(kind,
    index, label)`` edit, in order, makes the addressed label read ``label``.
    A user act is replaced, never changed in place, by one from
    ``UserAct.unchecked``, since a noisy kind need not fit its slot and value.
    The input turn is left as it was, so no code mutates a built dialogue."""
    user_acts, system_acts = list(turn.user_acts), list(turn.system_acts)
    for kind, index, label in edits:
        if kind is ElementKind.ACTION:
            system_acts[index] = label
            continue
        old = user_acts[index]
        intent = _INTENT_KIND[label] if kind is ElementKind.INTENT else old.kind
        slot = label if kind is ElementKind.SLOT else old.slot
        user_acts[index] = UserAct.unchecked(intent, old.domain, old.topic, slot, old.value)
    return DialogueTurn(user_acts, system_acts, turn.event)


def _turns_by_id(dataset: Dataset) -> dict[str, list[DialogueTurn]]:
    """The turn list of each dialogue id; the log addresses dialogues by id."""
    turns_by_id: dict[str, list[DialogueTurn]] = {}
    for _, dlg in dataset.iter_dialogues():
        if dlg.id in turns_by_id:
            raise ValidationError(f"dialogue id {dlg.id!r} is repeated; the log needs unique ids")
        turns_by_id[dlg.id] = dlg.turns
    return turns_by_id


def _with_turns(dataset: Dataset, changed: dict[str, list[DialogueTurn]]) -> Dataset:
    """A new dataset in which each dialogue id of ``changed`` has the turn list
    given there; every other dialogue is the input's own object."""
    splits = {
        split: [Dialogue(d.id, d.seed, changed[d.id]) if d.id in changed else d for d in dialogues]
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
    if splits not in NOISE_SPLITS:
        raise ValidationError("splits must be 'all' or 'train'")
    # Per lane, every known label (the catalog plus UNK) maps to the catalog
    # minus that label, the list a relabel draws from uniformly.
    others = {}
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
        others[kind] = {
            label: [c for c in catalog if c != label] for label in [*catalog, UNK_TOKEN]
        }
    # The intent catalog is every IntentKind, so only slots and actions can
    # hold a label outside their catalog.
    intent_others = others[ElementKind.INTENT]
    slot_others = others[ElementKind.SLOT]
    action_others = others[ElementKind.ACTION]
    weights = cfg.mode_weights
    any_p = cfg.p_intent > 0 or cfg.p_slot > 0 or cfg.p_action > 0

    records: list[PerturbationRecord] = []
    changed: dict[str, list[DialogueTurn]] = {}  # the new turn list of each edited dialogue
    for ordinal, (split, dlg) in enumerate(dataset.iter_dialogues()):
        noisy = any_p and (splits == "all" or split == "train")
        rng = random.Random(derive_seed(cfg.seed, ordinal)) if noisy else None
        p_intent, p_slot, p_action = (
            (cfg.p_intent, cfg.p_slot, cfg.p_action) if noisy else (0.0, 0.0, 0.0)
        )
        new_turns = None
        for ti, turn in enumerate(dlg.turns):
            # One walk per turn: intents, then slots, then actions, and per
            # label a Bernoulli draw, then on a hit the mode draw and the
            # relabel choice.  This order defines the RNG stream of a seed.
            first = len(records)
            for index, act in enumerate(turn.user_acts):
                if p_intent and rng.random() < p_intent:
                    label = _INTENT_LABEL[act.kind]
                    new, mode = _draw(rng, weights, intent_others[label])
                    if new != label:
                        records.append(PerturbationRecord(
                            dlg.id, ti, ElementKind.INTENT, index, label, new, mode
                        ))
            for index, act in enumerate(turn.user_acts):
                label = act.slot
                if label is None:
                    continue
                if label not in slot_others:
                    raise ValidationError(f"{dlg.id} turn {ti}: slot {label!r}")
                if p_slot and rng.random() < p_slot:
                    new, mode = _draw(rng, weights, slot_others[label])
                    if new != label:
                        records.append(PerturbationRecord(
                            dlg.id, ti, ElementKind.SLOT, index, label, new, mode
                        ))
            for index, label in enumerate(turn.system_acts):
                if label not in action_others:
                    raise ValidationError(f"{dlg.id} turn {ti}: action {label!r}")
                if p_action and rng.random() < p_action:
                    new, mode = _draw(rng, weights, action_others[label])
                    if new != label:
                        records.append(PerturbationRecord(
                            dlg.id, ti, ElementKind.ACTION, index, label, new, mode
                        ))
            if len(records) > first:
                if new_turns is None:
                    new_turns = changed[dlg.id] = list(dlg.turns)
                new_turns[ti] = _write_turn(
                    turn, [(r.element, r.index, r.new) for r in records[first:]]
                )
    _turns_by_id(dataset)  # the log needs unique dialogue ids
    return _with_turns(dataset, changed), records


def revert_errors(dataset: Dataset, records: list[PerturbationRecord]) -> Dataset:
    """Undo a perturbation pass, restoring the original dataset exactly.

    Each record must find its ``new`` label where it points, as the records
    before it in the log left that label, else the log is rejected."""
    turns_by_id = _turns_by_id(dataset)
    changed: dict[str, list[DialogueTurn]] = {}  # the new turn list of each edited dialogue
    for rec in records:
        turns = changed.get(rec.dialogue_id) or turns_by_id.get(rec.dialogue_id, [])
        turn = turns[rec.turn_index] if 0 <= rec.turn_index < len(turns) else None
        if (
            turn is None
            or _label_at(turn, rec.element, rec.index) != rec.new
            or (rec.element is ElementKind.INTENT and rec.original not in _INTENT_KIND)
        ):
            raise ValidationError(f"record does not match dataset: {rec}")
        if rec.dialogue_id not in changed:
            turns = changed[rec.dialogue_id] = list(turns)
        turns[rec.turn_index] = _write_turn(turn, [(rec.element, rec.index, rec.original)])
    return _with_turns(dataset, changed)


def write_records(records: list[PerturbationRecord], path) -> None:
    write_jsonl(path, (r.to_dict() for r in records))


def read_records(path) -> list[PerturbationRecord]:
    return read_jsonl(path, PerturbationRecord.from_dict)
