"""Binary state/target vectors for supervised policy learning.

A state row is assembled from four blocks:

* slot status -- two bits (filled, just-changed-this-turn) per slot,
* the current turn's user intent kinds (multi-hot),
* the previous turn's system actions (multi-hot, zeros at turn 0),
* dialogue management -- a stack-depth>1 flag plus a phase one-hot.

States are reconstructed from serialized acts alone, replaying the stack with
the policy's own ``DialogueStack`` rules, so encoding works on perturbed
datasets too: an UNK intent lights the UNK position, UNK actions
contribute nothing, and a perturbed slot name that no longer resolves against
the active topic simply stays unfilled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from .dataset import SPLIT_NAMES, Dataset, read_json, write_json
from .engine import Dialogue, DialogueStack, Phase
from .errors import ValidationError
from .ontology import (
    INTENT_CATALOG,
    AtomicActionId,
    IntentKind,
    Ontology,
    UNK_TOKEN,
    check_object,
    parse_action_id,
)

# The depth flag, then one bit per Phase in the enum's order.
MANAGEMENT_FIELDS = ("stack_depth_gt1", *(f"phase_{phase.value}" for phase in Phase))
_PHASE_OFFSET = {phase: i for i, phase in enumerate(Phase, 1)}


@dataclass(frozen=True)
class StateLayout:
    """Bit positions of every feature; serialized with the data for decoding."""

    slot_keys: tuple[str, ...]  # "domain.topic.slot", document order
    actions: tuple[str, ...]
    ontology_hash: str
    intents: ClassVar[tuple[str, ...]] = INTENT_CATALOG

    @classmethod
    def from_ontology(cls, ontology: Ontology) -> "StateLayout":
        return cls(
            slot_keys=tuple(".".join(key) for key in ontology.slot_keys()),
            actions=tuple(ontology.action_catalog),
            ontology_hash=ontology.content_hash(),
        )

    @cached_property
    def intent_offset(self) -> int:
        return 2 * len(self.slot_keys)

    @cached_property
    def action_offset(self) -> int:
        return self.intent_offset + len(self.intents)

    @cached_property
    def management_offset(self) -> int:
        return self.action_offset + len(self.actions)

    @cached_property
    def state_width(self) -> int:
        return self.management_offset + len(MANAGEMENT_FIELDS)

    @property
    def target_width(self) -> int:
        return len(self.actions)

    @cached_property
    def slot_bits(self) -> dict[tuple[str, str], dict[str, int]]:
        """The filled bit of each slot, by (domain, topic) and slot name; its
        just-changed bit is the next one."""
        bits: dict[tuple[str, str], dict[str, int]] = {}
        for i, key in enumerate(self.slot_keys):
            domain, topic, slot = key.split(".")
            bits.setdefault((domain, topic), {})[slot] = 2 * i
        return bits

    @cached_property
    def intent_bits(self) -> dict[IntentKind, int]:
        return {IntentKind(name): self.intent_offset + i for i, name in enumerate(self.intents)}

    @cached_property
    def action_bits(self) -> dict[str, tuple[int, AtomicActionId]]:
        """The target bit and parsed form of each action id."""
        return {aid: (i, parse_action_id(aid)) for i, aid in enumerate(self.actions)}

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "slot_keys": list(self.slot_keys),
            "intents": list(self.intents),
            "actions": list(self.actions),
            "management": list(MANAGEMENT_FIELDS),
            "state_width": self.state_width,
            "target_width": self.target_width,
            "ontology_hash": self.ontology_hash,
        }


def _encode(
    dialogue: Dialogue, ontology: Ontology, layout: StateLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Per-turn (state, target) matrices for one dialogue: the stack replay
    collects the position of every set bit, and the rows are filled at the end."""
    n, state_width, target_width = len(dialogue.turns), layout.state_width, layout.target_width
    slot_bits, intent_bits, actions = layout.slot_bits, layout.intent_bits, layout.action_bits
    management = layout.management_offset
    state_on: list[int] = []  # flat positions in the (turns, state_width) matrix
    target_on: list[int] = []
    stack = DialogueStack(ontology)
    for i, turn in enumerate(dialogue.turns):
        filled = stack.apply_user_acts(turn.user_acts)
        row = i * state_width
        for frame in stack.frames:  # the stack holds only the ontology's topics and slots
            bits = slot_bits[frame.domain, frame.topic]
            for slot, value in frame.fills.items():
                if value is not None:
                    state_on.append(row + bits[slot])
        if filled:  # fills always land in the top frame
            bits = slot_bits[stack.top.domain, stack.top.topic]
            state_on.extend(row + bits[slot] + 1 for slot in filled)
        for act in turn.user_acts:  # every IntentKind is in every layout
            state_on.append(row + intent_bits[act.kind])
        if stack.depth > 1:
            state_on.append(row + management)
        if stack.frames:
            state_on.append(row + management + _PHASE_OFFSET[stack.top.phase])

        acts = []
        for aid in turn.system_acts:  # UNK sets no bit and changes no frame
            if aid == UNK_TOKEN:
                continue
            if aid not in actions:
                raise ValidationError(f"action {aid!r} is not in the catalog")
            bit, act = actions[aid]
            target_on.append(i * target_width + bit)
            acts.append(act)
        stack.apply_system_acts(acts, {a.kind for a in turn.user_acts})

    states = np.zeros((n, state_width), dtype=np.uint8)
    targets = np.zeros((n, target_width), dtype=np.uint8)
    states.reshape(-1)[state_on] = 1
    targets.reshape(-1)[target_on] = 1
    states[1:, layout.action_offset : management] = targets[:-1]
    return states, targets


def encode_dialogue(dialogue: Dialogue, ontology: Ontology) -> tuple[np.ndarray, np.ndarray]:
    """Per-turn (state, target) matrices for one dialogue.

    A turn's previous-action block is the previous turn's target row.
    """
    return _encode(dialogue, ontology, StateLayout.from_ontology(ontology))


@dataclass
class EncodedDataset:
    splits: dict[str, tuple[np.ndarray, np.ndarray]]
    layout: StateLayout

    @property
    def ontology_hash(self) -> str:
        return self.layout.ontology_hash

    def n_pairs(self, split: str) -> int:
        return self.splits[split][0].shape[0] if split in self.splits else 0


def encode_dataset(dataset: Dataset, ontology: Ontology) -> EncodedDataset:
    """Encode every turn of every split into (state, target) pairs."""
    layout = StateLayout.from_ontology(ontology)
    splits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for split in SPLIT_NAMES:
        dialogues = dataset.splits.get(split, [])
        state_rows, target_rows = [], []
        for dlg in dialogues:
            try:
                s, t = _encode(dlg, ontology, layout)
            except ValidationError as exc:
                raise ValidationError(f"{split}/{dlg.id}: {exc}") from None
            state_rows.append(s)
            target_rows.append(t)
        if state_rows:
            states = np.concatenate(state_rows, axis=0)
            targets = np.concatenate(target_rows, axis=0)
        else:
            states = np.zeros((0, layout.state_width), dtype=np.uint8)
            targets = np.zeros((0, layout.target_width), dtype=np.uint8)
        splits[split] = (states, targets)
    return EncodedDataset(splits=splits, layout=layout)


# ---------------------------------------------------------------------------
# Container format: text header + row-major packed bits


_MAGIC = "dialoforge-encoded 1"


def write_encoded(encoded: EncodedDataset, outdir, csv: bool = False) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "layout.json", encoded.layout.to_dict())
    for split, (states, targets) in encoded.splits.items():
        header = (
            f"{_MAGIC}\n"
            f"split {split}\n"
            f"rows {states.shape[0]}\n"
            f"state_width {encoded.layout.state_width}\n"
            f"target_width {encoded.layout.target_width}\n"
            f"ontology_hash {encoded.ontology_hash}\n"
            "---\n"
        )
        payload = (
            np.packbits(states, axis=1).tobytes()
            + np.packbits(targets, axis=1).tobytes()
        )
        with open(out / f"{split}.bin", "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(payload)
        if csv:
            _write_csv(out / f"{split}.csv", encoded.layout, states, targets)


def _write_csv(path, layout: StateLayout, states: np.ndarray, targets: np.ndarray) -> None:
    cols = [f"s{i}" for i in range(layout.state_width)] + [
        f"a{i}" for i in range(layout.target_width)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for srow, trow in zip(states, targets):
            fh.write(",".join(str(int(v)) for v in srow) + ",")
            fh.write(",".join(str(int(v)) for v in trow) + "\n")


_LAYOUT_KEYS = {
    **dict.fromkeys(("version", "state_width", "target_width"), "an int"),
    **dict.fromkeys(("slot_keys", "intents", "actions", "management"), "a list of strings"),
    "ontology_hash": "a string",
}


def _read_layout(path: Path) -> StateLayout:
    """layout.json, with its shape checked and every value it derives from the
    slot keys and actions (the intents, the management bits, the widths) equal
    to what they give; errors name the file and the key."""
    where = f"{path}: $"
    obj = check_object(read_json(path), where, _LAYOUT_KEYS)
    layout = StateLayout(
        slot_keys=tuple(obj["slot_keys"]),
        actions=tuple(obj["actions"]),
        ontology_hash=obj["ontology_hash"],
    )
    for key, value in layout.to_dict().items():
        if obj[key] != value:
            raise ValidationError(
                f"{where}.{key}: {obj[key]!r} differs from the expected {value!r}"
            )
    return layout


def read_encoded(indir) -> EncodedDataset:
    path = Path(indir)
    layout = _read_layout(path / "layout.json")
    splits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for split in SPLIT_NAMES:
        fp = path / f"{split}.bin"
        if not fp.exists():
            continue
        head, _, payload = fp.read_bytes().partition(b"---\n")
        try:  # a bad header: non-ASCII, empty, a line without a value, a missing field
            magic, *lines = head.decode("ascii").strip().splitlines()
            meta = dict(line.split(" ", 1) for line in lines)
            rows, sw, tw = (int(meta[key]) for key in ("rows", "state_width", "target_width"))
            ontology_hash = meta["ontology_hash"]
            header_split = meta["split"]
        except (ValueError, KeyError) as exc:
            raise ValidationError(f"{fp}: bad header: {exc}") from None
        if magic != _MAGIC:
            raise ValidationError(f"{fp}: first line is {magic!r}, expected {_MAGIC!r}")
        if header_split != split:
            raise ValidationError(f"{fp}: header names split {header_split!r}, expected {split!r}")
        if ontology_hash != layout.ontology_hash:
            raise ValidationError(
                f"{fp}: ontology_hash {ontology_hash} differs from "
                f"{path / 'layout.json'}'s {layout.ontology_hash}"
            )
        if (sw, tw) != (layout.state_width, layout.target_width):
            raise ValidationError(
                f"{fp}: widths {sw}/{tw} differ from layout.json's "
                f"{layout.state_width}/{layout.target_width}"
            )
        sbytes, tbytes = (sw + 7) // 8, (tw + 7) // 8
        if len(payload) != rows * (sbytes + tbytes):
            raise ValidationError(
                f"{fp}: payload is {len(payload)} bytes, {rows} rows need {rows * (sbytes + tbytes)}"
            )
        packed = np.frombuffer(payload, dtype=np.uint8)
        states = np.unpackbits(packed[: rows * sbytes].reshape(rows, sbytes), axis=1)[:, :sw]
        targets = np.unpackbits(packed[rows * sbytes :].reshape(rows, tbytes), axis=1)[:, :tw]
        splits[split] = (states.astype(np.uint8), targets.astype(np.uint8))
    return EncodedDataset(splits=splits, layout=layout)
