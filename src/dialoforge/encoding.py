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

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from typing import ClassVar, Optional

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
    dialogue: Dialogue, ontology: Ontology, layout: StateLayout,
    state_on: array, target_on: array, first_row: int,
) -> None:
    """Append the flat position of each bit the stack replay sets in one
    dialogue's rows, from ``first_row`` on; the previous actions are left out."""
    state_width, target_width = layout.state_width, layout.target_width
    slot_bits, intent_bits, actions = layout.slot_bits, layout.intent_bits, layout.action_bits
    management = layout.management_offset
    stack = DialogueStack(ontology)
    for i, turn in enumerate(dialogue.turns, first_row):
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


def _fill(
    dialogues: list[Dialogue], ontology: Ontology, layout: StateLayout, where: str
) -> tuple[np.ndarray, np.ndarray]:
    """The (state, target) matrices of a run of dialogues, one row per turn,
    each allocated once; an error names ``where`` and the dialogue."""
    state_on, target_on = array("q"), array("q")
    starts, rows = [], 0  # the first row of each dialogue that has one; the row count
    for dlg in dialogues:
        try:
            _encode(dlg, ontology, layout, state_on, target_on, rows)
        except ValidationError as exc:
            raise ValidationError(f"{where}{dlg.id}: {exc}") from None
        if dlg.turns:
            starts.append(rows)
            rows += len(dlg.turns)
    states = np.zeros((rows, layout.state_width), dtype=np.uint8)
    targets = np.zeros((rows, layout.target_width), dtype=np.uint8)
    states.reshape(-1)[np.frombuffer(state_on, dtype=np.int64)] = 1
    targets.reshape(-1)[np.frombuffer(target_on, dtype=np.int64)] = 1
    previous = states[:, layout.action_offset : layout.management_offset]
    previous[1:] = targets[:-1]  # the previous target row, then none at a first turn
    previous[starts] = 0
    return states, targets


def encode_dialogue(dialogue: Dialogue, ontology: Ontology) -> tuple[np.ndarray, np.ndarray]:
    """Per-turn (state, target) matrices for one dialogue; a turn's
    previous-action block is the previous turn's target row."""
    return _fill([dialogue], ontology, StateLayout.from_ontology(ontology), "")


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
    splits = {split: _fill(dataset.splits.get(split, []), ontology, layout, f"{split}/")
              for split in SPLIT_NAMES}
    return EncodedDataset(splits=splits, layout=layout)


# ---------------------------------------------------------------------------
# Container format: text header + row-major packed bits


def _bin_header(split: str, rows: int, layout: StateLayout) -> bytes:
    """The text header of a split file, the one definition of the format:
    ``write_encoded`` writes it and ``read_encoded`` compares each file to it."""
    return (
        "dialoforge-encoded 1\n"
        f"split {split}\n"
        f"rows {rows}\n"
        f"state_width {layout.state_width}\n"
        f"target_width {layout.target_width}\n"
        f"ontology_hash {layout.ontology_hash}\n"
        "---\n"
    ).encode()


def write_encoded(encoded: EncodedDataset, outdir, csv: bool = False) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    layout = encoded.layout
    write_json(out / "layout.json", layout.to_dict())
    for split, (states, targets) in encoded.splits.items():
        with open(out / f"{split}.bin", "wb") as fh:
            fh.write(_bin_header(split, states.shape[0], layout))
            fh.write(np.packbits(states, axis=1).tobytes())
            fh.write(np.packbits(targets, axis=1).tobytes())
        if csv:  # a line of column names, then a line of 0s and 1s per row
            columns = [f"s{i}" for i in range(layout.state_width)]
            columns += [f"a{i}" for i in range(layout.target_width)]
            np.savetxt(out / f"{split}.csv", np.hstack([states, targets]), fmt="%d",
                       delimiter=",", header=",".join(columns), comments="")


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


def _shown_line(line: Optional[bytes]) -> str:
    """A header line as an error quotes it: its first 80 bytes as text."""
    return "nothing" if line is None else repr(line[:80].decode(errors="replace"))


def read_encoded(indir) -> EncodedDataset:
    """The splits under ``indir``; each ``.bin`` must start with exactly the
    header that ``layout.json``, its split name and its row count give."""
    path = Path(indir)
    layout_path = path / "layout.json"
    layout = _read_layout(layout_path)
    sw, tw = layout.state_width, layout.target_width
    sbytes, tbytes = (sw + 7) // 8, (tw + 7) // 8
    splits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for split in SPLIT_NAMES:
        fp = path / f"{split}.bin"
        if not fp.exists():
            continue
        head, sep, payload = fp.read_bytes().partition(b"---\n")
        rows, rest = divmod(len(payload), sbytes + tbytes)
        if rest:
            raise ValidationError(
                f"{fp}: the {len(payload)} bytes after its header are no whole number "
                f"of {layout_path}'s {sbytes + tbytes}-byte rows"
            )
        found, want = (head + sep).split(b"\n"), _bin_header(split, rows, layout).split(b"\n")
        for n, (line, expected) in enumerate(zip_longest(found, want), 1):
            if line != expected:
                raise ValidationError(
                    f"{fp}: header line {n} is {_shown_line(line)}, but {layout_path}, "
                    f"the split and the {rows} rows give {_shown_line(expected)}"
                )
        packed = np.frombuffer(payload, dtype=np.uint8)
        states = np.unpackbits(packed[: rows * sbytes].reshape(rows, sbytes), axis=1, count=sw)
        targets = np.unpackbits(packed[rows * sbytes :].reshape(rows, tbytes), axis=1, count=tw)
        splits[split] = (states, targets)
    return EncodedDataset(splits=splits, layout=layout)
