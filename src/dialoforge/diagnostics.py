"""Trace-level invariant checks for generated dialogues.

These checks replay serialized acts against the ontology without touching the
generator, so they catch engine regressions rather than mirroring them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import Dialogue, IntentKind
from .ontology import (
    GENERAL_CHIT_CHAT_ID,
    ActionKind,
    Ontology,
    SlotCategory,
    parse_action_id,
)

_CLOSERS = {IntentKind.NEGATE, IntentKind.THANK, IntentKind.GOODBYE}


@dataclass
class _Frame:
    domain: str
    topic: str
    fills: dict[str, Optional[str]] = field(default_factory=dict)
    notified: bool = False
    wrapup: bool = False
    desired_requests: dict[str, int] = field(default_factory=dict)


def check_dialogue_invariants(dialogue: Dialogue, ontology: Ontology) -> list[str]:
    """Return a list of violation descriptions (empty when the trace is clean)."""
    bad: list[str] = []
    catalog = set(ontology.action_catalog)
    frames: list[_Frame] = []

    def sig(turn_index: int, msg: str) -> None:
        bad.append(f"{dialogue.id} turn {turn_index}: {msg}")

    for ti, turn in enumerate(dialogue.turns):
        if not turn.user_acts:
            sig(ti, "empty user act list")
            continue
        if not turn.system_acts:
            sig(ti, "empty system act list")
        kinds = {a.kind for a in turn.user_acts}

        for aid in turn.system_acts:
            if aid not in catalog:
                sig(ti, f"system act {aid!r} not in catalog")

        if IntentKind.CHIT_CHAT in kinds:
            if turn.system_acts != [GENERAL_CHIT_CHAT_ID]:
                sig(ti, f"chit-chat answered with {turn.system_acts}")
            continue

        closers = bool(kinds & _CLOSERS)

        def maybe_pop() -> None:
            if frames and frames[-1].wrapup and closers:
                frames.pop()

        for act in turn.user_acts:
            if act.kind is IntentKind.INFORM_INTENT:
                if ontology.topic(act.domain, act.topic) is None:
                    sig(ti, f"intent for unknown topic {act.domain}/{act.topic}")
                    continue
                if frames and frames[-1].wrapup:
                    frames.pop()
                frames.append(_Frame(domain=act.domain, topic=act.topic))
                if len(frames) > 2:  # one domain change, onto a one-frame stack
                    sig(ti, f"stack depth {len(frames)} exceeds 2")

        for act in turn.user_acts:
            if act.kind is IntentKind.INFORM and act.slot is not None and frames:
                top = frames[-1]
                spec = ontology.topic(top.domain, top.topic)
                if spec and act.slot in spec.slot_names:
                    top.fills[act.slot] = act.value
                    if act.slot in spec.confirm_slots:
                        confirm = f"{top.domain}-{ActionKind.CONFIRM.value}-{act.slot}"
                        if confirm not in turn.system_acts:
                            sig(ti, f"INFORM({act.slot}) not confirmed")

        maybe_pop()
        for aid in turn.system_acts:
            if aid not in catalog:
                continue
            parsed = parse_action_id(aid)
            top = frames[-1] if frames else None
            if parsed.kind is ActionKind.REQUEST:
                dom = ontology.domain(parsed.domain)
                cats = {
                    s.category
                    for t in (dom.topics if dom else ())
                    for s in t.slots
                    if s.name == parsed.slot
                }
                if cats and cats <= {SlotCategory.OPTIONAL}:
                    sig(ti, f"REQUEST for optional slot {parsed.slot!r}")
                if top and top.domain == parsed.domain:
                    spec = ontology.topic(top.domain, top.topic)
                    if spec and parsed.slot in spec.desired_slots:
                        n = top.desired_requests.get(parsed.slot, 0) + 1
                        top.desired_requests[parsed.slot] = n
                        if n > 1:
                            sig(ti, f"desired slot {parsed.slot!r} requested {n} times")
            elif parsed.kind is ActionKind.NOTIFY and top and top.domain == parsed.domain:
                spec = ontology.topic(top.domain, top.topic)
                missing = [
                    s for s in spec.mandatory_slots if top.fills.get(s) is None
                ]
                if missing:
                    sig(ti, f"NOTIFY with unfilled mandatory slots {missing}")
                if top.notified:
                    sig(ti, "frame notified twice")
                top.notified = True
            elif parsed.kind is ActionKind.REQ_MORE and top and top.domain == parsed.domain:
                top.wrapup = True
                maybe_pop()

    if frames:
        bad.append(f"{dialogue.id}: dialogue ended with {len(frames)} frame(s) on the stack")
    if dialogue.turns:
        final_kinds = {a.kind for a in dialogue.turns[-1].user_acts}
        if not final_kinds & {IntentKind.THANK, IntentKind.GOODBYE}:
            bad.append(f"{dialogue.id}: final turn lacks THANK/GOODBYE")
    return bad


def find_state_collisions(
    states: np.ndarray, targets: np.ndarray
) -> list[tuple[bytes, list[bytes]]]:
    """Distinct states mapped to more than one distinct target set."""
    seen: dict[bytes, set[bytes]] = {}
    packed = np.packbits(states.astype(np.uint8), axis=1)
    for srow, trow in zip(packed, targets.astype(np.uint8)):
        seen.setdefault(srow.tobytes(), set()).add(trow.tobytes())
    return [(k, sorted(v)) for k, v in seen.items() if len(v) > 1]
