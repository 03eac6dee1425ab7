"""Dialogue generation: a scripted stochastic user against the rule policy.

The policy always addresses the frame at the top of the dialogue stack.  Per
user turn the rules apply in priority order:

1. chit-chat is answered with the single chit-chat action and nothing else;
2. every INFORM records its value in the top frame and is confirmed when the
   topic declares a CONFIRM action for that slot;
3. a user REQUEST for a slot with a declared INFORM action is answered;
4. while eliciting, the first empty requestable mandatory slot is requested,
   then each unfilled requestable desired slot once;
5. once every mandatory slot is filled the frame is notified (exactly once);
6. a notified frame is asked "anything else?" (REQ_MORE) and wraps up;
7. NEGATE/THANK/GOODBYE against a wrapped-up frame pops it, resuming the
   frame below if any.

The user side is goal-scripted, with three per-turn disturbance events drawn
in fixed order (chit-chat, mind-change, domain-change), each an independent
Bernoulli draw, evaluated only if the previous ones did not fire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Optional

from .errors import DialoforgeError, ValidationError
from .ontology import (
    GENERAL_CHIT_CHAT_ID,
    ActionKind,
    AtomicActionId,
    IntentKind,
    Ontology,
    SlotCategory,
    TopicSpec,
    check_setting,
)
from .rng import derive_seed

MAX_TURNS = 60

# Probability knobs of the goal script itself (not disturbance events).
P_SECOND_TOPIC = 0.25
P_USER_REQUEST = 0.15

_CLOSERS = {IntentKind.NEGATE, IntentKind.THANK, IntentKind.GOODBYE}


class Phase(Enum):
    ELICITING = "eliciting"
    NOTIFIED = "notified"
    WRAPUP = "wrapup"


class EventKind(Enum):
    CHIT_CHAT = "chit_chat"
    MIND_CHANGE = "mind_change"
    DOMAIN_CHANGE = "domain_change"


@dataclass
class UserAct:
    kind: IntentKind
    domain: Optional[str] = None
    topic: Optional[str] = None
    slot: Optional[str] = None
    value: Optional[str] = None

    def __post_init__(self):
        if self.kind is IntentKind.INFORM_INTENT:
            if self.domain is None or self.topic is None or self.slot is not None:
                raise ValueError("INFORM_INTENT carries (domain, topic) and no slot")
        elif self.kind is IntentKind.INFORM:
            if self.slot is None:
                raise ValueError("INFORM carries a slot (value may be empty)")
        elif self.kind is IntentKind.REQUEST:
            if self.slot is None or self.value is not None:
                raise ValueError("REQUEST carries a slot only")

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value}
        for key in ("domain", "topic", "slot", "value"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "UserAct":
        act = cls.__new__(cls)
        try:
            act.kind = IntentKind(obj["kind"])
        except ValueError:
            raise ValidationError(f"intent kind {obj['kind']!r} is not in the catalog") from None
        act.domain = obj.get("domain")
        act.topic = obj.get("topic")
        act.slot = obj.get("slot")
        act.value = obj.get("value")
        return act


@dataclass
class TopicFrame:
    """Mutable per-topic context; all information survives interruptions."""

    domain: str
    topic: str
    fills: dict[str, Optional[str]] = field(default_factory=dict)
    requested_desired: set[str] = field(default_factory=set)
    phase: Phase = Phase.ELICITING
    pending_request: Optional[str] = None

    def filled(self, slot: str) -> bool:
        return self.fills.get(slot) is not None


@dataclass
class DialogueStack:
    ontology: Ontology
    frames: list[TopicFrame] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def top(self) -> TopicFrame:
        return self.frames[-1]

    def push(self, frame: TopicFrame) -> None:
        self.frames.append(frame)

    def pop(self) -> TopicFrame:
        return self.frames.pop()

    def apply_user_acts(self, user_acts: list[UserAct]) -> list[str]:
        """Frame pushes, then fills of the top frame; returns the slots filled.

        A NEGATE ("no further preferences") marks an eliciting top's desired
        slots as offered.  Acts that make no sense against the stack (an
        unknown topic, a slot the top topic lacks, a fill with no frame) are
        ignored, so serialized dialogues with label noise replay without error.
        """
        ont = self.ontology
        for act in user_acts:
            if (
                act.kind is IntentKind.INFORM_INTENT
                and ont.topic(act.domain, act.topic) is not None
            ):
                # A wrapped-up frame is finished business: replace it instead of
                # nesting; frames still being elicited are preserved underneath.
                if self.frames and self.top.phase is Phase.WRAPUP:
                    self.pop()
                self.push(TopicFrame(domain=act.domain, topic=act.topic))
        filled = []
        for act in user_acts:
            if act.kind is IntentKind.INFORM and self.frames:
                top = self.top
                if act.slot in ont.topic(top.domain, top.topic).slot_names:
                    top.fills[act.slot] = act.value
                    filled.append(act.slot)
            elif act.kind is IntentKind.NEGATE and self.frames:
                top = self.top
                if top.phase is Phase.ELICITING:
                    top.requested_desired.update(ont.topic(top.domain, top.topic).desired_slots())
        return filled

    def apply_system_acts(self, acts: list[AtomicActionId], kinds: set[IntentKind]) -> None:
        """Rules 4-7: the frame changes and pops of one turn's system acts.

        Each act addresses the top frame of its domain: a REQUEST opens a
        request for its slot, and a desired slot it asks for counts as offered
        from then on; NOTIFY notifies the frame and REQ_MORE wraps it up.
        When the turn's user acts hold a closer (NEGATE/THANK/GOODBYE), a
        wrapped-up top pops as soon as it is wrapped up: before the first act
        if it already was, otherwise right after its REQ_MORE, so the acts
        that follow address the resumed frame.  Acts of another domain, or
        with no frame left, change nothing.
        """
        closing = not _CLOSERS.isdisjoint(kinds)
        if closing and self.frames and self.top.phase is Phase.WRAPUP:
            self.pop()
        for act in acts:
            top = self.top if self.frames else None
            if top is None or act.domain != top.domain:
                continue
            if act.kind is ActionKind.REQUEST:
                top.pending_request = act.slot
                if act.slot in self.ontology.topic(top.domain, top.topic).desired_slots():
                    top.requested_desired.add(act.slot)
            elif act.kind is ActionKind.NOTIFY:
                top.phase = Phase.NOTIFIED
            elif act.kind is ActionKind.REQ_MORE:
                top.phase = Phase.WRAPUP
                if closing:
                    self.pop()


@dataclass
class DialogueTurn:
    user_acts: list[UserAct]
    system_acts: list[str]
    event: Optional[EventKind] = None

    def to_dict(self) -> dict:
        out = {
            "user_acts": [a.to_dict() for a in self.user_acts],
            "system_acts": list(self.system_acts),
        }
        if self.event is not None:
            out["event"] = self.event.value
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "DialogueTurn":
        return cls(
            user_acts=[UserAct.from_dict(a) for a in obj["user_acts"]],
            system_acts=list(obj["system_acts"]),
            event=EventKind(obj["event"]) if obj.get("event") else None,
        )


@dataclass
class Dialogue:
    id: str
    seed: int
    turns: list[DialogueTurn]

    @property
    def events_log(self) -> list[tuple[int, EventKind]]:
        """(turn index, event) of every turn that carries an event."""
        return [(i, t.event) for i, t in enumerate(self.turns) if t.event is not None]

    def _events_dicts(self) -> list[list]:
        return [[i, e.value] for i, e in self.events_log]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "seed": self.seed,
            "turns": [t.to_dict() for t in self.turns],
            "events_log": self._events_dicts(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Dialogue":
        """The dialogue of a dict written by ``to_dict``; its ``events_log``
        copy must equal the one the turns' events give."""
        dialogue = cls(
            id=obj["id"],
            seed=obj["seed"],
            turns=[DialogueTurn.from_dict(t) for t in obj["turns"]],
        )
        derived = dialogue._events_dicts()
        if obj["events_log"] != derived:
            raise ValidationError(
                f"events_log {obj['events_log']!r} differs from the turns' events {derived!r}"
            )
        return dialogue


@dataclass(frozen=True)
class GeneratorConfig:
    n_dialogues: int = 2000
    p_chitchat: float = 0.2
    p_mind_change: float = 0.2
    p_domain_change: float = 0.2
    seed: int = 0
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    # The rule of each field (see ontology.check_setting), which a manifest's
    # config and the CLI's flags must meet too.
    RULES: ClassVar[dict[str, str]] = {
        "n_dialogues": "an int >= 1",
        **dict.fromkeys(("p_chitchat", "p_mind_change", "p_domain_change"), "a number in [0, 1]"),
        "seed": "an int",
        "split_fractions": "three finite numbers >= 0",
    }

    def __post_init__(self):
        for name, rule in self.RULES.items():
            check_setting(name, getattr(self, name), rule)
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValidationError("split_fractions must sum to 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "GeneratorConfig":
        obj = dict(obj)
        obj["split_fractions"] = tuple(obj["split_fractions"])
        return cls(**obj)


# ---------------------------------------------------------------------------
# Policy


def _advance_frame(frame: TopicFrame, topic: TopicSpec) -> list[AtomicActionId]:
    """Rules 4-6 for one frame: the acts its phase calls for."""
    out: list[AtomicActionId] = []
    if frame.phase is Phase.ELICITING:
        missing = [
            s.name
            for s in topic.slots
            if s.category is SlotCategory.MANDATORY and not frame.filled(s.name)
        ]
        askable = [s for s in missing if s in topic.request_slots]
        if askable:
            out.append(AtomicActionId(frame.domain, ActionKind.REQUEST, askable[0]))
        elif not missing:
            pending_desired = [
                s.name
                for s in topic.slots
                if s.category is SlotCategory.DESIRED
                and s.name in topic.request_slots
                and not frame.filled(s.name)
                and s.name not in frame.requested_desired
            ]
            if pending_desired:
                out.append(AtomicActionId(frame.domain, ActionKind.REQUEST, pending_desired[0]))
            else:
                out.append(AtomicActionId(frame.domain, ActionKind.NOTIFY))
        # else: an unrequestable mandatory slot is still empty; the policy
        # cannot ask for it and waits for the user to volunteer it.
    elif frame.phase is Phase.NOTIFIED:
        out.append(AtomicActionId(frame.domain, ActionKind.REQ_MORE))
    return out


def step_policy(stack: DialogueStack, user_acts: list[UserAct]) -> list[str]:
    """Apply the system rules to one user turn, mutating the stack."""
    ont = stack.ontology
    kinds = {a.kind for a in user_acts}
    if IntentKind.CHIT_CHAT in kinds:
        return [GENERAL_CHIT_CHAT_ID]

    for act in user_acts:
        if act.kind is IntentKind.INFORM_INTENT and ont.topic(act.domain, act.topic) is None:
            raise ValidationError(f"unknown topic {act.domain}/{act.topic}")
    stack.apply_user_acts(user_acts)

    if not stack.frames:
        if any(a.slot is not None for a in user_acts):
            raise DialoforgeError("slot-bearing act with no frame and no INFORM_INTENT")
        return []

    top = stack.top
    topic = ont.topic(top.domain, top.topic)
    acts: list[AtomicActionId] = []

    # Emission follows user-act order, which the serialized system acts keep.
    for act in user_acts:
        if act.kind is IntentKind.INFORM and act.slot in topic.confirm_slots:
            acts.append(AtomicActionId(top.domain, ActionKind.CONFIRM, act.slot))
        elif act.kind is IntentKind.REQUEST and act.slot in topic.inform_slots:
            acts.append(AtomicActionId(top.domain, ActionKind.INFORM, act.slot))

    acts.extend(_advance_frame(top, topic))
    depth = stack.depth
    stack.apply_system_acts(acts, kinds)
    if stack.depth < depth and stack.frames:
        resumed = stack.top
        resumed_acts = _advance_frame(resumed, ont.topic(resumed.domain, resumed.topic))
        stack.apply_system_acts(resumed_acts, kinds)
        acts.extend(resumed_acts)

    return [a.id for a in acts]


# ---------------------------------------------------------------------------
# User simulation


@dataclass
class TopicGoal:
    domain: str
    topic: str
    values: dict[str, str]
    user_requested: bool = False


@dataclass
class GoalScript:
    """What the simulated user wants and how far the script has advanced.

    The goal being pursued follows the dialogue stack: the domain-change goal
    while the stack holds its two frames, the scripted topic otherwise.
    """

    topics: list[TopicGoal]
    topic_index: int = 0
    domain_change: Optional[TopicGoal] = None  # set once, when the push happens
    finished: bool = False

    def current(self, stack: DialogueStack) -> TopicGoal:
        if stack.depth > 1:
            return self.domain_change
        return self.topics[self.topic_index]

    @classmethod
    def sample(cls, ontology: Ontology, rng: random.Random) -> "GoalScript":
        pairs = ontology.topic_pairs()
        domain, topic = rng.choice(pairs)
        topics = [sample_topic_goal(ontology, domain, topic, rng)]
        dom = ontology.domain(domain)
        if len(dom.topics) >= 2 and rng.random() < P_SECOND_TOPIC:
            other = rng.choice([t.name for t in dom.topics if t.name != topic])
            topics.append(sample_topic_goal(ontology, domain, other, rng))
        return cls(topics=topics)


def sample_topic_goal(
    ontology: Ontology, domain: str, topic: str, rng: random.Random
) -> TopicGoal:
    spec = ontology.topic(domain, topic)
    values: dict[str, str] = {}
    for slot in spec.slots:
        if slot.category is not SlotCategory.DESIRED or rng.random() < 0.5:
            values[slot.name] = rng.choice(slot.values)
    return TopicGoal(domain=domain, topic=topic, values=values)


def _intent_turn_acts(
    goal: TopicGoal, ontology: Ontology, rng: random.Random, opening: bool = True
) -> list[UserAct]:
    """Open a topic: state the intent plus the volunteered constraints.

    Slots the policy cannot request ride along here out of necessity; when
    the ontology offers more than one task, at least one INFORM is always
    volunteered so the opening turn is unambiguous about the topic.  Mid-
    dialogue openings (interruptions, follow-up tasks) volunteer a mandatory
    slot; only the very first turn may lead with a side preference.
    """
    spec = ontology.topic(goal.domain, goal.topic)
    acts = [UserAct(IntentKind.INFORM_INTENT, domain=goal.domain, topic=goal.topic)]
    informs = list(spec.unrequestable_mandatory())
    multi_pair = len(ontology.topic_pairs()) >= 2
    if multi_pair and not informs:
        pool = [
            s.name
            for s in spec.slots
            if s.name in goal.values
            and (opening or s.category is SlotCategory.MANDATORY)
        ]
        informs.append(rng.choice(pool))
    for slot in informs[:2]:
        acts.append(UserAct(IntentKind.INFORM, slot=slot, value=goal.values[slot]))
    return acts


def sample_user_turn(
    stack: DialogueStack,
    goal: GoalScript,
    rng: random.Random,
    cfg: GeneratorConfig,
) -> tuple[list[UserAct], Optional[EventKind]]:
    """Draw the next user turn: disturbance events first, then the script."""
    ont = stack.ontology

    if cfg.p_chitchat > 0 and rng.random() < cfg.p_chitchat:
        return [UserAct(IntentKind.CHIT_CHAT)], EventKind.CHIT_CHAT

    top = stack.top if stack.frames else None
    topic = ont.topic(top.domain, top.topic) if top else None

    # Mind-changing stops once the frame starts offering desired slots: the
    # one-offer-per-slot bookkeeping is not observable in the binary state,
    # so reopening elicitation after it would make states ambiguous.
    mind_eligible = (
        top is not None
        and top.phase is Phase.ELICITING
        and not top.requested_desired
    )
    if mind_eligible and cfg.p_mind_change > 0:
        n_filled = sum(1 for s in topic.slots if top.filled(s.name))
        change_pool = [
            s.name
            for s in topic.slots
            if top.filled(s.name) and len(s.values) >= 2
        ]
        # Clearing is restricted to slots the policy can ask for again, and
        # must leave at least one fill so an interrupted frame stays
        # identifiable when the dialogue later resumes it.
        clear_pool = [
            s.name
            for s in topic.slots
            if top.filled(s.name)
            and s.category is SlotCategory.MANDATORY
            and s.name in topic.request_slots
        ] if n_filled >= 2 else []
        if (change_pool or clear_pool) and rng.random() < cfg.p_mind_change:
            clear = rng.random() < 0.5
            if clear and not clear_pool:
                clear = False
            elif not clear and not change_pool:
                clear = True
            if clear:
                slot = rng.choice(clear_pool)
                act = UserAct(IntentKind.INFORM, slot=slot, value=None)
            else:
                slot = rng.choice(change_pool)
                current = top.fills[slot]
                options = [v for v in topic.slot(slot).values if v != current]
                act = UserAct(IntentKind.INFORM, slot=slot, value=rng.choice(options))
            return [act], EventKind.MIND_CHANGE

    # Once per dialogue, onto a one-frame stack: the state does not say which
    # frame resumes, so a third frame would make clean states collide.
    if (
        top is not None
        and top.phase is Phase.ELICITING
        and cfg.p_domain_change > 0
        and stack.depth == 1
        and goal.domain_change is None
    ):
        pairs = [p for p in ont.topic_pairs() if p != (top.domain, top.topic)]
        if pairs and rng.random() < cfg.p_domain_change:
            domain, topic_name = rng.choice(pairs)
            goal.domain_change = sample_topic_goal(ont, domain, topic_name, rng)
            acts = _intent_turn_acts(goal.domain_change, ont, rng, opening=False)
            return acts, EventKind.DOMAIN_CHANGE

    return _scripted_turn(stack, goal, rng), None


def _scripted_turn(
    stack: DialogueStack, goal: GoalScript, rng: random.Random
) -> list[UserAct]:
    ont = stack.ontology
    current = goal.current(stack)

    if not stack.frames:
        return _intent_turn_acts(current, ont, rng)

    top = stack.top
    topic = ont.topic(top.domain, top.topic)

    if top.phase is Phase.ELICITING:
        if not current.user_requested:
            askable = [
                s.name
                for s in topic.slots
                if top.filled(s.name) and s.name in topic.inform_slots
            ]
            if askable and rng.random() < P_USER_REQUEST:
                current.user_requested = True
                return [UserAct(IntentKind.REQUEST, slot=rng.choice(askable))]
        # An eliciting frame always holds an open request: the stack opens one
        # for each REQUEST the policy emits after the turn's fills, and the
        # opening turn volunteers every slot the policy cannot request.
        pending = top.pending_request
        if pending in current.values:
            return [UserAct(IntentKind.INFORM, slot=pending, value=current.values[pending])]
        return [UserAct(IntentKind.NEGATE)]

    if top.phase is Phase.NOTIFIED and stack.depth > 1:
        return [UserAct(IntentKind.NEGATE)]
    if goal.topic_index + 1 < len(goal.topics):
        if top.phase is Phase.NOTIFIED:
            return [UserAct(IntentKind.AFFIRM)]
        # WRAPUP after an AFFIRM: open the next scripted topic (replaces the frame).
        goal.topic_index += 1
        return _intent_turn_acts(goal.topics[goal.topic_index], ont, rng, opening=False)
    # No scripted topic is left, whether the frame is notified or wrapped up.
    goal.finished = True
    return [
        UserAct(IntentKind.NEGATE),
        UserAct(IntentKind.THANK),
        UserAct(IntentKind.GOODBYE),
    ]


# ---------------------------------------------------------------------------
# Whole dialogues


def generate_dialogue(
    ontology: Ontology,
    cfg: GeneratorConfig,
    dialogue_seed: int,
    dialogue_id: Optional[str] = None,
) -> Dialogue:
    """Simulate one complete dialogue from its private seed."""
    rng = random.Random(dialogue_seed)
    goal = GoalScript.sample(ontology, rng)
    stack = DialogueStack(ontology)
    turns: list[DialogueTurn] = []

    for index in range(MAX_TURNS):
        user_acts, event = sample_user_turn(stack, goal, rng, cfg)
        system_acts = step_policy(stack, user_acts)
        if not system_acts:
            raise DialoforgeError(f"engine produced an empty system response at turn {index}")
        turns.append(DialogueTurn(user_acts=user_acts, system_acts=system_acts, event=event))
        if goal.finished and not stack.frames:
            break
    else:
        raise DialoforgeError(
            f"dialogue exceeded {MAX_TURNS} turns; check event probabilities"
        )

    return Dialogue(
        id=dialogue_id or f"dlg{dialogue_seed:016x}",
        seed=dialogue_seed,
        turns=turns,
    )


def dialogue_seeds(cfg: GeneratorConfig) -> list[int]:
    return [derive_seed(cfg.seed, i) for i in range(cfg.n_dialogues)]


def split_counts(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Floor-based split sizes with the remainder going to train."""
    n_val = int(n * fractions[1] + 1e-6)
    n_test = int(n * fractions[2] + 1e-6)
    return n - n_val - n_test, n_val, n_test
