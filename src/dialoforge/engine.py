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


_ACT_LABELS = ("domain", "topic", "slot", "value")  # an act's optional string fields
_TYPE_NAMES = {str: "a string", int: "an int", list: "a list"}
_EVENT_VALUES = frozenset(e.value for e in EventKind)
_NO_EVENT = object()  # a turn record's event key when it has none


def _typed(record: str, obj: dict, key: str, kind: type):
    """``obj[key]``, the value of a read record's key, which must be of
    ``kind`` (a bool is no int); an error names the record and the key."""
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{record} key {key!r}: {value!r} is not {_TYPE_NAMES[kind]}")
    return value


@dataclass(slots=True)
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
        for key in _ACT_LABELS:
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        return out

    @classmethod
    def unchecked(cls, kind, domain, topic, slot, value) -> "UserAct":
        """The act of these fields without ``__post_init__``'s checks: a
        read or noisy label need not fit its slot and value."""
        act = cls.__new__(cls)
        act.kind, act.domain, act.topic, act.slot, act.value = kind, domain, topic, slot, value
        return act

    @classmethod
    def from_dict(cls, obj: dict, memo: Optional[dict] = None) -> "UserAct":
        """The act of a dict written by ``to_dict``.  ``memo`` is shared by
        the records of one read (see ``Dialogue.from_dict``): an act equal to
        one read before is that act, and only a new one is checked and built."""
        try:
            get = obj.get
        except AttributeError:  # of the JSON values, only an object has one
            raise ValidationError(f"user act {obj!r} is not an object") from None
        key = (obj["kind"], get("domain"), get("topic"), get("slot"), get("value"))
        memo = {} if memo is None else memo
        try:
            act = memo.get(key)
        except TypeError:  # an unhashable field, which the checks below reject
            act = None
        if act is None:
            try:
                kind = IntentKind(key[0])
            except ValueError:
                raise ValidationError(f"intent kind {key[0]!r} is not in the catalog") from None
            for name, value in zip(_ACT_LABELS, key[1:]):
                if value is not None and not isinstance(value, str):
                    raise ValidationError(f"act key {name!r}: {value!r} is not a string or null")
            act = memo[key] = cls.unchecked(kind, *key[1:])
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
                    top.requested_desired.update(ont.topic(top.domain, top.topic).desired_slots)
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
                if act.slot in self.ontology.topic(top.domain, top.topic).desired_slots:
                    top.requested_desired.add(act.slot)
            elif act.kind is ActionKind.NOTIFY:
                top.phase = Phase.NOTIFIED
            elif act.kind is ActionKind.REQ_MORE:
                top.phase = Phase.WRAPUP
                if closing:
                    self.pop()


@dataclass(slots=True)
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
    def from_dict(cls, obj: dict, memo: Optional[dict] = None) -> "DialogueTurn":
        """The turn of a dict written by ``to_dict``; ``memo`` as in
        ``Dialogue.from_dict``."""
        memo = {} if memo is None else memo
        acts, labels = obj["user_acts"], obj["system_acts"]
        if not isinstance(acts, list) or not isinstance(labels, list):
            for name in ("user_acts", "system_acts"):  # raises for the first that is not
                _typed("turn", obj, name, list)
        user_acts = [UserAct.from_dict(a, memo) for a in acts]
        # An absent event is _NO_EVENT, so that a present null misses the memo.
        event = obj.get("event", _NO_EVENT)
        # The memo holds every act it built, so an act's id names its content.
        # A string's tuple equals a list's, so the labels' type is checked first.
        key = (tuple(map(id, user_acts)), tuple(labels), event)
        try:
            turn = memo.get(key)
        except TypeError:  # an unhashable system act or event, which the checks below reject
            turn = None
        if turn is None:
            for label in key[1]:
                if not isinstance(label, str):
                    raise ValidationError(f"system act {label!r} is not a string")
            system_acts = [memo.setdefault(label, label) for label in key[1]]
            if event is _NO_EVENT:
                event = None
            elif isinstance(event, str) and event in _EVENT_VALUES:
                event = EventKind(event)
            else:
                raise ValidationError(f"turn key 'event': {event!r} is not an event kind")
            turn = memo[key] = cls(user_acts, system_acts, event)
        return turn


@dataclass(slots=True)
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
    def from_dict(cls, obj: dict, memo: Optional[dict] = None) -> "Dialogue":
        """The dialogue of a dict written by ``to_dict``; its ``events_log``
        copy must equal the one the turns' events give.

        The dialogues of one read share ``memo`` (a fresh one by default), in
        which each distinct act, system act and turn is built once, keyed on
        its raw fields, and then reused: a read dataset holds one object per
        distinct record, which is safe because no code mutates a built one."""
        memo = {} if memo is None else memo
        dialogue = cls(
            id=_typed("dialogue", obj, "id", str),
            seed=_typed("dialogue", obj, "seed", int),
            turns=[DialogueTurn.from_dict(t, memo) for t in _typed("dialogue", obj, "turns", list)],
        )
        log, derived = obj["events_log"], dialogue._events_dicts()
        # An equal log holds [turn index, event] pairs, but True and 1.0 equal 1.
        if log != derived or any(type(entry[0]) is not int for entry in log):
            raise ValidationError(f"events_log {log!r} differs from the turns' events {derived!r}")
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
        # Stored as a tuple, so a config given a list equals and hashes like its twin.
        object.__setattr__(self, "split_fractions", tuple(self.split_fractions))
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValidationError("split_fractions must sum to 1")

    @classmethod
    def for_ontology(cls, ontology: Ontology, **fields) -> "GeneratorConfig":
        """The config of ``fields``; a field not given comes from the
        ontology's ``generation`` block (whose ``split`` counts give
        ``split_fractions``), else from the class's own default."""
        defaults = dict(ontology.generation_defaults)
        counts = defaults.pop("split", None)
        if counts is not None and "split_fractions" not in fields:
            defaults["split_fractions"] = [c / sum(counts) for c in counts]
        return cls(**{**defaults, **fields})


# ---------------------------------------------------------------------------
# Policy


def _advance_frame(frame: TopicFrame, ont: Ontology) -> list[AtomicActionId]:
    """Rules 4-6 for one frame: the acts its phase calls for."""
    out: list[AtomicActionId] = []
    if frame.phase is Phase.ELICITING:
        topic = ont.topic(frame.domain, frame.topic)
        missing = [s for s in topic.mandatory_slots if not frame.filled(s)]
        askable = [s for s in missing if s in topic.request_slots]
        if askable:
            out.append(ont.action(frame.domain, ActionKind.REQUEST, askable[0]))
        elif not missing:
            pending_desired = [
                s
                for s in topic.desired_slots
                if s in topic.request_slots
                and not frame.filled(s)
                and s not in frame.requested_desired
            ]
            if pending_desired:
                out.append(ont.action(frame.domain, ActionKind.REQUEST, pending_desired[0]))
            else:
                out.append(ont.action(frame.domain, ActionKind.NOTIFY))
        # else: an unrequestable mandatory slot is still empty; the policy
        # cannot ask for it and waits for the user to volunteer it.
    elif frame.phase is Phase.NOTIFIED:
        out.append(ont.action(frame.domain, ActionKind.REQ_MORE))
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
            acts.append(ont.action(top.domain, ActionKind.CONFIRM, act.slot))
        elif act.kind is IntentKind.REQUEST and act.slot in topic.inform_slots:
            acts.append(ont.action(top.domain, ActionKind.INFORM, act.slot))

    acts.extend(_advance_frame(top, ont))
    depth = stack.depth
    stack.apply_system_acts(acts, kinds)
    if stack.depth < depth and stack.frames:
        resumed = stack.top
        resumed_acts = _advance_frame(resumed, ont)
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
        domain, topic = rng.choice(ontology.topic_pairs)
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
    informs = list(spec.unrequestable_mandatory)
    multi_pair = len(ontology.topic_pairs) >= 2
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
        pairs = [p for p in ont.topic_pairs if p != (top.domain, top.topic)]
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
