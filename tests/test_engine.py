from __future__ import annotations

import copy
import json
import math
import random
import re
from collections import Counter

import pytest

from dialoforge import engine
from dialoforge.dataset import dumps_dialogue
from dialoforge.engine import (
    DialogueStack,
    EventKind,
    GeneratorConfig,
    GoalScript,
    Phase,
    TopicFrame,
    TopicGoal,
    UserAct,
    generate_dialogue,
    sample_user_turn,
    step_policy,
)
from dialoforge.errors import DialoforgeError, ValidationError
from dialoforge.ontology import IntentKind, load_ontology

from .conftest import MINI_DOC, events_off


def _stack_with_frame(ontology, fills=None, phase=Phase.ELICITING, domain="restaurant", topic="book"):
    stack = DialogueStack(ontology)
    stack.push(TopicFrame(domain=domain, topic=topic, fills=dict(fills or {}), phase=phase))
    return stack


# -- step_policy rules -------------------------------------------------------


def test_inform_is_confirmed_then_missing_mandatory_requested(mini_ontology):
    stack = _stack_with_frame(mini_ontology)
    acts = step_policy(stack, [UserAct(IntentKind.INFORM, slot="people", value="four")])
    assert acts == ["restaurant-CONFIRM-people", "restaurant-REQUEST-food"]
    assert stack.top.fills == {"people": "four"}


def test_last_mandatory_fill_triggers_notify(mini_ontology):
    stack = _stack_with_frame(mini_ontology, fills={"food": "thai"})
    acts = step_policy(stack, [UserAct(IntentKind.INFORM, slot="people", value="two")])
    assert acts == ["restaurant-CONFIRM-people", "restaurant-NOTIFY"]
    assert stack.top.phase is Phase.NOTIFIED


def test_chit_chat_answered_and_frame_unchanged(mini_ontology):
    stack = _stack_with_frame(mini_ontology, fills={"food": "thai"})
    before = dict(stack.top.fills)
    acts = step_policy(stack, [UserAct(IntentKind.CHIT_CHAT)])
    assert acts == ["GENERAL-ANSWER_CHIT_CHAT"]
    assert stack.top.fills == before and stack.top.phase is Phase.ELICITING


def test_negate_pops_wrapup_and_resumes_frame_below(two_domain_ontology):
    stack = DialogueStack(two_domain_ontology)
    stack.push(TopicFrame(domain="restaurant", topic="book", fills={"food": "thai"}))
    stack.push(
        TopicFrame(
            domain="taxi",
            topic="order",
            fills={"destination": "airport", "pickup": "noon"},
            phase=Phase.WRAPUP,
        )
    )
    acts = step_policy(stack, [UserAct(IntentKind.NEGATE)])
    assert acts == ["restaurant-REQUEST-people"]
    assert stack.depth == 1 and stack.top.domain == "restaurant"
    assert stack.top.fills == {"food": "thai"}


def test_negate_while_eliciting_ends_the_desired_offers():
    """A NEGATE against an eliciting frame ("no further preferences") marks
    every desired slot offered, so the frame is notified next."""
    doc = copy.deepcopy(MINI_DOC)
    topic = doc["domains"][0]["topics"][0]
    topic["slots"] += [
        {"name": "area", "category": "desired", "values": ["north", "south"]},
        {"name": "price", "category": "desired", "values": ["cheap", "dear"]},
    ]
    topic["emit"]["request"] += ["area", "price"]
    stack = _stack_with_frame(load_ontology(json.dumps(doc)), fills={"food": "thai"})
    acts = step_policy(stack, [UserAct(IntentKind.INFORM, slot="people", value="two")])
    assert acts == ["restaurant-CONFIRM-people", "restaurant-REQUEST-area"]
    assert step_policy(stack, [UserAct(IntentKind.NEGATE)]) == ["restaurant-NOTIFY"]
    assert stack.top.requested_desired == {"area", "price"}


def test_user_request_answered_with_inform(two_domain_ontology):
    stack = _stack_with_frame(two_domain_ontology, fills={"food": "thai"})
    acts = step_policy(stack, [UserAct(IntentKind.REQUEST, slot="food")])
    assert acts == ["restaurant-INFORM-food", "restaurant-REQUEST-people"]


def test_req_more_follows_notified_phase(mini_ontology):
    stack = _stack_with_frame(
        mini_ontology, fills={"food": "thai", "people": "two"}, phase=Phase.NOTIFIED
    )
    acts = step_policy(stack, [UserAct(IntentKind.AFFIRM)])
    assert acts == ["restaurant-REQ_MORE"]
    assert stack.top.phase is Phase.WRAPUP


def test_close_pops_root_in_req_more_turn(mini_ontology):
    stack = _stack_with_frame(
        mini_ontology, fills={"food": "thai", "people": "two"}, phase=Phase.NOTIFIED
    )
    acts = step_policy(
        stack,
        [UserAct(IntentKind.NEGATE), UserAct(IntentKind.THANK), UserAct(IntentKind.GOODBYE)],
    )
    assert acts == ["restaurant-REQ_MORE"]
    assert stack.depth == 0


def test_slot_bearing_act_without_frame_raises(mini_ontology):
    stack = DialogueStack(mini_ontology)
    with pytest.raises(DialoforgeError, match="slot-bearing act with no frame") as err:
        step_policy(stack, [UserAct(IntentKind.INFORM, slot="food", value="thai")])
    assert type(err.value) is DialoforgeError


def test_inform_intent_creates_frame_in_same_turn(mini_ontology):
    stack = DialogueStack(mini_ontology)
    acts = step_policy(
        stack,
        [
            UserAct(IntentKind.INFORM_INTENT, domain="restaurant", topic="book"),
            UserAct(IntentKind.INFORM, slot="food", value="thai"),
        ],
    )
    assert acts == ["restaurant-CONFIRM-food", "restaurant-REQUEST-people"]


# -- user act invariants -----------------------------------------------------


def test_user_act_field_invariants():
    with pytest.raises(ValueError):
        UserAct(IntentKind.INFORM_INTENT, domain="restaurant")  # missing topic
    with pytest.raises(ValueError):
        UserAct(IntentKind.INFORM)  # missing slot
    with pytest.raises(ValueError):
        UserAct(IntentKind.REQUEST, slot="food", value="thai")
    UserAct(IntentKind.INFORM, slot="food", value=None)  # clearing form is legal


def test_generator_config_validation():
    with pytest.raises(ValidationError):
        GeneratorConfig(n_dialogues=0)
    with pytest.raises(ValidationError):
        GeneratorConfig(p_chitchat=1.5)
    with pytest.raises(ValidationError):
        GeneratorConfig(split_fractions=(0.5, 0.2, 0.2))


@pytest.mark.parametrize(
    "fractions",
    [(math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5), (0.5, 0.5, -math.inf)],
    ids=["nan", "inf", "minus-inf"],
)
def test_non_finite_split_fraction_rejected(fractions):
    with pytest.raises(ValidationError, match="^split_fractions must be three finite"):
        GeneratorConfig(split_fractions=fractions)


# A bool is no number, and a string no int or number, for any setting.
GENERATOR_CONFIG_ROWS = [
    *(pytest.param("n_dialogues", n, id=str(n)) for n in (2.5, math.inf, 3.0, True, "4")),
    *(pytest.param("seed", s, id=f"seed-{s}") for s in (1.5, None, True)),
    *(pytest.param(p, v, id=f"{p}-{kind}")
      for p in ("p_chitchat", "p_mind_change", "p_domain_change")
      for v, kind in (("0.2", "string"), (True, "True"))),
    pytest.param("split_fractions", ("0.6", 0.2, 0.2), id="split_fractions-string"),
]


@pytest.mark.parametrize("setting, value", GENERATOR_CONFIG_ROWS)
def test_non_int_dialogue_count_rejected(setting, value):
    message = f"^{setting} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        GeneratorConfig(**{setting: value})


# -- sample_user_turn --------------------------------------------------------


def test_zero_probabilities_follow_script(mini_ontology):
    cfg = events_off()
    rng = random.Random(0)
    stack = _stack_with_frame(mini_ontology, fills={"food": "thai"})
    stack.top.pending_request = "people"
    goal = GoalScript(
        topics=[TopicGoal("restaurant", "book", {"food": "thai", "people": "two"})],
    )
    acts, event = sample_user_turn(stack, goal, rng, cfg)
    assert event is None
    assert [a.kind for a in acts] == [IntentKind.INFORM]
    assert acts[0].slot == "people" and acts[0].value == "two"


def test_wrapped_up_frame_with_no_next_topic_closes_the_dialogue(mini_ontology):
    """The user closes, drawing nothing, when the frame is wrapped up and the
    script holds no further topic."""
    rng = random.Random(0)
    before = rng.getstate()
    stack = _stack_with_frame(
        mini_ontology, fills={"food": "thai", "people": "two"}, phase=Phase.WRAPUP
    )
    goal = GoalScript(topics=[TopicGoal("restaurant", "book", {"food": "thai", "people": "two"})])
    acts, event = sample_user_turn(stack, goal, rng, events_off())
    assert event is None
    assert [a.kind for a in acts] == [IntentKind.NEGATE, IntentKind.THANK, IntentKind.GOODBYE]
    assert goal.finished and goal.topic_index == 0
    assert rng.getstate() == before


def test_certain_chit_chat(mini_ontology):
    cfg = GeneratorConfig(n_dialogues=1, p_chitchat=1.0)
    stack = DialogueStack(mini_ontology)
    goal = GoalScript(topics=[TopicGoal("restaurant", "book", {"food": "thai", "people": "two"})])
    acts, event = sample_user_turn(stack, goal, random.Random(1), cfg)
    assert event is EventKind.CHIT_CHAT
    assert [a.kind for a in acts] == [IntentKind.CHIT_CHAT]


def test_event_rates_match_ordered_conditional_draws(simple_ontology):
    cfg = GeneratorConfig(n_dialogues=1, seed=0)
    rng = random.Random(42)
    counts = Counter()
    n = 10_000
    for _ in range(n):
        stack = DialogueStack(simple_ontology)
        stack.push(
            TopicFrame(domain="restaurant", topic="book", fills={"food": "thai", "people": "two"})
        )
        goal = GoalScript(
            topics=[TopicGoal("restaurant", "book", {"food": "thai", "people": "two"})],
        )
        _, event = sample_user_turn(stack, goal, rng, cfg)
        counts[event] += 1
    # ordered independent draws at 0.2 each: 0.2, 0.8*0.2, 0.8*0.8*0.2
    assert abs(counts[EventKind.CHIT_CHAT] / n - 0.2) < 0.02
    assert abs(counts[EventKind.MIND_CHANGE] / n - 0.16) < 0.02
    assert abs(counts[EventKind.DOMAIN_CHANGE] / n - 0.128) < 0.02


# -- generate_dialogue -------------------------------------------------------


def test_canonical_minimal_trace(mini_ontology):
    cfg = events_off()
    for seed in range(10):
        d = generate_dialogue(mini_ontology, cfg, seed)
        kinds = [[a.kind for a in t.user_acts] for t in d.turns]
        sys = [t.system_acts for t in d.turns]
        assert len(d.turns) == 4
        assert kinds[0] == [IntentKind.INFORM_INTENT]
        assert sys[0] == ["restaurant-REQUEST-food"]
        assert kinds[1] == [IntentKind.INFORM]
        assert sys[1] == ["restaurant-CONFIRM-food", "restaurant-REQUEST-people"]
        assert kinds[2] == [IntentKind.INFORM]
        assert sys[2] == ["restaurant-CONFIRM-people", "restaurant-NOTIFY"]
        assert kinds[3] == [IntentKind.NEGATE, IntentKind.THANK, IntentKind.GOODBYE]
        assert sys[3] == ["restaurant-REQ_MORE"]
        assert d.events_log == []


def test_same_seed_same_bytes(simple_ontology):
    cfg = GeneratorConfig(n_dialogues=1, seed=5)
    a = generate_dialogue(simple_ontology, cfg, 12345, "d0")
    b = generate_dialogue(simple_ontology, cfg, 12345, "d0")
    assert dumps_dialogue(a) == dumps_dialogue(b)


def test_forced_domain_change_single_push(two_domain_ontology):
    cfg = GeneratorConfig(
        n_dialogues=1, p_chitchat=0.0, p_mind_change=0.0, p_domain_change=1.0, seed=0
    )
    for seed in range(25):
        d = generate_dialogue(two_domain_ontology, cfg, seed)
        pushes = [e for _, e in d.events_log if e is EventKind.DOMAIN_CHANGE]
        assert len(pushes) == 1
        notifies = [a for t in d.turns for a in t.system_acts if a.endswith("-NOTIFY")]
        assert len(notifies) == 2  # both the interrupted and the pushed topic complete


def test_certain_chit_chat_overflows(simple_ontology):
    cfg = GeneratorConfig(n_dialogues=1, p_chitchat=1.0, seed=0)
    with pytest.raises(DialoforgeError, match="exceeded 60 turns") as err:
        generate_dialogue(simple_ontology, cfg, 7)
    assert type(err.value) is DialoforgeError


def test_empty_system_response_is_a_runtime_error_that_names_the_turn(
    simple_ontology, monkeypatch
):
    monkeypatch.setattr(engine, "step_policy", lambda stack, user_acts: [])
    cfg = GeneratorConfig(n_dialogues=1, seed=0)
    with pytest.raises(DialoforgeError, match="empty system response at turn 0") as err:
        generate_dialogue(simple_ontology, cfg, 7)
    assert type(err.value) is DialoforgeError


def test_final_turn_contains_goodbye_or_thank(simple_ontology):
    cfg = GeneratorConfig(n_dialogues=1, seed=0)
    for seed in range(30):
        d = generate_dialogue(simple_ontology, cfg, seed)
        kinds = {a.kind for a in d.turns[-1].user_acts}
        assert kinds & {IntentKind.THANK, IntentKind.GOODBYE}


def test_mind_change_reinform_changes_value(two_domain_ontology):
    cfg = GeneratorConfig(
        n_dialogues=1, p_chitchat=0.0, p_mind_change=1.0, p_domain_change=0.0, seed=0
    )
    rng = random.Random(3)
    stack = _stack_with_frame(two_domain_ontology, fills={"food": "thai", "people": "two"})
    goal = GoalScript(topics=[TopicGoal("restaurant", "book", {"food": "thai", "people": "two"})])
    acts, event = sample_user_turn(stack, goal, rng, cfg)
    assert event is EventKind.MIND_CHANGE
    act = acts[0]
    assert act.kind is IntentKind.INFORM
    if act.value is not None:  # value change must actually change the value
        assert act.value != stack.top.fills[act.slot]
