"""Seeded property suites over randomly generated dialogues."""

from __future__ import annotations

import copy
import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from dialoforge.dataset import generate_dataset
from dialoforge.diagnostics import check_dialogue_invariants, find_state_collisions
from dialoforge.encoding import encode_dataset
from dialoforge.engine import (
    MAX_TURNS,
    DialogueStack,
    DialogueTurn,
    EventKind,
    GeneratorConfig,
    GoalScript,
    Phase,
    UserAct,
    dialogue_seeds,
    generate_dialogue,
    sample_user_turn,
    step_policy,
)
from dialoforge.ontology import IntentKind, Ontology, load_ontology

from .conftest import MINI_DOC, events_off


@pytest.mark.parametrize("preset", ["simple", "medium", "hard"])
def test_engine_invariants_hold_on_random_dialogues(preset, request):
    ontology = request.getfixturevalue(f"{preset}_ontology")
    cfg = GeneratorConfig(n_dialogues=1, seed=0)
    violations = []
    for seed in range(200):
        d = generate_dialogue(ontology, cfg, seed)
        violations += check_dialogue_invariants(d, ontology)
    assert violations == []


def test_context_preserved_across_interruptions(two_domain_ontology):
    cfg = GeneratorConfig(
        n_dialogues=1, p_chitchat=0.1, p_mind_change=0.1, p_domain_change=0.9, seed=0
    )
    pushes = 0
    for seed in range(150):
        d = generate_dialogue(two_domain_ontology, cfg, seed)
        pushes += sum(1 for _, e in d.events_log if e is EventKind.DOMAIN_CHANGE)
        assert check_dialogue_invariants(d, two_domain_ontology) == []
    assert pushes > 50  # the scenario actually exercises interruptions


def test_chit_chat_turns_isolated(simple_ontology):
    cfg = GeneratorConfig(n_dialogues=1, p_chitchat=0.6, seed=0)
    seen = 0
    for seed in range(80):
        d = generate_dialogue(simple_ontology, cfg, seed)
        for turn in d.turns:
            if any(a.kind is IntentKind.CHIT_CHAT for a in turn.user_acts):
                seen += 1
                assert turn.system_acts == ["GENERAL-ANSWER_CHIT_CHAT"]
    assert seen > 100


@pytest.mark.parametrize(
    "preset, p_domain_change",
    [  # 0.2, the default, runs under the preset's own id
        pytest.param(preset, p, id=preset if p == 0.2 else f"{preset}-domain-change-{p:g}")
        for preset in ("simple", "medium", "hard")
        for p in (0.2, 0.0, 0.5, 1.0)
    ],
)
def test_events_on_collisions_are_action_identical(preset, p_domain_change, request):
    """Clean states are collision-free at every domain-change rate."""
    ontology = request.getfixturevalue(f"{preset}_ontology")
    cfg = GeneratorConfig(n_dialogues=500, p_domain_change=p_domain_change, seed=31)
    ds = generate_dataset(ontology, cfg)
    enc = encode_dataset(ds, ontology)
    states = np.concatenate([enc.splits[s][0] for s in ("train", "val", "test")])
    targets = np.concatenate([enc.splits[s][1] for s in ("train", "val", "test")])
    assert find_state_collisions(states, targets) == []


def test_dialogue_serialization_round_trip(simple_ontology):
    from dialoforge.dataset import dumps_dialogue
    from dialoforge.engine import Dialogue
    import json

    cfg = GeneratorConfig(n_dialogues=1, seed=5)
    for seed in range(40):
        d = generate_dialogue(simple_ontology, cfg, seed)
        blob = dumps_dialogue(d)
        assert dumps_dialogue(Dialogue.from_dict(json.loads(blob))) == blob


@pytest.mark.parametrize("name", ["simple", "medium", "hard", "mini", "two_domain"])
def test_user_speaks_to_an_eliciting_frame_with_an_open_request(name, request):
    """An eliciting frame holds an unfilled pending request whenever the user
    speaks: the stack opens it for the policy's REQUEST after the turn's
    fills, and the opening turn volunteers every slot the policy cannot
    request.  So the scripted user answers a request or declines it, and
    never has to volunteer a slot."""
    ontology = request.getfixturevalue(f"{name}_ontology")
    grid = itertools.product((0.0, 0.2, 0.5), (0.0, 0.2, 0.6), (0.0, 0.2, 1.0))
    checked, broken = 0, []
    for p_chitchat, p_mind_change, p_domain_change in grid:
        cfg = GeneratorConfig(
            n_dialogues=40, p_chitchat=p_chitchat, p_mind_change=p_mind_change,
            p_domain_change=p_domain_change, seed=11,
        )
        for seed in dialogue_seeds(cfg):
            rng = random.Random(seed)
            goal = GoalScript.sample(ontology, rng)
            stack = DialogueStack(ontology)
            for index in range(MAX_TURNS):
                if stack.frames and stack.top.phase is Phase.ELICITING:
                    checked += 1
                    pending = stack.top.pending_request
                    if pending is None or stack.top.filled(pending):
                        broken.append((cfg, seed, index, pending))
                user_acts, _ = sample_user_turn(stack, goal, rng, cfg)
                step_policy(stack, user_acts)
                if goal.finished and not stack.frames:
                    break
    assert broken == []
    assert checked > 1000


# MINI_DOC plus a requestable desired slot and an optional one, so that every
# rule of the invariant oracle has something to break.
ORACLE_DOC = copy.deepcopy(MINI_DOC)
ORACLE_DOC["domains"][0]["topics"][0]["slots"] += [
    {"name": "area", "category": "desired", "values": ["north", "south"]},
    {"name": "view", "category": "optional", "values": ["sea", "park"]},
]
ORACLE_DOC["domains"][0]["topics"][0]["emit"]["request"].append("area")


def _requestable_view(ontology: Ontology) -> Ontology:
    """The ontology with its optional slot requestable, which the loader rejects."""
    domain = ontology.domains[0]
    topic = replace(domain.topics[0], request_slots=domain.topics[0].request_slots | {"view"})
    return Ontology(domains=(replace(domain, topics=(topic,)),))


_INTENT = UserAct(IntentKind.INFORM_INTENT, domain="restaurant", topic="book")
_CHIT_CHAT_TURN = DialogueTurn([UserAct(IntentKind.CHIT_CHAT)], ["restaurant-REQUEST-food"])

# rule: (an edit of the clean dialogue's turns, the violation it must raise).
# The clean dialogue (ORACLE_DOC, events off, seed 0) is, user -> system:
#   0 INFORM_INTENT -> REQUEST food    1 INFORM food -> CONFIRM food, REQUEST people
#   2 INFORM people -> CONFIRM people, REQUEST area    3 INFORM area -> NOTIFY
#   4 NEGATE THANK GOODBYE -> REQ_MORE
_BREAKS = {
    "empty-user-acts": (
        lambda turns: turns[2].user_acts.clear(), "d0 turn 2: empty user act list"),
    "empty-system-acts": (
        lambda turns: turns[2].system_acts.clear(), "d0 turn 2: empty system act list"),
    "act-outside-catalog": (
        lambda turns: turns[2].system_acts.append("restaurant-CONFIRM-area"),
        "d0 turn 2: system act 'restaurant-CONFIRM-area' not in catalog"),
    "chit-chat-answered": (
        lambda turns: turns.insert(1, _CHIT_CHAT_TURN),
        "d0 turn 1: chit-chat answered with ['restaurant-REQUEST-food']"),
    "unknown-topic": (
        lambda turns: setattr(turns[0].user_acts[0], "topic", "dine"),
        "d0 turn 0: intent for unknown topic restaurant/dine"),
    "third-frame": (
        lambda turns: turns[1].user_acts.extend([_INTENT, _INTENT]),
        "d0 turn 1: stack depth 3 exceeds 2"),
    "inform-unconfirmed": (
        lambda turns: turns[1].system_acts.remove("restaurant-CONFIRM-food"),
        "d0 turn 1: INFORM(food) not confirmed"),
    "optional-requested": (
        lambda turns: turns[1].system_acts.append("restaurant-REQUEST-view"),
        "d0 turn 1: REQUEST for optional slot 'view'"),
    "desired-requested-twice": (
        lambda turns: turns[3].system_acts.insert(0, "restaurant-REQUEST-area"),
        "d0 turn 3: desired slot 'area' requested 2 times"),
    "early-notify": (
        lambda turns: turns[1].system_acts.append("restaurant-NOTIFY"),
        "d0 turn 1: NOTIFY with unfilled mandatory slots ['people']"),
    "notified-twice": (
        lambda turns: turns[3].system_acts.append("restaurant-NOTIFY"),
        "d0 turn 3: frame notified twice"),
    "frame-left-open": (
        lambda turns: turns.pop(), "d0: dialogue ended with 1 frame(s) on the stack"),
    "no-goodbye": (
        lambda turns: setattr(turns[4], "user_acts", [UserAct(IntentKind.NEGATE)]),
        "d0: final turn lacks THANK/GOODBYE"),
}


@pytest.mark.parametrize("rule", list(_BREAKS))
def test_invariant_oracle_reports_each_broken_rule(rule):
    ontology = load_ontology(json.dumps(ORACLE_DOC))
    dialogue = generate_dialogue(ontology, events_off(), 0, "d0")
    assert len(dialogue.turns) == 5
    assert check_dialogue_invariants(dialogue, ontology) == []
    if rule == "optional-requested":
        ontology = _requestable_view(ontology)
    edit, violation = _BREAKS[rule]
    edit(dialogue.turns)
    assert violation in check_dialogue_invariants(dialogue, ontology)
