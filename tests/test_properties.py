"""Seeded property suites over randomly generated dialogues."""

from __future__ import annotations

import numpy as np
import pytest

from dialoforge.dataset import generate_dataset
from dialoforge.diagnostics import check_dialogue_invariants, find_state_collisions
from dialoforge.encoding import encode_dataset
from dialoforge.engine import EventKind, GeneratorConfig, generate_dialogue
from dialoforge.ontology import IntentKind


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
