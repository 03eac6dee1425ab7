from __future__ import annotations

import json
import random

import numpy as np
import pytest

from dialoforge.dataset import generate_dataset
from dialoforge.diagnostics import find_state_collisions
from dialoforge.encoding import (
    StateLayout,
    encode_dataset,
    encode_dialogue,
    read_encoded,
    write_encoded,
)
from dialoforge.engine import (
    MAX_TURNS,
    Dialogue,
    DialogueStack,
    DialogueTurn,
    GeneratorConfig,
    GoalScript,
    UserAct,
    dialogue_seeds,
    generate_dialogue,
    sample_user_turn,
    step_policy,
)
from dialoforge.errors import ValidationError
from dialoforge.injection import ErrorConfig, inject_errors
from dialoforge.ontology import UNK_TOKEN, IntentKind, load_ontology, parse_action_id

from .conftest import events_off, preset_config


@pytest.mark.parametrize("preset", ["simple", "medium", "hard"])
def test_width_formula(preset, request):
    ontology = request.getfixturevalue(f"{preset}_ontology")
    layout = StateLayout.from_ontology(ontology)
    n_slots = len(ontology.slot_keys())
    n_actions = len(ontology.action_catalog)
    assert layout.state_width == 2 * n_slots + 9 + n_actions + 4
    assert layout.target_width == n_actions


def test_turn_zero_has_no_previous_system_block(mini_ontology):
    d = generate_dialogue(mini_ontology, events_off(), 0)
    layout = StateLayout.from_ontology(mini_ontology)
    state = encode_dialogue(d, mini_ontology)[0][0]
    block = state[layout.action_offset : layout.action_offset + len(layout.actions)]
    assert not block.any()


def test_hand_encoded_bits_after_first_inform(mini_ontology):
    d = generate_dialogue(mini_ontology, events_off(), 0)
    layout = StateLayout.from_ontology(mini_ontology)
    state = encode_dialogue(d, mini_ontology)[0][1]

    slot_pos = layout.slot_keys.index("restaurant.book.food")
    expected = set()
    expected.add(2 * slot_pos)  # food filled
    expected.add(2 * slot_pos + 1)  # food just changed this turn
    expected.add(layout.intent_offset + layout.intents.index("inform"))
    expected.add(layout.action_offset + layout.actions.index("restaurant-REQUEST-food"))
    expected.add(layout.management_offset + 1)  # phase one-hot: eliciting
    assert set(np.flatnonzero(state)) == expected


def test_identical_prefixes_encode_identically(mini_ontology):
    cfg = events_off()
    a = generate_dialogue(mini_ontology, cfg, 1)
    b = generate_dialogue(mini_ontology, cfg, 2)
    sa, _ = encode_dialogue(a, mini_ontology)
    sb, _ = encode_dialogue(b, mini_ontology)
    # events-off minimal traces share the whole act structure
    assert np.array_equal(sa, sb)


def test_target_row_cases(simple_ontology):
    """A turn's target row is multi-hot over the catalog; UNK sets nothing."""
    catalog = list(simple_ontology.action_catalog)
    d = generate_dialogue(simple_ontology, events_off(), 0)

    def target(system_acts):
        d.turns[0].system_acts = system_acts
        return encode_dialogue(d, simple_ontology)[1][0]

    assert not target([]).any()
    two = target([catalog[2], catalog[5]])
    assert two.sum() == 2 and two[2] == 1 and two[5] == 1
    assert target(catalog).all()
    assert not target([UNK_TOKEN]).any()
    with pytest.raises(ValidationError, match="action 'bogus-INFORM-x' is not in the catalog"):
        target(["bogus-INFORM-x"])


def test_pair_count_equals_turn_count(simple_ontology):
    ds = generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=30, seed=17))
    enc = encode_dataset(ds, simple_ontology)
    for split in ("train", "val", "test"):
        assert enc.n_pairs(split) == ds.n_turns(split)


def test_container_round_trip_is_idempotent(simple_ontology, tmp_path):
    ds = generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=20, seed=23))
    enc = encode_dataset(ds, simple_ontology)
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    write_encoded(enc, d1)
    loaded = read_encoded(d1)
    for split in ("train", "val", "test"):
        assert np.array_equal(loaded.splits[split][0], enc.splits[split][0])
        assert np.array_equal(loaded.splits[split][1], enc.splits[split][1])
    write_encoded(loaded, d2)
    for name in ("train.bin", "val.bin", "test.bin", "layout.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_unk_intents_light_the_unk_position(simple_ontology):
    ds = generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=6, seed=2))
    cfg = ErrorConfig(p_intent=1.0, mode_weights=(0.0, 1.0), seed=1)
    noisy, _ = inject_errors(ds, simple_ontology, cfg)
    enc = encode_dataset(noisy, simple_ontology)
    layout = enc.layout
    unk_col = layout.intent_offset + layout.intents.index(UNK_TOKEN)
    states = np.concatenate([enc.splits[s][0] for s in ("train", "val", "test")])
    intents = states[:, layout.intent_offset : layout.intent_offset + 9]
    assert states[:, unk_col].all()
    assert intents.sum() == states.shape[0]  # only the UNK position is set


def test_perturbed_slots_encode_as_unfilled(mini_ontology):
    d = generate_dialogue(mini_ontology, events_off(), 0)
    d.turns[1].user_acts[0].slot = "unk"  # simulate slot-label noise
    layout = StateLayout.from_ontology(mini_ontology)
    state = encode_dialogue(d, mini_ontology)[0][1]
    assert not state[: layout.intent_offset].any()


def test_a_slot_of_another_topic_encodes_as_unfilled(two_domain_ontology):
    """An INFORM that names a slot of a topic not on top fills nothing."""
    opening = [
        UserAct(IntentKind.INFORM_INTENT, domain="restaurant", topic="book"),
        UserAct(IntentKind.INFORM, slot="destination", value="airport"),
        UserAct(IntentKind.INFORM, slot="food", value="thai"),
    ]
    d = Dialogue(id="d", seed=0, turns=[
        DialogueTurn(user_acts=opening, system_acts=["restaurant-REQUEST-people"]),
        DialogueTurn(user_acts=[UserAct(IntentKind.INFORM, slot="pickup", value="noon")],
                     system_acts=["restaurant-REQUEST-people"]),
    ])
    layout = StateLayout.from_ontology(two_domain_ontology)
    states = encode_dialogue(d, two_domain_ontology)[0]
    food = 2 * layout.slot_keys.index("restaurant.book.food")
    assert set(np.flatnonzero(states[0, : layout.intent_offset])) == {food, food + 1}
    assert set(np.flatnonzero(states[1, : layout.intent_offset])) == {food}


def test_clean_state_target_mapping_is_functional(simple_ontology):
    cfg = preset_config(simple_ontology, seed=5, n_dialogues=400)
    ds = generate_dataset(simple_ontology, cfg)
    enc = encode_dataset(ds, simple_ontology)
    states = np.concatenate([enc.splits[s][0] for s in ("train", "val", "test")])
    targets = np.concatenate([enc.splits[s][1] for s in ("train", "val", "test")])
    assert find_state_collisions(states, targets) == []


def test_events_off_mapping_is_functional(simple_ontology):
    cfg = GeneratorConfig(
        n_dialogues=300, p_chitchat=0.0, p_mind_change=0.0, p_domain_change=0.0, seed=8
    )
    ds = generate_dataset(simple_ontology, cfg)
    enc = encode_dataset(ds, simple_ontology)
    states = np.concatenate([enc.splits[s][0] for s in ("train", "val", "test")])
    targets = np.concatenate([enc.splits[s][1] for s in ("train", "val", "test")])
    assert find_state_collisions(states, targets) == []


FIVE_TURN_DOC = {
    "domains": [
        {
            "name": "hotel",
            "topics": [
                {
                    "name": "reserve",
                    "slots": [
                        {"name": "area", "category": "mandatory", "values": ["north", "south"]},
                        {"name": "nights", "category": "mandatory", "values": ["one", "two"]},
                        {"name": "people", "category": "mandatory", "values": ["two", "four"]},
                    ],
                    "emit": {
                        "request": ["area", "nights", "people"],
                        "confirm": ["area", "nights", "people"],
                        "inform": [],
                    },
                }
            ],
        }
    ]
}


def test_five_turn_fixture_states_match_engine_trace():
    ontology = load_ontology(json.dumps(FIVE_TURN_DOC))
    d = generate_dialogue(ontology, events_off(), 4)
    assert len(d.turns) == 5
    layout = StateLayout.from_ontology(ontology)
    states, targets = encode_dialogue(d, ontology)

    # independent bookkeeping of the fill/phase trace
    fills: set[str] = set()
    prev_sys: list[str] = []
    for i, turn in enumerate(d.turns):
        informed = {a.slot for a in turn.user_acts if a.slot is not None}
        fills |= informed
        for j, key in enumerate(layout.slot_keys):
            slot = key.rsplit(".", 1)[1]
            assert states[i][2 * j] == (1 if slot in fills else 0)
            assert states[i][2 * j + 1] == (1 if slot in informed else 0)
        for j, aid in enumerate(layout.actions):
            assert states[i][layout.action_offset + j] == (1 if aid in prev_sys else 0)
        phase_bits = states[i][layout.management_offset :]
        if i < 4:
            assert list(phase_bits) == [0, 1, 0, 0]  # eliciting, depth 1
        else:
            assert list(phase_bits) == [0, 0, 1, 0]  # notified, awaiting close
        assert list(np.flatnonzero(targets[i])) == sorted(
            layout.actions.index(a) for a in turn.system_acts
        )
        prev_sys = turn.system_acts


@pytest.mark.parametrize(
    "preset, overrides",
    [
        ("simple", {}),
        ("medium", {}),
        ("hard", {}),
        ("hard", {"p_domain_change": 1.0}),
    ],
    ids=["simple", "medium", "hard", "hard-domain-change-1"],
)
def test_serialized_acts_replay_the_generator_stack_exactly(preset, overrides, request):
    """The encoder's replay (user acts, then parsed system acts) rebuilds the
    generator's stack, every field of every frame, after every turn of clean
    dialogues."""
    ontology = request.getfixturevalue(f"{preset}_ontology")
    cfg = GeneratorConfig(n_dialogues=1000, seed=0, **overrides)
    diverged = []
    for seed in dialogue_seeds(cfg):
        rng = random.Random(seed)
        goal = GoalScript.sample(ontology, rng)
        stack, replay = DialogueStack(ontology), DialogueStack(ontology)
        for index in range(MAX_TURNS):
            user_acts, _ = sample_user_turn(stack, goal, rng, cfg)
            system_acts = step_policy(stack, user_acts)
            replay.apply_user_acts(user_acts)
            replay.apply_system_acts(
                [parse_action_id(aid) for aid in system_acts], {a.kind for a in user_acts}
            )
            if replay.frames != stack.frames:
                diverged.append((seed, index))
                break
            if goal.finished and not stack.frames:
                break
    assert diverged == []
