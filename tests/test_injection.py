from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from dialoforge.dataset import dumps_dialogue, generate_dataset
from dialoforge.engine import GeneratorConfig
from dialoforge.errors import DialoforgeError, ValidationError
from dialoforge.injection import (
    ElementKind,
    ErrorConfig,
    PerturbMode,
    inject_errors,
    perturb_label,
    revert_errors,
)
from dialoforge.ontology import IntentKind, UNK_TOKEN


def _dataset(ontology, n=40, seed=9):
    return generate_dataset(ontology, GeneratorConfig(n_dialogues=n, seed=seed))


def _dataset_bytes(ds):
    return "".join(dumps_dialogue(d) for _, d in ds.iter_dialogues())


def test_unk_substitution_is_constant():
    rng = random.Random(0)
    assert perturb_label("inform", list("abcdefghi"), rng, PerturbMode.UNK) == UNK_TOKEN


def test_relabel_uniform_over_other_labels():
    catalog = [f"act_{i:02d}" for i in range(26)]
    rng = random.Random(123)
    counts = Counter(
        perturb_label("act_00", catalog, rng, PerturbMode.RELABEL) for _ in range(100_000)
    )
    assert "act_00" not in counts
    assert len(counts) == 25
    for label, n in counts.items():
        assert abs(n / 100_000 - 1 / 25) < 0.01


def test_relabel_needs_two_candidates():
    with pytest.raises(DialoforgeError, match="relabeling needs >= 2 candidates") as err:
        perturb_label("only", ["only"], random.Random(0), PerturbMode.RELABEL)
    assert type(err.value) is DialoforgeError


def test_zero_probability_is_identity(simple_ontology):
    ds = _dataset(simple_ontology)
    out, records = inject_errors(ds, simple_ontology, ErrorConfig(seed=4))
    assert records == []
    assert _dataset_bytes(out) == _dataset_bytes(ds)
    assert out is not ds
    # Dialogues no edit touches are shared, not copied.
    assert all(a is b for (_, a), (_, b) in zip(ds.iter_dialogues(), out.iter_dialogues()))


def test_certain_unk_blankets_intents(simple_ontology):
    ds = _dataset(simple_ontology)
    cfg = ErrorConfig(p_intent=1.0, mode_weights=(0.0, 1.0), seed=1)
    out, records = inject_errors(ds, simple_ontology, cfg)
    for _, dlg in out.iter_dialogues():
        for turn in dlg.turns:
            assert all(a.kind is IntentKind.UNK for a in turn.user_acts)
    assert records


def test_action_rate_concentrates(medium_ontology):
    ds = _dataset(medium_ontology, n=600, seed=2)
    n_actions = sum(
        len(t.system_acts) for _, d in ds.iter_dialogues() for t in d.turns
    )
    assert n_actions >= 2000
    cfg = ErrorConfig(p_action=0.2, seed=5)
    _, records = inject_errors(ds, medium_ontology, cfg)
    rate = len(records) / n_actions
    assert 0.17 <= rate <= 0.23  # 3 sigma at this n is ~0.02


def test_category_isolation(simple_ontology):
    ds = _dataset(simple_ontology)
    cfg = ErrorConfig(p_intent=1.0, seed=8)
    out, records = inject_errors(ds, simple_ontology, cfg)
    assert all(r.element.value == "intent" for r in records)
    for (_, a), (_, b) in zip(ds.iter_dialogues(), out.iter_dialogues()):
        for ta, tb in zip(a.turns, b.turns):
            assert ta.system_acts == tb.system_acts
            assert [x.slot for x in ta.user_acts] == [x.slot for x in tb.user_acts]


@pytest.mark.parametrize("splits", ["all", "train"])
@pytest.mark.parametrize("p", [0.3, 1.0])
def test_reversibility_byte_for_byte(simple_ontology, p, splits):
    ds = _dataset(simple_ontology, n=60, seed=13)
    clean = _dataset_bytes(ds)
    cfg = ErrorConfig(p_intent=p, p_action=p, p_slot=p, seed=77)
    out, records = inject_errors(ds, simple_ontology, cfg, splits=splits)
    noisy = _dataset_bytes(out)
    assert noisy != clean
    assert _dataset_bytes(ds) == clean  # inject left its input as it was
    restored = revert_errors(out, records)
    assert _dataset_bytes(out) == noisy  # and so did revert
    assert _dataset_bytes(restored) == clean


def test_repeated_dialogue_id_rejected(simple_ontology):
    ds = _dataset(simple_ontology, n=10)
    repeated = ds.splits["train"][0].id
    ds.splits["test"][0] = dataclasses.replace(ds.splits["test"][0], id=repeated)
    with pytest.raises(ValidationError, match=repeated):
        inject_errors(ds, simple_ontology, ErrorConfig(seed=1))
    with pytest.raises(ValidationError, match=repeated):
        revert_errors(ds, [])


def test_injection_deterministic(simple_ontology):
    ds = _dataset(simple_ontology)
    cfg = ErrorConfig(p_intent=0.5, p_action=0.5, p_slot=0.5, seed=31)
    out1, rec1 = inject_errors(ds, simple_ontology, cfg)
    out2, rec2 = inject_errors(ds, simple_ontology, cfg)
    assert _dataset_bytes(out1) == _dataset_bytes(out2)
    assert rec1 == rec2


def test_train_only_restriction(simple_ontology):
    ds = _dataset(simple_ontology, n=30)
    cfg = ErrorConfig(p_intent=1.0, seed=3)
    out, records = inject_errors(ds, simple_ontology, cfg, splits="train")
    train_ids = {d.id for d in ds.splits["train"]}
    assert {r.dialogue_id for r in records} <= train_ids
    for split in ("val", "test"):
        for a, b in zip(ds.splits[split], out.splits[split]):
            assert dumps_dialogue(a) == dumps_dialogue(b)


@pytest.mark.parametrize("element", ["action", "slot"])
@pytest.mark.parametrize("split, noisy_splits", [("train", "all"), ("test", "train")])
def test_unknown_label_rejected(simple_ontology, element, split, noisy_splits):
    ds = _dataset(simple_ontology, n=5)
    turns = [t for d in ds.splits[split] for t in d.turns]
    if element == "action":
        next(t for t in turns if t.system_acts).system_acts[0] = "bogus-action"
    else:
        next(a for t in turns for a in t.user_acts if a.slot is not None).slot = "bogus-slot"
    cfg = ErrorConfig(p_action=0.5, p_slot=0.5, seed=0)
    with pytest.raises(ValidationError, match=f"turn .*: {element} 'bogus-{element}'"):
        inject_errors(ds, simple_ontology, cfg, splits=noisy_splits)


@pytest.mark.parametrize("element", list(ElementKind))
def test_revert_rejects_mismatched_record(simple_ontology, element):
    ds = _dataset(simple_ontology, n=10)
    cfg = ErrorConfig(**{f"p_{element.value}": 1.0}, seed=2)
    out, records = inject_errors(ds, simple_ontology, cfg)
    rec = records[0]
    n_turns = next(len(d.turns) for _, d in out.iter_dialogues() if d.id == rec.dialogue_id)
    mismatch = "record does not match dataset"
    cases = [
        (dataclasses.replace(rec, new="not-what-was-written"), mismatch),
        (dataclasses.replace(rec, dialogue_id="no-such-dialogue"), mismatch),
        (dataclasses.replace(rec, turn_index=n_turns), mismatch),  # one past the end
        # same turn, from the end
        (dataclasses.replace(rec, turn_index=rec.turn_index - n_turns), mismatch),
        (dataclasses.replace(rec, index=99), mismatch),  # past the end of the act list
    ]
    if element is ElementKind.INTENT:
        cases.append((dataclasses.replace(rec, original="bogus"),
                      "intent kind 'bogus' is not in the catalog"))
    for bad, says in cases:
        with pytest.raises(ValidationError, match=says):
            revert_errors(out, [bad])


def test_relabeled_labels_stay_in_catalog(medium_ontology):
    ds = _dataset(medium_ontology, n=80, seed=6)
    cfg = ErrorConfig(p_intent=0.8, p_action=0.8, p_slot=0.8, mode_weights=(1.0, 0.0), seed=12)
    out, records = inject_errors(ds, medium_ontology, cfg)
    intents = set(medium_ontology.intent_catalog)
    actions = set(medium_ontology.action_catalog)
    slots = set(medium_ontology.all_slot_names())
    for r in records:
        assert r.new != r.original
        if r.element.value == "intent":
            assert r.new in intents
        elif r.element.value == "action":
            assert r.new in actions
        else:
            assert r.new in slots
