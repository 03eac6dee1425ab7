from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter

import pytest

from dialoforge.dataset import dumps_dialogue, generate_dataset
from dialoforge.engine import GeneratorConfig
from dialoforge.errors import ValidationError
from dialoforge.injection import (
    ElementKind,
    ErrorConfig,
    PerturbMode,
    inject_errors,
    read_records,
    revert_errors,
    write_records,
)
from dialoforge.ontology import IntentKind, UNK_TOKEN

from .test_engine import GENERATOR_CONFIG_ROWS


def _dataset(ontology, n=40, seed=9):
    return generate_dataset(ontology, GeneratorConfig(n_dialogues=n, seed=seed))


def _dataset_bytes(ds):
    return "".join(dumps_dialogue(d) for _, d in ds.iter_dialogues())


# A bool is no number, and a string no int or number, for any setting.
ERROR_CONFIG_ROWS = [
    *(pytest.param("mode_weights", w, id=name) for w, name in (
        ((math.nan, 1.0), "nan"), ((math.inf, 1.0), "inf"), ((math.inf, math.inf), "both-inf"),
        ((-1.0, 1.0), "negative"), ((0.0, 0.0), "both-zero"))),
    *(pytest.param(p, v, id=f"{p}-{kind}")
      for p in ("p_intent", "p_action", "p_slot")
      for v, kind in (("0.2", "string"), (True, "True"))),
    *(pytest.param("seed", s, id=f"seed-{s}") for s in (1.5, None, True)),
]


@pytest.mark.parametrize("setting, value", ERROR_CONFIG_ROWS)
def test_bad_mode_weights_rejected(setting, value):
    message = f"^{setting} must .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        ErrorConfig(**{"p_intent": 0.5, setting: value})


def test_every_config_field_has_a_rejecting_row():
    for config, rows in ((GeneratorConfig, GENERATOR_CONFIG_ROWS),
                         (ErrorConfig, ERROR_CONFIG_ROWS)):
        tested = {row.values[0] for row in rows}
        assert {f.name for f in dataclasses.fields(config)} <= tested, config.__name__


def test_every_config_field_has_one_rule():
    # A field without a rule would go unchecked, and a manifest's config
    # would refuse it as an unknown key.
    for config in (GeneratorConfig, ErrorConfig):
        assert set(config.RULES) == {f.name for f in dataclasses.fields(config)}, config.__name__


@pytest.mark.parametrize(
    "weights",
    [(1.0,), (0.5, 0.25, 0.25), 0.5, ("0.5", "0.5"), (True, False), None],
    ids=["one", "three", "scalar", "strings", "bools", "none"],
)
def test_mode_weights_must_be_two_numbers(weights):
    with pytest.raises(ValidationError, match="^mode_weights must be two finite numbers >= 0"):
        ErrorConfig(p_intent=0.5, mode_weights=weights)


def test_unk_substitution_is_constant(simple_ontology):
    ds = _dataset(simple_ontology)
    cfg = ErrorConfig(p_intent=1.0, p_action=1.0, p_slot=1.0, mode_weights=(0.0, 1.0), seed=3)
    _, records = inject_errors(ds, simple_ontology, cfg)
    assert {r.element for r in records} == set(ElementKind)
    assert all(r.new == UNK_TOKEN and r.mode is PerturbMode.UNK for r in records)


def test_relabel_uniform_over_other_labels(hard_ontology):
    ds = _dataset(hard_ontology, n=2000)
    cfg = ErrorConfig(p_action=1.0, mode_weights=(1.0, 0.0), seed=5)
    _, records = inject_errors(ds, hard_ontology, cfg)
    original, n = Counter(r.original for r in records).most_common(1)[0]
    counts = Counter(r.new for r in records if r.original == original)
    others = [c for c in hard_ontology.action_catalog if c != original]
    assert n >= 1000 and set(counts) == set(others)
    expected = n / len(others)
    chi2 = sum((counts[c] - expected) ** 2 / expected for c in others)
    assert chi2 < 51.18  # the 0.999 quantile of chi-square with 24 degrees of freedom


def test_zero_probability_is_identity(simple_ontology):
    ds = _dataset(simple_ontology)
    out, records = inject_errors(ds, simple_ontology, ErrorConfig(seed=4))
    assert records == []
    assert _dataset_bytes(out) == _dataset_bytes(ds)
    assert out is not ds
    # Dialogues no edit touches are shared, not copied.
    assert all(a is b for (_, a), (_, b) in zip(ds.iter_dialogues(), out.iter_dialogues()))


def _assert_shares_untouched(before, after, records):
    """Every dialogue and turn no record addresses is ``before``'s own object;
    every turn a record addresses is a new one."""
    edited = {(r.dialogue_id, r.turn_index) for r in records}
    assert edited
    pairs = list(zip(before.iter_dialogues(), after.iter_dialogues(), strict=True))
    shared = [a is b for (_, a), (_, b) in pairs]
    assert any(shared) and not all(shared)  # both cases occur
    for (_, a), (_, b) in pairs:
        touched = [ti for ti in range(len(a.turns)) if (a.id, ti) in edited]
        assert (a is b) == (not touched)
        for ti, (ta, tb) in enumerate(zip(a.turns, b.turns, strict=True)):
            assert (ta is tb) == (ti not in touched)


def test_nonzero_probability_shares_untouched_objects(simple_ontology):
    ds = _dataset(simple_ontology, n=200, seed=21)
    clean = _dataset_bytes(ds)
    cfg = ErrorConfig(p_intent=0.2, p_action=0.2, p_slot=0.2, seed=6)
    out, records = inject_errors(ds, simple_ontology, cfg)
    assert _dataset_bytes(ds) == clean
    _assert_shares_untouched(ds, out, records)
    noisy = _dataset_bytes(out)
    restored = revert_errors(out, records)
    assert _dataset_bytes(out) == noisy
    assert _dataset_bytes(restored) == clean
    _assert_shares_untouched(out, restored, records)


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
    cases = [
        dataclasses.replace(rec, new="not-what-was-written"),
        dataclasses.replace(rec, dialogue_id="no-such-dialogue"),
        dataclasses.replace(rec, turn_index=n_turns),  # one past the end
        # same turn, from the end
        dataclasses.replace(rec, turn_index=rec.turn_index - n_turns),
        dataclasses.replace(rec, index=99),  # past the end of the act list
    ]
    if element is ElementKind.INTENT:
        cases.append(dataclasses.replace(rec, original="bogus"))  # no intent kind
    for bad in cases:
        says = f"record does not match dataset: {bad}"
        with pytest.raises(ValidationError, match=f"^{re.escape(says)}$"):
            revert_errors(out, [bad])


def test_revert_reads_the_labels_earlier_records_wrote(simple_ontology):
    ds = _dataset(simple_ontology, n=10)
    cfg = ErrorConfig(p_action=1.0, mode_weights=(0.0, 1.0), seed=2)
    out, records = inject_errors(ds, simple_ontology, cfg)
    rec = records[0]
    # A second record at the same label finds what the first one wrote.
    other = next(a for a in simple_ontology.action_catalog if a != rec.original)
    again = dataclasses.replace(rec, new=rec.original, original=other)
    restored = revert_errors(out, [rec, again])
    dialogue = next(d for _, d in restored.iter_dialogues() if d.id == rec.dialogue_id)
    assert dialogue.turns[rec.turn_index].system_acts[rec.index] == other
    says = f"record does not match dataset: {rec}"
    with pytest.raises(ValidationError, match=f"^{re.escape(says)}$"):
        revert_errors(out, [rec, rec])


@pytest.mark.parametrize(
    "key, value",
    [("turn_index", "3"), ("index", True), ("original", None), ("element", ["intent"])],
)
def test_record_of_the_wrong_type_names_file_line_and_key(simple_ontology, tmp_path, key, value):
    _, records = inject_errors(_dataset(simple_ontology, n=10), simple_ontology,
                               ErrorConfig(p_intent=1.0, seed=2))
    path = tmp_path / "perturbations.jsonl"
    write_records(records[:3], path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), key: value}) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:2: $.{key}: must be ')}"):
        read_records(path)


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
