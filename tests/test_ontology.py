from __future__ import annotations

import json
import math
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from dialoforge.dataset import generate_dataset
from dialoforge.engine import GeneratorConfig
from dialoforge.errors import ValidationError
from dialoforge.ontology import (
    GENERAL_CHIT_CHAT_ID,
    PRESET_NAMES,
    ActionKind,
    AtomicActionId,
    IntentKind,
    Ontology,
    _RULES,
    check_object,
    check_setting,
    load_ontology,
    load_ontology_file,
    parse_action_id,
    preset_ontology,
)
from .conftest import MINI_DOC


def test_minimal_ontology_loads(mini_ontology):
    assert len(mini_ontology.domains) == 1
    assert len(mini_ontology.slot_keys()) == 2
    assert len(mini_ontology.intent_catalog) == 9


def test_domain_by_name(mini_ontology):
    assert mini_ontology.domain("restaurant") is mini_ontology.domains[0]
    assert mini_ontology.domain("taxi") is None


def test_topic_without_mandatory_slot_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    doc["domains"][0]["topics"][0]["slots"][0]["category"] = "optional"
    doc["domains"][0]["topics"][0]["slots"][1]["category"] = "optional"
    doc["domains"][0]["topics"][0]["emit"] = {"request": [], "confirm": [], "inform": []}
    with pytest.raises(ValidationError) as err:
        load_ontology(json.dumps(doc))
    assert "book" in str(err.value)


def test_simple_preset_counts():
    ont = preset_ontology("simple")
    assert len(ont.domains) == 2
    assert len(ont.action_catalog) == 8


@pytest.mark.parametrize(
    "name,domains,actions",
    [("simple", 2, 8), ("medium", 5, 13), ("hard", 7, 26)],
)
def test_preset_table_counts(name, domains, actions):
    ont = preset_ontology(name)
    assert len(ont.domains) == domains
    assert len(ont.action_catalog) == actions


def test_unknown_preset():
    with pytest.raises(ValidationError, match="unknown preset 'extreme'"):
        preset_ontology("extreme")


def test_enumerate_empty_domains():
    ont = Ontology([])
    assert ont.action_catalog == (GENERAL_CHIT_CHAT_ID,)


def test_enumerate_deterministic_and_sorted(hard_ontology):
    a = hard_ontology.action_catalog
    b = load_ontology(json.dumps(hard_ontology.to_dict())).action_catalog
    assert a == b == tuple(sorted(a))


def test_catalog_cardinalities(medium_ontology):
    assert len(IntentKind) == 9
    assert len(ActionKind) == 6
    assert len(medium_ontology.intent_catalog) == 9


def test_action_id_round_trip_examples():
    parsed = parse_action_id("restaurant-CONFIRM-people")
    assert parsed == AtomicActionId("restaurant", ActionKind.CONFIRM, "people")
    parsed = parse_action_id("GENERAL-ANSWER_CHIT_CHAT")
    assert parsed == AtomicActionId("GENERAL", ActionKind.ANSWER_CHIT_CHAT, None)


_ident = st.from_regex(r"[a-z0-9_]{1,32}", fullmatch=True)


@given(domain=_ident, kind=st.sampled_from(list(ActionKind)), slot=st.none() | _ident)
def test_action_id_round_trip_property(domain, kind, slot):
    aid = AtomicActionId(domain, kind, slot).id
    parsed = parse_action_id(aid)
    assert (parsed.domain, parsed.kind, parsed.slot) == (domain, kind, slot)
    assert parsed.id == aid


def test_catalog_parses_losslessly(hard_ontology):
    for aid in hard_ontology.action_catalog:
        assert parse_action_id(aid).id == aid


@pytest.mark.parametrize(
    "aid, says",
    [("restaurant-CONFIRM-people-two", "not a canonical action id"),
     ("restaurant-BOGUS-people", "unknown action kind in id")],
    ids=["four-parts", "unknown-kind"],
)
def test_non_canonical_action_id_rejected(aid, says):
    with pytest.raises(ValidationError, match=f"^{says}: '{aid}'$"):
        parse_action_id(aid)


def _topic(doc: dict) -> dict:
    return doc["domains"][0]["topics"][0]


def _setitem(container, key, value):
    container[key] = value


@pytest.mark.parametrize(
    "edit, error, where",
    [
        (lambda d: d["domains"][0].update(name=3), ValidationError, "$.domains[0].name: "),
        (lambda d: _setitem(_topic(d)["slots"], 0, "food"), ValidationError,
         "$.domains[0].topics[0].slots[0]: "),
        (lambda d: _setitem(d["domains"][0]["topics"], 0, ["book"]), ValidationError,
         "$.domains[0].topics[0]: "),
        (lambda d: _setitem(d["domains"], 0, None), ValidationError, "$.domains[0]: "),
        (lambda d: _topic(d)["slots"][0].update(values="thai"), ValidationError,
         "$.domains[0].topics[0].slots[0].values: "),
        (lambda d: _topic(d)["emit"].update(confirm="food"), ValidationError,
         "$.domains[0].topics[0].emit.confirm: "),
        (lambda d: _topic(d).update(slots={}), ValidationError, "$.domains[0].topics[0].slots: "),
        (lambda d: d["domains"][0].update(topics="book"), ValidationError, "$.domains[0].topics: "),
        (lambda d: _topic(d).update(emit=[]), ValidationError, "$.domains[0].topics[0].emit: "),
        (lambda d: d.update(generation=[]), ValidationError, "$.generation: "),
        (lambda d: d["domains"].append(d["domains"][0]), ValidationError,
         "$.domains[1]: duplicate domain name 'restaurant'"),
        (lambda d: d.update(domains={}), ValidationError, "$.domains: "),
        (lambda d: [d], ValidationError, "$: must be an object"),
    ],
    ids=["non-string-name", "slot-not-object", "topic-not-object", "domain-not-object",
         "values-not-list", "emit-list-not-list", "slots-not-list", "topics-not-list",
         "emit-not-object", "generation-not-object", "duplicate-domains", "domains-not-list",
         "top-level-not-object"],
)
def test_malformed_ontology_names_file_and_path(edit, error, where, tmp_path):
    """``edit`` changes MINI_DOC in place or returns a document to replace it."""
    doc = json.loads(json.dumps(MINI_DOC))
    replaced = edit(doc)
    path = tmp_path / "ont.json"
    path.write_text(json.dumps(doc if replaced is None else replaced))
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {where}')}"):
        load_ontology_file(path)


# One value each rule of the table accepts, and one it rejects.
RULE_ROWS = {
    "an int": (-3, 1.0),
    "an int >= 0": (0, -1),
    "an int >= 1": (1, True),
    "a number in [0, 1]": (0.5, 1.5),
    "a finite number >= 0": (2.5, math.inf),
    "two finite numbers >= 0": ((0.0, 1.0), (1.0, math.nan)),
    "three finite numbers >= 0": ([0.6, 0.2, 0.2], (0.5, 0.5)),
    "a string": ("x", 1),
    "an object": ({}, []),
    "a list": ([], ()),
    "a [a-z0-9_]{1,32} identifier": ("food_2", "Food"),
}


def test_every_rule_has_rows():
    assert set(RULE_ROWS) == set(_RULES)


@pytest.mark.parametrize("rule", RULE_ROWS)
def test_rule_accepts_and_rejects(rule):
    accepted, rejected = RULE_ROWS[rule]
    assert check_setting("x", accepted, rule) is accepted
    assert check_object({"x": accepted}, "$", {"x": rule}) == {"x": accepted}
    message = f"^x must be {re.escape(rule)}, got {re.escape(repr(rejected))}$"
    with pytest.raises(ValidationError, match=message):
        check_setting("x", rejected, rule)
    with pytest.raises(ValidationError, match=rf"^\$\.x: must be {re.escape(rule)}, got "):
        check_object({"x": rejected}, "$", {"x": rule})


def test_malformed_json_rejected():
    with pytest.raises(ValidationError):
        load_ontology("{not json")


def test_unknown_keys_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    doc["extras"] = 1
    with pytest.raises(ValidationError):
        load_ontology(json.dumps(doc))


_BAD_GENERATION = {
    "n-text": ({"n_dialogues": "many"}, "$.generation.n_dialogues"),
    "n-zero": ({"n_dialogues": 0}, "$.generation.n_dialogues"),
    "n-bool": ({"n_dialogues": True}, "$.generation.n_dialogues"),
    "split-two": ({"split": [3, 1]}, "$.generation.split"),
    "split-zero-sum": ({"split": [0, 0, 0]}, "$.generation.split"),
    "split-negative": ({"split": [3, -1, 1]}, "$.generation.split"),
    "split-float": ({"split": [0.6, 0.2, 0.2]}, "$.generation.split[0]"),
    "unknown-key": ({"n_dialogues": 10, "seed": 3}, "$.generation"),
}


def _built(builder: str, doc: dict) -> Ontology:
    """The ontology of ``doc``, loaded from its JSON or given, as parsed
    domains and a generation block, to the constructor."""
    if builder == "load":
        return load_ontology(json.dumps(doc))
    domains = [load_ontology(json.dumps({"domains": [d]})).domains[0] for d in doc["domains"]]
    return Ontology(domains, doc.get("generation", {}))


@pytest.mark.parametrize(
    "builder, doc, where",
    [
        *(pytest.param(builder, {**MINI_DOC, "generation": generation}, where,
                       id=name if builder == "load" else f"init-{name}")
          for builder in ("load", "init") for name, (generation, where) in _BAD_GENERATION.items()),
        pytest.param("init", {"domains": MINI_DOC["domains"] * 2}, "$.domains[1]",
                     id="init-duplicate-domain"),
    ],
)
def test_bad_generation_block_rejected(builder, doc, where):
    with pytest.raises(ValidationError, match=f"^{re.escape(where)}[:.]"):
        _built(builder, doc)


def test_generation_defaults_kept_as_written():
    generation = {"n_dialogues": 12, "split": [6, 3, 3]}
    ontology = load_ontology(json.dumps({**MINI_DOC, "generation": generation}))
    assert ontology.generation_defaults == generation


def test_bad_category_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    doc["domains"][0]["topics"][0]["slots"][0]["category"] = "needed"
    with pytest.raises(ValidationError):
        load_ontology(json.dumps(doc))


def test_empty_values_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    doc["domains"][0]["topics"][0]["slots"][0]["values"] = []
    with pytest.raises(ValidationError):
        load_ontology(json.dumps(doc))


def test_duplicate_slot_names_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    slots = doc["domains"][0]["topics"][0]["slots"]
    slots[1]["name"] = slots[0]["name"]
    with pytest.raises(ValidationError):
        load_ontology(json.dumps(doc))


def test_optional_slot_never_requestable():
    doc = json.loads(json.dumps(MINI_DOC))
    doc["domains"][0]["topics"][0]["slots"][1]["category"] = "optional"
    doc["domains"][0]["topics"][0]["emit"]["request"] = ["food", "people"]
    with pytest.raises(ValidationError) as err:
        load_ontology(json.dumps(doc))
    assert "optional" in str(err.value)


def test_too_many_unrequestable_mandatory_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    slots = doc["domains"][0]["topics"][0]["slots"]
    slots.append({"name": "day", "category": "mandatory", "values": ["monday"]})
    doc["domains"][0]["topics"][0]["emit"]["request"] = []
    with pytest.raises(ValidationError):
        load_ontology(json.dumps(doc))


def test_request_table_defaults_to_mandatory_and_desired():
    doc = json.loads(json.dumps(MINI_DOC))
    del doc["domains"][0]["topics"][0]["emit"]["request"]
    ont = load_ontology(json.dumps(doc))
    topic = ont.topic("restaurant", "book")
    assert topic.request_slots == {"food", "people"}


def test_content_hash_stable(simple_ontology):
    assert simple_ontology.content_hash() == preset_ontology("simple").content_hash()
    assert simple_ontology.content_hash() != preset_ontology("medium").content_hash()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_filled_lookup_tables_are_not_part_of_an_ontology(name):
    used = preset_ontology(name)
    generate_dataset(used, GeneratorConfig(n_dialogues=20, seed=1))
    for domain, topic in used.topic_pairs:
        spec = used.topic(domain, topic)
        assert spec.slot(spec.slot_names[0]) is spec.slots[0]
        assert spec.slot("no_such_slot") is None
        assert set(spec.unrequestable_mandatory) <= set(spec.mandatory_slots)
        assert not set(spec.desired_slots) & set(spec.mandatory_slots)
    for aid in used.action_catalog:
        act = parse_action_id(aid)
        assert used.action(act.domain, act.kind, act.slot) == act
        assert used.action(act.domain, act.kind, act.slot).id == aid
    assert {"_topics", "topic_pairs", "_actions"} <= vars(used).keys()

    fresh = preset_ontology(name)
    assert used == fresh and hash(used) == hash(fresh)
    assert used.content_hash() == fresh.content_hash()
    assert pickle.loads(pickle.dumps(used)) == fresh
    assert pickle.loads(pickle.dumps(fresh)) == used
