from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from dialoforge.errors import SchemaError, ValidationError
from dialoforge.ontology import (
    GENERAL_CHIT_CHAT_ID,
    ActionKind,
    AtomicActionId,
    IntentKind,
    build_ontology,
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
    ont = build_ontology([])
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
        (lambda d: d["domains"][0].update(name=3), SchemaError, "$.domains[0].name: "),
        (lambda d: _setitem(_topic(d)["slots"], 0, "food"), SchemaError,
         "$.domains[0].topics[0].slots[0]: "),
        (lambda d: _setitem(d["domains"][0]["topics"], 0, ["book"]), SchemaError,
         "$.domains[0].topics[0]: "),
        (lambda d: _setitem(d["domains"], 0, None), SchemaError, "$.domains[0]: "),
        (lambda d: _topic(d)["slots"][0].update(values="thai"), SchemaError,
         "$.domains[0].topics[0].slots[0].values: "),
        (lambda d: _topic(d)["emit"].update(confirm="food"), SchemaError,
         "$.domains[0].topics[0].emit.confirm: "),
        (lambda d: _topic(d).update(slots={}), SchemaError, "$.domains[0].topics[0].slots: "),
        (lambda d: d["domains"][0].update(topics="book"), SchemaError, "$.domains[0].topics: "),
        (lambda d: _topic(d).update(emit=[]), SchemaError, "$.domains[0].topics[0].emit: "),
        (lambda d: d.update(generation=[]), SchemaError, "$.generation: "),
        (lambda d: d["domains"].append(d["domains"][0]), ValidationError,
         "$.domains[1]: duplicate domain name 'restaurant'"),
        (lambda d: d.update(domains={}), SchemaError, "$.domains: "),
        (lambda d: [d], SchemaError, "$: must be an object"),
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


def test_malformed_json_rejected():
    with pytest.raises(SchemaError):
        load_ontology("{not json")


def test_unknown_keys_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    doc["extras"] = 1
    with pytest.raises(SchemaError):
        load_ontology(json.dumps(doc))


@pytest.mark.parametrize(
    "generation, where",
    [
        ({"n_dialogues": "many"}, "$.generation.n_dialogues"),
        ({"n_dialogues": 0}, "$.generation.n_dialogues"),
        ({"n_dialogues": True}, "$.generation.n_dialogues"),
        ({"split": [3, 1]}, "$.generation.split"),
        ({"split": [0, 0, 0]}, "$.generation.split"),
        ({"split": [3, -1, 1]}, "$.generation.split"),
        ({"split": [0.6, 0.2, 0.2]}, "$.generation.split[0]"),
        ({"n_dialogues": 10, "seed": 3}, "$.generation"),
    ],
    ids=["n-text", "n-zero", "n-bool", "split-two", "split-zero-sum", "split-negative",
         "split-float", "unknown-key"],
)
def test_bad_generation_block_rejected(generation, where):
    doc = {**MINI_DOC, "generation": generation}
    with pytest.raises((SchemaError, ValidationError), match=f"^{re.escape(where)}[:.]"):
        load_ontology(json.dumps(doc))


def test_generation_defaults_kept_as_written():
    generation = {"n_dialogues": 12, "split": [6, 3, 3]}
    ontology = load_ontology(json.dumps({**MINI_DOC, "generation": generation}))
    assert ontology.generation_defaults == generation


def test_bad_category_rejected():
    doc = json.loads(json.dumps(MINI_DOC))
    doc["domains"][0]["topics"][0]["slots"][0]["category"] = "needed"
    with pytest.raises(SchemaError):
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
