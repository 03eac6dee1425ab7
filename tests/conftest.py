from __future__ import annotations

import json

import pytest

from dialoforge.engine import GeneratorConfig
from dialoforge.ontology import Ontology, load_ontology, preset_ontology

# One domain, one topic, two requestable+confirmable mandatory slots: the
# smallest ontology on which every policy rule except domain change fires.
MINI_DOC = {
    "domains": [
        {
            "name": "restaurant",
            "topics": [
                {
                    "name": "book",
                    "slots": [
                        {"name": "food", "category": "mandatory", "values": ["italian", "thai", "indian"]},
                        {"name": "people", "category": "mandatory", "values": ["one", "two", "four"]},
                    ],
                    "emit": {"request": ["food", "people"], "confirm": ["food", "people"], "inform": []},
                }
            ],
        }
    ]
}

# Two domains with two-step elicitation each, so an interruption always has
# somewhere to land and something to resume.
TWO_DOMAIN_DOC = {
    "domains": [
        {
            "name": "restaurant",
            "topics": [
                {
                    "name": "book",
                    "slots": [
                        {"name": "food", "category": "mandatory", "values": ["italian", "thai", "indian"]},
                        {"name": "people", "category": "mandatory", "values": ["one", "two", "four"]},
                    ],
                    "emit": {"request": ["food", "people"], "confirm": ["food", "people"], "inform": ["food"]},
                }
            ],
        },
        {
            "name": "taxi",
            "topics": [
                {
                    "name": "order",
                    "slots": [
                        {"name": "destination", "category": "mandatory", "values": ["airport", "station", "museum"]},
                        {"name": "pickup", "category": "mandatory", "values": ["noon", "evening", "night"]},
                    ],
                    "emit": {"request": ["destination", "pickup"], "confirm": [], "inform": []},
                }
            ],
        },
    ]
}


@pytest.fixture(scope="session")
def mini_ontology() -> Ontology:
    return load_ontology(json.dumps(MINI_DOC))


@pytest.fixture(scope="session")
def two_domain_ontology() -> Ontology:
    return load_ontology(json.dumps(TWO_DOMAIN_DOC))


@pytest.fixture(scope="session")
def simple_ontology() -> Ontology:
    return preset_ontology("simple")


@pytest.fixture(scope="session")
def medium_ontology() -> Ontology:
    return preset_ontology("medium")


@pytest.fixture(scope="session")
def hard_ontology() -> Ontology:
    return preset_ontology("hard")


def preset_config(ontology: Ontology, seed: int, n_dialogues: int | None = None) -> GeneratorConfig:
    """GeneratorConfig matching a preset's bundled dialogue/split defaults."""
    sized = {"n_dialogues": n_dialogues} if n_dialogues else {}
    return GeneratorConfig.for_ontology(ontology, seed=seed, **sized)


def events_off(n_dialogues: int = 1, seed: int = 0, **kw) -> GeneratorConfig:
    return GeneratorConfig(
        n_dialogues=n_dialogues,
        p_chitchat=0.0,
        p_mind_change=0.0,
        p_domain_change=0.0,
        seed=seed,
        **kw,
    )
