"""Symbolic vocabulary of a dataset: domains, topics, slots, intents, actions.

An ontology is loaded from a JSON document (see ``load_ontology``), validated
eagerly, and is immutable afterwards, so instances are safe to share across
worker processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import Any, ClassVar, Iterable, Optional

from .errors import ValidationError

IDENT_RE = re.compile(r"^[a-z0-9_]{1,32}$")

GENERAL_DOMAIN = "GENERAL"
UNK_TOKEN = "unk"

PRESET_NAMES = ("simple", "medium", "hard")


class SlotCategory(Enum):
    MANDATORY = "mandatory"
    DESIRED = "desired"
    OPTIONAL = "optional"


class IntentKind(Enum):
    """The nine closed user intent kinds."""

    INFORM_INTENT = "inform_intent"
    INFORM = "inform"
    AFFIRM = "affirm"
    NEGATE = "negate"
    REQUEST = "request"
    THANK = "thank"
    GOODBYE = "goodbye"
    UNK = "unk"
    CHIT_CHAT = "chit_chat"


class ActionKind(Enum):
    """The six closed system action kinds."""

    INFORM = "INFORM"
    REQUEST = "REQUEST"
    CONFIRM = "CONFIRM"
    NOTIFY = "NOTIFY"
    REQ_MORE = "REQ_MORE"
    ANSWER_CHIT_CHAT = "ANSWER_CHIT_CHAT"


INTENT_CATALOG = tuple(k.value for k in IntentKind)

GENERAL_CHIT_CHAT_ID = f"{GENERAL_DOMAIN}-{ActionKind.ANSWER_CHIT_CHAT.value}"


@dataclass(frozen=True)
class AtomicActionId:
    """A single system act: domain + kind + optional slot.

    The canonical string form is ``domain-KIND[-slot]``; identifiers never
    contain ``-`` and kind names never do either, so the form parses back
    losslessly.
    """

    domain: str
    kind: ActionKind
    slot: Optional[str] = None

    @cached_property
    def id(self) -> str:
        if self.slot is None:
            return f"{self.domain}-{self.kind.value}"
        return f"{self.domain}-{self.kind.value}-{self.slot}"


def parse_action_id(action_id: str) -> AtomicActionId:
    """Split a canonical action id back into its (domain, kind, slot) triple."""
    parts = action_id.split("-")
    if len(parts) not in (2, 3):
        raise ValidationError(f"not a canonical action id: {action_id!r}")
    domain, kind_name = parts[0], parts[1]
    try:
        kind = ActionKind(kind_name)
    except ValueError:
        raise ValidationError(f"unknown action kind in id: {action_id!r}") from None
    slot = parts[2] if len(parts) == 3 else None
    return AtomicActionId(domain, kind, slot)


@dataclass(frozen=True)
class SlotSpec:
    name: str
    category: SlotCategory
    values: tuple[str, ...]


@dataclass(frozen=True)
class TopicSpec:
    name: str
    slots: tuple[SlotSpec, ...]
    # Per-slot action emission. request_slots defaults to every mandatory and
    # desired slot when the document omits the "request" list.
    request_slots: frozenset[str] = frozenset()
    confirm_slots: frozenset[str] = frozenset()
    inform_slots: frozenset[str] = frozenset()

    # The lookups below are built on first use and kept in the instance's
    # __dict__; they are no fields, so equality, hashing and to_dict ignore them.
    @cached_property
    def _slots_by_name(self) -> dict[str, SlotSpec]:
        return {s.name: s for s in self.slots}

    def slot(self, name: str) -> Optional[SlotSpec]:
        return self._slots_by_name.get(name)

    @cached_property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)

    @cached_property
    def mandatory_slots(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots if s.category is SlotCategory.MANDATORY)

    @cached_property
    def desired_slots(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots if s.category is SlotCategory.DESIRED)

    @cached_property
    def unrequestable_mandatory(self) -> tuple[str, ...]:
        """Mandatory slots the policy cannot ask for; the user must volunteer them."""
        return tuple(s for s in self.mandatory_slots if s not in self.request_slots)


@dataclass(frozen=True)
class DomainSpec:
    name: str
    topics: tuple[TopicSpec, ...]


@dataclass(frozen=True)
class Ontology:
    """Domains with unique names, plus the ``generation`` defaults as written
    (checked here, however the ontology is built; errors name their JSON path)."""

    domains: tuple[DomainSpec, ...]
    generation_defaults: dict = field(default_factory=dict, compare=False)
    intent_catalog: ClassVar[tuple[str, ...]] = INTENT_CATALOG
    # Derived from the domains: the sorted atomic action ids.
    action_catalog: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        generation = check_object(
            self.generation_defaults, "$.generation", {},
            {"n_dialogues": "an int >= 1", "split": "a list of ints"},
        )
        if "split" in generation:
            split = generation["split"]
            _require(
                len(split) == 3 and min(split) >= 0 and sum(split) > 0,
                "$.generation.split",
                "must be three non-negative integers with a positive sum",
            )
        object.__setattr__(self, "domains", tuple(self.domains))
        seen: set[str] = set()
        for i, d in enumerate(self.domains):
            _require(d.name not in seen, f"$.domains[{i}]", f"duplicate domain name {d.name!r}")
            seen.add(d.name)
        object.__setattr__(self, "action_catalog", tuple(_atomic_actions(self.domains)))

    def domain(self, name: str) -> Optional[DomainSpec]:
        for d in self.domains:
            if d.name == name:
                return d
        return None

    @cached_property
    def _topics(self) -> dict[tuple[str, str], TopicSpec]:
        return {(d.name, t.name): t for d in self.domains for t in d.topics}

    def topic(self, domain: str, topic: str) -> Optional[TopicSpec]:
        return self._topics.get((domain, topic))

    @cached_property
    def topic_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._topics)

    @cached_property
    def _actions(self) -> dict[tuple, AtomicActionId]:
        return {
            (a.domain, a.kind, a.slot): a for a in map(parse_action_id, self.action_catalog)
        }

    def action(self, domain: str, kind: ActionKind, slot: Optional[str] = None) -> AtomicActionId:
        """The catalog's act of these fields, built once per ontology."""
        return self._actions[domain, kind, slot]

    def slot_keys(self) -> list[tuple[str, str, str]]:
        """Every (domain, topic, slot) triple in document order."""
        return [
            (d.name, t.name, s.name)
            for d in self.domains
            for t in d.topics
            for s in t.slots
        ]

    def all_slot_names(self) -> list[str]:
        """Sorted deduplicated slot names; the relabel catalog for slot noise."""
        return sorted({s.name for d in self.domains for t in d.topics for s in t.slots})

    def to_dict(self) -> dict:
        doc: dict = {
            "domains": [
                {
                    "name": d.name,
                    "topics": [
                        {
                            "name": t.name,
                            "slots": [
                                {
                                    "name": s.name,
                                    "category": s.category.value,
                                    "values": list(s.values),
                                }
                                for s in t.slots
                            ],
                            "emit": {
                                "request": sorted(t.request_slots),
                                "confirm": sorted(t.confirm_slots),
                                "inform": sorted(t.inform_slots),
                            },
                        }
                        for t in d.topics
                    ],
                }
                for d in self.domains
            ]
        }
        if self.generation_defaults:
            doc["generation"] = dict(self.generation_defaults)
        return doc

    def content_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _atomic_actions(domains: Iterable[DomainSpec]) -> list[str]:
    """The sorted action catalog of these domains.

    Always contains the domain-independent chit-chat answer; each domain adds
    NOTIFY and REQ_MORE; per-slot REQUEST/CONFIRM/INFORM actions follow the
    topics' emission tables, deduplicated on (domain, kind, slot).
    """
    ids = {GENERAL_CHIT_CHAT_ID}
    for d in domains:
        ids.add(AtomicActionId(d.name, ActionKind.NOTIFY).id)
        ids.add(AtomicActionId(d.name, ActionKind.REQ_MORE).id)
        for t in d.topics:
            for s in t.request_slots:
                ids.add(AtomicActionId(d.name, ActionKind.REQUEST, s).id)
            for s in t.confirm_slots:
                ids.add(AtomicActionId(d.name, ActionKind.CONFIRM, s).id)
            for s in t.inform_slots:
                ids.add(AtomicActionId(d.name, ActionKind.INFORM, s).id)
    return sorted(ids)


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {msg}")


# Python counts a bool as an int.  Neither check takes one, just as a JSON
# true or false is neither an integer nor a number.
def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_numbers(value: object, n: int) -> bool:
    # A NaN fails the comparison.
    return (isinstance(value, (tuple, list)) and len(value) == n
            and all(is_number(v) and 0 <= v < math.inf for v in value))


_IDENT = "a [a-z0-9_]{1,32} identifier"  # names IDENT_RE's pattern

# Every rule a setting given in code or as a flag, or a value in a JSON file,
# must meet.  A rule's name is the end of its error message.  A key table of
# ``check_object`` may also name "a list of <noun>s", a list whose every item
# meets "a <noun>" (or "an <noun>").
_RULES = {
    "an int": is_int,
    "an int >= 0": lambda v: is_int(v) and v >= 0,
    "an int >= 1": lambda v: is_int(v) and v >= 1,
    "a number in [0, 1]": lambda v: is_number(v) and 0 <= v <= 1,
    "a finite number >= 0": lambda v: _finite_numbers((v,), 1),
    "two finite numbers >= 0": lambda v: _finite_numbers(v, 2),
    "three finite numbers >= 0": lambda v: _finite_numbers(v, 3),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    _IDENT: lambda v: isinstance(v, str) and IDENT_RE.match(v) is not None,
}


def check_setting(name: str, value: Any, rule: str) -> Any:
    """``value``, the setting ``name`` given in code or as a flag, if it meets
    ``rule`` (a key of ``_RULES``); else a ``ValidationError`` that reads
    ``<name> must be <rule>, got <value!r>``."""
    if not _RULES[rule](value):
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return value


def _shown(value: object) -> str:
    """A JSON value as an error message quotes it: an object or a long list by
    its kind, any other value as its JSON."""
    if isinstance(value, dict):
        return "an object"
    text = json.dumps(value)
    return "a list" if isinstance(value, list) and len(text) > 40 else text


def _check_value(value: object, path: str, rule: str) -> None:
    if rule.startswith("a list of "):
        _check_value(value, path, "a list")
        noun = rule[len("a list of ") : -1]
        item_rule = ("an " if noun[0] in "aeiou" else "a ") + noun
        for i, item in enumerate(value):
            _check_value(item, f"{path}[{i}]", item_rule)
    elif not _RULES[rule](value):
        raise ValidationError(f"{path}: must be {rule}, got {_shown(value)}")


def check_object(
    obj: object, path: str, keys: dict, optional: dict = {}, extra: bool = False
) -> dict:
    """The one shape and type check of a JSON object read from a file: ``obj``
    is an object that holds every key of ``keys`` and may hold those of
    ``optional``, each meeting the rule its table names (see ``_RULES``), and
    no other key unless ``extra``.  ``path`` is its JSON path, which a file's
    reader prefixes with the file's name; every error is a ``ValidationError``
    that starts with the path of the offending value.  Returns ``obj``.
    """
    _check_value(obj, path, "an object")
    missing = keys.keys() - obj.keys()
    if missing:
        raise ValidationError(f"{path}: missing key(s) {sorted(missing)}")
    unknown = obj.keys() - keys.keys() - optional.keys()
    if unknown and not extra:
        raise ValidationError(f"{path}: unknown key(s) {sorted(unknown)}")
    for key, rule in (*keys.items(), *optional.items()):
        if key in obj:
            _check_value(obj[key], f"{path}.{key}", rule)
    return obj


_SLOT_KEYS = {
    "name": _IDENT, "category": "a string", "values": "a list of [a-z0-9_]{1,32} identifiers"
}
_EMIT_KEYS = dict.fromkeys(("request", "confirm", "inform"), "a list of strings")


def _parse_slot(obj: object, path: str) -> SlotSpec:
    check_object(obj, path, _SLOT_KEYS)
    name = obj["name"]
    try:
        category = SlotCategory(obj["category"])
    except ValueError:
        raise ValidationError(
            f"{path}.category: must be one of mandatory/desired/optional"
        ) from None
    values = obj["values"]
    _require(len(values) >= 1, f"{path}.values", "needs at least one value")
    _require(len(set(values)) == len(values), f"{path}.values", "values must be unique")
    return SlotSpec(name=name, category=category, values=tuple(values))


def _parse_topic(obj: object, path: str) -> TopicSpec:
    check_object(obj, path, {"name": _IDENT, "slots": "a list"}, {"emit": "an object"})
    name = obj["name"]
    slots = tuple(_parse_slot(s, f"{path}.slots[{i}]") for i, s in enumerate(obj["slots"]))
    _require(len(slots) >= 1, path, f"topic {name!r} has no slots")
    names = [s.name for s in slots]
    _require(len(set(names)) == len(names), path, f"duplicate slot names in topic {name!r}")

    by_cat = {
        s.name: s.category for s in slots
    }
    mandatory = [s.name for s in slots if s.category is SlotCategory.MANDATORY]
    _require(bool(mandatory), path, f"topic {name!r} has no mandatory slot")

    emit = check_object(obj.get("emit", {}), f"{path}.emit", {}, _EMIT_KEYS)
    confirm = frozenset(emit.get("confirm", ()))
    inform = frozenset(emit.get("inform", ()))
    if "request" in emit:
        request = frozenset(emit["request"])
    else:
        # Default rule: the policy may ask for every mandatory and desired slot.
        request = frozenset(
            s.name
            for s in slots
            if s.category in (SlotCategory.MANDATORY, SlotCategory.DESIRED)
        )
    for label, group in (("request", request), ("confirm", confirm), ("inform", inform)):
        for s in group:
            _require(s in by_cat, f"{path}.emit.{label}", f"unknown slot {s!r}")
    for s in request:
        _require(
            by_cat[s] is not SlotCategory.OPTIONAL,
            f"{path}.emit.request",
            f"optional slot {s!r} may never be requested",
        )
    unrequestable = [s for s in mandatory if s not in request]
    _require(
        len(unrequestable) <= 2,
        path,
        f"topic {name!r} has {len(unrequestable)} mandatory slots the policy cannot "
        "request; at most 2 fit in an opening turn",
    )
    return TopicSpec(
        name=name,
        slots=slots,
        request_slots=request,
        confirm_slots=confirm,
        inform_slots=inform,
    )


def _parse_domain(obj: object, path: str) -> DomainSpec:
    check_object(obj, path, {"name": _IDENT, "topics": "a list"})
    name = obj["name"]
    topics = tuple(_parse_topic(t, f"{path}.topics[{i}]") for i, t in enumerate(obj["topics"]))
    _require(len(topics) >= 1, path, f"domain {name!r} has no topics")
    tnames = [t.name for t in topics]
    _require(len(set(tnames)) == len(tnames), path, f"duplicate topic names in domain {name!r}")
    return DomainSpec(name=name, topics=topics)


def load_ontology(source: str) -> Ontology:
    """Parse and validate a JSON ontology document.

    Raises a ValidationError, with the path to the offending element, for a
    malformed document or a broken invariant; never returns a partially valid
    object.
    """
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None
    check_object(doc, "$", {"domains": "a list"}, {"generation": "an object"})
    _require(len(doc["domains"]) >= 1, "$.domains", "needs at least one domain")
    domains = [_parse_domain(d, f"$.domains[{i}]") for i, d in enumerate(doc["domains"])]
    return Ontology(domains, doc.get("generation", {}))


def load_ontology_file(path) -> Ontology:
    """load_ontology on a file; its errors start with the file's path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            source = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8: {exc}") from None
    try:
        return load_ontology(source)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def preset_ontology(name: str) -> Ontology:
    """Load one of the bundled preset ontologies (simple, medium, hard)."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    text = resources.files("dialoforge.presets").joinpath(f"{name}.json").read_text("utf-8")
    return load_ontology(text)
