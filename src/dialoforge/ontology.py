"""Symbolic vocabulary of a dataset: domains, topics, slots, intents, actions.

An ontology is loaded from a JSON document (see ``load_ontology``), validated
eagerly, and is immutable afterwards, so instances are safe to share across
worker processes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import ClassVar, Iterable, Optional

from .errors import SchemaError, ValidationError

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

    @property
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

    def slot(self, name: str) -> Optional[SlotSpec]:
        for s in self.slots:
            if s.name == name:
                return s
        return None

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)

    def mandatory_slots(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots if s.category is SlotCategory.MANDATORY)

    def desired_slots(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots if s.category is SlotCategory.DESIRED)

    def unrequestable_mandatory(self) -> tuple[str, ...]:
        """Mandatory slots the policy cannot ask for; the user must volunteer them."""
        return tuple(s for s in self.mandatory_slots() if s not in self.request_slots)


@dataclass(frozen=True)
class DomainSpec:
    name: str
    topics: tuple[TopicSpec, ...]

    def topic(self, name: str) -> Optional[TopicSpec]:
        for t in self.topics:
            if t.name == name:
                return t
        return None


@dataclass(frozen=True)
class Ontology:
    domains: tuple[DomainSpec, ...]
    generation_defaults: dict = field(default_factory=dict, compare=False)
    intent_catalog: ClassVar[tuple[str, ...]] = INTENT_CATALOG
    # Derived from the domains: the sorted atomic action ids.
    action_catalog: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "action_catalog", tuple(_atomic_actions(self.domains)))

    def domain(self, name: str) -> Optional[DomainSpec]:
        for d in self.domains:
            if d.name == name:
                return d
        return None

    def topic(self, domain: str, topic: str) -> Optional[TopicSpec]:
        d = self.domain(domain)
        return d.topic(topic) if d else None

    def topic_pairs(self) -> list[tuple[str, str]]:
        return [(d.name, t.name) for d in self.domains for t in d.topics]

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


def _check_ident(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected string, got {type(value).__name__}")
    if not IDENT_RE.match(value):
        raise ValidationError(
            f"{path}: identifier {value!r} must match [a-z0-9_]{{1,32}}"
        )
    return value


def _expect_keys(obj: dict, path: str, required: Iterable[str], optional: Iterable[str] = ()) -> None:
    req, opt = set(required), set(optional)
    missing = req - obj.keys()
    if missing:
        raise SchemaError(f"{path}: missing key(s) {sorted(missing)}")
    unknown = obj.keys() - req - opt
    if unknown:
        raise SchemaError(f"{path}: unknown key(s) {sorted(unknown)}")


def _expect_int(value: object, path: str) -> None:
    """A JSON integer: an int that is not a bool, which Python counts as one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: must be an integer, got {value!r}")


def _parse_slot(obj: object, path: str) -> SlotSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: slot must be an object")
    _expect_keys(obj, path, ("name", "category", "values"))
    name = _check_ident(obj["name"], f"{path}.name")
    try:
        category = SlotCategory(obj["category"])
    except (ValueError, TypeError):
        raise SchemaError(
            f"{path}.category: must be one of mandatory/desired/optional"
        ) from None
    values = obj["values"]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise SchemaError(f"{path}.values: must be a list of strings")
    _require(len(values) >= 1, f"{path}.values", "needs at least one value")
    _require(len(set(values)) == len(values), f"{path}.values", "values must be unique")
    for i, v in enumerate(values):
        _check_ident(v, f"{path}.values[{i}]")
    return SlotSpec(name=name, category=category, values=tuple(values))


def _parse_emit_list(obj: dict, key: str, path: str) -> Optional[frozenset[str]]:
    if key not in obj:
        return None
    lst = obj[key]
    if not isinstance(lst, list) or not all(isinstance(v, str) for v in lst):
        raise SchemaError(f"{path}.{key}: must be a list of slot names")
    return frozenset(lst)


def _parse_topic(obj: object, path: str) -> TopicSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: topic must be an object")
    _expect_keys(obj, path, ("name", "slots"), ("emit",))
    name = _check_ident(obj["name"], f"{path}.name")
    raw_slots = obj["slots"]
    if not isinstance(raw_slots, list):
        raise SchemaError(f"{path}.slots: must be a list")
    slots = tuple(_parse_slot(s, f"{path}.slots[{i}]") for i, s in enumerate(raw_slots))
    _require(len(slots) >= 1, path, f"topic {name!r} has no slots")
    names = [s.name for s in slots]
    _require(len(set(names)) == len(names), path, f"duplicate slot names in topic {name!r}")

    by_cat = {
        s.name: s.category for s in slots
    }
    mandatory = [s.name for s in slots if s.category is SlotCategory.MANDATORY]
    _require(bool(mandatory), path, f"topic {name!r} has no mandatory slot")

    emit = obj.get("emit", {})
    if not isinstance(emit, dict):
        raise SchemaError(f"{path}.emit: must be an object")
    _expect_keys(emit, f"{path}.emit", (), ("request", "confirm", "inform"))
    request = _parse_emit_list(emit, "request", f"{path}.emit")
    confirm = _parse_emit_list(emit, "confirm", f"{path}.emit") or frozenset()
    inform = _parse_emit_list(emit, "inform", f"{path}.emit") or frozenset()
    if request is None:
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
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: domain must be an object")
    _expect_keys(obj, path, ("name", "topics"))
    name = _check_ident(obj["name"], f"{path}.name")
    raw = obj["topics"]
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.topics: must be a list")
    topics = tuple(_parse_topic(t, f"{path}.topics[{i}]") for i, t in enumerate(raw))
    _require(len(topics) >= 1, path, f"domain {name!r} has no topics")
    tnames = [t.name for t in topics]
    _require(len(set(tnames)) == len(tnames), path, f"duplicate topic names in domain {name!r}")
    return DomainSpec(name=name, topics=topics)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_generation(obj: object) -> dict:
    """Check the generation defaults; the dict itself is kept as written."""
    path = "$.generation"
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: must be an object")
    _expect_keys(obj, path, (), ("n_dialogues", "split"))
    if "n_dialogues" in obj and not (_is_count(obj["n_dialogues"]) and obj["n_dialogues"] > 0):
        raise ValidationError(f"{path}.n_dialogues: must be a positive integer")
    split = obj.get("split")
    if "split" in obj and not (
        isinstance(split, list) and len(split) == 3 and all(map(_is_count, split)) and sum(split) > 0
    ):
        raise ValidationError(f"{path}.split: must be three non-negative integers with a positive sum")
    return obj


def build_ontology(domains: Iterable[DomainSpec], generation_defaults: Optional[dict] = None) -> Ontology:
    """Assemble an ontology from parsed domains with unique names."""
    domains = tuple(domains)
    names = [d.name for d in domains]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate domain names")
    return Ontology(domains=domains, generation_defaults=generation_defaults or {})


def load_ontology(source: str) -> Ontology:
    """Parse and validate a JSON ontology document.

    Raises SchemaError for malformed documents and ValidationError (with a
    path to the offending element) for invariant violations; never returns a
    partially valid object.
    """
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    _expect_keys(doc, "$", ("domains",), ("generation",))
    raw = doc["domains"]
    if not isinstance(raw, list):
        raise SchemaError("$.domains: must be a list")
    _require(len(raw) >= 1, "$.domains", "needs at least one domain")
    domains = [_parse_domain(d, f"$.domains[{i}]") for i, d in enumerate(raw)]
    return build_ontology(domains, _parse_generation(doc.get("generation", {})))


def load_ontology_file(path) -> Ontology:
    """load_ontology on a file; its errors start with the file's path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            source = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8: {exc}") from None
    try:
        return load_ontology(source)
    except (SchemaError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def preset_ontology(name: str) -> Ontology:
    """Load one of the bundled preset ontologies (simple, medium, hard)."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    text = resources.files("dialoforge.presets").joinpath(f"{name}.json").read_text("utf-8")
    return load_ontology(text)
