"""Dataset container, dataset generation, and the JSON / JSON-Lines readers
and writers every on-disk record goes through."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from . import __version__
from .engine import (
    Dialogue,
    GeneratorConfig,
    dialogue_seeds,
    generate_dialogue,
    split_counts,
)
from .errors import DialoforgeError, ValidationError
from .ontology import Ontology, check_object, check_setting

SPLIT_NAMES = ("train", "val", "test")
FORMAT_VERSION = 2  # of a dataset's manifest.json; read_dataset accepts no other

T = TypeVar("T")


@dataclass
class Dataset:
    splits: dict[str, list[Dialogue]]
    ontology_hash: str
    config: GeneratorConfig

    @property
    def n_dialogues(self) -> int:
        return sum(len(v) for v in self.splits.values())

    def iter_dialogues(self) -> Iterator[tuple[str, Dialogue]]:
        """All dialogues in (train, val, test) order with their split name."""
        for split in SPLIT_NAMES:
            for dlg in self.splits.get(split, []):
                yield split, dlg

    def split_sizes(self) -> dict[str, int]:
        return {s: len(self.splits.get(s, [])) for s in SPLIT_NAMES}

    def n_turns(self, split: Optional[str] = None) -> int:
        names = [split] if split else list(SPLIT_NAMES)
        return sum(len(d.turns) for s in names for d in self.splits.get(s, []))


# Dialogues per task of ``_generated``; a constant, so a dataset's bytes and its
# blocks never depend on how it was asked for.
BLOCK_SIZE = 256


def _block_dialogues(task) -> Iterator[Dialogue]:
    ontology, cfg, first, seeds = task
    for index, seed in enumerate(seeds, first):
        try:
            yield generate_dialogue(ontology, cfg, seed, f"dlg{index:06d}")
        except DialoforgeError as exc:
            # Raised inside the task, so both the serial and the pool path name
            # the failing dialogue.
            raise type(exc)(f"dialogue {index}: {exc}") from None


def _write_block(task) -> str:
    """The block's JSONL text."""
    return "".join(_dialogue_lines(_block_dialogues(task)))


def _generated(
    ontology: Ontology, cfg: GeneratorConfig, jobs: int, work: Callable[[tuple], T]
) -> dict[str, list[T]]:
    """``work`` applied to every block of dialogues, by split in generation order.

    A block is a run of at most ``BLOCK_SIZE`` consecutive dialogue indices
    within one split, so each split's results are whole blocks.  Every
    dialogue owns a private seed derived from cfg.seed, so the result is
    byte-identical no matter how many worker processes are used.  The pool
    starts no more workers than there are CPUs, and ``work`` must be a
    module-level function so that it can be sent to them.
    """
    check_setting("jobs", jobs, "an int >= 1")
    seeds = dialogue_seeds(cfg)
    tasks, owners = [], []
    start = 0
    for split, size in zip(SPLIT_NAMES, split_counts(cfg.n_dialogues, cfg.split_fractions)):
        stop = start + size
        for first in range(start, stop, BLOCK_SIZE):
            tasks.append((ontology, cfg, first, seeds[first : min(first + BLOCK_SIZE, stop)]))
            owners.append(split)
        start = stop
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, tasks))
    else:
        results = [work(task) for task in tasks]

    splits: dict[str, list[T]] = {split: [] for split in SPLIT_NAMES}
    for split, result in zip(owners, results):
        splits[split].append(result)
    return splits


def generate_dataset(ontology: Ontology, cfg: GeneratorConfig) -> Dataset:
    """Generate cfg.n_dialogues dialogues in this process and split them in
    generation order; only ``write_generated`` pools, so no ``Dialogue`` is pickled."""
    blocks = _generated(ontology, cfg, 1, _block_dialogues)
    splits = {split: [dlg for block in runs for dlg in block] for split, runs in blocks.items()}
    return Dataset(splits=splits, ontology_hash=ontology.content_hash(), config=cfg)


# ---------------------------------------------------------------------------
# Text formats: JSON and JSON Lines


def write_json(path, obj) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: {exc}") from None


# One JSON text per object, with no whitespace.  json.dumps would build an
# encoder on every call; this one is built once and writes the same bytes.
_compact = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode


def _write_lines(path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_jsonl(path, dicts: Iterable[dict]) -> None:
    """One compact JSON object per line; only the perturbation log is written so."""
    _write_lines(path, (_compact(d) + "\n" for d in dicts))


def read_jsonl(path, parse: Callable[[dict], T]) -> list[T]:
    """Parse every non-blank line; a bad record names its file and line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    out.append(parse(json.loads(line)))
                except DialoforgeError as exc:
                    raise type(exc)(f"{path}:{lineno}: {exc}") from None
                except KeyError as exc:
                    raise ValidationError(f"{path}:{lineno}: missing key {exc}") from None
                except (ValueError, TypeError, AttributeError) as exc:  # incl. bad JSON
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            # Raised by the line iterator, which decodes in blocks, so the
            # line number and the byte offset are not known here.
            raise ValidationError(f"{path}: not UTF-8: {exc.reason}") from None
    return out


# ---------------------------------------------------------------------------
# On-disk layout: manifest.json + {train,val,test}.jsonl


def dumps_dialogue(dialogue: Dialogue, memo: Optional[dict] = None) -> str:
    """The one maker of a dataset line, ``_compact(dialogue.to_dict())``, from
    a JSON fragment per turn.  Dialogues that share ``memo`` serialize each
    distinct turn once: it maps a turn's fields to its fragment."""
    memo = {} if memo is None else memo
    fragments = []
    for turn in dialogue.turns:
        # The key holds every field ``DialogueTurn.to_dict`` writes.
        acts = tuple([(a.kind.value, a.domain, a.topic, a.slot, a.value) for a in turn.user_acts])
        key = (acts, tuple(turn.system_acts), turn.event)
        fragment = memo.get(key)
        if fragment is None:
            fragment = memo[key] = _compact(turn.to_dict())
        fragments.append(fragment)
    return (
        f'{{"id":{_compact(dialogue.id)},"seed":{_compact(dialogue.seed)},'
        f'"turns":[{",".join(fragments)}],"events_log":{_compact(dialogue._events_dicts())}}}'
    )


def _dialogue_lines(dialogues: Iterable[Dialogue]) -> Iterator[str]:
    """The JSONL lines of a split's dialogues, or of a block of them.  The
    dialogues of a block share one fragment memo; a memo per split would
    hold several MB on hard, while a block's holds a few hundred fragments."""
    for index, dlg in enumerate(dialogues):
        if index % BLOCK_SIZE == 0:
            memo: dict = {}
        yield dumps_dialogue(dlg, memo) + "\n"


def write_manifest(outdir, payload: dict) -> None:
    """The one writer of a ``manifest.json``: ``payload`` under the header
    that names the tool and its version, which no payload key replaces."""
    write_json(
        Path(outdir) / "manifest.json",
        {**payload, "tool": "dialoforge", "tool_version": __version__},
    )


def _write_splits(
    outdir, lines: dict[str, Iterable[str]], ontology_hash: str, config: GeneratorConfig,
    sizes: dict[str, int], extra: Optional[dict],
) -> None:
    """The one writer of a dataset directory: each split's JSONL ``lines``,
    then ``manifest.json``, in which no ``extra`` key replaces a dataset key."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for split in SPLIT_NAMES:
        _write_lines(out / f"{split}.jsonl", lines[split])
    write_manifest(out, {
        **(extra or {}),
        "format": "dialoforge-dataset",
        "version": FORMAT_VERSION,
        "ontology_hash": ontology_hash,
        "config": asdict(config),
        "seed": config.seed,
        "splits": sizes,
        "n_dialogues": sum(sizes.values()),
    })


def write_dataset(dataset: Dataset, outdir, manifest_extra: Optional[dict] = None) -> None:
    """Write ``dataset`` into ``outdir`` in the bytes ``write_generated`` writes."""
    lines = {split: _dialogue_lines(dataset.splits.get(split, [])) for split in SPLIT_NAMES}
    _write_splits(outdir, lines, dataset.ontology_hash, dataset.config, dataset.split_sizes(),
                  manifest_extra)


def write_generated(
    ontology: Ontology,
    cfg: GeneratorConfig,
    outdir,
    jobs: int = 1,
    manifest_extra: Optional[dict] = None,
) -> dict[str, int]:
    """Generate a dataset straight into ``outdir`` and return its split sizes.

    The same files as ``write_dataset(generate_dataset(...))``, but each
    block of dialogues comes back as one JSONL text (``_write_block``), so no
    ``Dialogue`` crosses a process boundary and none outlives its block.
    Every text exists before ``outdir`` or any file is created, so a failed
    generation writes nothing.
    """
    texts = _generated(ontology, cfg, jobs, _write_block)
    sizes = dict(zip(SPLIT_NAMES, split_counts(cfg.n_dialogues, cfg.split_fractions)))
    _write_splits(outdir, texts, ontology.content_hash(), cfg, sizes, manifest_extra)
    return sizes


# Key tables of a dataset manifest; other keys (the tool's name and version, an
# injection's settings) may ride along at its top level only.
_MANIFEST_KEYS = {
    "format": "a string", "version": "an int", "ontology_hash": "a string", "config": "an object",
    "seed": "an int", "splits": "an object", "n_dialogues": "an int",
}
_SPLITS_KEYS = dict.fromkeys(SPLIT_NAMES, "an int")


def read_dataset(indir) -> Dataset:
    path = Path(indir)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"no manifest.json in {path}")
    where = f"{manifest_path}: $"
    manifest = check_object(read_json(manifest_path), where, _MANIFEST_KEYS, extra=True)
    if manifest["format"] != "dialoforge-dataset":
        raise ValidationError(f"{where}.format: {manifest['format']!r} is not 'dialoforge-dataset'")
    if manifest["version"] != FORMAT_VERSION:
        raise ValidationError(
            f"{where}.version: format version {manifest['version']} is not {FORMAT_VERSION}"
        )
    check_object(manifest["config"], f"{where}.config", GeneratorConfig.RULES)
    try:
        config = GeneratorConfig(**manifest["config"])
    except ValidationError as exc:
        raise ValidationError(f"{where}.config: {exc}") from None
    if manifest["seed"] != config.seed:
        raise ValidationError(f"{where}.seed: {manifest['seed']} differs from config.seed")
    claimed = check_object(manifest["splits"], f"{where}.splits", _SPLITS_KEYS)
    # One memo per read: the splits share their records, and no two reads do.
    parse = partial(Dialogue.from_dict, memo={})
    splits: dict[str, list[Dialogue]] = {}
    for split in SPLIT_NAMES:
        fp = path / f"{split}.jsonl"
        splits[split] = read_jsonl(fp, parse) if fp.exists() else []
        if claimed[split] != len(splits[split]):
            raise ValidationError(
                f"{where}.splits.{split}: {claimed[split]} differs from the "
                f"{len(splits[split])} dialogues in {fp}"
            )
    dataset = Dataset(splits=splits, ontology_hash=manifest["ontology_hash"], config=config)
    if manifest["n_dialogues"] != dataset.n_dialogues:
        raise ValidationError(
            f"{where}.n_dialogues: {manifest['n_dialogues']} differs from the "
            f"{dataset.n_dialogues} dialogues in the split files"
        )
    sizes = [claimed[split] for split in SPLIT_NAMES]
    expected = list(split_counts(config.n_dialogues, config.split_fractions))
    if sizes != expected:
        raise ValidationError(
            f"{where}.config: n_dialogues {config.n_dialogues} and split_fractions "
            f"{list(config.split_fractions)} give split sizes {expected}, but splits holds {sizes}"
        )
    return dataset
