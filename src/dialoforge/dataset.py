"""Dataset container, dataset generation, and the JSON / JSON-Lines readers
and writers every on-disk record goes through."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

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


def _generate_one(args) -> Dialogue:
    ontology, cfg, index, seed = args
    try:
        return generate_dialogue(ontology, cfg, seed, f"dlg{index:06d}")
    except DialoforgeError as exc:
        # Raised inside the worker, so both the serial and the pool path name
        # the failing dialogue.
        raise type(exc)(f"dialogue {index}: {exc}") from None


def _generate_line(args) -> str:
    return dumps_dialogue(_generate_one(args)) + "\n"


def _generated(
    ontology: Ontology, cfg: GeneratorConfig, jobs: int, work: Callable[[tuple], T]
) -> dict[str, list[T]]:
    """``work`` applied to every dialogue's task, split in generation order.

    Every dialogue owns a private seed derived from cfg.seed, so the result
    is byte-identical no matter how many worker processes are used.  The pool
    starts no more workers than there are CPUs, and ``work`` must be a
    module-level function so that it can be sent to them.
    """
    check_setting("jobs", jobs, "an int >= 1")
    tasks = [(ontology, cfg, index, seed) for index, seed in enumerate(dialogue_seeds(cfg))]
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            items = list(pool.map(work, tasks, chunksize=64))
    else:
        items = [work(task) for task in tasks]

    n_train, n_val, _ = split_counts(cfg.n_dialogues, cfg.split_fractions)
    return {
        "train": items[:n_train],
        "val": items[n_train : n_train + n_val],
        "test": items[n_train + n_val :],
    }


def generate_dataset(ontology: Ontology, cfg: GeneratorConfig) -> Dataset:
    """Generate cfg.n_dialogues dialogues in this process and split them in
    generation order; only ``write_generated`` pools, so no ``Dialogue`` is pickled."""
    splits = _generated(ontology, cfg, 1, _generate_one)
    return Dataset(splits=splits, ontology_hash=ontology.content_hash(), config=cfg)


# ---------------------------------------------------------------------------
# Text formats: one writer and one reader each for JSON and JSON Lines


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


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def _write_lines(path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_jsonl(path, dicts: Iterable[dict]) -> None:
    """One compact JSON object per line."""
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


def dumps_dialogue(dialogue: Dialogue) -> str:
    return _compact(dialogue.to_dict())


def _write_manifest(
    out: Path,
    ontology_hash: str,
    config: GeneratorConfig,
    sizes: dict[str, int],
    manifest_extra: Optional[dict],
) -> None:
    manifest = {
        "format": "dialoforge-dataset",
        "version": FORMAT_VERSION,
        "ontology_hash": ontology_hash,
        "config": asdict(config),
        "seed": config.seed,
        "splits": sizes,
        "n_dialogues": sum(sizes.values()),
    }
    # An extra key never replaces one of the dataset's own.
    write_json(out / "manifest.json", {**(manifest_extra or {}), **manifest})


def write_dataset(dataset: Dataset, outdir, manifest_extra: Optional[dict] = None) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for split in SPLIT_NAMES:
        write_jsonl(out / f"{split}.jsonl", (d.to_dict() for d in dataset.splits.get(split, [])))
    _write_manifest(
        out, dataset.ontology_hash, dataset.config, dataset.split_sizes(), manifest_extra
    )


def write_generated(
    ontology: Ontology,
    cfg: GeneratorConfig,
    outdir,
    jobs: int = 1,
    manifest_extra: Optional[dict] = None,
) -> dict[str, int]:
    """Generate a dataset straight into ``outdir`` and return its split sizes.

    The same files as ``write_dataset(generate_dataset(...))``, but each
    task hands back its dialogue as a JSONL line, so no ``Dialogue`` crosses a
    process boundary and none outlives its line.  Every line exists before
    ``outdir`` or any file is created, so a failed generation writes nothing.
    """
    splits = _generated(ontology, cfg, jobs, _generate_line)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for split, lines in splits.items():
        _write_lines(out / f"{split}.jsonl", lines)
    sizes = {split: len(lines) for split, lines in splits.items()}
    _write_manifest(out, ontology.content_hash(), cfg, sizes, manifest_extra)
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
        config = GeneratorConfig.from_dict(manifest["config"])
    except ValidationError as exc:
        raise ValidationError(f"{where}.config: {exc}") from None
    if manifest["seed"] != config.seed:
        raise ValidationError(f"{where}.seed: {manifest['seed']} differs from config.seed")
    claimed = check_object(manifest["splits"], f"{where}.splits", _SPLITS_KEYS)
    splits: dict[str, list[Dialogue]] = {}
    for split in SPLIT_NAMES:
        fp = path / f"{split}.jsonl"
        splits[split] = read_jsonl(fp, Dialogue.from_dict) if fp.exists() else []
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
