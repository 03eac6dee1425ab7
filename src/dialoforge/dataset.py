"""Dataset container, dataset generation, and the JSON / JSON-Lines readers
and writers every on-disk record goes through."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .engine import (
    Dialogue,
    GeneratorConfig,
    dialogue_seeds,
    generate_dialogue,
    split_counts,
)
from .errors import DialoforgeError, GenerationOverflow, SchemaError, ValidationError
from .ontology import Ontology, _expect_int, _expect_keys

SPLIT_NAMES = ("train", "val", "test")

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
    except GenerationOverflow as exc:
        # Raised inside the worker, so both the serial and the pool path name
        # the failing dialogue.
        raise GenerationOverflow(f"dialogue {index}: {exc}") from None


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
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
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


def generate_dataset(
    ontology: Ontology, cfg: GeneratorConfig, jobs: int = 1
) -> Dataset:
    """Generate cfg.n_dialogues dialogues and split them in generation order."""
    splits = _generated(ontology, cfg, jobs, _generate_one)
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
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc}") from None


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
                    raise SchemaError(f"{path}:{lineno}: missing key {exc}") from None
                except (ValueError, TypeError, AttributeError) as exc:  # incl. bad JSON
                    raise SchemaError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            # Raised by the line iterator, which decodes in blocks, so the
            # line number and the byte offset are not known here.
            raise SchemaError(f"{path}: not UTF-8: {exc.reason}") from None
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
        "version": 1,
        "ontology_hash": ontology_hash,
        "config": asdict(config),
        "seed": config.seed,
        "splits": sizes,
        "n_dialogues": sum(sizes.values()),
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    write_json(out / "manifest.json", manifest)


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


def read_dataset(indir) -> Dataset:
    path = Path(indir)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise SchemaError(f"no manifest.json in {path}")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format") != "dialoforge-dataset":
        raise SchemaError(f"{manifest_path}: not a dataset manifest")
    missing = [
        key for key in ("ontology_hash", "config", "seed", "splits", "n_dialogues")
        if key not in manifest
    ]
    if missing:
        raise SchemaError(f"{manifest_path}: missing field(s) {missing}")
    for key in ("seed", "n_dialogues"):
        _expect_int(manifest[key], f"{manifest_path}: {key}")
    raw_config = manifest["config"]
    if not isinstance(raw_config, dict):
        raise SchemaError(f"{manifest_path}: config: must be an object")
    _expect_keys(raw_config, f"{manifest_path}: config", [f.name for f in fields(GeneratorConfig)])
    try:
        config = GeneratorConfig.from_dict(raw_config)
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: config: {exc}") from None
    except TypeError as exc:  # a value of the wrong type
        raise SchemaError(f"{manifest_path}: config: {exc}") from None
    if manifest["seed"] != config.seed:
        raise SchemaError(
            f"{manifest_path}: seed {manifest['seed']!r} differs from config.seed {config.seed}"
        )
    claimed = manifest["splits"]
    if not isinstance(claimed, dict) or claimed.keys() != set(SPLIT_NAMES):
        raise SchemaError(f"{manifest_path}: splits: must map {list(SPLIT_NAMES)} to counts")
    for split in SPLIT_NAMES:
        _expect_int(claimed[split], f"{manifest_path}: splits.{split}")
    splits: dict[str, list[Dialogue]] = {}
    for split in SPLIT_NAMES:
        fp = path / f"{split}.jsonl"
        splits[split] = read_jsonl(fp, Dialogue.from_dict) if fp.exists() else []
        if claimed[split] != len(splits[split]):
            raise SchemaError(
                f"{manifest_path}: splits.{split} is {claimed[split]!r}, "
                f"but {fp} holds {len(splits[split])} dialogues"
            )
    dataset = Dataset(splits=splits, ontology_hash=manifest["ontology_hash"], config=config)
    if manifest["n_dialogues"] != dataset.n_dialogues:
        raise SchemaError(
            f"{manifest_path}: n_dialogues is {manifest['n_dialogues']!r}, "
            f"but the split files hold {dataset.n_dialogues}"
        )
    return dataset
