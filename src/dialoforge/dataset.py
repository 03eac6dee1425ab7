"""Dataset container, JSON-Lines serialization, and dataset generation."""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .engine import (
    Dialogue,
    GeneratorConfig,
    dialogue_seeds,
    generate_dialogue,
    split_counts,
)
from .errors import GenerationOverflow, SchemaError
from .ontology import Ontology

SPLIT_NAMES = ("train", "val", "test")


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


def generate_dataset(
    ontology: Ontology, cfg: GeneratorConfig, jobs: int = 1
) -> Dataset:
    """Generate cfg.n_dialogues dialogues and split them in generation order.

    Every dialogue owns a private seed derived from cfg.seed, so the result
    is byte-identical no matter how many worker processes are used.
    """
    tasks = [(ontology, cfg, index, seed) for index, seed in enumerate(dialogue_seeds(cfg))]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            dialogues = list(pool.map(_generate_one, tasks, chunksize=64))
    else:
        dialogues = [_generate_one(task) for task in tasks]

    n_train, n_val, n_test = split_counts(cfg.n_dialogues, cfg.split_fractions)
    splits = {
        "train": dialogues[:n_train],
        "val": dialogues[n_train : n_train + n_val],
        "test": dialogues[n_train + n_val :],
    }
    return Dataset(splits=splits, ontology_hash=ontology.content_hash(), config=cfg)


# ---------------------------------------------------------------------------
# On-disk layout: manifest.json + {train,val,test}.jsonl


def dumps_dialogue(dialogue: Dialogue) -> str:
    return json.dumps(dialogue.to_dict(), separators=(",", ":"), ensure_ascii=True)


def write_dataset(dataset: Dataset, outdir, manifest_extra: Optional[dict] = None) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for split in SPLIT_NAMES:
        lines = [dumps_dialogue(d) for d in dataset.splits.get(split, [])]
        (out / f"{split}.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    manifest = {
        "format": "dialoforge-dataset",
        "version": 1,
        "ontology_hash": dataset.ontology_hash,
        "config": dataset.config.to_dict(),
        "seed": dataset.config.seed,
        "splits": dataset.split_sizes(),
        "n_dialogues": dataset.n_dialogues,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_dataset(indir) -> Dataset:
    path = Path(indir)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise SchemaError(f"no manifest.json in {path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format") != "dialoforge-dataset":
        raise SchemaError(f"{manifest_path}: not a dataset manifest")
    splits: dict[str, list[Dialogue]] = {}
    for split in SPLIT_NAMES:
        fp = path / f"{split}.jsonl"
        dialogues = []
        if fp.exists():
            for line in fp.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    dialogues.append(Dialogue.from_dict(json.loads(line)))
        splits[split] = dialogues
    return Dataset(
        splits=splits,
        ontology_hash=manifest["ontology_hash"],
        config=GeneratorConfig.from_dict(manifest["config"]),
    )
