from __future__ import annotations

import os

import pytest

from dialoforge import dataset
from dialoforge.dataset import generate_dataset, read_dataset, write_dataset, write_generated
from dialoforge.engine import GeneratorConfig, split_counts
from dialoforge.errors import GenerationOverflow, ValidationError
from dialoforge.ontology import PRESET_NAMES, preset_ontology

from .conftest import preset_config


def test_split_counts_simple_defaults():
    assert split_counts(2000, (0.6, 0.2, 0.2)) == (1200, 400, 400)


def test_split_counts_hard_defaults():
    fr = (8438 / 10438, 1000 / 10438, 1000 / 10438)
    assert split_counts(10438, fr) == (8438, 1000, 1000)


def test_split_counts_degenerate_single_dialogue():
    assert split_counts(1, (0.6, 0.2, 0.2)) == (1, 0, 0)


def test_generate_dataset_sizes(simple_ontology):
    cfg = GeneratorConfig(n_dialogues=10, seed=3)
    ds = generate_dataset(simple_ontology, cfg)
    assert ds.split_sizes() == {"train": 6, "val": 2, "test": 2}
    assert ds.n_dialogues == 10


def test_dataset_round_trip_bytes(simple_ontology, tmp_path):
    cfg = GeneratorConfig(n_dialogues=12, seed=11)
    ds = generate_dataset(simple_ontology, cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(ds, d1)
    loaded = read_dataset(d1)
    write_dataset(loaded, d2)
    for name in ("manifest.json", "train.jsonl", "val.jsonl", "test.jsonl"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_generation_is_parallel_safe(simple_ontology, tmp_path):
    cfg = GeneratorConfig(n_dialogues=16, seed=21)
    serial = generate_dataset(simple_ontology, cfg, jobs=1)
    parallel = generate_dataset(simple_ontology, cfg, jobs=2)
    d1, d2 = tmp_path / "serial", tmp_path / "parallel"
    write_dataset(serial, d1)
    write_dataset(parallel, d2)
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _dir_bytes(path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# The two ways to a dataset directory: the dialogue graph, then write_dataset;
# or write_generated, whose workers hand back JSONL lines.
def _via_graph(ontology, cfg, jobs, out) -> None:
    write_dataset(generate_dataset(ontology, cfg, jobs=jobs), out)


def _via_lines(ontology, cfg, jobs, out) -> None:
    write_generated(ontology, cfg, out, jobs=jobs)


def _on_both_paths(cases: dict[str, tuple]) -> list:
    """Each case through the graph under its own id, then through the lines
    under "lines-" and that id."""
    return [
        pytest.param(write, *case, id=prefix + name)
        for write, prefix in ((_via_graph, ""), (_via_lines, "lines-"))
        for name, case in cases.items()
    ]


@pytest.mark.parametrize("write, jobs", _on_both_paths({"0": (0,), "-1": (-1,)}))
def test_jobs_below_one_is_rejected(simple_ontology, tmp_path, write, jobs):
    out = tmp_path / "ds"
    with pytest.raises(ValidationError, match="jobs must be >= 1"):
        write(simple_ontology, GeneratorConfig(n_dialogues=2, seed=0), jobs, out)
    assert not out.exists()


@pytest.mark.parametrize(
    "write, jobs, cpus, pools",
    _on_both_paths({
        "capped-at-cpus": (5000, 3, [3]),
        "below-cpus": (2, 3, [2]),
        "cpu-count-unknown": (5000, None, []),
    }),
)
def test_pool_starts_no_more_workers_than_cpus(
    simple_ontology, tmp_path, monkeypatch, write, jobs, cpus, pools
):
    started = []

    class SerialPool:  # records the pool size and maps in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    cfg = GeneratorConfig(n_dialogues=6, seed=5)
    write(simple_ontology, cfg, 1, tmp_path / "serial")
    monkeypatch.setattr(dataset, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    write(simple_ontology, cfg, jobs, tmp_path / "pooled")
    assert _dir_bytes(tmp_path / "pooled") == _dir_bytes(tmp_path / "serial")
    assert started == pools


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_write_generated_matches_write_dataset(preset, jobs, tmp_path):
    ontology = preset_ontology(preset)
    cfg = preset_config(ontology, seed=13, n_dialogues=60)
    extra = {"subcommand": "generate", "preset": preset}
    graph, lines = tmp_path / "graph", tmp_path / "lines"
    write_dataset(generate_dataset(ontology, cfg), graph, manifest_extra=extra)
    sizes = write_generated(ontology, cfg, lines, jobs=jobs, manifest_extra=extra)
    assert _dir_bytes(lines) == _dir_bytes(graph)
    assert sizes == read_dataset(lines).split_sizes()


def test_preset_config_helper_matches_table(hard_ontology):
    cfg = preset_config(hard_ontology, seed=0)
    assert cfg.n_dialogues == 10438
    assert split_counts(cfg.n_dialogues, cfg.split_fractions) == (8438, 1000, 1000)


@pytest.mark.parametrize("jobs", [1, 2])
def test_overflow_names_the_dialogue_on_both_paths(simple_ontology, jobs):
    cfg = GeneratorConfig(n_dialogues=3, p_chitchat=1.0, seed=0)
    with pytest.raises(GenerationOverflow, match=r"^dialogue 0: .*60 turns"):
        generate_dataset(simple_ontology, cfg, jobs=jobs)
