from __future__ import annotations

import os

import pytest

from dialoforge import dataset
from dialoforge.dataset import generate_dataset, read_dataset, write_dataset
from dialoforge.engine import GeneratorConfig, split_counts
from dialoforge.errors import GenerationOverflow, ValidationError

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


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected(simple_ontology, jobs):
    with pytest.raises(ValidationError, match="jobs must be >= 1"):
        generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=2, seed=0), jobs=jobs)


@pytest.mark.parametrize(
    "jobs, cpus, pools",
    [(5000, 3, [3]), (2, 3, [2]), (5000, None, [])],
    ids=["capped-at-cpus", "below-cpus", "cpu-count-unknown"],
)
def test_pool_starts_no_more_workers_than_cpus(simple_ontology, monkeypatch, jobs, cpus, pools):
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
    serial = generate_dataset(simple_ontology, cfg, jobs=1)
    monkeypatch.setattr(dataset, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert generate_dataset(simple_ontology, cfg, jobs=jobs).splits == serial.splits
    assert started == pools


def test_preset_config_helper_matches_table(hard_ontology):
    cfg = preset_config(hard_ontology, seed=0)
    assert cfg.n_dialogues == 10438
    assert split_counts(cfg.n_dialogues, cfg.split_fractions) == (8438, 1000, 1000)


@pytest.mark.parametrize("jobs", [1, 2])
def test_overflow_names_the_dialogue_on_both_paths(simple_ontology, jobs):
    cfg = GeneratorConfig(n_dialogues=3, p_chitchat=1.0, seed=0)
    with pytest.raises(GenerationOverflow, match=r"^dialogue 0: .*60 turns"):
        generate_dataset(simple_ontology, cfg, jobs=jobs)
