from __future__ import annotations

import json
import os
import tracemalloc

import pytest

from dialoforge import __version__, cli, dataset
from dialoforge.dataset import (
    dumps_dialogue, generate_dataset, read_dataset, write_dataset, write_generated,
)
from dialoforge.diagnostics import check_dialogue_invariants
from dialoforge.encoding import encode_dataset
from dialoforge.engine import (
    Dialogue, DialogueTurn, EventKind, GeneratorConfig, UserAct, dialogue_seeds,
    generate_dialogue, split_counts,
)
from dialoforge.errors import DialoforgeError, ValidationError
from dialoforge.injection import ErrorConfig, inject_errors, revert_errors
from dialoforge.ontology import PRESET_NAMES, UNK_TOKEN, IntentKind, preset_ontology

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


def test_blank_lines_in_a_split_file_are_skipped(simple_ontology, tmp_path):
    write_dataset(generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=12, seed=11)),
                  tmp_path)
    before = read_dataset(tmp_path)
    train = tmp_path / "train.jsonl"
    lines = train.read_text().splitlines(keepends=True)
    train.write_text("".join([lines[0], "\n", "  \t\n", *lines[1:]]))
    assert read_dataset(tmp_path) == before


def _dir_bytes(path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generation_is_parallel_safe(simple_ontology, tmp_path):
    cfg = GeneratorConfig(n_dialogues=16, seed=21)
    write_generated(simple_ontology, cfg, tmp_path / "serial", jobs=1)
    write_generated(simple_ontology, cfg, tmp_path / "parallel", jobs=2)
    assert _dir_bytes(tmp_path / "parallel") == _dir_bytes(tmp_path / "serial")


# The two ways to a dataset directory through the pool: the generate command,
# or a direct call to write_generated, whose workers hand back JSONL lines.
def _via_command(ontology, cfg, jobs, out) -> None:
    """The generate command on the simple preset, called past run_cli so that
    its error reaches the test."""
    assert ontology == preset_ontology("simple")
    args = cli.build_parser().parse_args([
        "generate", "--preset", "simple", "--dialogues", str(cfg.n_dialogues),
        "--seed", str(cfg.seed), "--jobs", str(jobs), "--out", str(out),
    ])
    args.func(args)


def _via_lines(ontology, cfg, jobs, out) -> None:
    write_generated(ontology, cfg, out, jobs=jobs)


def _on_both_paths(cases: dict[str, tuple]) -> list:
    """Each case through the command under its own id, then through
    write_generated under "lines-" and that id."""
    return [
        pytest.param(write, *case, id=prefix + name)
        for write, prefix in ((_via_command, ""), (_via_lines, "lines-"))
        for name, case in cases.items()
    ]


@pytest.mark.parametrize(
    "write, jobs",
    # The command parses --jobs as an int, so only the library sees 1.5 or True.
    _on_both_paths({"0": (0,), "-1": (-1,)})
    + [pytest.param(_via_lines, jobs, id=f"lines-{jobs}") for jobs in (1.5, True)],
)
def test_jobs_below_one_is_rejected(simple_ontology, tmp_path, write, jobs):
    out = tmp_path / "ds"
    with pytest.raises(ValidationError, match=f"jobs must be an int >= 1, got {jobs}$"):
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


def _spans_blocks(cfg: GeneratorConfig) -> bool:
    """Whether a generation spans more than two blocks, with no split boundary
    on a block edge, and so has a block cut short by the end of a split."""
    n_train, n_val, _ = split_counts(cfg.n_dialogues, cfg.split_fractions)
    edges = {n_train, n_train + n_val} - {0, cfg.n_dialogues}
    return (cfg.n_dialogues > 2 * dataset.BLOCK_SIZE
            and all(edge % dataset.BLOCK_SIZE for edge in edges))


def _matches_write_dataset(ontology, cfg, jobs, tmp_path, extra=None) -> None:
    graph, lines = tmp_path / "graph", tmp_path / "lines"
    write_dataset(generate_dataset(ontology, cfg), graph, manifest_extra=extra)
    sizes = write_generated(ontology, cfg, lines, jobs=jobs, manifest_extra=extra)
    assert _dir_bytes(lines) == _dir_bytes(graph)
    assert sizes == read_dataset(lines).split_sizes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_write_generated_matches_write_dataset(preset, jobs, tmp_path):
    ontology = preset_ontology(preset)
    cfg = preset_config(ontology, seed=13, n_dialogues=700)
    assert _spans_blocks(cfg)
    extra = {"subcommand": "generate", "preset": preset}
    _matches_write_dataset(ontology, cfg, jobs, tmp_path, extra)


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_empty_split_is_written_as_an_empty_file(simple_ontology, jobs, tmp_path):
    cfg = GeneratorConfig(n_dialogues=600, seed=13, split_fractions=(0.5, 0.0, 0.5))
    assert _spans_blocks(cfg)
    _matches_write_dataset(simple_ontology, cfg, jobs, tmp_path)
    assert (tmp_path / "lines" / "val.jsonl").read_bytes() == b""


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failure_in_a_later_block_names_its_dialogue(simple_ontology, tmp_path, jobs):
    # Three chit-chat turns in four make an occasional dialogue overflow the
    # turn cap; the first to do so, found here one dialogue at a time, lies
    # in the test split's first block.
    cfg = GeneratorConfig(n_dialogues=600, p_chitchat=0.75, seed=0)
    assert _spans_blocks(cfg)

    def overflows(seed: int) -> bool:
        try:
            generate_dialogue(simple_ontology, cfg, seed)
        except DialoforgeError:
            return True
        return False

    first = next(i for i, seed in enumerate(dialogue_seeds(cfg)) if overflows(seed))
    assert first > 2 * dataset.BLOCK_SIZE
    with pytest.raises(DialoforgeError, match=rf"^dialogue {first}: .*60 turns"):
        write_generated(simple_ontology, cfg, tmp_path / "ds", jobs=jobs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_write_dataset_writes_one_line_per_dialogue_in_order(preset, tmp_path):
    """write_dataset's files hold ``to_dict``'s line for each dialogue, in
    order, on clean and noisy data whose train split spans several blocks."""
    ontology = preset_ontology(preset)
    clean = generate_dataset(ontology, preset_config(ontology, seed=3, n_dialogues=500))
    assert len(clean.splits["train"]) > dataset.BLOCK_SIZE
    mixed = ErrorConfig(p_intent=0.5, p_action=0.5, p_slot=0.5, mode_weights=(0.5, 0.5), seed=4)
    noisy, records = inject_errors(clean, ontology, mixed)
    assert records
    for name, data in (("clean", clean), ("noisy", noisy)):
        write_dataset(data, tmp_path / name)
        for split, dialogues in data.splits.items():
            expected = "".join(dataset._compact(dlg.to_dict()) + "\n" for dlg in dialogues)
            assert (tmp_path / name / f"{split}.jsonl").read_text() == expected


def test_turns_that_differ_in_one_field_get_their_own_fragments():
    inform = UserAct(IntentKind.INFORM, slot="cuisine", value="thai")
    base = DialogueTurn([inform], ["restaurant-CONFIRM-cuisine"])
    turns = [
        base,
        DialogueTurn([inform], base.system_acts, EventKind.MIND_CHANGE),
        DialogueTurn([inform], base.system_acts, EventKind.DOMAIN_CHANGE),
        DialogueTurn([UserAct(IntentKind.INFORM, slot="cuisine", value="greek")], base.system_acts),
        DialogueTurn([UserAct(IntentKind.INFORM, slot="cuisine", value=None)], base.system_acts),
        DialogueTurn([UserAct.unchecked(IntentKind.UNK, None, None, "cuisine", "thai")],
                     base.system_acts),
        DialogueTurn([UserAct.unchecked(IntentKind.INFORM, None, None, UNK_TOKEN, "thai")],
                     base.system_acts),
        DialogueTurn([inform], [UNK_TOKEN]),
    ]
    lines = [dumps_dialogue(Dialogue("d", 0, [turn])) for turn in turns]
    assert lines == [dataset._compact(Dialogue("d", 0, [turn]).to_dict()) for turn in turns]
    assert len(set(lines)) == len(turns)


def test_manifest_extra_cannot_replace_a_dataset_key(simple_ontology, tmp_path):
    ds = generate_dataset(simple_ontology, GeneratorConfig(n_dialogues=2, seed=0))
    write_dataset(
        ds, tmp_path, manifest_extra={"version": "0.1.0", "subcommand": "x", "tool": "x"}
    )
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["version"], manifest["subcommand"]) == (2, "x")
    assert (manifest["tool"], manifest["tool_version"]) == ("dialoforge", __version__)
    write_dataset(ds, tmp_path / "plain")
    manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert (manifest["tool"], manifest["tool_version"]) == ("dialoforge", __version__)


def test_preset_config_helper_matches_table(hard_ontology):
    cfg = preset_config(hard_ontology, seed=0)
    assert cfg.n_dialogues == 10438
    assert split_counts(cfg.n_dialogues, cfg.split_fractions) == (8438, 1000, 1000)


@pytest.mark.parametrize("jobs", [1, 2])
def test_overflow_names_the_dialogue_on_both_paths(simple_ontology, tmp_path, jobs):
    """In this process and in a pool worker."""
    cfg = GeneratorConfig(n_dialogues=3, p_chitchat=1.0, seed=0)
    with pytest.raises(DialoforgeError, match=r"^dialogue 0: .*60 turns") as err:
        write_generated(simple_ontology, cfg, tmp_path / "ds", jobs=jobs)
    assert type(err.value) is DialoforgeError


def _write_preset(preset: str, n_dialogues: int, outdir):
    """Write a generated dataset of a preset (generator seed 0); its ontology."""
    ontology = preset_ontology(preset)
    write_generated(ontology, preset_config(ontology, seed=0, n_dialogues=n_dialogues), outdir)
    return ontology


@pytest.mark.parametrize("preset", ["simple", "hard"])
def test_a_read_dataset_holds_one_object_per_distinct_record(preset, tmp_path):
    _write_preset(preset, 300, tmp_path)
    ds = read_dataset(tmp_path)
    turns = [turn for _, dlg in ds.iter_dialogues() for turn in dlg.turns]
    acts = [act for turn in turns for act in turn.user_acts]
    labels = [label for turn in turns for label in turn.system_acts]
    for records, content in (
        (acts, lambda act: json.dumps(act.to_dict())),
        (turns, lambda turn: json.dumps(turn.to_dict())),
        (labels, str),
    ):
        distinct = {content(r) for r in records}
        assert len(distinct) < len(records)
        assert len({id(r) for r in records}) == len(distinct)


def test_the_pipeline_leaves_a_read_dataset_as_it_was(tmp_path):
    # Equal records of a read dataset are one object, so a change made
    # through any one of them would show in every dialogue that holds it.
    ontology = _write_preset("hard", 200, tmp_path)
    ds = read_dataset(tmp_path)

    def dumped(dataset):
        return [dumps_dialogue(dlg) for _, dlg in dataset.iter_dialogues()]

    clean = dumped(ds)
    cfg = ErrorConfig(p_intent=0.3, p_action=0.3, p_slot=0.3, seed=1)
    noisy, records = inject_errors(ds, ontology, cfg)
    assert records
    injected = dumped(noisy)
    assert dumped(revert_errors(noisy, records)) == clean
    encode_dataset(ds, ontology)
    encode_dataset(noisy, ontology)
    assert all(not check_dialogue_invariants(dlg, ontology) for _, dlg in ds.iter_dialogues())
    assert dumped(ds) == clean
    assert dumped(noisy) == injected


def test_reading_a_hard_dataset_stays_small_in_memory(tmp_path):
    # Each distinct act and turn is built once; at one object per record the
    # read's peak was 4.8 MB, with sharing it is 0.76 MB.
    _write_preset("hard", 2000, tmp_path)
    tracemalloc.start()
    try:
        read_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
