from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dialoforge import __version__, cli, engine
from dialoforge.cli import run_cli
from dialoforge.encoding import read_encoded
from dialoforge.errors import DialoforgeError, ValidationError
from dialoforge.harness import load_model

from .conftest import MINI_DOC


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def tiny_dataset(tmp_path):
    out = tmp_path / "ds"
    code = run_cli(
        ["generate", "--preset", "simple", "--dialogues", "40", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    return out


def test_validate_ok(tmp_path):
    f = tmp_path / "ont.json"
    f.write_text(json.dumps(MINI_DOC))
    assert run_cli(["validate", str(f)]) == 0


def test_validate_rejects_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"domains": []}')
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    for path in (f, broken):
        assert run_cli(["validate", str(path)]) == 1
        assert str(path) in capsys.readouterr().err
    assert run_cli(["generate", "--ontology", str(f), "--out", str(tmp_path / "ds")]) == 1
    assert "$.domains" in capsys.readouterr().err


def test_usage_error_exits_64():
    assert run_cli(["generate"]) == 64  # missing --out
    assert run_cli(["frobnicate"]) == 64


def test_generate_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--preset", "simple", "--dialogues", "30", "--seed", "7"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_generate_jobs_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--preset", "simple", "--dialogues", "30", "--seed", "9"]
    assert run_cli(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert run_cli(args + ["--jobs", "2", "--out", str(b)]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_generate_rejects_jobs_below_one(tmp_path, capsys):
    out = tmp_path / "ds"
    assert run_cli(["generate", "--preset", "simple", "--jobs", "0", "--out", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_generation_writes_nothing(jobs, tmp_path, capsys):
    out = tmp_path / "ds"
    argv = ["generate", "--preset", "simple", "--p-chitchat", "1.0", "--dialogues", "3",
            "--jobs", jobs, "--out", str(out)]
    assert run_cli(argv) == 2
    assert "dialogue 0" in capsys.readouterr().err
    assert not out.exists()


def test_empty_system_response_exits_2_and_names_the_dialogue(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "step_policy", lambda stack, user_acts: [])
    out = tmp_path / "ds"
    assert run_cli(["generate", "--preset", "simple", "--dialogues", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dialogue 0: engine produced an empty system response" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_env_seed_overrides_flag(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--preset", "simple", "--dialogues", "10", "--out"]
    os.environ["DIALOFORGE_SEED"] = "555"
    try:
        assert run_cli(["generate", "--preset", "simple", "--dialogues", "10",
                        "--seed", "1", "--out", str(a)]) == 0
    finally:
        del os.environ["DIALOFORGE_SEED"]
    assert run_cli(["generate", "--preset", "simple", "--dialogues", "10",
                    "--seed", "555", "--out", str(b)]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_generate_manifest_reports_table_splits(tmp_path):
    out = tmp_path / "hardlike"
    assert run_cli(["generate", "--preset", "simple", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_dialogues"] == 2000
    assert manifest["splits"] == {"train": 1200, "val": 400, "test": 400}
    assert (manifest["version"], manifest["tool_version"]) == (2, __version__)


def test_inject_encode_train_eval_pipeline(tiny_dataset, tmp_path, capsys):
    noisy = tmp_path / "noisy"
    assert run_cli(
        ["inject", "--in", str(tiny_dataset), "--p-intent", "0.2", "--p-action", "0.2",
         "--p-slot", "0.2", "--seed", "5", "--out", str(noisy)]
    ) == 0
    assert (noisy / "perturbations.jsonl").exists()

    assert run_cli(["encode", "--in", str(noisy)]) == 0
    assert (noisy / "encoded" / "train.bin").exists()

    model = tmp_path / "model.npz"
    assert run_cli(["train", "--model", "memorizer", "--in", str(noisy),
                    "--out", str(model)]) == 0
    assert model.exists()

    assert run_cli(["eval", "--model", str(model), "--in", str(noisy),
                    "--split", "test"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["micro_f1"] <= 1.0


def test_linear_model_pipeline(tiny_dataset, tmp_path, capsys):
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    model = tmp_path / "linear.npz"
    assert run_cli(["train", "--model", "linear", "--in", str(tiny_dataset),
                    "--out", str(model), "--epochs", "5"]) == 0
    assert run_cli(["eval", "--model", str(model), "--in", str(tiny_dataset)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["micro_f1"] <= 1.0


def test_unknown_intent_kind_in_dataset_is_a_validation_error(tiny_dataset, tmp_path):
    train = tiny_dataset / "train.jsonl"
    text = train.read_text()
    train.write_text(text.replace('"kind":"inform"', '"kind":"bogus"', 1))
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 1
    assert run_cli(
        ["inject", "--in", str(tiny_dataset), "--p-intent", "0.5",
         "--out", str(tmp_path / "noisy")]
    ) == 1


def _first_turn_event(value):
    """A line whose first turn carries ``value`` as its event."""
    def damage(line: str) -> str:
        obj = json.loads(line)
        obj["turns"][0]["event"] = value
        return json.dumps(obj)
    return damage


def _mind_change_logged_at(index):
    """A line whose second turn is a mind change, logged at ``index`` (which equals 1)."""
    def damage(line: str) -> str:
        obj = json.loads(line)
        obj["turns"][1]["event"] = "mind_change"
        log = [entry for entry in obj["events_log"] if entry[0] != 1] + [[index, "mind_change"]]
        obj["events_log"] = sorted(log, key=lambda entry: entry[0])
        return json.dumps(obj)
    return damage


@pytest.mark.parametrize(
    "damage, says",
    [
        (lambda line: line[: len(line) // 2], ""),
        (lambda line: line.replace('"kind":"inform"', '"kind":"bogus"', 1), "'bogus'"),
        (lambda line: re.sub(r'"events_log":\[.*\]}$', '"events_log":[[99,"chit_chat"]]}', line),
         "events_log"),
        (lambda line: line.replace('"seed":', '"sead":', 1), "'seed'"),
        (lambda line: re.sub(r'"slot":("[^"]*")', r'"slot":[\1]', line, count=1),
         "act key 'slot': ["),
        (lambda line: line.replace('"system_acts":["', '"system_acts":[5,"', 1),
         "system act 5 is not a string"),
        (lambda line: re.sub(r'"system_acts":\[[^\]]*\]',
                             '"system_acts":"GENERAL-ANSWER_CHIT_CHAT"', line, count=1),
         "turn key 'system_acts': 'GENERAL-ANSWER_CHIT_CHAT' is not a list"),
        (lambda line: re.sub(r'"user_acts":\[[^\]]*\]', '"user_acts":"inform"', line, count=1),
         "turn key 'user_acts': 'inform' is not a list"),
        (lambda line: line.replace('"user_acts":[{', '"user_acts":["inform",{', 1),
         "user act 'inform' is not an object"),
        (lambda line: json.dumps({**json.loads(line), "turns": {}}),
         "dialogue key 'turns': {} is not a list"),
        (lambda line: re.sub(r'"id":"[^"]*"', '"id":5', line, count=1),
         "dialogue key 'id': 5 is not a string"),
        (lambda line: re.sub(r'"seed":\d+', '"seed":"x"', line, count=1),
         "dialogue key 'seed': 'x' is not an int"),
        (lambda line: re.sub(r'"seed":\d+', '"seed":true', line, count=1),
         "dialogue key 'seed': True is not an int"),
        (_first_turn_event(False), "turn key 'event': False is not an event kind"),
        (_first_turn_event(0), "turn key 'event': 0 is not an event kind"),
        (_first_turn_event(""), "turn key 'event': '' is not an event kind"),
        (_first_turn_event([]), "turn key 'event': [] is not an event kind"),
        (_first_turn_event(None), "turn key 'event': None is not an event kind"),
        (_mind_change_logged_at(True), "[True, 'mind_change']"),
        (_mind_change_logged_at(1.0), "[1.0, 'mind_change']"),
    ],
    ids=["truncated-line", "bogus-intent-kind", "events-log-differs-from-turns", "missing-key",
         "list-valued-slot", "numeric-system-act", "string-system-acts", "string-user-acts",
         "string-user-act", "object-turns", "numeric-id", "string-seed", "bool-seed",
         "false-event", "zero-event", "empty-event", "list-event", "null-event",
         "bool-logged-turn", "float-logged-turn"],
)
def test_bad_dataset_line_names_file_and_line(damage, says, tiny_dataset, tmp_path, capsys):
    train = tiny_dataset / "train.jsonl"
    lines = train.read_text().splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if '"kind":"inform"' in line)
    damaged = damage(lines[n].rstrip("\n"))
    assert damaged != lines[n].rstrip("\n")
    lines[n] = damaged + "\n"
    train.write_text("".join(lines))
    for argv in (["encode"], ["inject", "--p-slot", "0.5", "--out", str(tmp_path / "noisy")]):
        assert run_cli([*argv, "--in", str(tiny_dataset)]) == 1
        err = capsys.readouterr().err
        assert f"train.jsonl:{n + 1}: " in err and says in err


def test_validate_rejects_bad_generation_block(tmp_path, capsys):
    f = tmp_path / "ont.json"
    f.write_text(json.dumps({**MINI_DOC, "generation": {"n_dialogues": "many"}}))
    assert run_cli(["validate", str(f)]) == 1
    assert "$.generation.n_dialogues" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--preset", "simple", "--rates", "0.1,abc"],
        ["generate", "--preset", "simple", "--split-fractions", "a,b,c"],
        ["generate", "--preset", "simple", "--split-fractions", ""],
    ],
    ids=["rates", "split-fractions", "empty-split-fractions"],
)
def test_non_numeric_float_list_is_a_validation_error(argv, tmp_path, capsys):
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 1
    assert argv[-2] in capsys.readouterr().err


def _drop_last_train_lines(manifest: dict, dataset: Path) -> None:
    train = dataset / "train.jsonl"
    train.write_text("".join(train.read_text().splitlines(keepends=True)[:-5]))


def _set_version(value):
    def edit(manifest: dict, dataset: Path) -> None:
        manifest["version"] = value
    return edit


def _bool_seed(manifest: dict, dataset: Path) -> None:
    # True == 1, so with config.seed 1 only the type is wrong.
    manifest["config"]["seed"] = 1
    manifest["seed"] = True


def _bool_config_seed(manifest: dict, dataset: Path) -> None:
    # True == 1, so with the top-level seed 1 only the type is wrong.
    manifest["config"]["seed"] = True
    manifest["seed"] = 1


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m, _: m.pop("config"), "config"),
        (lambda m, _: m.pop("ontology_hash"), "ontology_hash"),
        (lambda m, _: m["config"].update(bogus=1), "bogus"),
        (lambda m, _: m["config"].update(n_dialogues=0), "n_dialogues"),
        (lambda m, _: m["splits"].update(train=m["splits"]["train"] + 1), "splits.train"),
        (lambda m, _: m.update(n_dialogues=m["n_dialogues"] + 1), "n_dialogues"),
        (lambda m, _: m.update(seed=m["seed"] + 1), "seed"),
        (_drop_last_train_lines, "train.jsonl"),
        (lambda m, _: m["splits"].update(train=float(m["splits"]["train"])), "splits.train"),
        (_bool_seed, "seed"),
        (_set_version("0.1.0"), "version"),
        (_set_version(True), "version"),
        (lambda m, _: m.pop("version"), "version"),
        (lambda m, _: m["config"].update(max_stack_depth=2), "max_stack_depth"),
        (lambda m, _: m["config"].update(n_dialogues=999), "config: n_dialogues 999"),
        (lambda m, _: m["config"].update(split_fractions=[0.1, 0.1, 0.8]),
         "config: n_dialogues 40 and split_fractions [0.1, 0.1, 0.8]"),
        (lambda m, _: m.update(format="other"), "format"),
        (_set_version(1), "version 1"),
        (lambda m, _: m.update(config=[]), "config: must be an object"),
        (lambda m, _: m["config"].update(n_dialogues="forty"),
         "$.config.n_dialogues: must be an int >= 1"),
        (lambda m, _: m.update(splits=[24, 8, 8]), "$.splits: must be an object"),
        (lambda m, _: m["config"].update(n_dialogues=float(m["config"]["n_dialogues"])),
         "$.config.n_dialogues: must be an int >= 1, got 40.0"),
        (lambda m, _: m["config"].update(p_chitchat=True), "$.config.p_chitchat: must be a number"),
        (_bool_config_seed, "$.config.seed: must be an int, got true"),
        (lambda m, _: m["config"].update(split_fractions=[0.6, "x", 0.2]),
         '$.config.split_fractions: must be three finite numbers >= 0, got [0.6, "x", 0.2]'),
        (lambda m, _: m["config"].update(split_fractions=[0.5, 0.5, 0.5]),
         "$.config: split_fractions must sum to 1"),
    ],
    ids=["no-config", "no-ontology-hash", "unknown-config-key", "invalid-config-value",
         "splits-differ", "n-dialogues-differs", "seed-differs", "truncated-split-file",
         "float-split-count", "bool-seed", "tool-version-string", "bool-version",
         "no-version", "stack-depth-in-config", "config-n-dialogues-differs",
         "config-split-fractions-differ", "wrong-format", "int-version-not-2",
         "config-not-object", "config-value-of-wrong-type", "splits-not-a-map",
         "float-config-n-dialogues", "bool-config-p-chitchat", "bool-config-seed",
         "string-in-split-fractions", "split-fractions-sum-above-1"],
)
def test_bad_dataset_manifest_names_file_and_field(edit, field, tiny_dataset, capsys):
    path = tiny_dataset / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest, tiny_dataset)
    path.write_text(json.dumps(manifest))
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and field in err


def _damaged_bin(edit):
    def damage(dataset: Path, tmp_path: Path):
        path = dataset / "encoded" / "train.bin"
        path.write_bytes(edit(path.read_bytes()))
        return path, ["train", "--model", "memorizer", "--in", str(dataset),
                      "--out", str(tmp_path / "model.npz")]
    return damage


def _bad_model(write):
    def damage(dataset: Path, tmp_path: Path):
        path = tmp_path / "model.npz"
        with open(path, "wb") as fh:
            write(fh)
        return path, ["eval", "--model", str(path), "--in", str(dataset)]
    return damage


def _write_npz_with_unknown_compression(fh) -> None:
    buf = io.BytesIO()
    np.savez(buf, kind="memorizer")
    blob = bytearray(buf.getvalue())
    at = blob.index(b"PK\x01\x02") + 10  # compression method of the central directory entry
    blob[at : at + 2] = (99).to_bytes(2, "little")
    fh.write(blob)


def _write_npz_with_bad_directory_offset(fh) -> None:
    buf = io.BytesIO()
    np.savez(buf, kind="memorizer")
    blob = bytearray(buf.getvalue())
    at = blob.rindex(b"PK\x05\x06") + 19  # top byte of the central directory's offset
    blob[at] ^= 0x80
    fh.write(blob)


def _resaved_model(kind: str, edit):
    """A model trained on the dataset, saved again with ``edit`` applied to its arrays."""
    def damage(dataset: Path, tmp_path: Path):
        path = tmp_path / "model.npz"
        assert run_cli(["train", "--model", kind, "--in", str(dataset), "--out", str(path)]) == 0
        with np.load(path) as blob:
            arrays = dict(blob)
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path, ["eval", "--model", str(path), "--in", str(dataset)]
    return damage


def _missing_model(dataset: Path, tmp_path: Path):
    path = tmp_path / "absent.npz"
    return path, ["eval", "--model", str(path), "--in", str(dataset)]


@pytest.mark.parametrize(
    "damage, code",
    [
        (_damaged_bin(lambda blob: blob[:-1]), 1),
        (_damaged_bin(lambda blob: blob.replace(b"dialoforge-encoded 1", b"dialoforge-encoded 2", 1)), 1),
        (_damaged_bin(lambda blob: re.sub(rb"state_width \d+", b"state_width 1", blob, count=1)), 1),
        (_damaged_bin(lambda blob: blob.replace(b"split train", b"split test", 1)), 1),
        (_damaged_bin(lambda blob: re.sub(rb"(state_width \d+\n)(target_width \d+\n)",
                                          rb"\2\1", blob, count=1)), 1),
        (_damaged_bin(lambda blob: blob.replace(b"\n---\n", b"\ncomment x\n---\n", 1)), 1),
        (_damaged_bin(lambda blob: re.sub(rb"(rows \d+\n)", rb"\1\1", blob, count=1)), 1),
        (_bad_model(lambda fh: fh.write(b"not a model\n")), 1),
        (_bad_model(lambda fh: np.save(fh, np.zeros(3))), 1),
        (_bad_model(_write_npz_with_unknown_compression), 1),
        (_bad_model(_write_npz_with_bad_directory_offset), 1),
        (_resaved_model("memorizer", lambda a: a.update(fallback=a["fallback"][:5])), 1),
        (_resaved_model("memorizer", lambda a: a.update(targets=a["targets"][:, :5])), 1),
        (_resaved_model("memorizer", lambda a: a.update(target_width=np.array(5))), 1),
        (_resaved_model("linear", lambda a: a.update(bias=a["bias"][:5])), 1),
        (_resaved_model("linear", lambda a: a.pop("bias")), 1),
        (_resaved_model("linear", lambda a: a.update(weights=a["weights"].astype(str))), 1),
        (_resaved_model("memorizer",
                        lambda a: a.update(packed_states=a["packed_states"].astype(np.int64))), 1),
        (_resaved_model("memorizer", lambda a: a.update(targets=a["targets"] * 7)), 1),
        (_missing_model, 2),  # a missing file is a runtime error, not bad input
    ],
    ids=["truncated-bin", "wrong-magic", "wrong-width", "wrong-header-split",
         "swapped-header-lines", "extra-header-line", "repeated-rows-line", "text-model",
         "npy-model", "unknown-compression-model", "bad-directory-offset-model",
         "short-fallback-model", "narrow-targets-model", "wrong-target-width-model",
         "short-bias-model", "no-bias-model", "string-weights-model", "int64-packed-states-model",
         "non-binary-targets-model", "missing-model"],
)
def test_bad_binary_input_names_the_file(damage, code, tiny_dataset, tmp_path, capsys):
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    path, argv = damage(tiny_dataset, tmp_path)
    capsys.readouterr()
    assert run_cli(argv) == code
    assert str(path) in capsys.readouterr().err


def test_bin_header_hash_must_match_layout(tiny_dataset, tmp_path, capsys):
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    model = tmp_path / "model.npz"
    train = ["train", "--model", "memorizer", "--in", str(tiny_dataset), "--out", str(model)]
    assert run_cli(train) == 0
    encoded = tiny_dataset / "encoded"
    path = encoded / "train.bin"
    path.write_bytes(
        re.sub(rb"ontology_hash \w+", b"ontology_hash " + b"0" * 64, path.read_bytes(), count=1)
    )
    capsys.readouterr()
    for argv in (train, ["eval", "--model", str(model), "--in", str(tiny_dataset)]):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and str(encoded / "layout.json") in err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda layout: {k: v for k, v in layout.items() if k != "actions"}, "actions"),
        (lambda layout: {k: v for k, v in layout.items() if k != "slot_keys"}, "slot_keys"),
        (lambda layout: {**layout, "actions": 5}, "actions"),
        (lambda layout: {**layout, "ontology_hash": 5}, "ontology_hash"),
        (lambda layout: [1, 2], "object"),
        (lambda layout: {**layout, "state_width": 999}, "state_width"),
        (lambda layout: {**layout, "target_width": 1}, "target_width"),
        (lambda layout: {**layout, "management": ["x"]}, "management"),
        (lambda layout: {**layout, "version": 2}, "version"),
        (lambda layout: {**layout, "intents": layout["intents"][::-1]}, "intents"),
        (lambda layout: {k: v for k, v in layout.items() if k != "ontology_hash"},
         "missing key(s) ['ontology_hash']"),
        (lambda layout: {**layout, "version": True}, "version"),
        (lambda layout: {**layout, "state_width": float(layout["state_width"])}, "state_width"),
    ],
    ids=["no-actions", "no-slot-keys", "actions-not-a-list", "hash-not-a-string", "not-an-object",
         "wrong-state-width", "wrong-target-width", "wrong-management", "wrong-version",
         "wrong-intents", "no-ontology-hash", "bool-version", "float-state-width"],
)
def test_bad_layout_names_the_file_and_key(edit, key, tiny_dataset, tmp_path, capsys):
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    path = tiny_dataset / "encoded" / "layout.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    argv = ["train", "--model", "memorizer", "--in", str(tiny_dataset),
            "--out", str(tmp_path / "model.npz")]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and key in err


def test_eval_on_a_missing_split_names_it(tiny_dataset, tmp_path, capsys):
    model = tmp_path / "model.npz"
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    assert run_cli(["train", "--model", "memorizer", "--in", str(tiny_dataset),
                    "--out", str(model)]) == 0
    (tiny_dataset / "encoded" / "val.bin").unlink()
    capsys.readouterr()
    assert run_cli(["eval", "--model", str(model), "--in", str(tiny_dataset),
                    "--split", "val"]) == 1
    assert "split 'val' not present" in capsys.readouterr().err


def test_eval_model_ontology_must_match_the_data(tiny_dataset, tmp_path, capsys):
    model = tmp_path / "model.npz"
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    assert run_cli(["train", "--model", "memorizer", "--in", str(tiny_dataset),
                    "--out", str(model)]) == 0
    # One more slot value keeps every width and changes the ontology hash.
    doc = json.loads((tiny_dataset / "ontology.json").read_text())
    doc["domains"][0]["topics"][0]["slots"][0]["values"].append("extra")
    edited, other = tmp_path / "edited.json", tmp_path / "other"
    edited.write_text(json.dumps(doc))
    assert run_cli(["generate", "--ontology", str(edited), "--dialogues", "40", "--seed", "3",
                    "--out", str(other)]) == 0
    assert run_cli(["encode", "--in", str(other)]) == 0
    capsys.readouterr()
    assert run_cli(["eval", "--model", str(model), "--in", str(other)]) == 1
    err = capsys.readouterr().err
    assert str(model) in err and str(other / "encoded" / "layout.json") in err


def test_dataset_ontology_must_match_the_manifest_hash(tiny_dataset, tmp_path, capsys):
    path = tiny_dataset / "ontology.json"
    doc = json.loads(path.read_text())
    doc["domains"][0]["topics"][0]["slots"][0]["values"].append("extra")
    path.write_text(json.dumps(doc))
    for argv in (
        ["encode", "--in", str(tiny_dataset)],
        ["inject", "--in", str(tiny_dataset), "--p-intent", "0.1", "--out", str(tmp_path / "n")],
    ):
        capsys.readouterr()
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and str(tiny_dataset / "manifest.json") in err


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A 40-dialogue simple dataset, encoded, with a trained memorizer."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = root / "ds"
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(["generate", "--preset", "simple", "--dialogues", "40",
                        "--seed", "3", "--out", str(ds)]) == 0
        assert run_cli(["encode", "--in", str(ds)]) == 0
        assert run_cli(["train", "--model", "memorizer", "--in", str(ds),
                        "--out", str(root / "model.npz")]) == 0
    return root


def _reader_argv(name: str, root: Path) -> list[str]:
    """The command that reads the file ``name`` under ``root``."""
    ds = str(root / "ds")
    if name == "model.npz":
        return ["eval", "--model", str(root / name), "--in", ds]
    if name.startswith("ds/encoded/"):
        return ["train", "--model", "memorizer", "--in", ds, "--out", str(root / "m.npz")]
    return ["encode", "--in", ds, "--out", str(root / "enc")]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    name=st.sampled_from(["ds/train.jsonl", "ds/manifest.json", "ds/ontology.json",
                          "ds/encoded/layout.json", "ds/encoded/train.bin", "model.npz"]),
    flip=st.booleans(),
    at=st.integers(min_value=0, max_value=2**20),
    bit=st.integers(min_value=0, max_value=7),
)
# Byte 5 of the key-sorted layout.json is the "a" of its first key, "actions".
@example(name="ds/encoded/layout.json", flip=True, at=5, bit=0)
def test_damaged_file_exits_with_a_code_never_a_traceback(fuzz_root, name, flip, at, bit):
    """A truncated or bit-flipped input file ends in exit 0, 1 or 2."""
    path = fuzz_root / name
    data = path.read_bytes()
    at %= len(data)
    if flip:
        damaged = data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1 :]
    else:
        damaged = data[:at]
    path.write_bytes(damaged)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(_reader_argv(name, fuzz_root))
    finally:
        path.write_bytes(data)
    assert code in (0, 1, 2)


_FLAG_VALUES = ("abc", "nan", "inf", "-1", "0", "1.5", "1e309", "")


def _any_of(valid, *accepted):
    """A flag fuzzed with every class of _FLAG_VALUES and one small valid value,
    and the values of these it accepts."""
    return (valid, *_FLAG_VALUES), {valid, *accepted}


def _rejected_of(*accepted):
    """A flag fuzzed only with the classes of _FLAG_VALUES it rejects."""
    return tuple(v for v in _FLAG_VALUES if v not in accepted), set()


# What a flag that names things (a mode, a preset, a split, models) is
# fuzzed with besides its valid names; each is rejected.
_NAME_VALUES = ("bogus", "", "memorizer,", "memorizer,memorizer")


def _names(*valid):
    """A flag that names things, fuzzed with _NAME_VALUES and its valid names
    (none for a flag that gets rejected values only)."""
    return (*valid, *_NAME_VALUES), set(valid)


# Each command's numeric flags and the flags that name things.  sweep and
# train get rejected values only, so no run starts; --jobs gets no value that
# would start a process pool.
_P = _any_of("0.1", "0")
_FUZZED_FLAGS = {
    "generate": {
        "--dialogues": _any_of("4"), "--seed": _any_of("3", "-1", "0"),
        "--jobs": (("0", "-1", "x", "1"), {"1"}),
        "--p-chitchat": _P, "--p-mind-change": _P, "--p-domain-change": _P,
        "--split-fractions": _any_of("0.5,0.25,0.25"),
        "--preset": _names("simple", "medium", "hard"),
    },
    "inject": {"--p-intent": _P, "--p-action": _P, "--p-slot": _P,
               "--seed": _any_of("3", "-1", "0"),
               "--mode": _names("relabel", "unk", "mixed"), "--splits": _names("all", "train")},
    "train": {"--seed": _rejected_of("0"), "--epochs": _rejected_of(),
              "--learning-rate": _rejected_of("0", "1.5"), "--l2": _rejected_of("0", "1.5"),
              "--model": _names()},
    "eval": {"--split": _names("train", "val", "test")},
    "sweep": {"--rates": _rejected_of("0"), "--seeds": _rejected_of(),
              "--seed": _rejected_of("-1", "0"), "--dialogues": _rejected_of(),
              **dict.fromkeys(("--p-chitchat", "--p-mind-change", "--p-domain-change"),
                              _rejected_of("0")),
              "--mode": _names(), "--models": _names(), "--preset": _names()},
}


@st.composite
def _flag_values(draw):
    """A command and a value for one or more of its fuzzed flags."""
    command = draw(st.sampled_from(sorted(_FUZZED_FLAGS)))
    flags = _FUZZED_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True))
    return command, {flag: draw(st.sampled_from(flags[flag][0])) for flag in chosen}


def _argv(command: str, values: dict, root: Path, out: Path) -> list[str]:
    # The last value of a flag wins, so a fuzzed one replaces generate's
    # --dialogues 4, sweep's --rates 0 and a fuzzed --preset or --model the
    # one given here.
    head = {"generate": ["--preset", "simple", "--dialogues", "4"],
            "inject": ["--in", str(root / "ds")],
            "train": ["--model", "linear", "--in", str(root / "ds")],
            "eval": ["--model", str(root / "model.npz"), "--in", str(root / "ds")],
            "sweep": ["--preset", "simple", "--rates", "0"]}[command]
    tail = [] if command == "eval" else ["--out", str(out)]  # eval writes to stdout
    return [command, *head, *(x for pair in values.items() for x in pair), *tail]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_flag_values())
@example(case=("generate", {"--dialogues": "4", "--seed": "3", "--jobs": "1",
                            "--p-chitchat": "0.1", "--p-mind-change": "0",
                            "--p-domain-change": "0.1", "--split-fractions": "0.5,0.25,0.25"}))
@example(case=("inject", {"--p-intent": "0.1", "--p-action": "0", "--p-slot": "0.1",
                          "--seed": "-1", "--mode": "unk", "--splits": "train"}))
@example(case=("eval", {"--split": "val"}))
@example(case=("generate", {"--split-fractions": ""}))
def test_fuzzed_flag_values_exit_with_a_code_never_a_traceback(fuzz_root, case):
    """A flag's bad value ends in exit 1 or 64 with no --out left behind; a
    run whose values are all valid exits 0."""
    command, values = case
    out = fuzz_root / "fuzz-out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(_argv(command, values, fuzz_root, out))
    valid = all(v in _FUZZED_FLAGS[command][f][1] for f, v in values.items())
    assert code in ((0,) if valid else (1, 64))
    assert "Traceback" not in err.getvalue()
    # sweep's head gives the required --rates, so each value meets its own check.
    assert command != "sweep" or "the following arguments are required" not in err.getvalue()
    assert out.exists() == (valid and command != "eval")
    if out.exists():
        shutil.rmtree(out)


@pytest.mark.parametrize("target", ["ontology file", "manifest.json", "train.jsonl"])
def test_non_utf8_input_names_the_file(target, tiny_dataset, tmp_path, capsys):
    if target == "ontology file":
        path = tmp_path / "ontology.json"
        argv = ["validate", str(path)]
    else:
        path = tiny_dataset / target
        argv = ["encode", "--in", str(tiny_dataset)]
    path.write_bytes(bytes(range(256)))
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_inject_refuses_an_injected_input(tiny_dataset, tmp_path, capsys):
    noisy, twice = tmp_path / "noisy", tmp_path / "twice"
    argv = ["inject", "--p-intent", "0.3", "--seed", "1"]
    assert run_cli(argv + ["--in", str(tiny_dataset), "--out", str(noisy)]) == 0
    capsys.readouterr()
    assert run_cli(argv + ["--in", str(noisy), "--out", str(twice)]) == 1
    assert str(noisy / "perturbations.jsonl") in capsys.readouterr().err
    assert not twice.exists()


def test_inject_does_not_mutate_input(tiny_dataset, tmp_path):
    before = _dir_bytes(tiny_dataset)
    assert run_cli(
        ["inject", "--in", str(tiny_dataset), "--p-intent", "1.0",
         "--out", str(tmp_path / "noisy2")]
    ) == 0
    assert _dir_bytes(tiny_dataset) == before


def test_encode_csv_export(tiny_dataset):
    assert run_cli(["encode", "--in", str(tiny_dataset), "--csv"]) == 0
    encoded = read_encoded(tiny_dataset / "encoded")
    for split, (states, targets) in encoded.splits.items():
        header, *body = (tiny_dataset / "encoded" / f"{split}.csv").read_bytes().split(b"\n")
        assert header.startswith(b"s0,s1,") and b",a0," in header
        rows = [",".join(map(str, row)).encode() for row in np.hstack([states, targets])]
        assert len(rows) == states.shape[0] > 0
        assert body == [*rows, b""]  # each row ends in one newline, the file too


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(
        ["sweep", "--preset", "simple", "--rates", "0,0.5,1.0", "--models", "memorizer",
         "--seeds", "1", "--dialogues", "60", "--seed", "4", "--out", str(out)]
    ) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3
    f1s = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a for a, b in zip(f1s, f1s[1:]))


def test_sweep_dialogues_keeps_preset_split_fractions(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(
        ["sweep", "--preset", "hard", "--rates", "0", "--seeds", "1",
         "--dialogues", "100", "--out", str(out)]
    ) == 0
    config = json.loads((out / "manifest.json").read_text())["sweep"]["generator_config"]
    assert config["n_dialogues"] == 100
    assert config["split_fractions"] == [8438 / 10438, 1000 / 10438, 1000 / 10438]


def test_sweep_takes_the_generator_event_flags(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(
        ["sweep", "--preset", "simple", "--rates", "0", "--seeds", "1", "--dialogues", "30",
         "--p-chitchat", "0.35", "--p-mind-change", "0.1", "--p-domain-change", "0.5",
         "--out", str(out)]
    ) == 0
    config = json.loads((out / "manifest.json").read_text())["sweep"]["generator_config"]
    assert (config["p_chitchat"], config["p_mind_change"], config["p_domain_change"]) == (
        0.35, 0.1, 0.5
    )


@pytest.mark.parametrize("command", [["generate"], ["sweep", "--rates", "0"]],
                         ids=["generate", "sweep"])
def test_there_is_no_stack_depth_flag(command, tmp_path):
    # The stack holds at most two frames; --p-domain-change 0 keeps it at one.
    out = tmp_path / "out"
    assert run_cli([*command, "--preset", "simple", "--max-stack-depth", "2",
                    "--out", str(out)]) == 64
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, env, name",
    [
        (["generate", "--preset", "simple", "--dialogues", "0"], None, "--dialogues"),
        (["generate", "--preset", "simple", "--dialogues", "5"], "abc", "DIALOFORGE_SEED"),
        (["train", "--model", "linear", "--seed", "-1"], None, "--seed"),
        (["sweep", "--preset", "simple", "--rates", "0", "--dialogues", "30", "--seeds", "0"],
         None, "--seeds"),
        (["train", "--model", "linear", "--l2", "-1"], None,
         "error: --l2 must be a finite number >= 0, got -1.0"),
        (["train", "--model", "linear", "--l2", "nan"], None, "error: --l2 must be"),
        (["train", "--model", "linear", "--l2", "inf"], None, "error: --l2 must be"),
        (["train", "--model", "linear", "--learning-rate", "nan"], None,
         "error: --learning-rate must be"),
        (["train", "--model", "linear", "--learning-rate", "inf"], None,
         "error: --learning-rate must be"),
        (["train", "--model", "linear", "--learning-rate", "-0.5"], None,
         "error: --learning-rate must be"),
        (["train", "--model", "linear", "--epochs", "0"], None,
         "error: --epochs must be an int >= 1, got 0"),
        (["generate", "--preset", "simple", "--p-chitchat", "1.5"], None,
         "--p-chitchat must be"),
        (["generate", "--preset", "simple", "--p-mind-change", "nan"], None,
         "--p-mind-change must be"),
        (["generate", "--preset", "simple", "--split-fractions", "0.5,0.5"], None,
         "--split-fractions must be three finite numbers"),
        (["inject", "--p-intent", "1.5"], None, "--p-intent must be"),
        (["inject", "--p-slot", "-0.1"], None, "--p-slot must be"),
        (["sweep", "--preset", "simple", "--rates", "0,1.5"], None, "--rates must be"),
        (["sweep", "--preset", "simple", "--rates", "0", "--p-domain-change", "inf"], None,
         "--p-domain-change must be"),
        (["sweep", "--preset", "simple", "--rates", "0", "--dialogues", "30", "--models",
          "memorizer,memorizer"], None, "models must be"),
    ],
    ids=["zero-dialogues", "non-integer-env-seed", "negative-linear-seed", "zero-seeds",
         "negative-l2", "nan-l2", "inf-l2", "nan-learning-rate", "inf-learning-rate",
         "negative-learning-rate", "zero-epochs", "generate-p-chitchat", "generate-p-mind-change",
         "two-split-fractions", "inject-p-intent", "inject-p-slot", "sweep-rates",
         "sweep-p-domain-change", "repeated-models"],
)
def test_bad_flag_value_names_the_flag(argv, env, name, tiny_dataset, tmp_path, monkeypatch,
                                       capsys):
    if argv[0] == "train":
        assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    if argv[0] in ("train", "inject"):
        argv = argv + ["--in", str(tiny_dataset)]
    if env is not None:
        monkeypatch.setenv("DIALOFORGE_SEED", env)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_numeric_flags_come_from_rule_tables():
    """Every int or float flag but --seed, --jobs and --seeds is declared
    from its owner's rule table, typed by its rule, with no default."""
    tables = {"generate": cli._GENERATOR_FLAGS, "sweep": cli._GENERATOR_FLAGS,
              "inject": cli._INJECT_FLAGS, "train": cli._TRAIN_FLAGS}
    subparsers = next(a for a in cli.build_parser()._actions if a.choices).choices
    for command, parser in subparsers.items():
        table = {cli._flag(name): rule for name, rule in tables.get(command, {}).items()}
        numeric = {a.option_strings[0]: a for a in parser._actions if a.type in (int, float)}
        assert set(table) <= set(numeric), command
        for flag, action in numeric.items():
            if flag in ("--seed", "--jobs", "--seeds"):
                continue
            assert flag in table, (command, flag)
            assert action.default is None, (command, flag)
            assert action.type is (int if table[flag].startswith("an int") else float)


def test_missing_input_is_runtime_error(tmp_path):
    code = run_cli(["encode", "--in", str(tmp_path / "nowhere")])
    assert code in (1, 2)


def test_generate_from_custom_ontology_file(tmp_path):
    f = tmp_path / "custom.json"
    f.write_text(json.dumps(MINI_DOC))
    out = tmp_path / "ds"
    assert run_cli(["generate", "--ontology", str(f), "--dialogues", "8",
                    "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_dialogues"] == 8


def test_generate_requires_an_ontology_source(tmp_path):
    assert run_cli(["generate", "--dialogues", "5", "--out", str(tmp_path / "x")]) == 64
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# The cyclic collector is paused for the span of a command


def _raising(exc):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize("caller_collects", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize(
    "argv, command, code",
    [
        (["validate", "x.json"], lambda args: 0, 0),
        (["validate", "x.json"], _raising(ValidationError("bad")), 1),
        (["validate", "x.json"], _raising(DialoforgeError("broken")), 2),
        (["validate"], None, 64),
        (["validate", "x.json"], _raising(RuntimeError("bug")), RuntimeError),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-64", "raises"],
)
def test_collector_setting_is_restored_on_every_exit(
    argv, command, code, caller_collects, monkeypatch
):
    seen = []

    def spy(args):
        seen.append(gc.isenabled())
        return command(args)

    monkeypatch.setattr(cli, "_cmd_validate", spy)
    if not caller_collects:
        gc.disable()
    try:
        if code is RuntimeError:
            with pytest.raises(RuntimeError):
                run_cli(argv)
        else:
            assert run_cli(argv) == code
        assert gc.isenabled() is caller_collects
    finally:
        gc.enable()
    assert seen == ([] if command is None else [False])


def _cyclic_garbage_per_command(root: Path, n_dialogues: int) -> list[int]:
    ds, noisy, model = root / "ds", root / "noisy", root / "model.npz"
    commands = [
        ["generate", "--preset", "medium", "--dialogues", str(n_dialogues), "--jobs", "2",
         "--out", str(ds)],
        ["inject", "--in", str(ds), "--p-intent", "0.2", "--p-action", "0.2",
         "--p-slot", "0.2", "--out", str(noisy)],
        ["encode", "--in", str(noisy)],
        ["train", "--model", "memorizer", "--in", str(noisy), "--out", str(model)],
        ["train", "--model", "linear", "--epochs", "3", "--in", str(noisy),
         "--out", str(root / "linear.npz")],
        ["eval", "--model", str(model), "--in", str(noisy)],
        ["sweep", "--preset", "medium", "--dialogues", str(n_dialogues), "--rates", "0,0.5",
         "--seeds", "1", "--models", "memorizer,linear", "--out", str(root / "sweep")],
    ]
    found = []
    for argv in commands:
        # Off from before the argument parser runs, so that no automatic
        # collection decides which of its cycles get counted.
        gc.disable()
        try:
            assert run_cli(argv) == 0, argv
            found.append(gc.collect())
        finally:
            gc.enable()
    return found


def test_cyclic_garbage_of_a_command_does_not_grow_with_the_data(tmp_path):
    # While a command runs nothing collects cycles, so whatever cyclic garbage
    # it makes is held until it returns; that must be a fixed cost (the
    # argument parser), not a share of the dialogues.
    gc.collect()
    small = _cyclic_garbage_per_command(tmp_path / "small", 20)
    large = _cyclic_garbage_per_command(tmp_path / "large", 400)
    assert small == large


def test_sweep_with_an_empty_test_split_exits_1(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--preset", "simple", "--dialogues", "3", "--rates", "0,0.5",
                    "--seeds", "1", "--out", str(out)]) == 1
    assert "the test split is empty" in capsys.readouterr().err
    assert not out.exists()


def test_eval_on_a_split_with_no_rows_exits_1(tmp_path, capsys):
    ds, model = tmp_path / "ds", tmp_path / "m.npz"
    assert run_cli(["generate", "--preset", "simple", "--dialogues", "2", "--out", str(ds)]) == 0
    assert run_cli(["encode", "--in", str(ds)]) == 0
    assert run_cli(["train", "--model", "memorizer", "--in", str(ds), "--out", str(model)]) == 0
    capsys.readouterr()
    assert run_cli(["eval", "--model", str(model), "--in", str(ds)]) == 1
    captured = capsys.readouterr()
    assert str(ds / "encoded" / "test.bin") in captured.err and "'test'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("model", ["memorizer", "linear"])
def test_train_on_a_split_with_no_rows_exits_1(model, tmp_path, capsys):
    ds, out = tmp_path / "ds", tmp_path / "m.npz"
    assert run_cli(["generate", "--preset", "simple", "--dialogues", "4",
                    "--split-fractions", "0,0.5,0.5", "--out", str(ds)]) == 0
    assert run_cli(["encode", "--in", str(ds)]) == 0
    capsys.readouterr()
    assert run_cli(["train", "--model", model, "--in", str(ds), "--out", str(out)]) == 1
    assert f"{ds / 'encoded' / 'train.bin'}: split 'train' has no rows" in capsys.readouterr().err
    assert not out.exists()


# One slot name in the whole ontology, so the slot catalog has one label.
ONE_SLOT_DOC = {"domains": [{"name": "d", "topics": [{"name": "t", "slots": [
    {"name": "s", "category": "mandatory", "values": ["a", "b"]}]}]}]}


@pytest.mark.parametrize("mode, code", [("relabel", 1), ("mixed", 1), ("unk", 0)])
def test_relabel_over_a_one_label_catalog_is_a_validation_error(mode, code, tmp_path, capsys):
    ontology, ds, out = tmp_path / "ont.json", tmp_path / "ds", tmp_path / "noisy"
    ontology.write_text(json.dumps(ONE_SLOT_DOC))
    assert run_cli(["generate", "--ontology", str(ontology), "--dialogues", "5",
                    "--out", str(ds)]) == 0
    capsys.readouterr()
    assert run_cli(["inject", "--in", str(ds), "--p-slot", "1", "--mode", mode,
                    "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert "p_slot is 1.0" in err and "slot catalog has 1 label(s)" in err
        assert not out.exists()


def _encode(ds: Path, tmp: Path) -> None:
    assert run_cli(["encode", "--in", str(ds)]) == 0


def _encode_and_train(ds: Path, tmp: Path) -> None:
    _encode(ds, tmp)
    assert run_cli(["train", "--model", "memorizer", "--in", str(ds),
                    "--out", str(tmp / "m.npz")]) == 0


def _bogus_action_in_first_train_dialogue(ds: Path, tmp: Path) -> None:
    train = ds / "train.jsonl"
    first, *rest = train.read_text().splitlines(keepends=True)
    dialogue = json.loads(first)
    dialogue["turns"][0]["system_acts"] = ["restaurant-CONFIRM-bogus"]
    train.write_text(json.dumps(dialogue) + "\n" + "".join(rest))


@pytest.mark.parametrize("out", ["{ds}", "{ds}/../ds/."], ids=["same", "same-resolved"])
def test_encode_refuses_to_write_over_its_input(out, tiny_dataset, capsys):
    before = _dir_bytes(tiny_dataset)
    out = out.format(ds=tiny_dataset)
    assert run_cli(["encode", "--in", str(tiny_dataset), "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"--out {Path(out)} is --in {tiny_dataset}" in err
    assert _dir_bytes(tiny_dataset) == before
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0


@pytest.mark.parametrize(
    "indir, out",
    [
        *(("{noisy}", "{noisy}/" + name) for name in (
            "encoded/train.bin", "encoded/../encoded/test.bin", "encoded/layout.json",
            "encoded/manifest.json", "manifest.json", "ontology.json", "train.jsonl",
            "val.jsonl", "test.jsonl", "perturbations.jsonl", "encoded/train.csv", "encoded",
        )),
        ("{noisy}/encoded", "{noisy}/manifest.json"),
        ("{noisy}", "{tmp}/notes.txt"),
        ("{noisy}", "{tmp}/corrupt.npz"),
    ],
    ids=["train-split", "other-split-resolved", "layout", "encoded-manifest", "dataset-manifest",
         "ontology", "train-jsonl", "val-jsonl", "test-jsonl", "perturbations", "csv",
         "directory", "dataset-manifest-from-encoded", "user-file", "corrupt-model"],
)
def test_train_refuses_to_write_over_what_it_reads(indir, out, tiny_dataset, tmp_path, capsys):
    noisy = tmp_path / "noisy"
    assert run_cli(["inject", "--in", str(tiny_dataset), "--p-intent", "0.2",
                    "--out", str(noisy)]) == 0
    assert run_cli(["encode", "--in", str(noisy), "--csv"]) == 0
    (tmp_path / "notes.txt").write_text("a user's own notes\n")
    (tmp_path / "corrupt.npz").write_bytes(b"PK\x03\x04 cut short")
    before = _dir_bytes(tmp_path)
    indir, out = Path(indir.format(noisy=noisy)), Path(out.format(noisy=noisy, tmp=tmp_path))
    capsys.readouterr()
    train = ["train", "--model", "memorizer", "--in", str(indir)]
    assert run_cli([*train, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--out {out} is no model file; train writes over its own output only" in err
    assert _dir_bytes(tmp_path) == before
    for beside in (noisy / "encoded" / "model.npz", noisy / "model.npz"):
        assert run_cli([*train, "--out", str(beside)]) == 0
        assert run_cli(["eval", "--model", str(beside), "--in", str(indir)]) == 0


def test_train_rewrites_a_model_of_either_kind(tiny_dataset, tmp_path):
    model = tmp_path / "m.npz"
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    for kind, flags in (("memorizer", []), ("linear", ["--epochs", "2"]), ("memorizer", [])):
        assert run_cli(["train", "--model", kind, *flags, "--in", str(tiny_dataset),
                        "--out", str(model)]) == 0
        assert load_model(model)[0].KIND == kind


def test_a_stale_encoding_is_refused(tiny_dataset, tmp_path, capsys):
    ds, model = tiny_dataset, tmp_path / "m.npz"
    train = ["train", "--model", "memorizer", "--in", str(ds), "--out", str(model)]
    evaluate = ["eval", "--model", str(model), "--in", str(ds)]
    assert run_cli(["encode", "--in", str(ds)]) == 0
    (ds / "notes.json").write_text("{}")  # a file added since the encoding does not count
    assert run_cli(train) == 0
    assert run_cli(["generate", "--preset", "simple", "--dialogues", "60", "--seed", "2",
                    "--out", str(ds)]) == 0
    capsys.readouterr()
    stale = f"{ds / 'encoded'} is stale: {ds / 'manifest.json'} changed since it was encoded; " \
            "run `encode` again"
    for argv in (train, evaluate):
        assert run_cli(argv) == 1
        assert stale in capsys.readouterr().err
    # --in naming the encoded directory itself compares nothing.
    assert run_cli(["train", "--model", "memorizer", "--in", str(ds / "encoded"),
                    "--out", str(model)]) == 0
    assert run_cli(["encode", "--in", str(ds)]) == 0
    assert run_cli(train) == 0 and run_cli(evaluate) == 0
    (ds / "ontology.json").rename(tmp_path / "ontology.json")
    capsys.readouterr()
    assert run_cli(train) == 1
    assert f"{ds / 'ontology.json'} is gone since it was encoded" in capsys.readouterr().err
    # The library's write_encoded writes no manifest, so nothing is compared.
    (ds / "encoded" / "manifest.json").unlink()
    assert run_cli(train) == 0


@pytest.mark.parametrize(
    "edit, says",
    [
        (lambda m: m.pop("input_hashes"), "$: missing key(s) ['input_hashes']"),
        (lambda m: m.update(input_hashes=["train.jsonl"]), "$.input_hashes: must be an object"),
        (lambda m: m["input_hashes"].update({"train.jsonl": 1}),
         "$.input_hashes.train.jsonl: must be a string, got 1"),
        (lambda m: m["input_hashes"].update({"../ds/train.jsonl": "0"}),
         "$.input_hashes: unknown key(s) ['../ds/train.jsonl']"),
        (lambda m: m["input_hashes"].update({"..": "0"}), "$.input_hashes: unknown key(s) ['..']"),
    ],
    ids=["no-input-hashes", "list", "number", "path", "parent"],
)
def test_a_bad_encode_manifest_names_the_file_and_key(edit, says, tiny_dataset, tmp_path, capsys):
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    path = tiny_dataset / "encoded" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli(["train", "--model", "memorizer", "--in", str(tiny_dataset),
                    "--out", str(tmp_path / "m.npz")]) == 1
    assert f"{path}: {says}" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize(
    "argv, says",
    [
        (["inject", "--in", "{ds}", "--p-intent", "0.2", "--out", "{ds}"],
         "--out {ds} is --in {ds}; inject would write over its input"),
        (["inject", "--in", "{ds}", "--p-intent", "0.2", "--out", "{ds}/../ds"],
         "is --in {ds}; inject"),
        (["encode", "--in", "{other}", "--out", "{ds}"],
         "{ds}/manifest.json was written by `generate`; encode writes over its own output only"),
        (["inject", "--in", "{other}", "--out", "{ds}"], "written by `generate`; inject"),
        (["generate", "--preset", "simple", "--dialogues", "5", "--out", "{ds}/encoded"],
         "written by `encode`; generate"),
        (["sweep", "--preset", "simple", "--dialogues", "10", "--rates", "0", "--seeds", "1",
          "--out", "{ds}"], "written by `generate`; sweep"),
        (["generate", "--preset", "simple", "--dialogues", "5", "--out", "{afile}"],
         "--out {afile} is a file; generate writes a directory"),
        (["inject", "--in", "{ds}", "--p-intent", "0.2", "--out", "{afile}"],
         "--out {afile} is a file; inject writes a directory"),
        (["encode", "--in", "{ds}", "--out", "{afile}"],
         "--out {afile} is a file; encode writes a directory"),
        (["sweep", "--preset", "simple", "--dialogues", "10", "--rates", "0", "--seeds", "1",
          "--out", "{afile}"], "--out {afile} is a file; sweep writes a directory"),
        (["generate", "--preset", "simple", "--dialogues", "5", "--out", "{afile}/a/b"],
         "--out {afile}/a/b lies below the file {afile}; generate writes a directory"),
        (["inject", "--in", "{ds}", "--p-intent", "0.2", "--out", "{afile}/sub"],
         "--out {afile}/sub lies below the file {afile}; inject writes a directory"),
        (["encode", "--in", "{ds}", "--out", "{afile}/sub"],
         "--out {afile}/sub lies below the file {afile}; encode writes a directory"),
        (["sweep", "--preset", "simple", "--dialogues", "10", "--rates", "0", "--seeds", "1",
          "--out", "{afile}/sub"], "--out {afile}/sub lies below the file {afile}; sweep writes"),
    ],
    ids=["inject-in-place", "inject-in-place-resolved", "encode-over-a-dataset",
         "inject-over-a-dataset", "generate-over-an-encoding", "sweep-over-a-dataset",
         "generate-over-a-file", "inject-over-a-file", "encode-over-a-file",
         "sweep-over-a-file", "generate-below-a-file", "inject-below-a-file",
         "encode-below-a-file", "sweep-below-a-file"],
)
def test_an_output_may_not_overwrite_an_input(argv, says, tiny_dataset, tmp_path, capsys):
    other, afile = tmp_path / "other", tmp_path / "afile"
    assert run_cli(["generate", "--preset", "simple", "--dialogues", "20", "--seed", "4",
                    "--out", str(other)]) == 0
    assert run_cli(["encode", "--in", str(tiny_dataset)]) == 0
    afile.write_text("a user's own file\n")
    before = _dir_bytes(tmp_path)
    capsys.readouterr()
    fill = {"ds": tiny_dataset, "other": other, "afile": afile}
    assert run_cli([arg.format(**fill) for arg in argv]) == 1
    assert says.format(**fill) in capsys.readouterr().err
    assert _dir_bytes(tmp_path) == before


def test_a_rerun_into_its_own_output_goes_ahead(tiny_dataset, tmp_path):
    noisy, sweep = tmp_path / "noisy", tmp_path / "sweep"
    commands = [
        ["generate", "--preset", "simple", "--dialogues", "40", "--seed", "3",
         "--out", str(tiny_dataset)],
        ["inject", "--in", str(tiny_dataset), "--p-slot", "0.3", "--out", str(noisy)],
        ["encode", "--in", str(noisy)],
        ["sweep", "--preset", "simple", "--dialogues", "20", "--rates", "0", "--seeds", "1",
         "--out", str(sweep)],
    ]
    for argv in commands:
        assert run_cli(argv) == 0
    outputs = (tiny_dataset, noisy, sweep)
    before = [_dir_bytes(d) for d in outputs]
    for argv in commands:
        assert run_cli(argv) == 0
    assert [_dir_bytes(d) for d in outputs] == before


def test_an_input_is_hashed_in_blocks(tmp_path, monkeypatch):
    path = tmp_path / "blob.bin"
    data = os.urandom(2500)
    path.write_bytes(data)
    monkeypatch.setattr(cli, "_HASH_BLOCK", 1024)
    assert cli._sha256_file(path) == hashlib.sha256(data).hexdigest()
    path.write_bytes(b"")
    assert cli._sha256_file(path) == hashlib.sha256(b"").hexdigest()


def test_generate_records_split_fractions(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["generate", "--preset", "simple", "--dialogues", "8",
                    "--split-fractions", "0.5,0.25,0.25", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["split_fractions"] == [0.5, 0.25, 0.25]
    assert manifest["splits"] == {"train": 4, "val": 2, "test": 2}


@pytest.mark.parametrize(
    "prepare, argv, code, says",
    [
        (None, ["generate", "--preset", "simple", "--split-fractions", "0.5,0.5",
                "--out", "{tmp}/out"], 1, "--split-fractions"),
        (None, ["generate", "--preset", "simple", "--dialogues", "10", "--split-fractions",
                "nan,0.5,0.5", "--out", "{tmp}/out"], 1, "--split-fractions must be three finite"),
        (_encode, ["train", "--model", "memorizer", "--in", "{ds}/encoded",
                   "--out", "{tmp}/m.npz"], 0, None),
        (_encode_and_train, ["eval", "--model", "{tmp}/m.npz", "--in", "{ds}/encoded"], 0, None),
        (None, ["train", "--model", "memorizer", "--in", "{ds}", "--out", "{tmp}/m.npz"], 1,
         "run `encode` first"),
        (_encode_and_train, ["eval", "--model", "{tmp}/m.npz", "--in", "{ds}",
                             "--split", "bogus"], 64, "invalid choice: 'bogus'"),
        (lambda ds, tmp: (ds / "ontology.json").unlink(), ["encode", "--in", "{ds}"], 1,
         "has no ontology.json"),
        (_bogus_action_in_first_train_dialogue, ["encode", "--in", "{ds}"], 1,
         "train/dlg000000: action 'restaurant-CONFIRM-bogus' is not in the catalog"),
        (None, ["generate", "--preset", "simple", "--ontology", "{ds}/ontology.json",
                "--dialogues", "5", "--out", "{tmp}/out"], 64,
         "argument --ontology: not allowed with argument --preset"),
        (None, ["generate", "--dialogues", "5", "--out", "{tmp}/out"], 64,
         "one of the arguments --preset --ontology is required"),
        (None, ["sweep", "--preset", "simple", "--ontology", "{ds}/ontology.json",
                "--rates", "0", "--dialogues", "5", "--out", "{tmp}/out"], 64,
         "argument --ontology: not allowed with argument --preset"),
        (None, ["sweep", "--rates", "0", "--dialogues", "5", "--out", "{tmp}/out"], 64,
         "one of the arguments --preset --ontology is required"),
    ],
    ids=["two-split-fractions", "nan-split-fraction", "train-in-encoded",
         "eval-in-encoded", "train-unencoded", "eval-bogus-split", "encode-without-ontology",
         "encode-action-outside-catalog", "generate-preset-and-ontology",
         "generate-no-ontology", "sweep-preset-and-ontology", "sweep-no-ontology"],
)
def test_cli_path(prepare, argv, code, says, tiny_dataset, tmp_path, capsys):
    if prepare is not None:
        prepare(tiny_dataset, tmp_path)
    capsys.readouterr()
    argv = [a.format(ds=tiny_dataset, tmp=tmp_path) for a in argv]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert (says or "") in err and "Traceback" not in err
    assert code == 0 or not (tmp_path / "out").exists()
