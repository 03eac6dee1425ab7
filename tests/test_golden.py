"""Byte-level contract: pinned digests of a small generate -> inject -> encode
-> train -> eval chain and of a tiny sweep, per preset.

A change that alters these bytes on purpose (for example a new RNG stream for
injection) updates the pins here and says so in CHANGES.md.  Manifests are
pinned with the tool version masked, and so are the hashes of input manifests
they quote, so that a version bump does not move the pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

from dialoforge import __version__
from dialoforge.cli import run_cli
from dialoforge.dataset import SPLIT_NAMES, read_dataset, write_dataset
from dialoforge.encoding import encode_dataset, encode_dialogue, read_encoded
from dialoforge.harness import train_linear
from dialoforge.injection import read_records, revert_errors
from dialoforge.ontology import preset_ontology

PINNED = (
    "train.jsonl",
    "val.jsonl",
    "test.jsonl",
    "perturbations.jsonl",
    "encoded/layout.json",
    "encoded/train.bin",
    "encoded/val.bin",
    "encoded/test.bin",
)

GOLDEN = {
    "simple": {
        "train.jsonl": "dab259abda2ecab318b178b49797f78de1ce49512f3a5b567c35d8602ed8e7cc",
        "val.jsonl": "f4e6ec0e8f5dd788e7f503ac01d2680e1b04ca85785bb6ddde5c4d23cd6bf153",
        "test.jsonl": "ade9da51ab5a90a153176572b1e0002ac7cfbc7f02f7b5d1366e1c17a0a7b0a1",
        "perturbations.jsonl": "c9de2218548485260dbea77c49a50be79d216d0ebe9bd64fcf6b873ca1e38a59",
        "encoded/layout.json": "1eee668ae9d56c01fe7cf95bbb0c2c2e9e499c070f3c53afa8392fdb3e51b810",
        "encoded/train.bin": "92a3864814ce2fb3e09bddd9339c454c5d0671bad19f7ec52c65ce9d44a7e8bb",
        "encoded/val.bin": "753a01efbe77078a5cf59b2b6f8355dec6e876c4973cb458def68144f5f7fcb5",
        "encoded/test.bin": "a53f35bc554c720a4abbf2551f3c3d017a192511f81bebb00bffe6e9310c6467",
    },
    "medium": {
        "train.jsonl": "84c72a9e86ebcd22f10829988ed99dd6b9813b5ae76a5a12f2020f793ecc2301",
        "val.jsonl": "edf6374a48d048889c43031bab971e76a4deb2f7fd04179d9f59abbaa4344005",
        "test.jsonl": "f767a91ef6eff81cb177c267a22dce63519d4168ed2d94485464b2d73c200d6a",
        "perturbations.jsonl": "cd3d0e8edd01f84a065ab14989f153c4edc314f8ffff73730eb6c4cde751d8fe",
        "encoded/layout.json": "881038f4a2e77e97c9ff08f6f46e6a0b25f38d59d77159683bbcb934840c5c87",
        "encoded/train.bin": "47a0ee0c1eea79d1171bf7f639f8c72745bc334e2a3e54f642fef599dd8c6735",
        "encoded/val.bin": "d708050b38015927fbc51d1c8f1126a46bc88c21794cceb87fbfd22e66ccc452",
        "encoded/test.bin": "e923e93ec07a6e13a129865f1df33e499083a12a282d96920c9d8a2b689f839f",
    },
    "hard": {
        "train.jsonl": "8703c60d9e94d5f9fa585d1dd6a0624212ee8b017a8e74215064a4f817d7f27d",
        "val.jsonl": "16e79650ca0e7cec3f9b4f88768a08bef6c9a4a3a7d32b60bb32e2bf159ec1a1",
        "test.jsonl": "df879d506c73f0654db3cef5aa786981376c2b8438d8a9206c90ce4015d2011d",
        "perturbations.jsonl": "6ad0938bbc56589a05ecadc65b6ee52985a04df77aa109fdb410e77e473b2b49",
        "encoded/layout.json": "918606b564f97a173fc30d15336a4d3e45b3faa6a7c1ad23eec424b9225b180d",
        "encoded/train.bin": "e95779df055fa00e28c49f6e812e40d0bd879b84067f7354cb178ad47a945993",
        "encoded/val.bin": "a6aa178c448d5f53427b09bec49f48d2f77993d88d0bc1cfe1eef3cc65351e6c",
        "encoded/test.bin": "edc5a0fd258e4315f6747c5e0a680c4a44bc6a801a432837c94d378e34b1b2ff",
    },
}


MANIFEST_GOLDEN = {
    "simple": {
        "clean/manifest.json": "78bf3ecea760ae5e72998d9c0cf460f7653b0ee4fc735945de2f3763dc02e4d2",
        "noisy/manifest.json": "54b51581e1faf500bbd32e9983fa3306aeb120b1e435c2d67462cdee0fadc199",
        "noisy/encoded/manifest.json": "9e2646188d3547e8e61c4ae28ed56338d716d0b00a00505bd4198ae3f752e132",
        "sweep/manifest.json": "702f3612675fb45c91f4bbdc1d4b12c4fa037a068ebb0dc8921e63ac6b23fdeb",
    },
    "medium": {
        "clean/manifest.json": "38d13535ab39b663c9b767fc508bbad54ddc21277026167d44a3bb4b96ae9ec7",
        "noisy/manifest.json": "ef6ecc967c9a6138382b8a033b8a5d65483bbeec9cf8ce5c72ce68dd95326987",
        "noisy/encoded/manifest.json": "95bf9a37067b0f955d53aa5849ab3fa68f3b5e3563a1822dda6d9d848b08b4bb",
        "sweep/manifest.json": "cdf0e902000b60dca1b7bbed156f2a7feac519a71af73a4c00a406d7cbe7498b",
    },
    "hard": {
        "clean/manifest.json": "68ba8f953aa742a521acb2b7c069bccad99b0df022a811b63b33f7789d6ca434",
        "noisy/manifest.json": "010afd1cde37727ced96e505fc6a05b6706375d8b238c938e6af1a384da2d028",
        "noisy/encoded/manifest.json": "7c6cee6d9b08982870c7675a080a96c3c0268148cae2d238c8dee2a977077a2b",
        "sweep/manifest.json": "dceb7527466552ae85659c025c3836a2d3eac219666981a7f4e9600a5eca426d",
    },
}

EVAL_GOLDEN = {
    "simple": {
        "memorizer": "2f07565910092c94b563bd89c2210e36c55e7825880a68ed01281953e59f8ec3",
        "linear": "e38e09f0b00e5052f372d57f339427ed65594c79f755516bfdfb438eb47aa856",
    },
    "medium": {
        "memorizer": "1b521320c34395abc13e192a1cca07846ec2f6aacd749661cce9764d1464942e",
        "linear": "2403426ab9d3f5a9b157b52374d202f2c79b389a82d5b89949e2312cfabe5df6",
    },
    "hard": {
        "memorizer": "cff8815156ca2baa3a6f9dd5d93dbf398e2966ba4235332088c46aa17e9a63c0",
        "linear": "22b7b655b0a5769a33dfe46e08bad7f257bdebfed66e0e1826414dbcef04f1f2",
    },
}

SWEEP_GOLDEN = {
    "simple": {"sweep.csv": "cb1cfd620a19350527ef24ad2f83f7256e527837d4de625cd4b5e5904780efb2"},
    "medium": {"sweep.csv": "409d075bad609d77542866b3128b96c5dc3a7220f52d2e263c28a566d8dcd101"},
    "hard": {"sweep.csv": "6cc3a64625ea0c569c8b85a762bc6dce737ed46facf62782cca9d8419698effb"},
}

# inject runs on the chain's clean dataset (seed 37) that the mixed 0.3 run
# does not reach: certain relabels, near-certain UNKs, and action noise on the
# train split only.
INJECT_VARIANTS = {
    "relabel": ["--p-intent", "1", "--p-action", "1", "--p-slot", "1", "--mode", "relabel"],
    "unk": ["--p-intent", "0.9", "--p-action", "0.9", "--p-slot", "0.9", "--mode", "unk"],
    "train-actions": ["--p-action", "0.5", "--splits", "train"],
}
VARIANT_PINNED = ("train.jsonl", "val.jsonl", "test.jsonl", "perturbations.jsonl")
VARIANT_GOLDEN = {
    "simple": {
        "relabel": {
            "train.jsonl": "6388a43b8be238d35cb6ee5c8288fe81f6e8f97d42f7319e4740eb30509e0424",
            "val.jsonl": "d260e9fdf8fa9e2ba611db1b1af34cdcbc02f81b130b8c2c27227bf35166f643",
            "test.jsonl": "8f80684e36a35ae70842949acd806cce70e3aaa510308e379397d356420fcfda",
            "perturbations.jsonl": "0603f10992c4cf65b33fd65f40a1f31d27983042735b050320122bd5d3ca8a4b",
        },
        "unk": {
            "train.jsonl": "511f35b88a011eeccb8972b202ad83a049b9857f9590e810e28b3a52a222a42e",
            "val.jsonl": "5eb357ea30ecc2a8e4dd14989340ea366538579149ca7a048b4ae102148da402",
            "test.jsonl": "9ce56a7dc60783625a9c6729097e89f3e1b3a2bde95fd8b2a291b684bd64c08f",
            "perturbations.jsonl": "235ccc4bfac3d244a8ae9fcffc961f2cb1b5d8c5a44a988da8e04cad726cc216",
        },
        "train-actions": {
            "train.jsonl": "bfeb78a92ecd6254150326385ee33b8c084bc8d0b9d231ff31f3a79970fe42d7",
            "val.jsonl": "bd75c00119f9c2ee8a82bd9e2f2fe0eed0c98de0bec9ca92999f0ee17969ea1d",
            "test.jsonl": "a95babb3cdb22e6f044a49e83bcc0118dce78d97a2d4a6c666c0dff41da0f2e3",
            "perturbations.jsonl": "94b7ffaf54aa311f2c64d001a9a7a1e3b402ad477548a4579e3bc5a615b5a562",
        },
    },
    "medium": {
        "relabel": {
            "train.jsonl": "77d83305873f9f47133bef63b3a2dbe8e48a3f3f2a7714ba8581a40add1ea24a",
            "val.jsonl": "3f0abf9241cfe9ec94deee3f1a06e674879de7244470d8b6895f07c945c58336",
            "test.jsonl": "c30928cd79a547b78566b2aea11990d37e6a692c8fef3ff0d1339ff431fcb610",
            "perturbations.jsonl": "99c2915a8a9a4433800bdffe97a2fac7c2d1e5edbc543a33ce54a1e2b684b012",
        },
        "unk": {
            "train.jsonl": "626b1d9b5ac50ae15e4a94fd47600484aea3ff5f3697645d842e69179b50ccf2",
            "val.jsonl": "361dbf33364f1eeea3a289963ec35e676a60053222789cb8517e942ac9083ed2",
            "test.jsonl": "6e7fce1140037468cc6fa7bbbb6b5b787142e13b61dcdf4f854cccee60944453",
            "perturbations.jsonl": "3325494c6f0e57f194e2adfec05587884b008ac0e569abb1f25d1d006b989351",
        },
        "train-actions": {
            "train.jsonl": "f4638de0054e2e57b9e54845937a43cdfd8685ecd3c5a51b5fae60e5a4ad51e4",
            "val.jsonl": "33b45e51ab00e7385da963a3c0c7e99b5df02285c02299241b96be0e5c62d8bb",
            "test.jsonl": "8e72879fb11eb2372af85684334ce943201d5a878ee0124cca84e896b108c7ff",
            "perturbations.jsonl": "c6306320d49b5f8556beb42b68f58b0622a7388263540ab11520a42a797debcc",
        },
    },
    "hard": {
        "relabel": {
            "train.jsonl": "5ef1de4f7b9477b1781822c7af31f273f8a3f943de531e4e7866a48eecd65c89",
            "val.jsonl": "f62aadc319bf64cf84e811f2ac9cebbed9a1b40f73e543e4e803acd0d1a86ea1",
            "test.jsonl": "8dc666dec9710bf74e579d8b72cd69853cdea7af74cd510c66c0bf3b1a666636",
            "perturbations.jsonl": "7b6f8be955fd2bb943b99dc0f6f1056edea83c27840123d395b44c48cfbbaa24",
        },
        "unk": {
            "train.jsonl": "28620a30d000e3fa1251729ab8dc9ec8b3722e426bb974ea946ff6dc98426b1c",
            "val.jsonl": "84fbab6968552b97c5355a5e8b347905d2e8afcb2b4a242daaccc08c83040922",
            "test.jsonl": "e26ce0158023e9b917fb2a9a8abf5fe335ae73e2c3c15d10b0e61b6d48655035",
            "perturbations.jsonl": "1416c719599ab5bedd3c56a44f4949f07dc8b2cbad186c50bd7d886e75f08868",
        },
        "train-actions": {
            "train.jsonl": "ca0f70588e566e55ce99804e220d5749f10149ac48474b9b26571080a45bcfd9",
            "val.jsonl": "d431372c6eff7acbeac87754caa3d2ba2b4041fd3ab4605c31965082019d083e",
            "test.jsonl": "d57aa90f2cacbde4bb0ce2c9e4aecd3327b69208fc1b6a1c2287ac75479f3752",
            "perturbations.jsonl": "257b8f56f96976a8d74cb3d280073837bcef525a0d468ccf384ede2ab298d86b",
        },
    },
}

# sweep.csv of a sweep over the seven rates of the benchmark's sweep.
SWEEP_RATES = "0,0.1,0.2,0.4,0.6,0.8,0.9"
SWEEP7_GOLDEN = {
    "simple": "37aaf86aff97fc8a79c4418217d4b2e8c13740be3f39b72303b00b4facfb4623",
    "medium": "228caee599687490c527314467dec3f9a5eb4dc90349ac600ae2ad3bfc8f1f5e",
    "hard": "96c914d783d04704e389a5705af43daed0c1b6e3c708cb3962fca666e4ae8bde",
}

# train_linear with its defaults (seed 29) on the chain's encoded train split.
LINEAR_GOLDEN = {
    "simple": {
        "weights": "c69b59d9e838a58c8d57d2edf199f41dde01aca3862092cd5941c512ce2cfef5",
        "bias": "6bc9e688be47782ac2599820d82dbe3b48b54608afcb8c196478446be0fd9b2f",
        "loss_history": "a36e0d59d47f55369245e715c21545abfe9a741d24fe39464acae4eef1e28c3c",
    },
    "medium": {
        "weights": "4fb372e76c8acf58f1dd80922ebb760860451f0d15f258d76bc59f2a7d09d11a",
        "bias": "5bf30db179dd48433992cbc8c82aee26e9136f9fc36b72131d6f709bf1a2de44",
        "loss_history": "7196afff86e82cef110067a338a68c9a975c746c7a306961de031bbe029a3523",
    },
    "hard": {
        "weights": "8483f56a3fcd1e6a6ae505a2c9337275cc94182061ba0c4c936cec11c24437bf",
        "bias": "0dad797e95937a95b474a45f9ae3967d4fc5e961603eb924c0373cd78b068591",
        "loss_history": "1c33451c0c2a0a46ce823c41f0e083bc70540d19291f109a7e51c4aa58d9d77a",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked_manifest(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    text = text.replace(f'"tool_version": "{__version__}"', '"tool_version": "<tool>"')
    return re.sub(r'("manifest\.json": )"[0-9a-f]{64}"', r'\1"<manifest>"', text)


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def chain(request, tmp_path_factory):
    """Run the chain once per preset; the tests below read its outputs."""
    preset = request.param
    root = tmp_path_factory.mktemp(preset)
    clean, noisy, sweep = root / "clean", root / "noisy", root / "sweep"
    _cli_stdout(
        ["generate", "--preset", preset, "--dialogues", "200", "--seed", "17",
         "--out", str(clean)]
    )
    _cli_stdout(
        ["inject", "--in", str(clean), "--p-intent", "0.3", "--p-action", "0.3",
         "--p-slot", "0.3", "--mode", "mixed", "--seed", "23", "--out", str(noisy)]
    )
    _cli_stdout(["encode", "--in", str(noisy)])
    evals = {}
    for model in ("memorizer", "linear"):
        path = root / f"{model}.npz"
        _cli_stdout(["train", "--model", model, "--in", str(noisy), "--epochs", "5",
                     "--seed", "29", "--out", str(path)])
        evals[model] = _cli_stdout(["eval", "--model", str(path), "--in", str(noisy)])
    _cli_stdout(
        ["sweep", "--preset", preset, "--rates", "0,0.5", "--models", "memorizer,linear",
         "--seeds", "1", "--dialogues", "60", "--seed", "31", "--out", str(sweep)]
    )
    return preset, root, evals


def test_chain_bytes_match_pins(chain):
    preset, root, _ = chain
    noisy = root / "noisy"
    digests = {name: _sha256((noisy / name).read_bytes()) for name in PINNED}
    assert digests == GOLDEN[preset]


def test_manifest_bytes_match_pins(chain):
    preset, root, _ = chain
    digests = {
        name: _sha256(_masked_manifest(root / name).encode("utf-8"))
        for name in ("clean/manifest.json", "noisy/manifest.json",
                     "noisy/encoded/manifest.json", "sweep/manifest.json")
    }
    assert digests == MANIFEST_GOLDEN[preset]


def test_eval_stdout_matches_pins(chain):
    preset, _, evals = chain
    digests = {model: _sha256(out.encode("utf-8")) for model, out in evals.items()}
    assert digests == EVAL_GOLDEN[preset]


def test_sweep_exports_match_pins(chain):
    preset, root, _ = chain
    digests = {"sweep.csv": _sha256((root / "sweep" / "sweep.csv").read_bytes())}
    assert digests == SWEEP_GOLDEN[preset]


def test_linear_model_bits_match_pins(chain):
    preset, root, _ = chain
    model = train_linear(read_encoded(root / "noisy" / "encoded").splits["train"], seed=29)
    digests = {
        "weights": _sha256(model.weights.tobytes()),
        "bias": _sha256(model.bias.tobytes()),
        "loss_history": _sha256(np.array(model.loss_history).tobytes()),
    }
    assert digests == LINEAR_GOLDEN[preset]


def test_encode_dialogue_rows_match_encode_dataset(chain):
    preset, root, _ = chain
    ontology = preset_ontology(preset)
    noisy = read_dataset(root / "noisy")
    encoded = encode_dataset(noisy, ontology)
    for split, dialogues in noisy.splits.items():
        pairs = [encode_dialogue(dlg, ontology) for dlg in dialogues]
        for block, rows in enumerate(encoded.splits[split]):
            assert np.array_equal(np.concatenate([pair[block] for pair in pairs]), rows)


def test_audit_log_on_disk_restores_the_clean_splits(chain, tmp_path):
    _, root, _ = chain
    noisy = root / "noisy"
    restored = revert_errors(read_dataset(noisy), read_records(noisy / "perturbations.jsonl"))
    write_dataset(restored, tmp_path)
    for split in SPLIT_NAMES:
        name = f"{split}.jsonl"
        assert (tmp_path / name).read_bytes() == (root / "clean" / name).read_bytes()


def _variant_digests(clean: Path, root: Path) -> dict[str, dict[str, str]]:
    digests = {}
    for name, flags in INJECT_VARIANTS.items():
        out = root / name
        _cli_stdout(["inject", "--in", str(clean), *flags, "--seed", "37", "--out", str(out)])
        digests[name] = {f: _sha256((out / f).read_bytes()) for f in VARIANT_PINNED}
    return digests


def _sweep7_digest(preset: str, out: Path) -> str:
    _cli_stdout(
        ["sweep", "--preset", preset, "--rates", SWEEP_RATES, "--models", "memorizer,linear",
         "--seeds", "1", "--dialogues", "60", "--seed", "43", "--out", str(out)]
    )
    return _sha256((out / "sweep.csv").read_bytes())


def test_inject_variant_bytes_match_pins(chain, tmp_path):
    preset, root, _ = chain
    assert _variant_digests(root / "clean", tmp_path) == VARIANT_GOLDEN[preset]


def test_seven_rate_sweep_matches_pins(chain, tmp_path):
    preset, _, _ = chain
    assert _sweep7_digest(preset, tmp_path / "sweep") == SWEEP7_GOLDEN[preset]
