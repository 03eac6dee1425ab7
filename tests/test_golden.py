"""Byte-level contract: pinned digests of a small generate -> inject -> encode chain.

A change that alters these bytes on purpose (for example a new RNG stream for
injection) updates the pins here and says so in CHANGES.md.  Manifests are
left out so that a version bump does not move the pins.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dialoforge.cli import run_cli

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
        "encoded/train.bin": "1f50217e52f639a039a4147d97878ab71548f9e7f43588811c557b8cfec3c5be",
        "encoded/val.bin": "09703b2c4652ac4655dfce323f188c87132e807665a20bec2f0e428a1094ab51",
        "encoded/test.bin": "5f5dcb5339609c264abd09420a66a0b5ae47cd18cb35c655fb79b80203be307d",
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
        "encoded/train.bin": "64869e89f09f7487e7166534b1b5228fec8776cfd9cb56185de77051abd188da",
        "encoded/val.bin": "a6aa178c448d5f53427b09bec49f48d2f77993d88d0bc1cfe1eef3cc65351e6c",
        "encoded/test.bin": "edc5a0fd258e4315f6747c5e0a680c4a44bc6a801a432837c94d378e34b1b2ff",
    },
}


def _chain_digests(preset: str, tmp_path: Path) -> dict[str, str]:
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    assert run_cli(
        ["generate", "--preset", preset, "--dialogues", "200", "--seed", "17",
         "--out", str(clean)]
    ) == 0
    assert run_cli(
        ["inject", "--in", str(clean), "--p-intent", "0.3", "--p-action", "0.3",
         "--p-slot", "0.3", "--mode", "mixed", "--seed", "23", "--out", str(noisy)]
    ) == 0
    assert run_cli(["encode", "--in", str(noisy)]) == 0
    return {name: hashlib.sha256((noisy / name).read_bytes()).hexdigest() for name in PINNED}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_chain_bytes_match_pins(preset, tmp_path):
    assert _chain_digests(preset, tmp_path) == GOLDEN[preset]
