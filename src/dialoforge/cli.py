"""Command-line entry point: validate, generate, inject, encode, train, eval, sweep.

Conventions: all diagnostics go to stderr, all data to files (or stdout for
`eval`'s machine-readable report); every output directory receives exactly one
manifest.json recording the resolved configuration and input hashes, and
carries no wall-clock fields so reruns stay byte-identical.  Exit codes:
0 success, 1 validation error, 2 runtime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import __version__
from .dataset import (
    SPLIT_NAMES, Dataset, read_dataset, read_json, write_dataset, write_generated, write_json,
    write_manifest,
)

# Not called here, but bound: perfbench's tracer wraps this name on the cli
# module (perfbench/workloads.py, install_wraps) and raises AttributeError
# where it is missing.
from .dataset import generate_dataset  # noqa: F401
from .encoding import EncodedDataset, encode_dataset, read_encoded, write_encoded
from .engine import GeneratorConfig
from .errors import DialoforgeError, ValidationError
from .harness import (
    LINEAR_RULES,
    MODEL_KINDS,
    collector_paused,
    compute_metrics,
    load_model,
    predict,
    robustness_sweep,
    save_model,
    train_linear,
    train_memorizer,
    write_sweep_csv,
)
from .injection import NOISE_SPLITS, ErrorConfig, inject_errors, write_records
from .ontology import (
    PRESET_NAMES, Ontology, check_object, check_setting, load_ontology_file, preset_ontology,
)

SEED_ENV_VAR = "DIALOFORGE_SEED"

_MODE_WEIGHTS = {"relabel": (1.0, 0.0), "unk": (0.0, 1.0), "mixed": (0.5, 0.5)}

# Per command, the settings it takes as flags declared from their owner's rule
# table, with their rules in the table's order (see _add_table_flags, _given).
_GENERATOR_FLAGS = {
    name: GeneratorConfig.RULES[name]
    for name in ("n_dialogues", "p_chitchat", "p_mind_change", "p_domain_change")
}
_INJECT_FLAGS = {name: ErrorConfig.RULES[name] for name in ("p_intent", "p_action", "p_slot")}
_TRAIN_FLAGS = {name: LINEAR_RULES[name] for name in ("learning_rate", "l2", "epochs")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64 with a synopsis
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


_HASH_BLOCK = 1 << 20  # bytes a file is hashed in, so no whole input is held


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def _input_hashes(indir: Path) -> dict:
    return {
        p.name: _sha256_file(p)
        for p in sorted(indir.iterdir())
        if p.is_file() and p.suffix in (".json", ".jsonl", ".bin")
    }


def _resolve_seed(args) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return args.seed if env is None else int(env)
    except ValueError:  # a string is no int, so the check raises
        return check_setting(SEED_ENV_VAR, env, "an int")


def _load_cli_ontology(args) -> Ontology:
    return preset_ontology(args.preset) if args.preset else load_ontology_file(args.ontology)


def _dataset_ontology(indir: Path, dataset: Dataset) -> Ontology:
    """The dataset's ontology.json, checked against its manifest's ontology_hash."""
    path = indir / "ontology.json"
    if not path.exists():
        raise ValidationError(f"{indir} has no ontology.json (not produced by `generate`?)")
    ontology = load_ontology_file(path)
    content_hash = ontology.content_hash()
    if content_hash != dataset.ontology_hash:
        raise ValidationError(
            f"{path}: content hash {content_hash} differs from "
            f"{indir / 'manifest.json'}'s ontology_hash {dataset.ontology_hash}"
        )
    return ontology


def _check_out(out: Path, subcommand: str, indir: Optional[Path] = None) -> None:
    """Refuse an --out that would write over an input or could not be made,
    before anything is read or written: the --in directory itself, a file, a
    path below a file, or a directory whose manifest.json another command
    wrote.  A rerun into the command's own output goes ahead."""
    if indir is not None and out.resolve() == indir.resolve():
        raise ValidationError(
            f"--out {out} is --in {indir}; {subcommand} would write over its input"
        )
    # A relative path's last parent is ".", so some path here exists.
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        where = "is a file" if existing == out else f"lies below the file {existing}"
        raise ValidationError(f"--out {out} {where}; {subcommand} writes a directory")
    manifest = out / "manifest.json"
    if manifest.is_file():
        found = read_json(manifest)
        owner = found.get("subcommand") if isinstance(found, dict) else None
        if owner != subcommand:
            writer = f"`{owner}`" if isinstance(owner, str) else "no command"
            raise ValidationError(
                f"--out {out}: {manifest} was written by {writer}; {subcommand} "
                "writes over its own output only"
            )


def _write_ontology(outdir: Path, ontology: Ontology) -> None:
    write_json(outdir / "ontology.json", ontology.to_dict())


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} needs comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    ontology = load_ontology_file(args.file)
    _log(
        f"ok: {len(ontology.domains)} domain(s), "
        f"{len(ontology.slot_keys())} slot(s), "
        f"{len(ontology.action_catalog)} atomic action(s)"
    )
    return 0


def _flag(field: str) -> str:
    """The flag that sets a setting: --dialogues for n_dialogues, else the
    setting's name in kebab case."""
    return "--dialogues" if field == "n_dialogues" else "--" + field.replace("_", "-")


def _given(args, flags: dict) -> dict:
    """The settings of a table of flags whose flag was given, each checked
    against its rule under the flag's name."""
    # argparse stores a flag under its name in snake case (--dialogues as dialogues).
    values = {name: getattr(args, _flag(name)[2:].replace("-", "_")) for name in flags}
    return {name: check_setting(_flag(name), value, flags[name])
            for name, value in values.items() if value is not None}


def _generator_config(args, ontology: Ontology) -> GeneratorConfig:
    """Resolve generation settings: flags first, then the ontology's
    defaults (see GeneratorConfig.for_ontology).  A flag's value must meet
    its field's rule, and an error names the flag."""
    fields = _given(args, _GENERATOR_FLAGS)
    if getattr(args, "split_fractions", None) is not None:
        fractions = _parse_floats(args.split_fractions, "--split-fractions")
        rule = GeneratorConfig.RULES["split_fractions"]
        fields["split_fractions"] = check_setting("--split-fractions", fractions, rule)
    return GeneratorConfig.for_ontology(ontology, seed=_resolve_seed(args), **fields)


def _cmd_generate(args) -> int:
    check_setting("--jobs", args.jobs, "an int >= 1")
    out = Path(args.out)
    _check_out(out, "generate")
    ontology = _load_cli_ontology(args)
    cfg = _generator_config(args, ontology)
    sizes = write_generated(
        ontology,
        cfg,
        out,
        jobs=args.jobs,
        manifest_extra={"subcommand": "generate", "preset": args.preset},
    )
    # Only after generation succeeded, so a failed run leaves no --out behind.
    _write_ontology(out, ontology)
    _log(
        f"generated {sum(sizes.values())} dialogues "
        f"({sizes['train']}/{sizes['val']}/{sizes['test']}) into {out}"
    )
    return 0


def _cmd_inject(args) -> int:
    rates = _given(args, _INJECT_FLAGS)
    indir, out = Path(getattr(args, "in")), Path(args.out)
    _check_out(out, "inject", indir)
    if (indir / "perturbations.jsonl").exists():
        # The new log could restore only this input, not the clean data.
        raise ValidationError(
            f"{indir / 'perturbations.jsonl'}: input already holds injected noise; "
            "inject into the clean dataset instead"
        )
    dataset = read_dataset(indir)
    ontology = _dataset_ontology(indir, dataset)
    cfg = ErrorConfig(**rates, mode_weights=_MODE_WEIGHTS[args.mode], seed=_resolve_seed(args))
    perturbed, records = inject_errors(dataset, ontology, cfg, splits=args.splits)
    out.mkdir(parents=True, exist_ok=True)
    _write_ontology(out, ontology)
    write_dataset(
        perturbed,
        out,
        manifest_extra={
            "subcommand": "inject",
            "error_config": asdict(cfg),
            "noise_applied_to": args.splits,
            "n_perturbations": len(records),
            "input_hashes": _input_hashes(indir),
        },
    )
    write_records(records, out / "perturbations.jsonl")
    _log(f"perturbed {len(records)} labels into {out}")
    return 0


def _cmd_encode(args) -> int:
    indir = Path(getattr(args, "in"))
    out = Path(args.out) if args.out else indir / "encoded"
    _check_out(out, "encode", indir)
    dataset = read_dataset(indir)
    ontology = _dataset_ontology(indir, dataset)
    encoded = encode_dataset(dataset, ontology)
    out.mkdir(parents=True, exist_ok=True)
    write_encoded(encoded, out, csv=args.csv)
    write_manifest(
        out,
        {
            "subcommand": "encode",
            "rows": {s: encoded.n_pairs(s) for s in encoded.splits},
            "input_hashes": _input_hashes(indir),
        },
    )
    _log(f"encoded {sum(encoded.n_pairs(s) for s in encoded.splits)} turns into {out}")
    return 0


def _check_encoded_from(indir: Path, enc_dir: Path) -> None:
    """Each file of indir that enc_dir's manifest.json hashed still has that
    hash; a file added since does not count.  The library's write_encoded
    writes no manifest, and then there is nothing to compare."""
    manifest = enc_dir / "manifest.json"
    if not manifest.is_file():
        return
    where = f"{manifest}: $"
    found = check_object(read_json(manifest), where, {"input_hashes": "an object"}, extra=True)
    hashes = found["input_hashes"]
    plain = [name for name in hashes if name not in ("", "..") and Path(name).name == name]
    check_object(hashes, f"{where}.input_hashes", dict.fromkeys(plain, "a string"))
    for name, digest in hashes.items():
        path = indir / name
        if not path.is_file() or _sha256_file(path) != digest:
            state = "changed" if path.is_file() else "is gone"
            raise ValidationError(
                f"{enc_dir} is stale: {path} {state} since it was encoded; run `encode` again"
            )


def _find_encoded(indir: Path) -> Path:
    if (indir / "train.bin").exists():
        return indir
    if (indir / "encoded" / "train.bin").exists():
        _check_encoded_from(indir, indir / "encoded")
        return indir / "encoded"
    raise ValidationError(f"no encoded data under {indir}; run `encode` first")


def _rows(encoded: EncodedDataset, enc_dir: Path, split: str) -> tuple:
    """The (states, targets) of one split, which must hold rows."""
    if split not in encoded.splits:
        raise ValidationError(f"split {split!r} not present in {enc_dir}")
    if not encoded.n_pairs(split):
        raise ValidationError(f"{enc_dir / (split + '.bin')}: split {split!r} has no rows")
    return encoded.splits[split]


def _cmd_train(args) -> int:
    out = Path(args.out)
    if out.exists():
        try:  # a directory raises OSError
            load_model(out)
        except (ValidationError, OSError):
            raise ValidationError(
                f"--out {out} is no model file; train writes over its own output only"
            ) from None
    enc_dir = _find_encoded(Path(getattr(args, "in")))
    encoded = read_encoded(enc_dir)
    train_split = _rows(encoded, enc_dir, "train")
    if args.model == "memorizer":
        model = train_memorizer(train_split)
    else:
        seed = check_setting(f"--seed ({SEED_ENV_VAR})", _resolve_seed(args), LINEAR_RULES["seed"])
        model = train_linear(train_split, seed=seed, **_given(args, _TRAIN_FLAGS))
    save_model(model, args.out, encoded.ontology_hash)
    _log(f"trained {args.model} on {train_split[0].shape[0]} turns -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model, model_hash = load_model(args.model)
    enc_dir = _find_encoded(Path(getattr(args, "in")))
    encoded = read_encoded(enc_dir)
    if model_hash != encoded.ontology_hash:
        raise ValidationError(
            f"{args.model}: ontology_hash {model_hash} differs from "
            f"{enc_dir / 'layout.json'}'s {encoded.ontology_hash}"
        )
    states, golds = _rows(encoded, enc_dir, args.split)
    preds = predict(model, states)
    report = compute_metrics(preds, golds)
    _log(report.pretty(list(encoded.layout.actions)))
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    out = Path(args.out)
    _check_out(out, "sweep")
    ontology = _load_cli_ontology(args)
    rates = _parse_floats(args.rates, "--rates")
    for rate in rates:  # a rate is each p_ of an ErrorConfig
        check_setting("--rates", rate, ErrorConfig.RULES["p_intent"])
    models = [m.strip() for m in args.models.split(",")]
    check_setting("--seeds", args.seeds, "an int >= 1")
    gen_cfg = _generator_config(args, ontology)
    result = robustness_sweep(
        ontology,
        gen_cfg,
        rates,
        models,
        seed=gen_cfg.seed,
        n_seeds=args.seeds,
        mode_weights=_MODE_WEIGHTS[args.mode],
    )
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result, out / "sweep.csv")
    write_manifest(out, {"subcommand": "sweep", "sweep": result.manifest})
    _log(f"swept {len(rates)} rate(s) x {len(models)} model(s) x {args.seeds} seed(s) -> {out}")
    return 0


# ---------------------------------------------------------------------------


def _add_table_flags(p: argparse.ArgumentParser, flags: dict) -> None:
    """One flag per setting of a table of flags, parsed as an int for an
    `an int ...` rule and as a float for any other.  It has no default, so
    the default of the setting's owner applies."""
    for name, rule in flags.items():
        p.add_argument(_flag(name), type=int if rule.startswith("an int") else float)


def _add_ontology_flags(p: argparse.ArgumentParser) -> None:
    """--preset or --ontology: exactly one names the ontology to use."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES)
    source.add_argument("--ontology", help="custom ontology file")


def build_parser() -> _Parser:
    parser = _Parser(prog="dialoforge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check an ontology file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate", help="generate a clean dataset")
    _add_ontology_flags(p)
    p.add_argument("--seed", type=int, default=0)
    _add_table_flags(p, _GENERATOR_FLAGS)
    p.add_argument("--split-fractions", default=None, help="e.g. 0.6,0.2,0.2")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("inject", help="apply label noise to a dataset")
    p.add_argument("--in", required=True)
    _add_table_flags(p, _INJECT_FLAGS)
    p.add_argument("--mode", choices=tuple(_MODE_WEIGHTS), default="mixed")
    p.add_argument("--splits", choices=NOISE_SPLITS, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("encode", help="encode a dataset into binary matrices")
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=None, help="defaults to <in>/encoded")
    p.add_argument("--csv", action="store_true", help="also export 0/1 CSV")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train a baseline model")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_table_flags(p, _TRAIN_FLAGS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model on an encoded split")
    p.add_argument("--model", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="error-rate robustness sweep")
    _add_ontology_flags(p)
    p.add_argument("--rates", required=True, help="comma-separated ascending rates")
    p.add_argument("--models", default="memorizer")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_table_flags(p, _GENERATOR_FLAGS)
    p.add_argument("--mode", choices=tuple(_MODE_WEIGHTS), default="mixed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    # A command builds and reads graphs of hundreds of thousands of records
    # that hold no reference cycles, and the cyclic collector would walk them
    # again at every threshold crossing.  The command owns its run, so it
    # pauses the collector through the helper a sweep uses too.  Forked pool
    # workers inherit the pause.
    with collector_paused():
        try:
            return args.func(args)
        except ValidationError as exc:
            _log(f"error: {exc}")
            return 1
        except (DialoforgeError, OSError) as exc:
            _log(f"runtime error: {exc}")
            return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
