"""Run one benchmark workload in this process and print its raw figures.

Usage (normally through perfbench/run.py, with PYTHONPATH=src):

    python3 perfbench/workloads.py --workload sweep-simple --seed 1 \
        --seconds 30 --trace 0 [--smoke] [--setup-only]

The process sets the workload up, then runs ops in a closed loop (one client,
one op at a time, the next op starts when the previous one has been checked)
until --seconds have passed and at least two ops ran.  Every op's output is
checked; an op that raises or fails a check counts as failed.  With
--trace 1 ops alternate between untraced and traced, and the traced ones
yield the per-layer figures.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, process_cpu_s

WORKDIR = Path(".perfbench_work")
MIN_OPS = 2  # the determinism check compares ops with each other
LOOP_CAP_S = 120.0  # no new op starts past this, so a run ends well within 180 s
# Smoke mode shrinks each op for the self-tests.  The sweep keeps its full
# dataset (the memorizer needs it to reach F1 0.99 on clean test data) and
# drops to its end rates instead.
SMOKE_DIALOGUES = {"simple": None, "hard": 400}
SMOKE_SWEEP_RATES = (0.0, 0.9)

SWEEP_RATES = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9)
SWEEP_MODELS = ("memorizer", "linear")
PIPELINE_P = "0.2"
CLI_SUBCOMMANDS = ("generate", "inject", "encode", "train", "eval")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): _sha256(p) for p in sorted(root.rglob("*")) if p.is_file()
    }


def jsonl_turns(dataset_dir: Path) -> dict[str, int]:
    """Turns per split, counted from the JSONL files themselves."""
    out = {}
    for split in ("train", "val", "test"):
        with open(dataset_dir / f"{split}.jsonl", encoding="utf-8") as fh:
            out[split] = sum(len(json.loads(line)["turns"]) for line in fh if line.strip())
    return out


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli_quiet(cli, argv: list[str]) -> str:
    """Call the CLI in-process and return its stdout; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"`dialoforge {' '.join(argv)}` exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    """Set-up, op and output checks of one workload.

    `setup` is the library work done before timing (it is what setup_s
    measures); `run_op` is the timed op; `check_op` runs after the op, untimed,
    and returns the dialogue turns the op carried and a list of problems.
    """

    preset = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.smoke_n = SMOKE_DIALOGUES[self.preset] if smoke else None
        self.workdir = workdir
        self.first_digest: dict[str, str] | None = None

    def import_library(self) -> None:
        from dialoforge import cli, dataset, engine, harness, ontology

        self.cli, self.dataset, self.engine = cli, dataset, engine
        self.harness, self.ontology = harness, ontology

    def setup(self) -> None:
        self.import_library()
        self.ont = self.ontology.preset_ontology(self.preset)
        defaults = self.ont.generation_defaults
        self.n_dialogues = self.smoke_n or defaults["n_dialogues"]
        self.fractions = tuple(c / sum(defaults["split"]) for c in defaults["split"])
        self.expected_splits = dict(
            zip(("train", "val", "test"), self.engine.split_counts(self.n_dialogues, self.fractions))
        )

    def prepare_checks(self) -> None:
        pass

    def run_op(self, opdir: Path):
        raise NotImplementedError

    def check_op(self, result, opdir: Path) -> tuple[int, list[str]]:
        raise NotImplementedError

    def generate_argv(self, out: Path, jobs: int) -> list[str]:
        size = ["--dialogues", str(self.smoke_n)] if self.smoke_n else []
        return ["generate", "--preset", self.preset, "--seed", str(self.seed),
                "--jobs", str(jobs), "--out", str(out), *size]

    def check_same_as_first(
        self, digest: dict[str, str], first: str = "the first op with the same seed"
    ) -> list[str]:
        """Determinism: every op's output files equal the first op's, byte for byte."""
        if self.first_digest is None:
            self.first_digest = digest
            return []
        changed = sorted(k for k in set(digest) | set(self.first_digest)
                         if digest.get(k) != self.first_digest.get(k))
        return [f"output differs from {first}: {changed}"] if changed else []


class SweepSimple(Workload):
    """robustness_sweep on the simple preset, clean dataset built in set-up."""

    preset = "simple"

    def setup(self) -> None:
        super().setup()
        self.gen_cfg = self.engine.GeneratorConfig(
            n_dialogues=self.n_dialogues, seed=self.seed, split_fractions=self.fractions
        )
        self.clean = self.dataset.generate_dataset(self.ont, self.gen_cfg)

    @property
    def rates(self) -> tuple[float, ...]:
        return SMOKE_SWEEP_RATES if self.smoke else SWEEP_RATES

    def run_op(self, opdir: Path):
        return self.harness.robustness_sweep(
            self.ont,
            self.gen_cfg,
            list(self.rates),
            list(SWEEP_MODELS),
            seed=self.seed,
            n_seeds=1,
            mode_weights=(0.5, 0.5),
            base_dataset=self.clean,
        )

    def check_op(self, result, opdir: Path) -> tuple[int, list[str]]:
        problems = []
        rows = result.rows
        if len(rows) != len(self.rates) * len(SWEEP_MODELS):
            problems.append(f"{len(rows)} sweep rows, expected {len(self.rates) * len(SWEEP_MODELS)}")
        for row in rows:
            for name in ("micro_f1", "macro_f1"):
                value = getattr(row.report, name)
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{row.model} @ {row.error_rate}: {name} {value} outside [0, 1]")
        mem0 = [r.report.micro_f1 for r in rows if r.error_rate == 0.0 and r.model == "memorizer"]
        if not mem0 or min(mem0) < 0.99:
            problems.append(f"memorizer micro-F1 at rate 0 is {mem0}, expected >= 0.99")

        def mean_f1(rate: float) -> float:
            return statistics.fmean(r.report.micro_f1 for r in rows if r.error_rate == rate)

        if not mean_f1(self.rates[-1]) < mean_f1(0.0):
            problems.append("mean F1 at the highest rate is not below mean F1 at rate 0")
        self.harness.write_sweep_csv(result, opdir / "sweep.csv")
        problems += self.check_same_as_first(tree_digest(opdir))
        cells = len(rows) // len(SWEEP_MODELS)
        return self.clean.n_turns() * cells, problems


class PipelineHard(Workload):
    """The shell pipeline generate -> inject -> encode -> train x2 -> eval x2."""

    preset = "hard"

    def run_op(self, opdir: Path):
        clean, noisy, seed = str(opdir / "clean"), str(opdir / "noisy"), str(self.seed)
        p = PIPELINE_P
        steps = [
            self.generate_argv(opdir / "clean", 1),
            ["inject", "--in", clean, "--p-intent", p, "--p-action", p, "--p-slot", p,
             "--mode", "mixed", "--seed", seed, "--out", noisy],
            ["encode", "--in", noisy],
            ["train", "--model", "memorizer", "--in", noisy, "--out", str(opdir / "memorizer.npz")],
            ["train", "--model", "linear", "--in", noisy, "--seed", seed,
             "--out", str(opdir / "linear.npz")],
            ["eval", "--model", str(opdir / "memorizer.npz"), "--in", noisy],
            ["eval", "--model", str(opdir / "linear.npz"), "--in", noisy],
        ]
        return [run_cli_quiet(self.cli, argv) for argv in steps]

    def check_op(self, result, opdir: Path) -> tuple[int, list[str]]:
        problems = []
        noisy = opdir / "noisy"
        for name in ("clean", "noisy"):
            splits = read_json(opdir / name / "manifest.json")["splits"]
            if splits != self.expected_splits:
                problems.append(f"{name} split sizes {splits}, expected {self.expected_splits}")
        turns = jsonl_turns(noisy)
        rows = read_json(noisy / "encoded" / "manifest.json")["rows"]
        if rows != turns:
            problems.append(f"encoded rows {rows} differ from turn counts {turns}")
        with open(noisy / "perturbations.jsonl", encoding="utf-8") as fh:
            n_lines = sum(1 for _ in fh)
        n_perturbations = read_json(noisy / "manifest.json")["n_perturbations"]
        if n_lines != n_perturbations:
            problems.append(f"{n_lines} perturbation lines, manifest says {n_perturbations}")
        reports = [json.loads(text) for text in result[-2:]]
        for model, report in zip(("memorizer", "linear"), reports):
            if report["n_samples"] != turns["test"]:
                problems.append(f"{model} eval scored {report['n_samples']} rows, test has {turns['test']}")
            if not 0.0 <= report["micro_f1"] <= 1.0:
                problems.append(f"{model} micro-F1 {report['micro_f1']} outside [0, 1]")
        if not 0.0 < reports[0]["micro_f1"] < 1.0:
            problems.append(f"memorizer micro-F1 {reports[0]['micro_f1']} not in (0, 1)")
        digest = tree_digest(opdir)
        digest["eval.stdout"] = hashlib.sha256("".join(result[-2:]).encode()).hexdigest()
        problems += self.check_same_as_first(digest)
        return sum(turns.values()), problems


class GenerateJobs2Hard(Workload):
    """`generate --jobs 2` on hard, against a --jobs 1 reference from set-up."""

    preset = "hard"

    def setup(self) -> None:
        super().setup()
        self.reference = self.workdir / "reference"
        run_cli_quiet(self.cli, self.generate_argv(self.reference, 1))

    def prepare_checks(self) -> None:
        self.first_digest = tree_digest(self.reference)
        self.turns = sum(jsonl_turns(self.reference).values())

    def run_op(self, opdir: Path):
        return run_cli_quiet(self.cli, self.generate_argv(opdir / "out", 2))

    def check_op(self, result, opdir: Path) -> tuple[int, list[str]]:
        problems = []
        splits = read_json(opdir / "out" / "manifest.json")["splits"]
        if splits != self.expected_splits:
            problems.append(f"split sizes {splits}, expected {self.expected_splits}")
        problems += self.check_same_as_first(tree_digest(opdir / "out"), "the --jobs 1 reference")
        return self.turns, problems


WORKLOADS = {
    "sweep-simple": SweepSimple,
    "pipeline-hard": PipelineHard,
    "generate-jobs2-hard": GenerateJobs2Hard,
}


# ---------------------------------------------------------------------------
# Trace wiring: which library names are wrapped, and what is counted there


def _count_generate(count, sp, args, kwargs, result) -> None:
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    count("engine.turns", result.n_turns())
    count("engine.cpu_s", sp.cpu_s)
    count("engine.wall_x_jobs_s", sp.duration * jobs)
    count("engine.parallel_calls", int(jobs > 1))


def _jsonl_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).glob("*.jsonl"))


def _count_read(count, sp, args, kwargs, result) -> None:
    count("dataset.read_bytes", _jsonl_bytes(args[0]))


def _count_write(count, sp, args, kwargs, result) -> None:
    count("dataset.write_bytes", _jsonl_bytes(args[1]))


def _count_inject(count, sp, args, kwargs, result) -> None:
    source, _, cfg = args[:3]
    splits = kwargs.get("splits", args[3] if len(args) > 3 else "all")
    turns = eligible = 0
    for split, dlg in source.iter_dialogues():
        turns += len(dlg.turns)
        if splits == "train" and split != "train":
            continue
        for turn in dlg.turns:
            if cfg.p_intent > 0:
                eligible += len(turn.user_acts)
            if cfg.p_slot > 0:
                eligible += sum(act.slot is not None for act in turn.user_acts)
            if cfg.p_action > 0:
                eligible += len(turn.system_acts)
    count("injection.turns", turns)
    count("injection.eligible", eligible)
    count("injection.records", len(result[1]))


def _count_encode(count, sp, args, kwargs, result) -> None:
    import numpy as np

    states = [s for s, _ in result.splits.values()]
    packed = np.packbits(np.concatenate(states, axis=0), axis=1)
    count("encoding.rows", packed.shape[0])
    count("encoding.distinct_states", len({row.tobytes() for row in packed}))
    count("encoding.calls", 1)


def _count_predict(count, sp, args, kwargs, result) -> None:
    import numpy as np

    model, states = args[:2]
    table = getattr(model, "table", None)
    if table is None or states.ndim != 2:
        return
    packed = np.packbits(states.astype(np.uint8), axis=1)
    count("harness.memorizer_rows", packed.shape[0])
    count("harness.memorizer_hits", sum(row.tobytes() in table for row in packed))


def _count_sweep(count, sp, args, kwargs, result) -> None:
    count("harness.sweep_cells", len(result.rows) // len(args[3]))


def install_wraps(tracer: Tracer) -> None:
    from dialoforge import cli, dataset, harness, ontology

    wrap = tracer.wrap
    wrap(ontology, "preset_ontology", "ontology.load")
    wrap(cli, "preset_ontology", "ontology.load")
    wrap(cli, "load_ontology_file", "ontology.load")
    for module in (dataset, cli, harness):
        wrap(module, "generate_dataset", "engine.generate", _count_generate)
    wrap(cli, "read_dataset", "dataset.read", _count_read)
    wrap(cli, "write_dataset", "dataset.write", _count_write)
    wrap(cli, "write_records", "injection.write_records")
    wrap(cli, "write_encoded", "encoding.bin_write")
    wrap(cli, "read_encoded", "encoding.bin_read")
    for module in (cli, harness):
        wrap(module, "inject_errors", "injection.inject", _count_inject)
        wrap(module, "encode_dataset", "encoding.encode", _count_encode)
        wrap(module, "train_memorizer", "harness.train_memorizer")
        wrap(module, "train_linear", "harness.train_linear")
        wrap(module, "predict", "harness.predict", _count_predict)
        wrap(module, "compute_metrics", "metrics.compute")
    wrap(harness, "robustness_sweep", "harness.sweep", _count_sweep)
    wrap(cli, "run_cli", lambda args: f"cli.{args[0][0]}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    traced: list[tuple[str, float]],
    untraced_walls: list[float],
    untraced_cpus: list[float],
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer figures from the traced ops, and the accounting problems.

    Times are per op (median over traced ops); rates and ratios pool all
    traced ops.  A layer the workload does not run reports 0.
    """
    setup_self = tracer.self_times("setup")
    setup_counts = tracer.counters["setup"]
    ops = [(op, wall, tracer.self_times(op), tracer.counters[op]) for op, wall in traced]

    def per_op(key: str, counter: bool = False) -> float:
        return statistics.median((c if counter else st).get(key, 0.0) for _, _, st, c in ops)

    def pooled(num: str, den: str, den_is_time: bool = True) -> float:
        n = sum(c.get(num, 0.0) for _, _, _, c in ops)
        d = sum((st if den_is_time else c).get(den, 0.0) for _, _, st, c in ops)
        return _ratio(n, d)

    generate_s = per_op("engine.generate")
    # jobs-1 over jobs-2 time, when the set-up generated the same seed serially
    serial_s = 0.0 if setup_counts.get("engine.parallel_calls") else setup_self.get("engine.generate", 0.0)
    parallel = any(c.get("engine.parallel_calls") for _, _, _, c in ops)
    read_s = per_op("dataset.read")
    m = {
        "ontology.load_s": (setup_self.get("ontology.load", 0.0) + per_op("ontology.load"), "s"),
        "engine.generate_s": (generate_s, "s"),
        "engine.turns_per_s": (pooled("engine.turns", "engine.generate"), "turns/s"),
        "engine.parallel_speedup": (_ratio(serial_s, generate_s) if parallel else 0.0, "ratio"),
        "engine.cpu_util": (pooled("engine.cpu_s", "engine.wall_x_jobs_s", False), "ratio"),
        "dataset.read_s": (read_s, "s"),
        "dataset.write_s": (per_op("dataset.write"), "s"),
        "dataset.jsonl_bytes": (
            statistics.median(c.get("dataset.read_bytes", 0) + c.get("dataset.write_bytes", 0)
                              for _, _, _, c in ops),
            "B",
        ),
        "dataset.read_mb_per_s": (pooled("dataset.read_bytes", "dataset.read") / 1e6, "MB/s"),
        "injection.inject_s": (per_op("injection.inject"), "s"),
        "injection.turns_per_s": (pooled("injection.turns", "injection.inject"), "turns/s"),
        "injection.records": (per_op("injection.records", counter=True), "count"),
        "injection.realized_rate": (
            pooled("injection.records", "injection.eligible", False), "ratio"),
        "injection.write_records_s": (per_op("injection.write_records"), "s"),
        "encoding.encode_s": (per_op("encoding.encode"), "s"),
        "encoding.rows_per_s": (pooled("encoding.rows", "encoding.encode"), "rows/s"),
        "encoding.bin_write_s": (per_op("encoding.bin_write"), "s"),
        "encoding.bin_read_s": (per_op("encoding.bin_read"), "s"),
        "encoding.distinct_states": (
            pooled("encoding.distinct_states", "encoding.calls", False), "count"),
        "harness.train_memorizer_s": (per_op("harness.train_memorizer"), "s"),
        "harness.train_linear_s": (per_op("harness.train_linear"), "s"),
        "harness.predict_s": (per_op("harness.predict"), "s"),
        "harness.sweep_cells": (per_op("harness.sweep_cells", counter=True), "count"),
        "harness.memorizer_hit_rate": (
            pooled("harness.memorizer_hits", "harness.memorizer_rows", False), "ratio"),
        "metrics.compute_s": (per_op("metrics.compute"), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.self_s.{sub}"] = (per_op(f"cli.{sub}"), "s")
    m["process.cpu_s"] = (statistics.median(untraced_cpus), "s")
    overhead = (statistics.median(w for _, w, _, _ in ops) / statistics.median(untraced_walls) - 1) * 100
    m["trace.overhead_pct"] = (overhead, "%")

    # Accounting: the self times of the layer, CLI and tracing spans must add
    # up to the op's wall time as timed by the loop; what is left over ran
    # outside every span.
    unattributed = max(
        (wall - sum(t for name, t in st.items() if name != "op")) / wall * 100
        for _, wall, st, _ in ops
    )
    m["trace.unattributed_pct"] = (unattributed, "%")
    problems = []
    if not 0.0 <= unattributed <= max(1.0, overhead):
        problems.append(f"{unattributed:.3f}% of an op's wall time is not covered by its spans")
    return m, problems


# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-tests")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up and exit")
    args = parser.parse_args(argv)
    os.environ.pop("DIALOFORGE_SEED", None)  # the CLI would let it override --seed

    tag = f"{args.workload}-seed{args.seed}"
    workdir = WORKDIR / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tag: str, workdir: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer is None:
        workload.setup()
    else:
        workload.import_library()
        install_wraps(tracer)
        tracer.op = "setup"
        with tracer.span("op"):
            workload.setup()
        tracer.uninstall()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload.prepare_checks()

    import numpy

    ops = []
    failures = []
    loop_start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - loop_start < args.seconds:
        if len(ops) >= MIN_OPS and time.perf_counter() - loop_start + max(o["wall_s"] for o in ops) > LOOP_CAP_S:
            break
        op_id = f"op{len(ops) + 1}"
        traced = tracer is not None and len(ops) % 2 == 1
        opdir = workdir / op_id
        opdir.mkdir()
        if traced:
            tracer.op = op_id
            install_wraps(tracer)
        error = None
        cpu0 = process_cpu_s()
        w0 = time.perf_counter()
        try:
            with tracer.span("op") if traced else contextlib.nullcontext():
                result = workload.run_op(opdir)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - w0
        cpu = process_cpu_s() - cpu0
        if traced:
            tracer.uninstall()
        turns = 0
        if error is None:
            try:
                turns, problems = workload.check_op(result, opdir)
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        failures += [f"{op_id}: {p}" for p in problems]
        ops.append({"op": op_id, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                    "turns": turns, "ok": not problems})
        shutil.rmtree(opdir)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "ops": ops,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        untraced = [o for o in ops if not o["traced"]]
        layers, problems = layer_metrics(
            tracer,
            [(o["op"], o["wall_s"]) for o in ops if o["traced"]],
            [o["wall_s"] for o in untraced],
            [o["cpu_s"] for o in untraced],
        )
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        out["failures"] += [f"trace: {p}" for p in problems]
        trace_path = WORKDIR / f"trace-{tag}.json"
        tracer.dump(trace_path)
        out["trace_file"] = str(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
