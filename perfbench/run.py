"""dialoforge benchmark: one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a dialoforge checkout; the library is imported from its
src/ directory.  The workload runs in a fresh child process
(perfbench/workloads.py); its set-up is timed again in fresh processes so
that setup_s is a median.  With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The lines before it give the environment, the op count behind op_s_p50 and
the fail rate.  Results and traces are also written under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-simple", "pipeline-hard", "generate-jobs2-hard")
SETUP_SAMPLES = 3  # the workload process's own set-up plus two probes
CHILD_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60


def child(argv: list[str], env: dict, timeout: float) -> dict:
    """Run a workloads.py process to completion and parse its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    ops = result["ops"]
    walls = [o["wall_s"] for o in ops]
    return {
        "turns_per_s": {"value": sum(o["turns"] for o in ops) / sum(walls), "unit": "turns/s"},
        "op_s_p50": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "dialoforge" / "__init__.py").is_file():
        print(f"error: no dialoforge sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("DIALOFORGE_SEED", None)
    environment = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    try:
        result = child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, CHILD_TIMEOUT_S)
        setup_samples = [result["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(
                    child(common + ["--seconds", "0", "--setup-only"], env, PROBE_TIMEOUT_S)["setup_s"]
                )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    environment["numpy"] = result["numpy"]

    attempted = len(result["ops"])
    failed = sum(not o["ok"] for o in result["ops"])
    metrics = result["layers"] if args.trace else end_to_end(result, setup_samples)
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(f"{args.workload} seed={args.seed} ops={attempted} "
          f"(traced {sum(o['traced'] for o in result['ops'])}) "
          f"setup_samples={len(setup_samples)} fail_rate={failed / attempted:.4f} (ratio)")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")

    summary = {
        "correct": not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {**summary, "environment": environment, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "ops": result["ops"], "setup_samples": setup_samples,
              "failures": result["failures"]}
    out = Path(".perfbench_work") / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
