"""Benchmark of the noisysort pipeline: four workloads, timed per module.

Run one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 22 --trace 0

Run every workload, each in a fresh process, and print one table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 22

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every output check passed.
Results, the environment and (traced) the spans go to ``.perfbench_out/``.
README.md beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("grid", "large", "dense_without", "files")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 175
WORKERS_ENV_VAR = "NOISYSORT_WORKERS"
# numpy asks for transparent huge pages on large arrays; whether it gets them
# depends on the free memory of the whole machine, which moved wall_s of the
# numpy-heavy workloads by 10-25% between runs of the same code.  Without
# them, five runs of `large` spread by 2%.
HUGEPAGE_ENV_VAR = "NUMPY_MADVISE_HUGEPAGE"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=22,
                        help="measuring time of one run (a trace run splits it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_workloads():
    """Import the benchmark's workloads against the checkout's own sources."""
    if not (SRC / "noisysort" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no noisysort sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import noisysort
    import workloads

    if Path(noisysort.__file__).resolve().parent != SRC / "noisysort":
        raise SystemExit(f"perfbench: imported noisysort from {noisysort.__file__}")
    return workloads


def setup_once(args: argparse.Namespace) -> None:
    """Child process: time the imports and input construction, print it."""
    start = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[args.workload].setup(args.seed, OUT_DIR)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def child(args: argparse.Namespace, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def measure_setup(args: argparse.Namespace) -> float:
    """Median set-up time over SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = child(args, "--setup-only")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: set-up of {args.workload} failed")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


@dataclass
class Rep:
    wall_s: float
    outcome: object  # workloads.Outcome
    tracer: object | None  # spans.Tracer of a traced repetition


def measure(workloads, workload, inputs, seed: int, budget_s: float,
            traced: bool) -> list[Rep]:
    """Repeat the workload while one more repetition ends nearer the budget.

    The measured time then differs from ``budget_s`` by at most half a
    repetition, whatever the speed of the code under test.
    """
    import spans

    reps: list[Rep] = []
    costs: list[float] = []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if traced else None
        t0 = time.perf_counter()
        try:
            try:
                if tracer is not None:
                    tracer.install()
                result = workload.run(inputs)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            outcome = workload.check(inputs, result, seed)
        except Exception:  # every unit of the repetition counts as failed
            traceback.print_exc()
            outcome = workloads.Outcome(units=workload.expected_units(inputs))
            for unit in range(outcome.units):
                outcome.fail(unit, "raised")
            reps.append(Rep(time.perf_counter() - t0, outcome, tracer))
            return reps
        del result
        reps.append(Rep(wall, outcome, tracer))
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(costs) / 2 > budget_s:
            return reps


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        WORKERS_ENV_VAR: os.environ.get(WORKERS_ENV_VAR),
        HUGEPAGE_ENV_VAR: os.environ.get(HUGEPAGE_ENV_VAR),
    }


def run_one(args: argparse.Namespace) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    setup_s = measure_setup(args)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(args.seed, workdir)
    try:
        if args.trace:
            plain = measure(workloads, workload, inputs, args.seed, args.seconds / 2, False)
            traced = measure(workloads, workload, inputs, args.seed, args.seconds / 2, True)
        else:
            plain = measure(workloads, workload, inputs, args.seed, args.seconds, False)
            traced = []
    finally:
        workload.close(inputs)
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    attempted = sum(r.outcome.units for r in reps)
    failed = sum(len(r.outcome.failures) for r in reps)
    problems = [f"{unit}: {reason}" for r in reps for unit, reason in r.outcome.failures.items()]
    if len({r.outcome.digest for r in reps}) != 1:
        problems.append("outputs differ between repetitions (traced vs untraced included)")
    wall_s = statistics.median(r.wall_s for r in plain)
    if args.trace:
        layers = [r.tracer.layer_metrics() for r in traced]
        values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        for key in ("estimators.gate_rows", "estimators.region_final"):
            if len({m[key] for m in layers}) != 1:
                problems.append(f"{key} differs between repetitions")
        values["trace_overhead_s"] = statistics.median(r.wall_s for r in traced) - wall_s
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # 0 only when the first repetition raised, which fails the run anyway
            "d_kt_frac": statistics.fmean(plain[0].outcome.ms_fracs or [0.0]),
        }
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise SystemExit(f"perfbench: computed {sorted(values)}, BENCHMARK.json lists {names}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced repetitions")
    print("environment " + json.dumps(env))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  ops = {attempted} count")
    print(f"  failed_ops = {failed} count")
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "attempted": attempted, "failed": failed, "problems": problems,
        "walls_untraced_s": [r.wall_s for r in plain],
        "walls_traced_s": [r.wall_s for r in traced],
        "spans": [r.tracer.span_records() for r in traced],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        args.workload = name
        done = child(args)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            status = 1
        cells = [f"{k} = {v['value']:.4g} {v['unit']}"
                 for k, v in result.get("metrics", {}).items()]
        cells += [f"ops = {result.get('attempted')} count",
                  f"failed_ops = {result.get('failed')} count",
                  f"exit {done.returncode}"]
        summary.append(f"{name}: " + ", ".join(cells))
    print("\n".join(["", "summary"] + summary))
    return status


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    os.environ[HUGEPAGE_ENV_VAR] = "0"  # read when numpy is imported; children inherit it
    if args.setup_only:
        setup_once(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
