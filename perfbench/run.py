"""The indicial benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the engine is imported from its ``src/``.
Workloads (see ``inputs.py`` and README.md): scripts, invariants, rewrite,
oracle.  Each run starts fresh interpreters one at a time: several that only
import the engine and set the workload up (``setup_s``), several CLI runs of
``scripts/maxwell.ind`` (``cli_s``) and one worker that runs the workload's
timed passes in a closed loop.  Every output is checked outside the timed
region by ``check.py``, which does not use the engine.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the worker alternates traced and
untraced passes and the JSON carries the per-layer metrics instead.  The
lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
CLI_CODE = "import sys; from indicial.cli import main; sys.exit(main())"
SETUP_SAMPLES = 8   # fresh interpreters per run for setup_s, half before and
CLI_SAMPLES = 8     # half after the worker, alternating with the CLI runs
TRACE_SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 60

# Per-layer metrics that must not read 0 on the workload built to stress
# their layer; a 0 there means the workload no longer reaches the layer.
STRESSED = {
    "scripts": ("parse.self_ms", "parse.tokens", "cli.statements", "cli.self_ms",
                "calculus.self_ms", "calculus.expand_components.calls",
                "lagrangian.self_ms", "rules.apply1.calls",
                "algebra.canform.calls", "printing.render.self_ms",
                "printing.chars"),
    "invariants": ("algebra.contract.calls", "algebra.contract.self_ms",
                   "algebra.canform.calls", "algebra.canform.terms_in",
                   "algebra.canform.terms_out", "algebra.canform.self_ms",
                   "algebra.canform.candidates",
                   "algebra.canform.us_per_candidate"),
    "rewrite": ("parse.self_ms", "parse.tokens", "exprs.add.calls",
                "exprs.add.terms_in", "exprs.mul.calls", "exprs.validate.calls",
                "exprs.self_ms", "calculus.self_ms", "rules.apply1.calls",
                "rules.apply1.self_ms", "rules.rewrite_attempts",
                "rules.rewrites", "rules.useful_ratio", "lagrangian.self_ms"),
    "oracle": ("numeval.random_assignment.self_ms",
               "numeval.numeric_eval.self_ms", "numeval.valuations",
               "numeval.ns_per_valuation"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(mode: str, request: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode]
    try:
        proc = subprocess.run(cmd, input=json.dumps(request), capture_output=True,
                              text=True, cwd=ROOT, env=child_env(),
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_once(spec: dict) -> tuple[float, dict]:
    """Wall time from starting an interpreter until the workload's first
    job is ready, measured from outside, plus the child's own report.  The
    child leaves without interpreter teardown once it is ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "setup"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=json.dumps({"spec": spec}),
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"setup child did not finish within {CHILD_TIMEOUT_S} s")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"setup child failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return elapsed, json.loads(proc.stdout)


def cli_once() -> tuple[float, str | None]:
    """Wall time of one CLI process running scripts/maxwell.ind, and a
    problem with its transcript, if any."""
    cmd = [sys.executable, "-c", CLI_CODE, "--script", "scripts/maxwell.ind"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"CLI run did not finish within {CHILD_TIMEOUT_S} s")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, f"exit status {proc.returncode}: {proc.stderr[-300:]}"
    lines = set(proc.stdout.splitlines())
    missing = [l for l in inputs.MAXWELL_EXPECTED_LINES if l not in lines]
    return elapsed, (f"transcript lacks {missing}" if missing else None)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (``statistics.quantiles``
    with the inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_outcomes(jobs, outcomes: dict, seed: int):
    """Check each job's outcome; returns (names of failed jobs, report lines)."""
    import check

    failed, report = [], []
    for job in jobs:
        outcome = outcomes[job["name"]]
        problem = outcome.get("error") or check.check_output(job, outcome["output"], seed)
        report.append(f"  {job['name']}: " + (f"FAILED {problem}" if problem else "ok"))
        if problem:
            failed.append(job["name"])
    return failed, report


def run(args) -> tuple[dict, list[str]]:
    for needed in ("BENCHMARK.json", "src/indicial/__init__.py", "scripts/maxwell.ind"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} not found under {ROOT}: not a checkout of indicial")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    maxwell = (ROOT / "scripts/maxwell.ind").read_text(encoding="utf-8")
    spec = inputs.build(args.workload, args.seed, maxwell)
    request = {"spec": spec, "seconds": args.seconds}
    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{args.seconds} s, trace {args.trace}"]
    setups, cli, cli_problems, imports, numpy_flags = [], [], [], [], []

    def fresh_processes(n_setup: int, n_cli: int) -> None:
        for i in range(max(n_setup, n_cli)):
            if i < n_setup:
                elapsed, report = setup_once(spec)
                setups.append(elapsed)
                imports.append(report["import_s"])
                numpy_flags.append(report["numpy_loaded"])
            if i < n_cli:
                elapsed, problem = cli_once()
                cli.append(elapsed)
                if problem:
                    cli_problems.append(problem)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        request["spans_path"] = str(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        fresh_processes(TRACE_SETUP_SAMPLES, 0)
        result = worker("trace", request)
    else:
        fresh_processes(SETUP_SAMPLES // 2, CLI_SAMPLES // 2)
        result = worker("run", request)
        fresh_processes(SETUP_SAMPLES - SETUP_SAMPLES // 2,
                        CLI_SAMPLES - CLI_SAMPLES // 2)

    failed_jobs, report = check_outcomes(spec["jobs"], result["outcomes"], spec["seed"])
    job_times = [t for times in result["job_times"] for t in times]
    failed_runs = len(failed_jobs) * (result["attempted"] // len(spec["jobs"]))
    correct = not failed_jobs and not cli_problems
    passes = result["passes"]
    lines.append(f"{len(spec['jobs'])} timed inputs, {len(passes)} timed passes, "
                 f"{len(job_times)} timed jobs (closed loop, one client)")
    lines.append(f"pass_s median {statistics.median(passes):.6g} s, "
                 f"quartiles {percentile(passes, 0.25):.6g} .. "
                 f"{percentile(passes, 0.75):.6g} s")
    lines.append("timed inputs (median ms; outputs checked after the run):")
    for line, times in zip(report, result["job_times"]):
        lines.append(f"{line} ({statistics.median(times) * 1e3:.4g})" if times else line)
    lines += [f"  cli scripts/maxwell.ind: FAILED {problem}" for problem in cli_problems]

    if args.trace:
        layers = dict(result["layers"])
        if result["count_mismatch"]:
            raise BenchError(f"counts differ between traced passes: {result['count_mismatch']}")
        layers["setup.import_s"] = statistics.median(imports)
        layers["setup.numpy_loaded"] = int(all(numpy_flags))
        layers["numeval.valuations"] = result["valuations"]
        valuations = result["valuations"]
        layers["numeval.ns_per_valuation"] = (
            layers["numeval.numeric_eval.self_ms"] * 1e6 / valuations if valuations else 0.0)
        layers["trace.overhead_ratio"] = (
            statistics.median(result["traced_passes"]) / statistics.median(passes))
        idle = [name for name in STRESSED[args.workload] if not layers[name]]
        if idle:
            raise BenchError(f"workload {args.workload} no longer reaches: {idle}")
        if result["untraced_names"]:
            lines.append(f"not found, not traced: {result['untraced_names']}")
        lines.append(f"spans of the first traced pass: {request['spans_path']}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        robust_failed, robust_report = check_outcomes(spec["robust"], result["robust"],
                                                      spec["seed"])
        distinct = len(spec["jobs"]) + len(spec["robust"])
        values = {
            "setup_s": statistics.median(setups),
            "cli_s": statistics.median(cli),
            "pass_s": statistics.median(passes),
            "job_ms.p50": percentile(job_times, 0.5) * 1e3,
            "job_ms.p90": percentile(job_times, 0.9) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
            "failed_ratio": (len(failed_jobs) + len(robust_failed)) / distinct,
        }
        lines.append(f"setup_s from {len(setups)} fresh interpreters, cli_s from "
                     f"{len(cli)} CLI runs; job_ms.p90 has "
                     f"{len(job_times) - int(0.9 * (len(job_times) - 1)) - 1} jobs above it")
        lines.append("robustness inputs (run once, not timed):")
        lines += robust_report
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    for name, m in metrics.items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": result["attempted"],
            "failed": failed_runs, "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
