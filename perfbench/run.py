"""Benchmark of the cutpoisson convergence studies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round is one full study in a fresh
worker process (``worker.py``); rounds run one after another until ``S``
seconds have passed, and always at least one. An operation is one refinement
level, so a round attempts 5 operations. The workloads' inputs are fixed by
the paper's set-up; ``--seed`` is recorded but changes nothing.

With ``--trace 0`` the end-to-end metrics are reported: the median study
time, peak resident memory and finest-level errors over the rounds, and the
median set-up time over the rounds' workers and ``SETUP_PROBES`` extra
workers that only import the package and parse their arguments. With ``--trace 1`` the rounds run traced and the
per-layer metrics are reported as medians over the rounds; the per-level
spans and counts are written to ``perfbench/out/<workload>.trace.jsonl``.
The last line of standard output is the result as one JSON object.

The workers run with one BLAS/OpenMP thread and one at a time, so the run
uses at most one busy core and starts no pool.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_PROBES = 3
# Every run must exit within 180 s; this leaves room to print the result.
RUN_BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "study_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_energy_finest": "1",
    "err_l2_finest": "1",
}


class BenchmarkError(RuntimeError):
    """A worker failed or the run cannot produce a result."""


def _worker(workload: str, deadline: float, *flags: str) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--out-dir", str(OUT), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {RUN_BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    done = [r for r in rounds if "err_energy" in r]
    if not done:
        raise BenchmarkError("no round produced a checked CSV")
    values = {
        "study_s": statistics.median(r["study_s"] for r in rounds),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "err_energy_finest": statistics.median(r["err_energy"] for r in done),
        "err_l2_finest": statistics.median(r["err_l2"] for r in done),
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def _per_layer(workload: str, rounds: list[dict]) -> dict:
    traced = [r for r in rounds if "totals" in r]
    if not traced:
        raise BenchmarkError("no traced round completed")
    with open(OUT / f"{workload}.trace.jsonl", "w", encoding="utf-8") as fh:
        for i, r in enumerate(traced):
            for rep in r["level_reports"]:
                fh.write(json.dumps({"workload": workload, "round": i, **rep}) + "\n")
            summary = {
                "workload": workload,
                "round": i,
                "level": None,
                "traced_study_s": r["traced_study_s"],
                "study_s": r["study_s"],
                "totals": r["totals"],
            }
            fh.write(json.dumps(summary) + "\n")
    metrics = {}
    for name in traced[0]["totals"]:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = _metric(statistics.median(r["totals"][name] for r in traced), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cutpoisson" / "__init__.py").is_file():
        print(f"error: no cutpoisson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    trace = bool(args.trace)

    try:
        setups = []
        if not trace:
            # The first import byte-compiles the package; a user pays that once.
            _worker(args.workload, deadline, "--setup-only")
            setups = [
                _worker(args.workload, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
        rounds = []
        started = time.monotonic()
        while not rounds or time.monotonic() - started < args.seconds:
            flags = ("--trace",) if trace else ()
            rounds.append(_worker(args.workload, deadline, *flags))
        metrics = _per_layer(args.workload, rounds) if trace else _end_to_end(rounds, setups)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in rounds:
        for msg in r["messages"]:
            print(f"{args.workload}: {msg}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} round(s)", file=sys.stderr)
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["levels"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
