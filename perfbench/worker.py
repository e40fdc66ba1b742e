"""One benchmark round in a fresh process: import cutpoisson, run one study, check it.

    python3 perfbench/worker.py --workload NAME --out-dir DIR [--setup-only] [--trace]

The package is imported from the ``src`` directory of the checkout this file
sits in. ``ready`` in the result is the ``time.monotonic()`` reading once the
package is imported and the arguments are parsed (a study's only input is its
command line); the parent subtracts the reading it took before starting this
process to get the set-up time. The result is one JSON object on the last
line of standard output.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import cutpoisson  # noqa: E402
from cutpoisson import cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import LEVELS, WORKLOADS, cli_argv  # noqa: E402


def run_study(workload: str, csv_path: Path, trace: bool, levels: int = LEVELS) -> dict:
    """Run the study command, then check its CSV; returns the round's result."""
    argv = cli_argv(workload, str(csv_path), levels)
    tracer = spans.Tracer() if trace else None
    restore = spans.install(tracer) if trace else None
    console = io.StringIO()
    csv_path.unlink(missing_ok=True)
    try:
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            t0 = time.perf_counter()
            code = tracer.run(cli.main, argv) if trace else cli.main(argv)
            study_s = time.perf_counter() - t0
    finally:
        if restore is not None:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"study_s": study_s, "peak_rss_mb": peak_rss_mb, "levels": levels}
    rows = []
    if code != 0:
        # The command writes no CSV when a level raises, so no level of the
        # round has an output.
        result.update(failed=levels, correct=True, messages=[console.getvalue()])
    else:
        report = checks.check_study(workload, csv_path, levels)
        rows = report.rows
        result.update(
            failed=len(report.failed_levels),
            correct=not report.messages,
            messages=report.messages,
        )
        if rows:
            result.update(err_energy=rows[-1]["err_energy"], err_l2=rows[-1]["err_l2"])
    if trace:
        totals = tracer.totals()
        accounted = sum(totals[m] for m in spans.SELF_METRICS)
        traced_s = tracer.study_s()
        if not abs(accounted - traced_s) <= 1e-9 * traced_s:
            result["correct"] = False
            result["messages"].append(
                f"self times add up to {accounted:.9f} s, not the traced {traced_s:.9f} s"
            )
        reports = tracer.level_reports()
        for rep, row in zip(reports, rows):
            rep["wall_time"] = float(row["wall_time"])
        result.update(totals=totals, traced_study_s=traced_s, level_reports=reports)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if not Path(cutpoisson.__file__).resolve().is_relative_to(SRC):
        print(f"cutpoisson imported from {cutpoisson.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        result.update(run_study(args.workload, args.out_dir / f"{args.workload}.csv", args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
