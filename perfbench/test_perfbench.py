"""Quick tests of the benchmark's tracer, checks and entry point.

No full workload runs here: the one real study is levelset-p2 cut to its
three coarsest levels, which takes about a second.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from cutpoisson import assembly, solver, studies  # noqa: E402


def test_self_times_add_up_to_the_root_span():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def study():
        tracer.start_level()  # level 0 opens at t=1
        with tracer.span("geometry.polygon_s", "poly"):  # 2..3
            pass
        with tracer.span("solver.norms_s", "norms"):  # 4..7
            with tracer.span("solver.reference_s", "ref"):  # 5..6
                pass
        tracer.start_level()  # level 0 closes at 8, level 1 opens at 9
        with tracer.span("solver.solve_s", "solve"):  # 10..11
            pass
        tracer.end_level()  # 12

    tracer.run(study)  # root 0..13
    totals = tracer.totals()
    assert tracer.study_s() == 13.0
    assert totals["studies.self_s"] == 8.0  # root 3, level 0 3, level 1 2
    assert totals["solver.norms_s"] == 2.0
    assert totals["solver.reference_s"] == 1.0
    assert totals["studies.finest_level_s"] == 3.0
    assert sum(totals[m] for m in spans.SELF_METRICS) == tracer.study_s()
    levels = tracer.level_reports()
    assert [rep["level_s"] for rep in levels] == [7.0, 3.0]
    assert levels[0]["self_s"]["studies.self_s"] == 3.0
    assert levels[1]["self_s"]["solver.solve_s"] == 1.0


def test_spans_close_when_a_level_raises():
    tracer = spans.Tracer()

    def failing():
        tracer.start_level()
        with tracer.span("solver.solve_s", "solve"):
            raise ValueError("indefinite")

    with pytest.raises(ValueError):
        tracer.run(failing)
    assert all(s["end"] is not None for s in tracer.spans)
    totals = tracer.totals()
    assert sum(totals[m] for m in spans.SELF_METRICS) == pytest.approx(tracer.study_s())


def test_install_restores_every_name():
    owners = (studies, assembly, solver, solver.ReferenceSolution)
    before = [dict(vars(o)) for o in owners]
    restore = spans.install(spans.Tracer())
    assert studies.solve_spd is not before[0]["solve_spd"]
    restore()
    assert [dict(vars(o)) for o in owners] == before


@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    csv_path = tmp_path_factory.mktemp("perfbench") / "levelset-p2.csv"
    return csv_path, worker.run_study("levelset-p2", csv_path, trace=True, levels=3)


def test_traced_round_is_correct_and_accounted(small_round):
    _, result = small_round
    assert result["messages"] == []
    assert result["correct"] and result["failed"] == 0 and result["levels"] == 3
    totals = result["totals"]
    assert sum(totals[m] for m in spans.SELF_METRICS) == pytest.approx(
        result["traced_study_s"], rel=1e-9
    )
    assert totals["quadrature.volume_rule_builds"] == 6
    assert all(totals[name] > 0 for name in spans.COUNT_METRICS)
    assert [rep["level"] for rep in result["level_reports"]] == [0, 1, 2]


def _rewrite(csv_path: Path, tmp_path: Path, edit) -> Path:
    lines = csv_path.read_text().splitlines()
    out = tmp_path / "edited.csv"
    out.write_text("\n".join(edit(lines)) + "\n")
    return out


def test_checks_flag_broken_outputs(small_round, tmp_path):
    csv_path, _ = small_round
    cols = checks.CSV_COLUMNS

    def set_field(lines, row, name, value):
        fields = lines[row + 1].split(",")
        fields[cols.index(name)] = value
        lines[row + 1] = ",".join(fields)
        return lines

    def grow_l2(lines):  # level 2's L2 error above level 1's
        return set_field(lines, 2, "err_l2", "1.0")

    def big_h1(lines):  # level 1's H1 error above its energy error
        return set_field(lines, 1, "err_h1", "1.0")

    def off_delta(lines):  # level 0's delta 2% off the polygon's
        old = float(lines[1].split(",")[cols.index("delta")])
        return set_field(lines, 0, "delta", repr(1.02 * old))

    def short_header(lines):
        return [",".join(cols[:-1])] + lines[1:]

    cases = [(grow_l2, {0, 1, 2}, "(b)"), (big_h1, {1}, "(c)"), (off_delta, {0}, "(a)")]
    for edit, levels, tag in cases:
        report = checks.check_study("levelset-p2", _rewrite(csv_path, tmp_path, edit), 3)
        assert levels <= report.failed_levels, (tag, report.messages)
        assert any(m.startswith(tag) for m in report.messages), report.messages
    report = checks.check_study("levelset-p2", _rewrite(csv_path, tmp_path, grow_l2), 3)
    assert any(m.startswith("(d) level 2") for m in report.messages)
    report = checks.check_study("levelset-p2", _rewrite(csv_path, tmp_path, short_header), 3)
    assert report.failed_levels == {0, 1, 2}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delta-p2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
