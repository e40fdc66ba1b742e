import math

import numpy as np
import pytest

from cutpoisson import (
    ConvergenceRecord,
    StudyConfig,
    compute_rates,
    read_records_csv,
    run_delta_study,
    run_levelset_study,
    run_normal_study,
    run_single,
    write_records_csv,
)
from cutpoisson.studies import CSV_HEADER, least_squares_rate


def record(level, h, errs, study="delta", p=1, wall=0.1):
    return ConvergenceRecord(
        study=study,
        p=p,
        level=level,
        h=h,
        delta=1e-3,
        delta_n=1e-2,
        dofs=100 + level,
        err_energy=errs[0],
        err_h1=errs[1],
        err_l2=errs[2],
        wall_time=wall,
    )


class TestComputeRates:
    def test_halved_h_factor_four(self):
        recs = compute_rates(
            [record(0, 0.2, (4e-2, 4e-2, 4e-2)), record(1, 0.1, (1e-2, 1e-2, 1e-2))]
        )
        assert recs[0].rate_energy is None
        assert recs[1].rate_energy == pytest.approx(2.0)

    def test_equal_errors_rate_zero(self):
        recs = compute_rates(
            [record(0, 0.2, (1e-2, 1e-2, 1e-2)), record(1, 0.1, (1e-2, 1e-2, 1e-2))]
        )
        assert recs[1].rate_l2 == pytest.approx(0.0)

    def test_h_ratio_three(self):
        recs = compute_rates(
            [record(0, 0.3, (27.0, 27.0, 27.0)), record(1, 0.1, (1.0, 1.0, 1.0))]
        )
        assert recs[1].rate_h1 == pytest.approx(3.0)

    def test_nonpositive_error_undefined(self):
        recs = compute_rates(
            [record(0, 0.2, (1e-2, 0.0, 1e-2)), record(1, 0.1, (5e-3, 1e-3, 5e-3))]
        )
        assert recs[1].rate_h1 is None
        assert recs[1].rate_energy is not None

    def test_least_squares_rate(self):
        recs = [record(i, 0.2 / 2**i, (4.0**-i,) * 3) for i in range(4)]
        assert least_squares_rate(recs, "l2") == pytest.approx(2.0)


class TestCsv:
    def test_round_trip_bit_for_bit(self, tmp_path):
        recs = compute_rates(
            [
                record(0, 0.2, (1.0 / 3.0, 2.0 / 7.0, 1e-7)),
                record(1, 0.1, (np.pi * 1e-3, 0.1234567890123456789, 3e-8)),
            ]
        )
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        back = read_records_csv(path)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            for field in (
                "study",
                "p",
                "level",
                "h",
                "delta",
                "delta_n",
                "dofs",
                "err_energy",
                "err_h1",
                "err_l2",
                "rate_energy",
                "rate_h1",
                "rate_l2",
                "wall_time",
            ):
                assert getattr(a, field) == getattr(b, field)

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], path)
        lines = path.read_text().strip().split("\n")
        assert lines == [CSV_HEADER]

    def test_column_count(self, tmp_path):
        recs = compute_rates([record(0, 0.2, (1e-1, 1e-2, 1e-3))])
        path = tmp_path / "r.csv"
        write_records_csv(recs, path)
        for line in path.read_text().strip().split("\n"):
            assert len(line.split(",")) == 14

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv(compute_rates([record(0, 0.2, (1e-1, 1e-2, 1e-3))]), path)
        lines = path.read_text().split("\n")
        path.write_text("\n".join([lines[0].replace("delta_n", "dn")] + lines[1:]))
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv(compute_rates([record(0, 0.2, (1e-1, 1e-2, 1e-3))]), path)
        header, row = path.read_text().strip().split("\n")
        path.write_text(header + "\n" + row.rsplit(",", 1)[0] + "\n")
        with pytest.raises(ValueError, match="expected 14 columns, got 13"):
            read_records_csv(path)

    def test_undefined_rate_empty_field(self, tmp_path):
        recs = compute_rates([record(0, 0.2, (1e-1, 1e-2, 1e-3))])
        path = tmp_path / "r.csv"
        write_records_csv(recs, path)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert row[10] == "" and row[11] == "" and row[12] == ""


class TestStudyRunners:
    def test_delta_study_structure(self):
        recs = run_delta_study(
            StudyConfig(study="delta", p=1, alpha=2.0, levels=3, h0=0.25)
        )
        assert len(recs) == 3
        for a, b in zip(recs, recs[1:]):
            assert a.h / b.h == pytest.approx(2.0, rel=1e-14)
        assert all(r.err_energy > 0 for r in recs)
        assert all(r.dofs > 0 for r in recs)

    def test_measured_geometry_recorded(self):
        import cutpoisson as cp
        from cutpoisson.studies import SQUARE_SIDE, _grid, _square_origin

        cfg = StudyConfig(study="delta", p=1, alpha=1.5, levels=2, h0=0.25)
        recs = run_delta_study(cfg)
        grid = _grid(_square_origin(0.25), SQUARE_SIDE, 0.25, 1)
        poly = cp.perturb_square_boundary(
            grid.h**1.5, 16 * math.ceil(1.0 / grid.h)
        )
        geo = cp.measure_geometric_errors(poly, cp.UnitSquare())
        assert recs[1].delta == geo.delta
        assert recs[1].delta_n == geo.delta_n

    def test_single_solve_matches_fitted_run(self):
        a = run_single(StudyConfig(study="single", p=1, h0=0.25))
        b = run_single(StudyConfig(study="single", p=1, h0=0.25))
        assert len(a) == 1
        assert a[0].err_energy == b[0].err_energy  # deterministic

    def test_normal_study_requires_p2(self):
        with pytest.raises(ValueError):
            run_normal_study(StudyConfig(study="normal", p=1, alpha_n=0.0))

    def test_normal_study_requires_alpha_n(self):
        with pytest.raises(ValueError):
            run_normal_study(StudyConfig(study="normal", p=2))

    def test_levelset_rejects_p3(self):
        with pytest.raises(ValueError):
            run_levelset_study(StudyConfig(study="levelset", p=3))

    def test_delta_requires_alpha(self):
        with pytest.raises(ValueError):
            run_delta_study(StudyConfig(study="delta", p=1))

    def test_levelset_smoke(self):
        recs = run_levelset_study(StudyConfig(study="levelset", p=1, levels=3))
        assert len(recs) == 3
        assert all(r.delta > 0 and r.delta_n > 0 for r in recs)
        # measured boundary location error decreases at second order
        rate = math.log(recs[0].delta / recs[2].delta) / math.log(4.0)
        assert rate == pytest.approx(2.0, abs=0.4)

    def test_determinism_modulo_wall_time(self, tmp_path):
        cfg = StudyConfig(study="delta", p=1, alpha=2.0, levels=2, h0=0.25)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(run_delta_study(cfg), p1)
        write_records_csv(run_delta_study(cfg), p2)

        def strip_wall(path):
            return [
                ",".join(line.split(",")[:13])
                for line in path.read_text().strip().split("\n")
            ]

        assert strip_wall(p1) == strip_wall(p2)

    def test_wall_time_growth_bounded(self):
        # guards against accidental quadratic blowups in the geometry code
        recs = run_delta_study(StudyConfig(study="delta", p=1, alpha=2.0, levels=4))
        times = [r.wall_time for r in recs]
        if times[-2] >= 0.25:
            assert times[-1] / times[-2] <= 16.0
