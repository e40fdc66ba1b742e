import os

import pytest

from cutpoisson import studies
from cutpoisson.cli import main
from cutpoisson.studies import read_records_csv


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_missing_alpha_names_flag(self, capsys):
        code = main(["delta-study", "--p", "1"])
        assert code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_abbreviated_flag_rejected(self, capsys):
        assert main(["delta-study", "--alpha", "2", "--lev", "1"]) == 2
        assert "--lev" in capsys.readouterr().err

    def test_bad_flag_value(self):
        assert main(["delta-study", "--p", "one"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta-study", "--alpha", "2", "--h0", "0"],
            ["normal-study", "--alpha-n", "1", "--h0", "-0.25"],
            ["levelset-study", "--p", "1", "--h0", "nan"],
        ],
    )
    def test_bad_h0_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([*argv, "--levels", "1", "--out", str(out)]) == 2
        assert "h0 must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["normal-study", "--alpha-n", "nan", "--levels", "1"], "alpha_n"),
            (["delta-study", "--alpha", "nan", "--levels", "1"], "alpha"),
            (["delta-study", "--alpha", "inf", "--levels", "1"], "alpha"),
            (["delta-study", "--alpha=-inf", "--levels", "1"], "alpha"),
            (["solve", "--alpha", "nan"], "alpha"),
        ],
        ids=["alpha-n-nan", "alpha-nan", "alpha-inf", "alpha-minus-inf", "solve-alpha-nan"],
    )
    def test_non_finite_alpha_is_usage_error(self, argv, field, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0", "-1"])
    def test_non_positive_alpha_is_usage_error(self, alpha, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["delta-study", f"--alpha={alpha}", "--levels", "2", "--out", str(out)]) == 2
        assert "alpha must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["solve", "--p", "1", "--h0", "100"], "h/3 + delta"),
            (["solve", "--p", "1", "--h0", "0.75"], "h/3 + delta"),
            (["levelset-study", "--p", "1", "--h0", "1", "--levels", "1"], "4 h / radius"),
        ],
        ids=["solve-h0-100", "solve-h0-0.75", "levelset-h0-1"],
    )
    def test_h0_too_coarse_for_domain_is_usage_error(self, argv, bound, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "is too coarse" in err and bound in err
        assert not out.exists()

    # At the default h0, h/3 fits the grid and delta = h^0.5 = 0.35 does not:
    # the message blames alpha, not the unset h0.
    @pytest.mark.parametrize(
        "argv", [["solve"], ["delta-study", "--levels", "1"]], ids=["solve", "delta-study"]
    )
    def test_alpha_too_small_for_domain_names_alpha(self, argv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([*argv, "--alpha", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "h0 = None" not in err
        assert not out.exists()

    def test_solve_rejects_levels(self, tmp_path, capsys):
        # A single solve runs one level; it has no --levels to ignore.
        out = tmp_path / "r.csv"
        assert main(["solve", "--p", "1", "--levels", "3", "--out", str(out)]) == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_p_is_usage_error(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["delta-study", "--p", "7", "--alpha", "2", "--levels", "1",
             "--out", str(out)]
        )
        assert code == 2

    # alpha_n 40 at 2 levels asks for 8.8e13 vertices, 5 at the default 5
    # levels for 8.4e7: both are rejected before any polygon is built.
    @pytest.mark.parametrize(
        "argv", [["--alpha-n", "40", "--levels", "2"], ["--alpha-n", "5"]], ids=["40-at-2", "5"]
    )
    def test_too_many_polygon_vertices_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        def no_polygon(*args):
            raise AssertionError("a polygon was built")

        monkeypatch.setattr(studies, "perturb_circle_boundary", no_polygon)
        out = tmp_path / "r.csv"
        assert main(["normal-study", *argv, "--out", str(out)]) == 2
        assert f"more than {studies.MAX_POLYGON_VERTICES:,}" in capsys.readouterr().err
        assert not out.exists()

    # The finest grid is checked before the vertex bound, and a vertex floor
    # that alpha_n does not set (64/h, or the chord sag at delta = h^3 for
    # the L2 norm) blames the level count: at 9 levels the sag alone asks
    # for 1.35e6 vertices at level 8. alpha_n = 5 at 5 levels asks for 8.4e7
    # through its oscillation frequency.
    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["--alpha-n", "1", "--levels", "20"], "levels = 20 needs 6,291,456 cells per axis"),
            (["--alpha-n", "0", "--levels", "12"], "levels = 12 needs 24,576 cells per axis"),
            (["--alpha-n", "0", "--norm", "l2", "--levels", "9"],
             "levels = 9 needs 1.35e+06 polygon vertices at level 8"),
            (["--alpha-n", "5", "--levels", "5"],
             "alpha_n = 5.0 needs 8.39e+07 polygon vertices at level 4"),
        ],
        ids=["1-at-20", "0-at-12", "0-l2-at-9", "5-at-5"],
    )
    def test_vertex_guard_names_its_cause(self, argv, cause, tmp_path, capsys, monkeypatch):
        def no_polygon(*args):
            raise AssertionError("a polygon was built")

        monkeypatch.setattr(studies, "perturb_circle_boundary", no_polygon)
        out = tmp_path / "r.csv"
        assert main(["normal-study", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert cause in err and ("alpha_n" in err) == ("alpha_n" in cause)
        assert not out.exists()

    # Both ask for more cells per axis than the dof numbering's int64 keys
    # hold: 25,000 at level 0, and 12 * 2^19 at level 19. The check comes
    # before level 0, so no polygon or cell mask is ever built.
    @pytest.mark.parametrize(
        "argv, builder, message",
        [
            (["levelset-study", "--p", "1", "--h0", "1e-4", "--levels", "1"],
             "extract_levelset_boundary", "h0 = 0.0001 with levels = 1 needs 25,000 cells"),
            (["delta-study", "--p", "1", "--alpha", "2", "--levels", "20"],
             "perturb_square_boundary", "h0 = 0.125 with levels = 20 needs 6,291,456 cells"),
        ],
        ids=["levelset-h0-1e-4", "delta-20-levels"],
    )
    def test_finest_grid_above_limit_is_usage_error(
        self, argv, builder, message, tmp_path, capsys, monkeypatch
    ):
        def no_build(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(studies, builder, no_build)
        monkeypatch.setattr(studies, "classify_elements", no_build)
        out = tmp_path / "r.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and f"more than {studies.MAX_CELLS_PER_AXIS:,}" in err
        assert not out.exists()

    # alpha_n 5 also fails the vertex guard at the default 5 levels, so the
    # level count must be checked first, as given, not read as unset.
    def test_zero_levels_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["normal-study", "--alpha-n", "5", "--levels", "0", "--out", str(out)]) == 2
        assert "levels must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestRuns:
    def test_delta_study_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "delta.csv"
        code = main(
            [
                "delta-study",
                "--p", "1",
                "--alpha", "1.5",
                "--levels", "3",
                "--h0", "0.25",
                "--out", str(out),
            ]
        )
        assert code == 0
        recs = read_records_csv(out)
        assert len(recs) == 3
        captured = capsys.readouterr().out
        assert "least-squares" in captured

    def test_solve_subcommand(self, tmp_path):
        out = tmp_path / "single.csv"
        code = main(["solve", "--p", "1", "--h0", "0.25", "--out", str(out)])
        assert code == 0
        recs = read_records_csv(out)
        assert len(recs) == 1
        assert recs[0].study == "single"

    def test_default_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["solve", "--p", "1", "--h0", "0.25"])
        assert code == 0
        assert os.path.exists("single.csv")


class TestConfigFile:
    def test_config_supplies_required_flag(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# delta study setup\n"
            "alpha = 1.5\n"
            "levels = 2\n"
            "h0 = 0.25\n"
            "p = 1\n"
        )
        out = tmp_path / "out.csv"
        code = main(["delta-study", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert len(read_records_csv(out)) == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("alpha = 1.5\nlevels = 3\nh0 = 0.25\np = 1\n")
        out = tmp_path / "out.csv"
        code = main(
            ["delta-study", "--config", str(cfg), "--levels", "2", "--out", str(out)]
        )
        assert code == 0
        assert len(read_records_csv(out)) == 2

    def test_underscore_keys_accepted(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("alpha_n = 0.0\nnorm = l2\nlevels = 2\nh0 = 0.4\np = 2\n")
        out = tmp_path / "out.csv"
        assert main(["normal-study", "--config", str(cfg), "--out", str(out)]) == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("alfa = 1.5\n")
        assert main(["delta-study", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["delta-study", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_key_without_flag_in_subcommand_rejected(self, tmp_path, capsys):
        # levelset-study has no --alpha, so its config may not set alpha.
        cfg = tmp_path / "study.cfg"
        cfg.write_text("alpha = 1.5\nlevels = 1\n")
        out = tmp_path / "out.csv"
        assert main(["levelset-study", "--config", str(cfg), "--out", str(out)]) == 2
        assert "--alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_checked_like_flag(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("alpha_n = 1\nnorm = l3\n")
        assert main(["normal-study", "--config", str(cfg)]) == 2
        assert "--norm" in capsys.readouterr().err

    def test_malformed_line_names_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("# comment\nalpha = 1.5\nlevels 2\n")
        assert main(["delta-study", "--config", str(cfg)]) == 2
        assert f"{cfg}:3:" in capsys.readouterr().err

    def test_prefix_of_a_flag_is_not_a_key(self, tmp_path, capsys):
        # normal-study has no --alpha; 'alpha' must not be read as --alpha-n.
        cfg = tmp_path / "study.cfg"
        cfg.write_text("alpha_n = 0.0\nalpha = 1.5\nlevels = 1\n")
        out = tmp_path / "out.csv"
        assert main(["normal-study", "--config", str(cfg), "--out", str(out)]) == 2
        assert "--alpha=1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_rejected(self, tmp_path):
        # A config file may not name another one; the rest of the run is valid.
        other = tmp_path / "other.cfg"
        other.write_text("levels = 1\n")
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"config = {other}\n")
        out = tmp_path / "out.csv"
        argv = ["solve", "--config", str(cfg), "--p", "1", "--h0", "0.25", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_config_bad_h0_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("h0 = inf\np = 1\n")
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "h0 must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_before_subcommand(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("h0 = 0.25\np = 1\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(cfg), "solve", "--out", str(out)]) == 0
        assert read_records_csv(out)[0].h == 0.25

    def test_empty_out_writes_default_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "study.cfg"
        cfg.write_text("h0 = 0.25\nout =\n")
        assert main(["solve", "--config", str(cfg), "--p", "1"]) == 0
        assert os.path.exists("single.csv")
