import os

import pytest

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
            (["normal-study", "--alpha-n", "nan"], "alpha_n"),
            (["delta-study", "--alpha", "nan"], "alpha"),
            (["delta-study", "--alpha", "inf"], "alpha"),
            (["delta-study", "--alpha=-inf"], "alpha"),
            (["solve", "--alpha", "nan"], "alpha"),
        ],
        ids=["alpha-n-nan", "alpha-nan", "alpha-inf", "alpha-minus-inf", "solve-alpha-nan"],
    )
    def test_non_finite_alpha_is_usage_error(self, argv, field, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([*argv, "--levels", "1", "--out", str(out)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_p_is_usage_error(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["delta-study", "--p", "7", "--alpha", "2", "--levels", "1",
             "--out", str(out)]
        )
        assert code == 2


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
