"""Command-line interface: subcommands, exit codes, files, and config."""

import json
import os
import stat
import threading
from pathlib import Path

import pytest

from compactons.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_VERIFY_FAILED,
    main,
)

GOLDEN = Path(__file__).parent / "data" / "table1_golden.csv"


class TestProfile:
    def test_intro_example(self, tmp_path, capsys):
        out = tmp_path / "cos1.csv"
        code = main(["profile", "--family", "cos1", "--n", "2",
                     "--a", "1", "--b", "1", "--c", "1", "-o", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "alpha=1.3333333333333333" in text
        assert "L=6.283185307179586" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "xi,U"
        peak = max(float(line.split(",")[1]) for line in lines[1:])
        assert peak == pytest.approx(4 / 3, rel=1e-12)

    def test_sign_rejection_exit_3(self, capsys):
        code = main(["profile", "--family", "cos1", "--n", "2", "--b", "-1"])
        assert code == EXIT_REJECTED
        assert "sign condition" in capsys.readouterr().err

    def test_missing_power_exit_2(self, capsys):
        code = main(["profile", "--family", "cos1"])
        assert code == EXIT_INVALID

    def test_ratcn6_reports_m(self, tmp_path, capsys):
        out = tmp_path / "r6.csv"
        code = main(["profile", "--family", "ratcn6", "--n", "2",
                     "--c", "1", "-o", str(out)])
        assert code == EXIT_OK
        assert "m=2.5" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["profile", "--family", "zsq1", "--n", "2",
                     "--format", "json", "-o", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["metadata"]["family"] == "zsq1"

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPACTONS_OUTPUT_DIR", str(tmp_path))
        code = main(["profile", "--family", "cos1", "--n", "2",
                     "-o", "rel.csv"])
        assert code == EXIT_OK
        assert (tmp_path / "rel.csv").exists()


class TestClassify:
    def test_zsq1(self, capsys):
        code = main(["classify", "--family", "zsq1", "--n", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "weak K      yes" in out
        assert "strong K    no" in out
        assert "weak KP     yes" in out
        assert "strong KP   no" in out

    def test_cos2_weak_only(self, capsys):
        code = main(["classify", "--family", "cos2", "--m", "0.25"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "strong K    no" in out and "strong KP   no" in out
        assert "weak K      yes" in out

    def test_cn1_all_four(self, capsys):
        code = main(["classify", "--family", "cn1", "--n", "0.75"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("yes") == 4

    def test_json_payload(self, capsys):
        code = main(["classify", "--family", "zsq1", "--n", "2",
                     "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["weak_K"] is True and data["strong_K"] is False
        assert data["weak_KP_case"] == 3

    def test_zero_g_exit_3(self, capsys):
        code = main(["classify", "--family", "zsq1", "--n", "2", "--g", "0"])
        assert code == EXIT_REJECTED
        assert "g = 0" in capsys.readouterr().err

    def test_next_float_above_lower_endpoint(self, capsys):
        # m = (3n - 1)/2 rounds to zero here
        code = main(["classify", "--family", "ratcn4",
                     "--n", "0.33333333333333337", "--b", "-1"])
        assert code == EXIT_OK
        assert "weak KP     yes (condition 6)" in capsys.readouterr().out


class TestSolve:
    def test_fig5_left(self, tmp_path, capsys):
        out = tmp_path / "left.json"
        code = main(["solve", "--n", "2", "--m", "2.25", "--a", "1",
                     "--b", "1", "--c", "1", "--format", "json",
                     "-o", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["metadata"]["V0"] == pytest.approx((17 / 12) ** 1.6,
                                                       rel=1e-10)

    def test_concavity_rejection_exit_3(self, capsys):
        code = main(["solve", "--n", "2", "--m", "2.25", "--b", "-1",
                     "--c", "1"])
        assert code == EXIT_REJECTED
        assert "concavity" in capsys.readouterr().err

    def test_kp_wave_spec(self, tmp_path):
        out = tmp_path / "kp.csv"
        code = main(["solve", "--n", "2", "--m", "2.25", "--mu", "1",
                     "--nu", "2", "--sigma", "1", "-o", str(out)])
        assert code == EXIT_OK  # g = nu - sigma*mu**2 = 1

    def test_conflicting_wave_flags(self, capsys):
        code = main(["solve", "--n", "2", "--m", "2.25", "--c", "1",
                     "--mu", "1", "--nu", "2", "--sigma", "1"])
        assert code == EXIT_INVALID


class TestVerify:
    def test_closed_form_pass(self, capsys):
        code = main(["verify", "--family", "cos1", "--n", "2",
                     "--equation", "both"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("pass") == 2

    def test_threshold_failure_exit_4(self, capsys):
        code = main(["verify", "--family", "cos1", "--n", "2",
                     "--threshold", "1e-20"])
        assert code == EXIT_VERIFY_FAILED

    def test_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--family", "zsq1", "--n", "2",
                     "-o", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert len(data["reports"]["K"]["residuals"]) == 25

    def test_numeric_profile(self, capsys):
        code = main(["verify", "--numeric", "--m", "2.25", "--n", "2"])
        assert code == EXIT_OK


class TestEndpointFitUnavailable:
    """A valid profile whose U underflows before the fit's samples near the
    edge (p of several hundred) keeps the exit code its verdicts give and
    writes its report with ``"endpoint_power_fit": null``."""

    @pytest.mark.parametrize("argv", [
        # cos1 n ~ 1.0053 (p ~ 375), the benchmark's catalog task at seed 1
        ["--family", "cos1", "--n=1.0053264987984318", "--a=-1.4632204184219495",
         "--b=-2.5219354897859816", "--g=-1.0951310509240273", "--equation", "both"],
        # and at seed 2
        ["--family", "cos1", "--n=1.0060146479321133", "--a=-1.796210572693451",
         "--b=-1.6836399535874613", "--g=-2.07469107916861", "--equation", "both"],
        # numeric m = 0.7635, n = 0.7709 (p ~ 270), its numeric task at seed 1
        ["--numeric", "--m=0.7635304351036482", "--n=0.7709399152615757",
         "--a=-1.3008770185109313", "--b=1.996764207658639",
         "--g=-2.0183222013669484", "--equation", "K"],
    ], ids=["cos1-seed1", "cos1-seed2", "numeric-p270"])
    def test_exit_from_verdicts_and_null_fit(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        code = main(["verify", *argv, "-o", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "endpoint power fit: unavailable (" in text
        assert "FAIL" not in text
        data = json.loads(out.read_text())
        assert data["endpoint_power_fit"] is None
        assert data["passed"] is True

    def test_failed_verdict_still_exits_4(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--family", "cos1", "--n", "1.00533",
                     "--threshold", "1e-20", "-o", str(out)])
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out.read_text())["endpoint_power_fit"] is None


class TestFloatRange:
    """A crest beyond the largest float, or one that underflows to zero, is
    a rejection (exit 3)."""

    def test_center_amplitude_overflow_in_catalog(self, capsys):
        code = main(["verify", "--family", "zsq1", "--n=1.0029066402492113",
                     "--a=-0.633327838669153", "--b=-1.2560951904186386",
                     "--g=-2.5845959053614926"])
        assert code == EXIT_REJECTED
        assert "float range" in capsys.readouterr().err

    def test_center_amplitude_overflow_in_solve(self, tmp_path, capsys):
        code = main(["solve", "--m=0.9986212170686334", "--n=2.119727191332506",
                     "--a=2.6293034686923997", "--b=-1.525158885839738",
                     "--g=1.3595969012576283", "-o", str(tmp_path / "s.csv")])
        assert code == EXIT_REJECTED
        assert "float range" in capsys.readouterr().err

    def test_amplitude_overflow_in_catalog(self, tmp_path, capsys):
        # U(0) is about 1, but inner(0)**exponent = 0.366**1000 underflows
        code = main(["profile", "--family", "ratcn6", "--n", "1.002",
                     "-o", str(tmp_path / "p.csv")])
        assert code == EXIT_REJECTED
        assert "float range" in capsys.readouterr().err

    def test_center_amplitude_underflow_in_catalog(self, tmp_path, capsys):
        # V0 = (1/3)**(n/(m-1)) with m - 1 = 0.001: the crest underflows to 0
        for cmd in (["profile", "-o", str(tmp_path / "p.csv")],
                    ["verify", "--equation", "both"]):
            code = main(cmd + ["--family", "zsq1", "--n", "1.002", "--a", "3"])
            assert code == EXIT_REJECTED
            captured = capsys.readouterr()
            assert "underflows the float range" in captured.err
            assert "pass" not in captured.out
            assert not (tmp_path / "p.csv").exists()

    def test_amplitude_underflow_in_catalog(self, tmp_path, capsys):
        # V0 is about 1e-225, but U(0) = V0**(1/0.6) underflows to 0
        code = main(["profile", "--family", "cn1", "--n", "0.6", "--b", "-1",
                     "--g", "1e300", "-o", str(tmp_path / "p.csv")])
        assert code == EXIT_REJECTED
        assert "float range" in capsys.readouterr().err

    def test_center_amplitude_underflow_in_solve(self, tmp_path, capsys):
        code = main(["solve", "--m=0.9999515884220205", "--n=1.0578301140722306",
                     "--a=-1.7838106055674312", "--b=1.154020791058229",
                     "--g=-2.8186686189188666", "-o", str(tmp_path / "s.csv")])
        assert code == EXIT_REJECTED
        assert "underflows the float range" in capsys.readouterr().err


class TestTable1:
    def test_matches_golden_file(self, capsys):
        code = main(["table1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_single_family(self, capsys):
        code = main(["table1", "--family", "cn2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("cn2,")

    def test_json_format(self, capsys):
        code = main(["table1", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 14


class TestRegion:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", "--family", "cos1", "--n-min", "1.1",
                     "--n-max", "4", "--steps", "7", "-o", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,n,weak_K,strong_K,weak_KP_case,strong_KP"
        assert len(lines) == 8


class TestConfigFile:
    def test_defaults_merged_under_flags(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("# defaults\nn=3\na=1\n")
        code = main(["classify", "--family", "cos1", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "p           1" in capsys.readouterr().out  # n=3 from config
        code = main(["classify", "--family", "cos1", "--config", str(cfg),
                     "--n", "2"])
        assert code == EXIT_OK
        assert "p           2" in capsys.readouterr().out  # flag wins

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("not a pair\n")
        code = main(["classify", "--family", "cos1", "--n", "2",
                     "--config", str(cfg)])
        assert code == EXIT_INVALID

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["table1", "--config", str(tmp_path / "absent.txt")])
        assert code == EXIT_INVALID
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,entry", [
        (["classify", "--family", "cos1"], "n=abc"),
        (["table1"], "family=nope"),
    ], ids=["type", "choices"])
    def test_values_checked_like_flags(self, tmp_path, capsys, argv, entry):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(entry + "\n")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_keys_a_subcommand_lacks_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("steps=5\nthreshold=1e-3\nn=3\n")
        code = main(["classify", "--family", "cos1", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "p           1" in capsys.readouterr().out  # n=3 from config

    def test_valueless_flag_set_by_true(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("numeric=true\nthreshold=1e-3\n")
        code = main(["verify", "--m", "2.25", "--n", "2", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "numeric m=2.25 n=2 [K]" in capsys.readouterr().out


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["table1", "-o", str(out)])
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"t.csv"}

    def test_symlink_written_through(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        assert main(["table1", "-o", str(link)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == "target.csv"
        assert target.read_text() == GOLDEN.read_text()
        assert {p.name for p in tmp_path.iterdir()} == {"target.csv", "link.csv"}

    def test_new_file_gets_umask_mode(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        old = os.umask(0o027)
        try:
            assert main(["table1", "-o", str(out)]) == EXIT_OK
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_existing_file_keeps_mode(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        out.write_text("old\n")
        out.chmod(0o604)
        assert main(["table1", "-o", str(out)]) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o604
        assert out.read_text() == GOLDEN.read_text()

    def test_fifo_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        try:
            assert main(["table1", "-o", str(fifo)]) == EXIT_OK
            reader.join(timeout=30)
        finally:
            if reader.is_alive():
                # unblock the reader if the FIFO was never opened for writing
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got == [GOLDEN.read_text()]
