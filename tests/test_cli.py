"""The command-line front end: subcommands, outputs and exit codes."""

import numpy as np

from distdict import read_pgm
from distdict.cli import main


def read_text(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def test_validate_passes_on_the_defaults(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "FAIL" not in out


def test_run_writes_a_trace(tmp_path, capsys):
    code = main(["run", "--rounds", "5", "--agents", "3", "--out-dir",
                 str(tmp_path)])
    assert code == 0
    lines = read_text(tmp_path / "trace.csv").strip().split("\n")
    assert lines[0] == "nu,messages,objective,delta,cons_err,gamma"
    assert len(lines) == 7  # header + rounds 0..5
    assert lines[1].startswith("0,0,")
    assert lines[-1].startswith("5,10,")


def test_run_zero_rounds_emits_only_the_initial_row(tmp_path):
    assert main(["run", "--rounds", "0", "--agents", "3", "--out-dir",
                 str(tmp_path)]) == 0
    lines = read_text(tmp_path / "trace.csv").strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0,0,")


def test_run_is_byte_deterministic(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["run", "--rounds", "20", "--agents", "4", "--seed",
                     "5", "--out-dir", str(tmp_path / sub)]) == 0
    assert (read_text(tmp_path / "a" / "trace.csv")
            == read_text(tmp_path / "b" / "trace.csv"))


def test_compare_is_byte_deterministic(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["compare", "--budgets", "6,12", "--agents", "4",
                     "--seed", "5", "--out-dir", str(tmp_path / sub)]) == 0
    assert (read_text(tmp_path / "a" / "compare.csv")
            == read_text(tmp_path / "b" / "compare.csv"))


def test_run_reads_a_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rounds = 3\nagents = 2\nM = 6\nK = 4\nN = 8\n")
    assert main(["run", "--config", str(cfg), "--out-dir",
                 str(tmp_path)]) == 0
    lines = read_text(tmp_path / "trace.csv").strip().split("\n")
    assert lines[-1].startswith("3,6,")


def test_cli_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rounds = 9\nagents = 2\n")
    assert main(["run", "--config", str(cfg), "--rounds", "2", "--out-dir",
                 str(tmp_path)]) == 0
    lines = read_text(tmp_path / "trace.csv").strip().split("\n")
    assert lines[-1].startswith("2,4,")


def test_denoise_writes_images_and_reports_quality(tmp_path, capsys):
    code = main(["denoise", "--rounds", "8", "--agents", "4", "--out-dir",
                 str(tmp_path), "--config", "/dev/null"])
    assert code == 0
    out = capsys.readouterr().out
    assert "input " in out and "output" in out
    noisy = read_pgm(tmp_path / "noisy.pgm")
    denoised = read_pgm(tmp_path / "denoised.pgm")
    assert noisy.shape == (64, 64)
    assert denoised.shape == (64, 64)
    trace = read_text(tmp_path / "trace.csv").strip().split("\n")
    assert trace[-1].startswith("8,16,")


def test_denoise_accepts_an_external_image(tmp_path):
    from distdict import make_test_image, write_pgm
    img = make_test_image(32)
    src = tmp_path / "input.pgm"
    write_pgm(src, img)
    assert main(["denoise", "--image", str(src), "--rounds", "4",
                 "--agents", "3", "--out-dir", str(tmp_path)]) == 0
    assert read_pgm(tmp_path / "noisy.pgm").shape == (32, 32)


def test_compare_merges_all_algorithms(tmp_path, capsys):
    code = main(["compare", "--budgets", "4,8", "--agents", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read_text(tmp_path / "compare.csv").strip().split("\n")
    assert lines[0] == "algo,nu,messages,objective,delta,cons_err,gamma"
    algos = {line.split(",", 1)[0] for line in lines[1:]}
    assert algos == {"tracking_linearized", "tracking_plain", "diffusion"}
    out = capsys.readouterr().out
    assert "budget" in out


def test_errors_exit_nonzero(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("this is not key value\n")
    assert main(["run", "--config", str(bad_cfg)]) == 1
    assert "error:" in capsys.readouterr().err

    missing = tmp_path / "missing.pgm"
    assert main(["denoise", "--image", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_noise_free_image_is_still_noised(tmp_path):
    # sigma 0 keeps the input identical: output PGM must equal the source
    from distdict import make_test_image, write_pgm
    img = make_test_image(32)
    src = tmp_path / "clean.pgm"
    write_pgm(src, img)
    assert main(["denoise", "--image", str(src), "--noise-sigma", "0",
                 "--rounds", "1", "--agents", "2", "--out-dir",
                 str(tmp_path)]) == 0
    assert np.array_equal(read_pgm(tmp_path / "noisy.pgm"), img)
