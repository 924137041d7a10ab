"""The command-line front end: subcommands, outputs and exit codes."""

import numpy as np
import pytest

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


@pytest.mark.parametrize("kernel, check", [
    ("grad_dict", "gradients vs finite differences"),
    ("grad_codes", "gradients vs finite differences"),
    ("x_update_linearized", "coding prox optimality"),
    ("project_dictionary", "dictionary projection"),
])
def test_validate_fails_on_a_wrong_kernel(kernel, check, monkeypatch, capsys):
    import distdict.cli as cli

    right = getattr(cli, kernel)
    monkeypatch.setattr(cli, kernel, lambda *args: 1.01 * right(*args))
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] \
        == [f"FAIL {check}"]


def test_run_writes_a_trace(tmp_path, capsys):
    code = main(["run", "--rounds", "5", "--agents", "3", "--out-dir",
                 str(tmp_path)])
    assert code == 0
    lines = read_text(tmp_path / "trace.csv").strip().split("\n")
    assert lines[0] == "nu,messages,objective,delta,cons_err,gamma"
    assert len(lines) == 7  # header + rounds 0..5
    assert lines[1].startswith("0,0,")
    assert lines[-1].startswith("5,10,")
    out = capsys.readouterr().out
    assert " capped=0\n" in out
    assert "absorbing" not in out


def test_run_reports_the_absorbing_zero_state(tmp_path, capsys):
    # lam at least alpha times every data column's norm bounds every
    # |d^T s| over feasible atoms d, so every code stays zero
    config = tmp_path / "run.cfg"
    config.write_text("M = 6\nK = 4\nN = 12\nk0 = 2\nlam = 100\n")
    assert main(["run", "--config", str(config), "--rounds", "5",
                 "--agents", "3", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert " delta=0 " in lines[0]
    assert lines[1] == ("every code is zero: the run sits at the absorbing "
                        "point X = 0, where the gap is exactly 0")


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
    cfg.write_text("max_rounds = 3\nagents = 2\nM = 6\nK = 4\nN = 8\n")
    assert main(["run", "--config", str(cfg), "--out-dir",
                 str(tmp_path)]) == 0
    lines = read_text(tmp_path / "trace.csv").strip().split("\n")
    assert lines[-1].startswith("3,6,")


def test_cli_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_rounds = 9\nagents = 2\n")
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


def test_denoise_reports_a_pgm_header_larger_than_its_file(tmp_path,
                                                           capsys):
    # the header claims 10^12 pixels; the read fails on the three it holds
    src = tmp_path / "huge.pgm"
    src.write_bytes(b"P2\n1000000 1000000\n255\n1 2 3\n")
    assert main(["denoise", "--image", str(src),
                 "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: truncated pixel data")


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


def test_errors_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("this is not key value\n")
    assert main(["run", "--config", str(bad_cfg)]) == 1
    assert "error:" in capsys.readouterr().err

    twice = tmp_path / "twice.cfg"
    twice.write_text("max_rounds = 3\nmax_rounds = 4\n")
    assert main(["run", "--config", str(twice)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'max_rounds'" in err
    assert "lines 1 and 2" in err

    missing = tmp_path / "missing.pgm"
    assert main(["denoise", "--image", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_keys_a_subcommand_does_not_read_fail_by_name(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for sub, key in (("run", "lamda"), ("compare", "max_rounds"),
                     ("compare", "rounds"), ("compare", "variant"),
                     ("run", "rounds"), ("run", "stop_tol"),
                     ("denoise", "M"), ("run", "patch"),
                     ("validate", "budgets")):
        (tmp_path / "keys.cfg").write_text(f"{key} = 3\n")
        assert main([sub, "--config", "keys.cfg"]) == 1
        assert f"'{key}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keys.cfg"]


def test_a_bad_instance_value_fails_naming_its_key(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    for sub, key, value in (("run", "M", "6.5"), ("compare", "sigma_n", "x"),
                            ("denoise", "patch", "eight"),
                            ("compare", "budgets", "5,a")):
        (tmp_path / "keys.cfg").write_text(f"{key} = {value}\n")
        assert main([sub, "--config", "keys.cfg"]) == 1
        assert f"config key '{key}' expects" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keys.cfg"]


def test_compare_rejects_a_budget_below_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for budgets in ("-5", "0", "40,0"):
        assert main(["compare", "--budgets", budgets]) == 1
        assert "budgets must be at least 1" in capsys.readouterr().err
    (tmp_path / "budgets.cfg").write_text("budgets = 40,-1\n")
    assert main(["compare", "--config", "budgets.cfg"]) == 1
    assert "budgets must be at least 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.cfg"]


def test_an_unknown_key_lists_the_keys_the_subcommand_reads(tmp_path,
                                                            capsys):
    cfg = tmp_path / "keys.cfg"
    cfg.write_text("MM = 6\n")
    for sub, own in (("run", ("M", "data_seed")),
                     ("compare", ("M", "budgets")),
                     ("denoise", ("patch", "image_side"))):
        assert main([sub, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        valid = err.split("valid keys: ", 1)[1].strip().split(", ")
        assert "'MM'" in err
        assert {"lam", "window", "max_rounds", *own} <= set(valid)
        assert "rounds" not in valid


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


def test_validate_seed_flag_overrides_the_config_file(tmp_path, monkeypatch,
                                                      capsys):
    import distdict.cli as cli

    seeds = []

    def recording(kind, num_agents, **extra):
        if kind == "static_random_geometric":
            seeds.append(extra["seed"])
        return build_schedule(kind, num_agents, **extra)

    build_schedule = cli.build_schedule
    monkeypatch.setattr(cli, "build_schedule", recording)
    cfg = tmp_path / "val.cfg"
    cfg.write_text("seed = 5\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["validate", "--config", str(cfg), "--seed", "7"]) == 0
    assert main(["validate"]) == 0
    assert seeds == [5, 7, 0]


def test_flags_a_subcommand_would_ignore_are_rejected(tmp_path, capsys):
    for argv in (["compare", "--rounds", "5"],
                 ["compare", "--variant", "plain"],
                 ["validate", "--rounds", "5"],
                 ["validate", "--agents", "3"],
                 ["validate", "--out-dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "period = 2\n",
    "graph = tv_ring_partition\nwindow = 5\nagents = 3\n",
], ids=["ring-period", "partition-window"])
def test_a_graph_no_schedule_meets_fails_before_any_data_is_drawn(
        setting, tmp_path, monkeypatch, capsys):
    import distdict.cli as cli

    monkeypatch.chdir(tmp_path)
    drawn = []
    monkeypatch.setattr(cli, "make_synthetic",
                        lambda *args, **kwargs: drawn.append(kwargs))
    (tmp_path / "graph.cfg").write_text(setting)
    assert main(["run", "--config", "graph.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert drawn == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.cfg"]


def test_a_bad_noise_level_fails_naming_its_key(tmp_path, monkeypatch,
                                                capsys):
    import distdict.cli as cli

    monkeypatch.chdir(tmp_path)
    drawn = []
    monkeypatch.setattr(cli, "make_synthetic",
                        lambda *args, **kwargs: drawn.append(kwargs))
    monkeypatch.setattr(cli, "make_test_image",
                        lambda *args: drawn.append(args))
    runs = [([sub, "--config", "noise.cfg"], key, f"{key} = {value}\n")
            for sub, key in (("run", "sigma_n"), ("compare", "sigma_n"),
                             ("denoise", "noise_sigma"))
            for value in ("inf", "-inf", "nan", "-1")]
    runs += [(["denoise", f"--noise-sigma={value}"], "noise_sigma", "")
             for value in ("inf", "nan", "-1")]
    for argv, key, text in runs:
        (tmp_path / "noise.cfg").write_text(text)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {key} must be finite and nonnegative, got ")
    assert drawn == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noise.cfg"]
