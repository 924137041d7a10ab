"""Flat key=value config parsing and run-configuration assembly."""

import pytest

from distdict import GraphSpec, RunConfig, build_run_config, load_config


def test_load_config_parses_keys_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a full-line comment\n"
        "\n"
        "lam = 0.2\n"
        "graph=static_path   # trailing comment\n"
        "agents =4\n")
    assert load_config(path) == {"lam": "0.2", "graph": "static_path",
                                 "agents": "4"}


def test_load_config_reports_file_and_line_on_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lam 0.2\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(path) in str(info.value)
    assert ":1:" in str(info.value)

    path2 = tmp_path / "bad2.cfg"
    path2.write_text("ok = 1\n= 0.2\n")
    with pytest.raises(ValueError) as info:
        load_config(path2)
    assert ":2:" in str(info.value)


def test_build_run_config_routes_keys_to_the_right_places():
    config = build_run_config({"lam": "0.2", "mu": "0.1", "gamma0": "0.4",
                               "tau_d": "2.5", "graph": "static_path",
                               "agents": "7", "window": "1",
                               "max_rounds": "50", "metric_stride": "5",
                               "variant": "plain", "seed": "3"})
    assert isinstance(config, RunConfig)
    assert config.lam == 0.2 and config.mu == 0.1
    assert config.steps.gamma0 == 0.4
    assert config.steps.tau_d == 2.5
    assert config.steps.variant == "plain"
    assert isinstance(config.graph, GraphSpec)
    assert config.graph.kind == "static_path"
    assert config.graph.num_agents == 7
    assert config.max_rounds == 50
    assert config.metric_stride == 5
    assert config.seed == 3


def test_overrides_beat_the_mapping_and_none_is_ignored():
    config = build_run_config({"lam": "0.2", "max_rounds": "50"},
                              lam=0.3, max_rounds=None, seed=9)
    assert config.lam == 0.3
    assert config.max_rounds == 50
    assert config.seed == 9


def test_rounds_is_an_alias_for_max_rounds():
    assert build_run_config({"rounds": "12"}).max_rounds == 12
    # the explicit key wins over the alias
    assert build_run_config({"rounds": "12",
                             "max_rounds": "30"}).max_rounds == 30


def test_unknown_keys_are_left_for_the_caller():
    config = build_run_config({"patch": "8", "noise_sigma": "25.5",
                               "lam": "0.2"})
    assert config.lam == 0.2  # known keys still apply


def test_invalid_values_are_rejected():
    with pytest.raises(ValueError):
        build_run_config({"lam": "-1"})
    with pytest.raises(ValueError):
        build_run_config({"metric_stride": "0"})
    with pytest.raises(ValueError):
        build_run_config({"graph": "nonexistent"})
    with pytest.raises(ValueError):
        build_run_config({"gamma0": "1.5"})


def test_zero_round_budget_is_allowed():
    assert build_run_config({"max_rounds": "0"}).max_rounds == 0


def test_period_none_means_the_window_default(tmp_path):
    for text in ("none", "None", "NONE"):
        assert build_run_config({"period": text}).graph.period is None
    assert build_run_config({"period": "2"}).graph.period == 2
    path = tmp_path / "run.cfg"
    path.write_text("graph = tv_ring_partition\nwindow = 3\n"
                    "period = none   # the window\n")
    graph = build_run_config(load_config(path)).graph
    assert (graph.kind, graph.window, graph.period) == \
        ("tv_ring_partition", 3, None)
