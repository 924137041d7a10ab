"""Flat key=value config parsing and run-configuration assembly."""

from dataclasses import fields

import pytest

from distdict import (GraphSpec, RunConfig, StepSchedule, build_run_config,
                      load_config)

FLOAT_KEYS = [f.name for cls in (RunConfig, StepSchedule, GraphSpec)
              for f in fields(cls) if f.type == "float"]


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


def test_load_config_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("lam = 0.2\n# lam = 0.5\nagents = 4\n\nlam = 0.3\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    message = str(info.value)
    assert str(path) in message and "'lam'" in message
    assert "lines 1 and 5" in message


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
    # the explicit key wins over the alias, which is consumed all the same
    assert build_run_config({"rounds": "12",
                             "max_rounds": "30"}).max_rounds == 30


def test_unknown_keys_are_rejected_with_the_valid_keys_listed():
    with pytest.raises(ValueError, match="unknown config key.* 'lamda', "
                       "'patch'; valid keys: agents, alpha, .*lam, .*window"):
        build_run_config({"patch": "8", "lamda": "0.3", "lam": "0.2"})


def test_invalid_values_are_rejected():
    with pytest.raises(ValueError):
        build_run_config({"lam": "-1"})
    with pytest.raises(ValueError):
        build_run_config({"metric_stride": "0"})
    with pytest.raises(ValueError):
        build_run_config({"graph": "nonexistent"})
    with pytest.raises(ValueError):
        build_run_config({"gamma0": "1.5"})


def test_every_float_key_is_checked_for_finiteness():
    assert sorted(FLOAT_KEYS) == ["alpha", "eps_gamma", "eps_tau", "gamma0",
                                  "inner_tol", "lam", "mu", "stop_tol",
                                  "tau_d"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_float_value_fails_naming_its_key(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
        build_run_config({key: value})


def test_a_value_of_the_wrong_type_fails_naming_its_key():
    for key, value in (("lam", "abc"), ("agents", "6.5"),
                       ("inner_max_iter", "")):
        with pytest.raises(ValueError,
                           match=f"config key '{key}' expects .*{value!r}"):
            build_run_config({key: value})


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
