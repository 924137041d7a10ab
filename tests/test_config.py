"""Flat key=value config parsing and run-configuration assembly."""

from dataclasses import fields

import pytest

from distdict import (GraphSpec, RunConfig, StepSchedule, build_run_config,
                      build_schedule, load_config)
from distdict.network import SCHEDULE_KINDS

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


def test_unknown_keys_are_rejected_with_the_valid_keys_listed(tmp_path):
    with pytest.raises(ValueError, match="unknown config key.* 'lamda', "
                       "'patch'; valid keys: agents, alpha, .*lam, .*window"):
        build_run_config({"patch": "8", "lamda": "0.3", "lam": "0.2"})
    # the inner solvers' safety bounds are constants, not config keys; a
    # run always lasts max_rounds, which has no second spelling
    path = tmp_path / "dropped.cfg"
    for key, value in (("eps_tau", "1e-6"), ("inner_tol", "1e-8"),
                       ("inner_max_iter", "2000"), ("stop_tol", "0"),
                       ("rounds", "12")):
        path.write_text(f"lam = 0.2\n{key} = {value}\n")
        for mapping in ({key: value}, load_config(path)):
            with pytest.raises(ValueError) as info:
                build_run_config(mapping)
            message = str(info.value)
            assert message.startswith(f"unknown config key(s) '{key}'; ")
            valid = message.split("valid keys: ", 1)[1].split(", ")
            assert valid[:2] == ["agents", "alpha"]
            assert not {"eps_tau", "inner_tol", "inner_max_iter", "stop_tol",
                        "rounds"} & set(valid)


def test_rounds_is_no_longer_an_alias_for_max_rounds():
    # max_rounds has one spelling; the old alias fails even beside it
    for mapping in ({"rounds": "12"}, {"rounds": "12", "max_rounds": "30"}):
        with pytest.raises(ValueError,
                           match=r"^unknown config key\(s\) 'rounds'; "):
            build_run_config(mapping)
    assert build_run_config({"max_rounds": "12"}).max_rounds == 12


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
    assert sorted(FLOAT_KEYS) == ["alpha", "eps_gamma", "gamma0", "lam",
                                  "mu", "tau_d"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_float_value_fails_naming_its_key(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
        build_run_config({key: value})


@pytest.mark.parametrize("value", [True, None, "0.1"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_float_field_that_is_not_a_real_number_fails_naming_it(key,
                                                                  value):
    cls = next(c for c in (RunConfig, StepSchedule)
               if key in {f.name for f in fields(c)})
    with pytest.raises(ValueError,
                       match=f"^{key} must be a real number, got {value!r}$"):
        cls(**{key: value})
    if not isinstance(value, str):  # a string from a mapping is converted
        with pytest.raises(ValueError, match=f"^{key} must be a real number"):
            build_run_config({key: value})


def test_a_value_of_the_wrong_type_fails_naming_its_key():
    for key, value in (("lam", "abc"), ("agents", "6.5"),
                       ("max_rounds", "")):
        with pytest.raises(ValueError,
                           match=f"config key '{key}' expects .*{value!r}"):
            build_run_config({key: value})


def test_zero_round_budget_is_allowed():
    assert build_run_config({"max_rounds": "0"}).max_rounds == 0


def test_period_none_fails_naming_period(tmp_path):
    # leaving the key out is how a file asks for the window
    path = tmp_path / "run.cfg"
    path.write_text("graph = tv_ring_partition\nwindow = 3\n"
                    "period = none\n")
    for mapping in ({"graph": "tv_ring_partition", "window": "3",
                     "period": "None"}, load_config(path)):
        with pytest.raises(ValueError,
                           match="^config key 'period' expects int"):
            build_run_config(mapping)
    path.write_text("graph = tv_ring_partition\nwindow = 3\n")
    graph = build_run_config(load_config(path)).graph
    assert (graph.kind, graph.window, graph.period) == \
        ("tv_ring_partition", 3, None)
    assert build_run_config({"graph": "tv_ring_partition", "window": "2",
                             "period": "2"}).graph.period == 2


@pytest.mark.parametrize("field, value", [("max_rounds", 2.5),
                                          ("metric_stride", 1.5),
                                          ("seed", 3.0), ("max_rounds", True)])
def test_run_config_integer_fields_reject_a_float(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("num_agents", 5.0),
                                          ("window", 2.0), ("period", 2.0),
                                          ("seed", 0.5), ("num_agents", True)])
def test_graph_spec_integer_fields_reject_a_float(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        GraphSpec(**{field: value})


@pytest.mark.parametrize("period", [0, -2])
def test_graph_spec_rejects_a_period_below_one(period):
    with pytest.raises(ValueError, match="period must be at least 1"):
        GraphSpec(kind="tv_ring_partition", window=3, period=period)


def accepts(build, **kwargs):
    try:
        build(**kwargs)
    except ValueError:
        return False
    return True


def test_graph_spec_accepts_exactly_what_build_schedule_builds():
    for kind in SCHEDULE_KINDS:
        for agents in range(1, 7):
            for window in range(1, 7):
                for period in (None, *range(1, 8)):
                    request = dict(kind=kind, num_agents=agents,
                                   window=window, period=period)
                    assert accepts(GraphSpec, **request) == \
                        accepts(build_schedule, **request), request


@pytest.mark.parametrize("mapping", [
    {"period": "2"},  # the default static_ring has one phase
    {"graph": "tv_ring_partition", "window": "5", "agents": "3"},
], ids=["ring-period", "partition-window"])
def test_a_graph_no_schedule_meets_fails_when_the_config_is_built(mapping):
    with pytest.raises(ValueError):
        build_run_config(mapping)
