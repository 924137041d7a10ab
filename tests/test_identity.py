"""The types that hold NumPy arrays compare and hash by identity.

A generated dataclass ``__eq__`` would compare their array fields
elementwise, and on two distinct instances the truth value of such a
comparison raises."""

import numpy as np
import pytest

from distdict import (AgentState, DenoiseResult, MetricsTrace, ProblemData,
                      RoundState, build_run_config, build_schedule,
                      init_agents, make_synthetic)


def _problem():
    S = np.arange(12.0).reshape(3, 4)
    return ProblemData(S_blocks=[S[:, :2], S[:, 2:]], K=2, lam=0.1, mu=0.05,
                       alpha=1.0)


def _round_state():
    problem = _problem()
    return RoundState(problem.groups, *init_agents(problem, seed=3))


BUILDERS = {
    "GraphSchedule": lambda: build_schedule("static_path", 3),
    "ProblemData": _problem,
    "RoundState": _round_state,
    "AgentState": lambda: AgentState(D=np.ones((3, 2)), X=np.ones((2, 4)),
                                     tracker=np.zeros((3, 2))),
    "SyntheticInstance": lambda: make_synthetic(M=3, K=2, N=4, num_agents=2,
                                                k0=1, noise_sigma=0.1,
                                                seed=3)[0],
    "DenoiseResult": lambda: DenoiseResult(image=np.ones((4, 4)),
                                           trace=MetricsTrace(),
                                           dictionary=np.ones((4, 2))),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_inputs_give_distinct_instances_that_compare_and_hash(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert type(a).__name__ == name
    assert a == a
    assert (a == b) is False
    assert a != b
    assert len({a, b}) == 2


def test_the_types_of_scalars_and_lists_keep_value_equality():
    # RunConfig holds a StepSchedule and a GraphSpec
    assert build_run_config({"agents": 3}) == build_run_config({"agents": 3})
    assert _problem().groups == _problem().groups
    assert MetricsTrace() == MetricsTrace()
