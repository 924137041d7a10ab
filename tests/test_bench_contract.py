"""The benchmark under ``bench/`` drives the package from outside: it
rebinds ``distdict.protocol.init_agents`` and ``distdict.denoise.run``,
wraps the module attributes its tracer names and reads the observer's
``RoundState``. One traced execution of every workload must still pass the
workload's own checks, so that an interface change shows here rather than
as a failed benchmark run. Nothing under ``bench/`` is written.
"""

import sys
from pathlib import Path

import pytest

import distdict.denoise
import distdict.protocol

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # the Harness rebinds these two; monkeypatch puts the originals back
    monkeypatch.setattr(distdict.protocol, "init_agents",
                        distdict.protocol.init_agents)
    monkeypatch.setattr(distdict.denoise, "run", distdict.denoise.run)
    import tracer
    import workloads
    return tracer, workloads


@pytest.mark.parametrize("name", ["synth_lin", "synth_plain", "denoise128",
                                  "compare_net"])
def test_one_traced_execution_passes_the_workload_checks(bench, name):
    tracer, workloads = bench
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(1, {})
    harness = workloads.Harness()
    spans = tracer.Tracer()
    spans.install()
    try:
        out = workload.execute(inputs, harness)
    finally:
        spans.uninstall()
    workload.check(inputs, out)
    assert workload.time_to_gap(out) > 0.0
    assert spans.calls["core.sigma_max"] > 0
    assert spans.record_s > 0.0
    if name == "synth_plain":
        # inner_iters counts the core.soft_threshold calls made inside
        # x_update_plain, the benchmark's only view of the solver's work
        assert spans.inner_iters > 0
    else:
        # the linearized coding step reaches the tracer through grad_codes
        assert spans.calls["core.grad_codes"] > 0
