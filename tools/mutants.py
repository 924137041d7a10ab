"""Mutation kill list: one-line faults of the program that the tests must
catch.

Each mutant replaces one fragment of a source file and names the test that
is expected to fail on it. The script copies the repository to a temporary
directory and checks that every named test passes there. It then applies
one mutant at a time, runs that mutant's test with pytest and restores the
file. It prints "killed" or "survived" per mutant, and exits 1 if any
mutant survived or could not be run.

    python tools/mutants.py

The test suite does not collect this file, which lies outside ``tests/``
and ``bench/``. A change that adds a check adds the mutant it kills.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PROTOCOL = "src/distdict/protocol.py"
NETWORK = "src/distdict/network.py"


class Mutant(NamedTuple):
    id: str
    path: str  # relative to the repository root
    old: str   # must occur exactly once in the file
    new: str
    test: str  # a pytest node id, relative to the repository root


MUTANTS = [
    Mutant("transposed-mixing", PROTOCOL,
           "return (W @ mats.reshape(I, -1))",
           "return (W.T @ mats.reshape(I, -1))",
           "tests/test_protocol.py::test_consensus_equals_the_tensordot_mix"),
    Mutant("project-after-diffusion-mix", PROTOCOL,
           "consensus_step(\n        W, project_dictionary("
           "state.D - gamma * grads, problem.alpha))",
           "project_dictionary(consensus_step(\n        W, "
           "state.D - gamma * grads), problem.alpha)",
           "tests/test_engine.py::test_engine_matches_the_ragged_reference"),
    Mutant("gradients-at-the-half-step", PROTOCOL,
           "grads[sl] = grad_dict(state.D[sl], codes[g], S)",
           "grads[sl] = grad_dict(U[sl], codes[g], S)",
           "tests/test_engine.py::test_engine_matches_the_ragged_reference"),
    Mutant("direction-without-factor-I", PROTOCOL,
           "direction = problem.num_agents * state.tracker",
           "direction = state.tracker",
           "tests/test_engine.py::test_engine_matches_the_ragged_reference"),
    Mutant("tracker-adds-before-subtracting", PROTOCOL,
           "out -= grads_old\n    out += grads_new",
           "out += grads_new\n    out -= grads_old",
           "tests/test_protocol.py::"
           "test_tracking_single_agent_reproduces_the_new_gradient_exactly"),
    Mutant("looser-sigma-max-bracket", "src/distdict/core.py",
           "_BRACKET_TOL = 1e-13", "_BRACKET_TOL = 1e-6",
           "tests/test_core.py::test_sigma_max_matches_the_eigvalsh_formula"),
    Mutant("halved-eps-gamma", "src/distdict/agents.py",
           "g[n] = g[n - 1] * (1.0 - eps * g[n - 1])",
           "g[n] = g[n - 1] * (1.0 - 0.5 * eps * g[n - 1])",
           "tests/test_agents.py::"
           "test_gamma_first_values_match_the_recurrence"),
    Mutant("looser-tracking-bound", PROTOCOL,
           "if residual > 1e-10:", "if residual > 1e-6:",
           "tests/test_protocol.py::"
           "test_check_round_trips_just_above_its_bounds"),
    Mutant("looser-feasibility-slack", PROTOCOL,
           "if norm > problem.alpha * (1 + 1e-12):",
           "if norm > problem.alpha * (1 + 1e-3):",
           "tests/test_protocol.py::"
           "test_check_round_trips_just_above_its_bounds"),
    Mutant("looser-stochasticity-tolerance", NETWORK,
           "np.abs(sums - 1.0) <= STOCHASTICITY_TOL",
           "np.abs(sums - 1.0) <= 1e-2",
           "tests/test_network.py::"
           "test_validate_rejects_mass_moved_within_a_row"),
    Mutant("row-sums-only", NETWORK,
           "[W.sum(axis=1), W.sum(axis=0)]", "[W.sum(axis=1), W.sum(axis=1)]",
           "tests/test_network.py::test_validate_rejects_row_stochastic_only"),
    Mutant("gamma-column-one-round-late", PROTOCOL,
           "_record(trace, problem, state, gammas[nu + 1], flags)",
           "_record(trace, problem, state, gammas[nu], flags)",
           "tests/test_protocol.py::"
           "test_each_row_holds_the_step_of_the_round_that_starts_from_it"),
    Mutant("no-self-loop-rule", NETWORK,
           "if not W.diagonal().all() or np.any(",
           "if np.any(",
           "tests/test_network.py::"
           "test_validate_rejects_a_permutation_without_self_loops"),
    Mutant("no-pgm-error-wrap", "src/distdict/imaging.py",
           "except ValueError:  # more digits than int() converts",
           "except TypeError:  # more digits than int() converts",
           "tests/test_imaging.py::"
           "test_pgm_rejects_a_token_beyond_the_int_conversion_limit"),
    Mutant("generated-schedule-equality", NETWORK,
           "@dataclass(eq=False)\nclass GraphSchedule",
           "@dataclass\nclass GraphSchedule",
           "tests/test_identity.py"),
    Mutant("silent-absorbing-zero-state", "src/distdict/cli.py",
           'if last["nu"] > 0 and not any(', 'if last["nu"] < 0 and not any(',
           "tests/test_cli.py::test_run_reports_the_absorbing_zero_state"),
]


def _pytest(copy: Path, tests) -> int:
    """Run pytest on ``tests`` in ``copy``; return its exit code. No
    bytecode is written, so a restored file is never run from the cached
    bytecode of its mutant."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    stale = [m.id for m in MUTANTS
             if (ROOT / m.path).read_text("utf-8").count(m.old) != 1]
    if stale:
        print(f"fragment not found exactly once: {', '.join(stale)}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if _pytest(copy, sorted({m.test for m in MUTANTS})) != 0:
            print("the named tests fail on the unmutated tree",
                  file=sys.stderr)
            return 1
        survivors = 0
        for m in MUTANTS:
            source = copy / m.path
            text = source.read_text("utf-8")
            source.write_text(text.replace(m.old, m.new), "utf-8")
            code = _pytest(copy, [m.test])
            source.write_text(text, "utf-8")
            outcome = {0: "survived", 1: "killed"}.get(
                code, f"error (pytest exit {code})")
            survivors += outcome != "killed"
            print(f"{outcome:<9} {m.id:<34} {m.test}", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
