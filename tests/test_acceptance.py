"""End-to-end acceptance checks.

Run with ``pytest -v`` to get one pass/fail line per criterion; the test
names state what each criterion demands.
"""

import time

import numpy as np
import pytest

from distdict import (ProblemData, build_run_config, build_schedule,
                      denoise_image, diffusion_baseline,
                      grad_codes, grad_dict, make_standard_problem,
                      make_synthetic, make_test_image, project_dictionary,
                      psnr_mse, run, tracking_residual, validate_weights,
                      x_update_linearized)
from distdict.network import SCHEDULE_KINDS

from oracles import (finite_difference_gradient, project_column_line_search,
                     prox_scalar_grid, ragged_run)


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def tracking_run():
    """One 5-agent run on a 2-phase time-varying ring, instrumented with a
    per-round recomputation of the tracking-mean identity; shared by the
    first two criteria."""
    _, problem = make_synthetic(M=8, K=6, N=20, num_agents=5, k0=2,
                                noise_sigma=0.05, seed=3)
    config = build_run_config({"agents": 5, "graph": "tv_ring_partition",
                               "window": 2, "max_rounds": 400,
                               "metric_stride": 100,
                               "lam": str(problem.lam),
                               "mu": str(problem.mu)})
    residuals = []
    start = time.perf_counter()
    trace = run(problem, config, observer=lambda state: residuals.append(
        tracking_residual(problem, state)))
    elapsed = time.perf_counter() - start
    return trace, max(residuals), elapsed


@pytest.fixture(scope="module")
def comparison_runs():
    """Both tracking variants plus the diffusion baseline on the standard
    synthetic instance, recorded at matching message budgets."""
    _, problem = make_standard_problem()
    base = {"agents": 5, "graph": "static_path", "tau_d": "5.0",
            "metric_stride": 100, "lam": str(problem.lam),
            "mu": str(problem.mu)}
    traces = {}
    for variant in ("linearized", "plain"):
        config = build_run_config(dict(base, max_rounds=500,
                                       variant=variant))
        traces[variant] = run(problem, config)
    config = build_run_config(dict(base, max_rounds=1000))
    traces["diffusion"] = diffusion_baseline(problem, config)
    return traces


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_tracking_mean_identity_within_1e10_under_5s(
        tracking_run):
    _, worst, elapsed = tracking_run
    assert worst <= 1e-10, (
        f"tracking-mean identity violated: worst deviation {worst:.3e}")
    assert elapsed < 5.0, f"run took {elapsed:.2f}s, budget is 5s"
    print(f"criterion 1: worst tracking-identity deviation {worst:.3e} "
          f"(<= 1e-10), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_consensus_error_decays_three_orders(tracking_run):
    trace, _, _ = tracking_run
    e = {nu: err for nu, err in zip(trace.nu, trace.cons_err)}
    assert e[100] > e[200] > e[400], (
        f"consensus errors not strictly decreasing: "
        f"{e[100]:.3e}, {e[200]:.3e}, {e[400]:.3e}")
    assert e[400] <= 1e-3 * e[0], (
        f"e(400)/e(0) = {e[400] / e[0]:.3e} exceeds 1e-3")
    print(f"criterion 2: e(100)={e[100]:.3e} > e(200)={e[200]:.3e} > "
          f"e(400)={e[400]:.3e}, ratio to e(0) {e[400] / e[0]:.3e}")


def test_criterion_03_stationarity_gap_drops_two_orders_in_500_rounds():
    _, problem = make_standard_problem()
    config = build_run_config({"agents": 5, "graph": "static_path",
                               "variant": "linearized", "tau_d": "0.1",
                               "gamma0": "0.5", "eps_gamma": "0.1",
                               "max_rounds": 500, "metric_stride": 100,
                               "lam": str(problem.lam),
                               "mu": str(problem.mu)})
    start = time.perf_counter()
    trace = run(problem, config)
    elapsed = time.perf_counter() - start
    ratio = trace.delta[-1] / trace.delta[0]
    assert trace.nu[-1] == 500
    assert ratio <= 1e-2, f"delta(500)/delta(0) = {ratio:.3e} > 1e-2"
    assert elapsed < 30.0, f"run took {elapsed:.2f}s, budget is 30s"
    print(f"criterion 3: delta ratio {ratio:.3e} (<= 1e-2), "
          f"runtime {elapsed:.2f}s (< 30s)")


def test_criterion_04_single_agent_run_equals_the_centralized_oracle():
    # centralized_oracle is itself a one-agent run, so the reference is the
    # independent per-agent loop on 2-d matrices at one agent, where the
    # tracker equals the local gradient and the round is centralized SCA;
    # both take lam, mu and alpha from the problem, not from the config
    rng = np.random.default_rng(7)
    problem = ProblemData(S_blocks=[rng.uniform(-1, 1, size=(4, 5))], K=3,
                          lam=0.125, mu=0.0625, alpha=1.0)
    for variant in ("linearized", "plain"):
        config = build_run_config({"agents": 1, "max_rounds": 100,
                                   "metric_stride": 10, "variant": variant})
        net, central = {}, {}
        run(problem, config,
            observer=lambda s: net.setdefault(
                s.nu, (s.agents[0].D.copy(), s.agents[0].X.copy())))
        ragged_run(problem, config, build_schedule("static_ring", 1),
                   lambda nu, agents, flags: central.setdefault(
                       nu, (agents[0].D.copy(), agents[0].X.copy())))
        assert net.keys() == central.keys()
        worst = 0.0
        for nu in net:
            for got, want in zip(net[nu], central[nu]):
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-12, (
            f"{variant}: trajectories diverge by {worst:.3e}")
    print("criterion 4: both variants match the centralized reference "
          "to 1e-12 over 100 rounds")


def test_criterion_05_gradients_match_finite_differences_50_times():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        M = int(rng.integers(2, 6))
        K = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        D = rng.uniform(-1, 1, size=(M, K))
        X = rng.uniform(-1, 1, size=(K, n))
        S = rng.uniform(-1, 1, size=(M, n))

        def fit(D_=None, X_=None):
            Dv = D if D_ is None else D_
            Xv = X if X_ is None else X_
            return 0.5 * np.sum((S - Dv @ Xv) ** 2)

        fd_D = finite_difference_gradient(lambda A: fit(D_=A), D)
        fd_X = finite_difference_gradient(lambda A: fit(X_=A), X)
        rel_D = (np.max(np.abs(grad_dict(D[None], X[None], S[None])[0]
                               - fd_D))
                 / max(np.max(np.abs(fd_D)), 1e-12))
        rel_X = (np.max(np.abs(grad_codes(D[None], X[None], S[None])[0]
                               - fd_X))
                 / max(np.max(np.abs(fd_X)), 1e-12))
        worst = max(worst, rel_D, rel_X)
    assert worst <= 1e-5, f"worst relative gradient error {worst:.3e}"
    print(f"criterion 5: 50 instances, worst relative gradient error "
          f"{worst:.3e} (<= 1e-5)")


def test_criterion_06_prox_and_projection_match_bruteforce_oracles():
    rng = np.random.default_rng(13)
    worst_prox = 0.0
    for _ in range(1000):
        x0 = float(rng.uniform(-2, 2))
        g = float(rng.uniform(-2, 2))
        tau = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.01, 0.5))
        mu = float(rng.uniform(0.01, 0.5))
        # with U = 1 and S = x0 - g the fit gradient at x0 equals g, so the
        # closed form solves exactly the scalar model the grid searches
        got = x_update_linearized(np.array([[[x0]]]), np.array([[[1.0]]]),
                                  np.array([[[x0 - g]]]), tau, lam,
                                  mu)[0, 0, 0]
        want = prox_scalar_grid(x0, g, tau, lam, mu)
        worst_prox = max(worst_prox, abs(got - want))
    assert worst_prox <= 1e-6, f"worst prox deviation {worst_prox:.3e}"

    worst_proj = 0.0
    for _ in range(50):
        D = rng.uniform(-3, 3, size=(5, 4))
        got = project_dictionary(D, 1.0)
        want = np.column_stack([project_column_line_search(D[:, k], 1.0)
                                for k in range(4)])
        worst_proj = max(worst_proj, float(np.max(np.abs(got - want))))
    assert worst_proj <= 1e-8, f"worst projection deviation {worst_proj:.3e}"
    print(f"criterion 6: prox within {worst_prox:.3e} of the grid oracle "
          f"(1000 scalars), projection within {worst_proj:.3e}")


def test_criterion_07_every_shipped_schedule_has_valid_weights():
    checked = 0
    for kind in SCHEDULE_KINDS:
        for n in (2, 3, 5, 8):
            if kind == "tv_ring_partition":
                if n < 3:
                    continue
                window = min(3, n)
                schedule = build_schedule(kind, n, window=window,
                                          period=window, seed=n)
            else:
                schedule = build_schedule(kind, n, seed=n)
            for W in schedule.weights:
                assert validate_weights(W), (
                    f"{kind} with {n} agents fails weight validation")
                checked += 1
    assert checked >= 12
    print(f"criterion 7: {checked} weight matrices across "
          f"{len(SCHEDULE_KINDS)} schedule kinds all validate")


def test_criterion_08_denoising_gains_three_db_in_200_messages():
    clean = make_test_image(64).astype(float)
    rng = np.random.default_rng(0)
    noisy = np.clip(clean + 25.5 * rng.standard_normal(clean.shape), 0.0,
                    255.0)
    in_psnr, _ = psnr_mse(clean, noisy)
    assert abs(in_psnr - 20.0) <= 0.5, (
        f"input PSNR {in_psnr:.2f} dB is outside 20 +/- 0.5 dB")
    gains = {}
    for variant in ("linearized", "plain"):
        config = build_run_config({"lam": "0.125", "mu": "0.0625",
                                   "alpha": "1.0", "agents": "10",
                                   "graph": "static_path",
                                   "max_rounds": "100",
                                   "metric_stride": "100",
                                   "variant": variant})
        start = time.perf_counter()
        result = denoise_image(noisy, config)
        elapsed = time.perf_counter() - start
        assert result.trace.messages[-1] == 200
        out_psnr, _ = psnr_mse(clean, result.image)
        gains[variant] = out_psnr - in_psnr
        assert gains[variant] >= 3.0, (
            f"{variant}: gain {gains[variant]:.2f} dB < 3 dB")
        assert elapsed < 120.0, f"{variant}: took {elapsed:.1f}s"
    print(f"criterion 8: input {in_psnr:.2f} dB; gains "
          f"linearized +{gains['linearized']:.2f} dB, "
          f"plain +{gains['plain']:.2f} dB (>= +3 dB each)")


def test_criterion_09_tracking_beats_diffusion_at_equal_budgets(
        comparison_runs):
    deltas = {}
    for budget in (200, 1000):
        for name, trace in comparison_runs.items():
            row = trace.row_at_messages(budget)
            assert row["messages"] == budget
            deltas[name, budget] = row["delta"]
        for variant in ("linearized", "plain"):
            assert deltas[variant, budget] <= deltas["diffusion", budget], (
                f"{variant} delta {deltas[variant, budget]:.3e} exceeds "
                f"diffusion {deltas['diffusion', budget]:.3e} at "
                f"budget {budget}")
    cons = {name: trace.row_at_messages(1000)["cons_err"]
            for name, trace in comparison_runs.items()}
    for variant in ("linearized", "plain"):
        assert cons["diffusion"] > cons[variant], (
            f"diffusion consensus error {cons['diffusion']:.3e} not above "
            f"{variant}'s {cons[variant]:.3e} at budget 1000")
    print("criterion 9: delta at 200 msgs lin {:.3e} / plain {:.3e} vs "
          "diffusion {:.3e}; at 1000 msgs {:.3e} / {:.3e} vs {:.3e}; "
          "consensus at 1000 msgs {:.2e} / {:.2e} vs {:.2e}".format(
              deltas["linearized", 200], deltas["plain", 200],
              deltas["diffusion", 200], deltas["linearized", 1000],
              deltas["plain", 1000], deltas["diffusion", 1000],
              cons["linearized"], cons["plain"], cons["diffusion"]))


def test_criterion_10_identical_config_and_seed_give_identical_bytes(
        tmp_path):
    _, problem = make_standard_problem()
    payloads = []
    for name in ("first.csv", "second.csv"):
        config = build_run_config({"agents": 5, "max_rounds": 50,
                                   "metric_stride": 10, "seed": 123,
                                   "lam": str(problem.lam),
                                   "mu": str(problem.mu)})
        trace = run(problem, config)
        path = tmp_path / name
        trace.write_csv(path)
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1], "CSV traces differ between runs"
    print(f"criterion 10: two runs produced byte-identical CSV traces "
          f"({len(payloads[0])} bytes)")
