"""Command line front end: synthetic runs, image denoising, algorithm
comparison and self-checks.

All subcommands read an optional flat key=value config file; command line
flags override file keys, which override built-in defaults. Outputs land in
--out-dir. Identical config and seed give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import build_run_config, load_config
from .core import (grad_codes, grad_dict, project_dictionary,
                   x_update_linearized)
from .denoise import denoise_image
from .imaging import PgmError, read_pgm, write_pgm
from .metrics import CSV_COLUMNS, diffusion_baseline, psnr_mse
from .network import (SCHEDULE_KINDS, build_schedule, is_b_strongly_connected,
                      validate_weights)
from .protocol import run
from .synthetic import make_synthetic, make_test_image

DENOISE_DEFAULTS = {"lam": "0.125", "mu": "0.0625", "alpha": "1.0",
                    "agents": "10", "max_rounds": "100",
                    "graph": "static_path"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--rounds", type=int, dest="rounds",
                   help="number of optimization rounds")
    p.add_argument("--variant", choices=("plain", "linearized"),
                   help="coding-subproblem variant")
    p.add_argument("--agents", type=int, help="number of agents")
    p.add_argument("--graph", choices=SCHEDULE_KINDS,
                   help="communication graph schedule")
    p.add_argument("--out-dir", default=".", help="output directory")


def _mapping(args, defaults=None) -> dict:
    mapping = dict(defaults or {})
    if args.config:
        mapping.update(load_config(args.config))
    return mapping


def _config(args, mapping):
    return build_run_config(mapping, seed=args.seed, max_rounds=args.rounds,
                            variant=args.variant, agents=args.agents,
                            graph=args.graph)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _synthetic_problem(mapping, config):
    M = int(mapping.get("M", 16))
    K = int(mapping.get("K", 24))
    N = int(mapping.get("N", 200))
    k0 = int(mapping.get("k0", 4))
    sigma_n = float(mapping.get("sigma_n", 0.05))
    data_seed = int(mapping.get("data_seed", config.seed))
    return make_synthetic(M=M, K=K, N=N, num_agents=config.graph.num_agents,
                          k0=k0, noise_sigma=sigma_n, seed=data_seed,
                          lam=config.lam, mu=config.mu, alpha=config.alpha)


def cmd_run(args) -> int:
    mapping = _mapping(args)
    config = _config(args, mapping)
    _, problem = _synthetic_problem(mapping, config)
    trace = run(problem, config)
    out = _out_dir(args)
    trace.write_csv(out / "trace.csv")
    last = trace.row(len(trace) - 1)
    print(f"rounds={last['nu']} messages={last['messages']} "
          f"objective={last['objective']:.6g} delta={last['delta']:.6g} "
          f"cons_err={last['cons_err']:.6g}")
    print(f"wrote {out / 'trace.csv'}")
    return 0


def cmd_denoise(args) -> int:
    mapping = _mapping(args, DENOISE_DEFAULTS)
    config = _config(args, mapping)
    patch = int(mapping.get("patch", 8))
    stride = int(mapping.get("stride", 2))
    atoms = int(mapping.get("atoms", 64))
    noise_sigma = float(mapping.get("noise_sigma", 25.5))
    if args.noise_sigma is not None:
        noise_sigma = args.noise_sigma
    if args.image:
        image = read_pgm(args.image).astype(float)
    else:
        image = make_test_image(int(mapping.get("image_side", 64))) \
            .astype(float)

    rng = np.random.default_rng(config.seed)
    noisy = np.clip(image + noise_sigma * rng.standard_normal(image.shape),
                    0.0, 255.0)
    in_psnr, in_mse = psnr_mse(image, noisy)

    result = denoise_image(noisy, config, patch_side=patch, stride=stride,
                           num_atoms=atoms)
    out_psnr, out_mse = psnr_mse(image, result.image)

    out = _out_dir(args)
    write_pgm(out / "noisy.pgm", noisy)
    write_pgm(out / "denoised.pgm", result.image)
    result.trace.write_csv(out / "trace.csv")
    print(f"input  psnr={in_psnr:.2f} dB mse={in_mse:.1f}")
    print(f"output psnr={out_psnr:.2f} dB mse={out_mse:.1f} "
          f"(messages={result.trace.messages[-1]})")
    print(f"wrote {out / 'noisy.pgm'}, {out / 'denoised.pgm'}, "
          f"{out / 'trace.csv'}")
    return 0


def cmd_compare(args) -> int:
    mapping = _mapping(args)
    config = _config(args, mapping)
    budgets = [int(b) for b in
               str(mapping.get("budgets", "200,1000")).split(",")]
    if args.budgets:
        budgets = [int(b) for b in args.budgets.split(",")]
    top = max(budgets)
    _, problem = _synthetic_problem(mapping, config)

    runs = []
    for variant in ("linearized", "plain"):
        cfg = replace(config, steps=replace(config.steps, variant=variant),
                      max_rounds=(top + 1) // 2)
        runs.append((f"tracking_{variant}", run(problem, cfg)))
    base_cfg = replace(config, steps=replace(config.steps, variant="plain"),
                       max_rounds=top)
    runs.append(("diffusion", diffusion_baseline(problem, base_cfg)))

    out = _out_dir(args)
    path = out / "compare.csv"
    lines = ["algo," + ",".join(CSV_COLUMNS)]
    for name, trace in runs:
        for i in range(len(trace)):
            r = trace.row(i)
            lines.append(",".join([name, str(r["nu"]), str(r["messages"]),
                                   repr(r["objective"]), repr(r["delta"]),
                                   repr(r["cons_err"]), repr(r["gamma"])]))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    for budget in budgets:
        print(f"budget {budget} messages:")
        for name, trace in runs:
            r = trace.row_at_messages(budget)
            print(f"  {name:<20} delta={r['delta']:.6g} "
                  f"cons_err={r['cons_err']:.6g}")
    print(f"wrote {path}")
    return 0


def _check_gradients(rng) -> bool:
    h = 1e-6
    for _ in range(3):
        M, K, n = rng.integers(3, 7, size=3)
        D = rng.standard_normal((M, K))
        X = rng.standard_normal((K, n))
        S = rng.standard_normal((M, n))

        def f(Dv, Xv):
            R = S - Dv @ Xv
            return 0.5 * np.sum(R * R)

        for wrt in ("D", "X"):
            point = D if wrt == "D" else X
            g = grad_dict(D, X, S) if wrt == "D" else grad_codes(D, X, S)
            num = np.zeros_like(point)
            it = np.nditer(point, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                pp = point.copy()
                pm = point.copy()
                pp[idx] += h
                pm[idx] -= h
                if wrt == "D":
                    num[idx] = (f(pp, X) - f(pm, X)) / (2 * h)
                else:
                    num[idx] = (f(D, pp) - f(D, pm)) / (2 * h)
                it.iternext()
            rel = np.max(np.abs(g - num)) / max(1.0, np.max(np.abs(num)))
            if rel > 1e-5:
                return False
    return True


def _check_prox(rng) -> bool:
    for _ in range(200):
        x0, g, tau, lam, mu = (float(rng.standard_normal()),
                               float(rng.standard_normal()),
                               float(rng.uniform(0.2, 3.0)),
                               float(rng.uniform(0.01, 1.0)),
                               float(rng.uniform(0.01, 1.0)))
        # with U = 1 and S = x0 - g the fit gradient at x0 equals g
        x = x_update_linearized(np.array([[x0]]), np.array([[1.0]]),
                                np.array([[x0 - g]]), tau, lam, mu)[0, 0]
        resid = g + tau * (x - x0) + 2 * mu * x
        if x > 0 and abs(resid + lam) > 1e-9:
            return False
        if x < 0 and abs(resid - lam) > 1e-9:
            return False
        if x == 0 and abs(resid) > lam + 1e-9:
            return False
    return True


def _check_projection(rng) -> bool:
    for _ in range(20):
        D = rng.standard_normal((6, 4)) * rng.uniform(0.1, 5.0)
        P = project_dictionary(D, 1.0)
        if np.max(np.linalg.norm(P, axis=0)) > 1.0 + 1e-12:
            return False
        if np.max(np.abs(project_dictionary(P, 1.0) - P)) > 1e-15:
            return False
    return True


def _check_tracking() -> bool:
    inst, problem = make_synthetic(M=6, K=4, N=12, num_agents=4, k0=2,
                                   noise_sigma=0.1, seed=5)
    config = build_run_config({"agents": 4, "graph": "tv_ring_partition",
                               "window": 2, "max_rounds": 30, "seed": 5})
    worst = 0.0

    def watch(state):
        nonlocal worst
        track = np.mean([a.tracker for a in state.agents], axis=0)
        grads = np.mean([grad_dict(a.D, a.X, S) for a, S in
                         zip(state.agents, problem.S_blocks)], axis=0)
        worst = max(worst, float(np.max(np.abs(track - grads))))

    run(problem, config, observer=watch)
    return worst <= 1e-10


def _check_single_agent() -> bool:
    # one agent is the centralized method when, bit for bit and every
    # round, its tracker equals its local gradient and its others-gradient
    # estimate is zero
    inst, problem = make_synthetic(M=4, K=3, N=5, num_agents=1, k0=2,
                                   noise_sigma=0.1, seed=2)
    config = build_run_config({"agents": 1, "graph": "static_ring",
                               "max_rounds": 20, "seed": 2})
    exact = []

    def watch(state):
        grad = grad_dict(state.D, state.X[0], problem.S_groups[0])
        exact.append(np.array_equal(state.tracker, grad)
                     and not np.any(state.grad_rest))

    run(problem, config, observer=watch)
    return len(exact) == config.max_rounds and all(exact)


def cmd_validate(args) -> int:
    mapping = _mapping(args)
    seed = int(mapping.get("seed", args.seed if args.seed is not None else 0))
    rng = np.random.default_rng(seed)
    checks = []
    for kind, extra in (("static_path", {}), ("static_ring", {}),
                        ("static_random_geometric", {"seed": seed}),
                        ("tv_ring_partition", {"window": 3})):
        name = f"schedule {kind}"
        try:
            sched = build_schedule(kind, num_agents=6, **extra)
            ok = is_b_strongly_connected(sched) and all(
                validate_weights(W, A) for A, W in
                zip(sched.adjacency, sched.weights))
        except ValueError:
            ok = False
        checks.append((name, ok))
    checks.append(("gradients vs finite differences", _check_gradients(rng)))
    checks.append(("coding prox optimality", _check_prox(rng)))
    checks.append(("dictionary projection", _check_projection(rng)))
    checks.append(("gradient tracking identity", _check_tracking()))
    checks.append(("single agent matches centralized", _check_single_agent()))
    failed = 0
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distdict",
        description="Distributed dictionary learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a synthetic instance")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_den = sub.add_parser("denoise", help="patch-based image denoising")
    _add_common(p_den)
    p_den.add_argument("--image", help="clean input PGM (default: built-in)")
    p_den.add_argument("--noise-sigma", type=float, dest="noise_sigma",
                       help="added Gaussian noise level")
    p_den.set_defaults(func=cmd_denoise)

    p_cmp = sub.add_parser("compare",
                           help="tracking variants versus diffusion baseline")
    _add_common(p_cmp)
    p_cmp.add_argument("--budgets", help="comma-separated message budgets")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="graph, weight and gradient "
                           "self-checks")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PgmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
