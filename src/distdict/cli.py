"""Command line front end: synthetic runs, image denoising, algorithm
comparison and self-checks.

All subcommands read an optional flat key=value config file; command line
flags override file keys, which override built-in defaults. Outputs land in
--out-dir. Identical config and seed give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .agents import VARIANTS
from .config import build_run_config, check_keys, convert, load_config
from .core import (grad_codes, grad_dict, max_column_norm,
                   project_dictionary, x_update_linearized)
from .denoise import denoise_image
from .imaging import read_pgm, write_pgm
from .metrics import CSV_COLUMNS, diffusion_baseline, psnr_mse
from .network import SCHEDULE_KINDS, build_schedule
from .protocol import check_round, run, tracking_residual
from .synthetic import make_synthetic, make_test_image

DENOISE_DEFAULTS = {"lam": "0.125", "mu": "0.0625", "alpha": "1.0",
                    "agents": "10", "max_rounds": "100",
                    "graph": "static_path"}
# the instance keys a subcommand reads from the config file itself, with
# their types and defaults; data_seed defaults to the run's seed
SYNTHETIC_KEYS = {"M": (int, 16), "K": (int, 24), "N": (int, 200),
                  "k0": (int, 4), "sigma_n": (float, 0.05),
                  "data_seed": (int, None)}
IMAGE_KEYS = {"patch": (int, 8), "stride": (int, 2), "atoms": (int, 64),
              "noise_sigma": (float, 25.5), "image_side": (int, 64)}


def _add_common(p: argparse.ArgumentParser, network: bool = True,
                rounds: bool = True) -> None:
    """--config and --seed; with ``network`` also --agents, --graph and
    --out-dir, with ``rounds`` also --rounds and --variant."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="master seed")
    if rounds:
        p.add_argument("--rounds", type=int, dest="rounds",
                       help="number of optimization rounds")
        p.add_argument("--variant", choices=VARIANTS,
                       help="coding-subproblem variant")
    if network:
        p.add_argument("--agents", type=int, help="number of agents")
        p.add_argument("--graph", choices=SCHEDULE_KINDS,
                       help="communication graph schedule")
        p.add_argument("--out-dir", default=".", help="output directory")


def _mapping(args, defaults=None) -> dict:
    mapping = dict(defaults or {})
    if args.config:
        mapping.update(load_config(args.config))
    return mapping


def _config(args, mapping, own):
    """The RunConfig of the mapping and flags, and the values of the
    subcommand's instance keys ``own`` (key -> (type, default)), taken out
    of the mapping first; a flag of the key's name wins over the file. A
    float instance key, a noise level, must be finite and nonnegative."""
    check_keys(mapping, own)
    flags = vars(args)  # a subcommand lacks the flags it would ignore
    values = {key: convert(key, mapping.pop(key), kind) if key in mapping
              else default for key, (kind, default) in own.items()}
    values.update((key, flags[key]) for key in own
                  if flags.get(key) is not None)
    for key, (kind, _) in own.items():
        if kind is float and not 0.0 <= values[key] < math.inf:
            raise ValueError(f"{key} must be finite and nonnegative, got "
                             f"{values[key]!r}")
    return build_run_config(mapping, seed=args.seed,
                            max_rounds=flags.get("rounds"),
                            variant=flags.get("variant"),
                            agents=flags.get("agents"),
                            graph=flags.get("graph")), values


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _synthetic_problem(own, config):
    seed = config.seed if own["data_seed"] is None else own["data_seed"]
    return make_synthetic(M=own["M"], K=own["K"], N=own["N"],
                          num_agents=config.graph.num_agents, k0=own["k0"],
                          noise_sigma=own["sigma_n"], seed=seed,
                          lam=config.lam, mu=config.mu, alpha=config.alpha)


def cmd_run(args) -> int:
    config, own = _config(args, _mapping(args), SYNTHETIC_KEYS)
    _, problem = _synthetic_problem(own, config)
    trace = run(problem, config)
    out = _out_dir(args)
    trace.write_csv(out / "trace.csv")
    last = trace.row(len(trace) - 1)
    print(f"rounds={last['nu']} messages={last['messages']} "
          f"objective={last['objective']:.6g} delta={last['delta']:.6g} "
          f"cons_err={last['cons_err']:.6g} capped={sum(trace.flags)}")
    if last["nu"] > 0 and not any(np.any(X) for X in trace.state.X):
        # zero codes give zero gradients; while lam bounds every |D^T S|
        # the coding step keeps them at zero, so no code grows back
        print("every code is zero: the run sits at the absorbing point "
              "X = 0, where the gap is exactly 0")
    print(f"wrote {out / 'trace.csv'}")
    return 0


def cmd_denoise(args) -> int:
    config, own = _config(args, _mapping(args, DENOISE_DEFAULTS), IMAGE_KEYS)
    if args.image:
        image = read_pgm(args.image).astype(float)
    else:
        image = make_test_image(own["image_side"]).astype(float)

    rng = np.random.default_rng(config.seed)
    noise = own["noise_sigma"] * rng.standard_normal(image.shape)
    noisy = np.clip(image + noise, 0.0, 255.0)
    in_psnr, in_mse = psnr_mse(image, noisy)

    result = denoise_image(noisy, config, patch_side=own["patch"],
                           stride=own["stride"], num_atoms=own["atoms"])
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
    for key in ("max_rounds", "variant"):
        if key in mapping:
            raise ValueError(f"compare sets {key!r} itself; remove it from "
                             f"the config file")
    config, own = _config(args, mapping,
                          {**SYNTHETIC_KEYS, "budgets": (str, "200,1000")})
    budgets = [convert("budgets", b, int)
               for b in own["budgets"].split(",")]
    if min(budgets) < 1:
        raise ValueError(f"budgets must be at least 1, got {min(budgets)}")
    top = max(budgets)
    _, problem = _synthetic_problem(own, config)

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
        lines += [f"{name},{row}" for row in trace.csv_rows()]
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
            grad = grad_dict if wrt == "D" else grad_codes
            g = grad(D[None], X[None], S[None])[0]
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
        x = x_update_linearized(np.full((1, 1, 1), x0), np.ones((1, 1, 1)),
                                np.full((1, 1, 1), x0 - g), tau, lam,
                                mu)[0, 0, 0]
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
        if max_column_norm(P) > 1.0 + 1e-12:
            return False
        if np.max(np.abs(project_dictionary(P, 1.0) - P)) > 1e-15:
            return False
    return True


def _check_run(num_agents) -> bool:
    """``check_round`` along a short tracked run. One agent must also be
    the centralized method: a tracking residual of exactly zero."""
    _, problem = make_synthetic(M=6, K=4, N=12, num_agents=num_agents, k0=2,
                                noise_sigma=0.1, seed=5)
    config = build_run_config({"agents": num_agents, "window": 2,
                               "graph": "tv_ring_partition",
                               "max_rounds": 30, "seed": 5})

    def watch(state):
        check_round(problem, state)
        if num_agents == 1 and tracking_residual(problem, state) != 0.0:
            raise ValueError("one agent is not the centralized method")

    try:
        run(problem, config, observer=watch)
    except ValueError:
        return False
    return True


def cmd_validate(args) -> int:
    seed = _config(args, _mapping(args), {})[0].seed
    rng = np.random.default_rng(seed)
    checks = []
    for kind, extra in (("static_path", {}), ("static_ring", {}),
                        ("static_random_geometric", {"seed": seed}),
                        ("tv_ring_partition", {"window": 3})):
        try:  # build_schedule checks the window and every phase's weights
            build_schedule(kind, num_agents=6, **extra)
            ok = True
        except ValueError:
            ok = False
        checks.append((f"schedule {kind}", ok))
    checks.append(("gradients vs finite differences", _check_gradients(rng)))
    checks.append(("coding prox optimality", _check_prox(rng)))
    checks.append(("dictionary projection", _check_projection(rng)))
    checks.append(("gradient tracking identity", _check_run(4)))
    checks.append(("single agent matches centralized", _check_run(1)))
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
    _add_common(p_cmp, rounds=False)
    p_cmp.add_argument("--budgets", help="comma-separated message budgets")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="graph, weight and gradient "
                           "self-checks")
    _add_common(p_val, network=False, rounds=False)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
