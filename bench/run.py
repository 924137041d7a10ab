"""Benchmark of distdict: one workload, one seed, one run of fixed length.

    python3 bench/run.py --workload synth_lin --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run starts WORKERS fresh processes one
after the other, each with NumPy's BLAS pinned to one thread. Each process
imports distdict from ``src/``, sets the workload up and executes it until
its share of ``--seconds`` is used. The run prints one JSON object, its last
line, with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics (medians over the run), with
``--trace 1`` the per-layer metrics of the traced executions. The samples
of every run are kept in ``bench/raw/``. ``--workload all`` runs the four
workloads in turn and prints one object per workload, with its name. The
workloads, the metrics and the layer each one should move are described in
bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

clock = time.monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("synth_lin", "synth_plain", "denoise128", "compare_net")
WORKERS = 3
GRACE_S = 120   # a worker still running this long after its deadline is stuck
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
                 "NUMEXPR_NUM_THREADS": "1"}

# spans reported by self time as <span>.self_s
SELF_TIME = ("core.sigma_max", "core.x_update_plain", "core.grad_dict",
             "core.grad_codes", "core.soft_threshold",
             "core.project_dictionary", "agents.dictionary_step",
             "agents.coding_step", "agents.coding_prox_weight",
             "protocol.consensus_step", "protocol.tracking_step",
             "protocol.run", "metrics.diffusion_baseline")
# spans reported by inclusive time as <span>_s
INCLUSIVE = ("imaging.extract_patches", "imaging.assemble_patches",
             "agents.init_agents")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn (one JSON "
                        "line each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(workload, seed, trace, deadline):
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    spawned = clock()
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--spawned", repr(spawned),
           "--deadline", repr(deadline)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=deadline - spawned + GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(samples):
    reps = [r for s in samples for r in s["reps"]]
    gaps = [r["ttg_s"] for r in reps if r["ttg_s"] is not None]
    out = {
        "run_s": metric(statistics.median(r["run_s"] for r in reps), "s"),
        "setup_s": metric(statistics.median(
            s["setup_s"] for s in samples if s["setup_s"] is not None), "s"),
        "peak_rss_mb": metric(statistics.median(s["rss_mb"] for s in samples),
                              "MB"),
    }
    if gaps:
        out["time_to_gap_s"] = metric(statistics.median(gaps), "s")
    return out


def per_layer(samples):
    traced = [r for s in samples for r in s["reps"] if r["traced"]]
    plain = [r for s in samples for r in s["reps"] if not r["traced"]]
    n = len(traced)

    def total(kind, span):
        return sum(s["spans"][kind].get(span, 0) for s in samples) / n

    out = {f"{span}.self_s": metric(total("self_s", span), "s")
           for span in SELF_TIME}
    out.update({f"{span}_s": metric(total("incl_s", span), "s")
                for span in INCLUSIVE})
    out["core.sigma_max.calls"] = metric(
        total("calls", "core.sigma_max"), "count")
    out["core.sigma_max.capped"] = metric(
        sum(s["spans"]["capped"] for s in samples) / n, "count")
    out["core.x_update_plain.inner_iters"] = metric(
        sum(s["spans"]["inner_iters"] for s in samples) / n, "count")
    out["metrics.record_s"] = metric(
        sum(s["spans"]["record_s"] for s in samples) / n, "s")
    for name, key in (("setup.import_s", "import_s"),
                      ("synthetic.instance_s", "instance_s"),
                      ("network.build_schedule_s", "schedule_s"),
                      ("config.build_run_config_s", "config_s")):
        out[name] = metric(statistics.median(s[key] for s in samples), "s")
    out["protocol.link_bytes"] = metric(samples[0]["link_bytes"],
                                        "bytes-computed")
    out["trace.overhead_s"] = metric(
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in plain), "s")
    return out


def run_workload(workload, seed, seconds, trace):
    """One run of one workload; returns the result object."""
    start = clock()
    samples = [run_worker(workload, seed, trace,
                          start + (w + 1) * seconds / WORKERS)
               for w in range(WORKERS)]
    for s in samples:
        for text in s["exec_errors"] + s["check_errors"]:
            print(text, file=sys.stderr)
    done = [r for s in samples for r in s["reps"]]
    if not done or (trace and not any(r["traced"] for r in done)):
        raise RuntimeError(f"no execution of {workload} completed")
    raw = BENCH / "raw"
    raw.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (raw / name).write_text(json.dumps(samples, indent=1))
    return {"correct": not any(s["check_errors"] for s in samples),
            "attempted": sum(s["attempted"] for s in samples),
            "failed": sum(s["failed"] for s in samples),
            "metrics": per_layer(samples) if trace else end_to_end(samples)}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "distdict" / "__init__.py").is_file():
        print(f"error: no distdict sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
