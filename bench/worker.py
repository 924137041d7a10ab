"""One fresh benchmark process: import distdict, set up one workload, then
execute it until the deadline and print the samples as one JSON line.

Started by run.py with NumPy's BLAS pinned to one thread; not meant to be
run by hand. Every execution is checked outside its timed region.
"""

import argparse
import json
import resource
import sys
import time
import traceback

clock = time.monotonic


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="monotonic clock reading taken just before the "
                        "process was started")
    p.add_argument("--deadline", type=float, required=True,
                   help="monotonic clock reading after which no further "
                        "execution starts")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    t = clock()
    import distdict  # noqa: F401
    import_s = clock() - t

    import checks
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    harness = workloads.Harness()
    spans = tracer.Tracer() if args.trace else None
    timings = {}
    inputs = workload.build(args.seed, timings)

    reps, exec_errors, check_errors = [], [], []
    setup_s = None
    attempted = failed = 0
    least = 2 if spans is not None else 1   # one traced, one untraced
    while True:
        traced = spans is not None and attempted % 2 == 1
        attempted += 1
        began = clock()
        if traced:
            spans.install()
        try:
            out = workload.execute(inputs, harness)
            ended = clock()
        except Exception:  # a failed execution is counted, not fatal
            failed += 1
            exec_errors.append(traceback.format_exc())
            out = None
        finally:
            if traced:
                spans.uninstall()
        if out is not None:
            if setup_s is None:
                setup_s = out.t_start - args.spawned
            try:
                ttg = workload.time_to_gap(out)
                workload.check(inputs, out)
            except checks.CheckFailed as exc:
                check_errors.append(str(exc))
                ttg = None
            reps.append({"run_s": ended - out.t_start, "ttg_s": ttg,
                         "traced": traced})
        cost = clock() - began
        if attempted >= least and clock() + cost > args.deadline:
            break

    result = {
        "setup_s": setup_s, "import_s": import_s,
        "instance_s": timings["instance"],
        "schedule_s": timings["schedule"], "config_s": timings["config"],
        "reps": reps, "attempted": attempted, "failed": failed,
        "exec_errors": exec_errors, "check_errors": check_errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "link_bytes": workload.link_bytes(inputs),
    }
    if spans is not None:
        result["spans"] = {"self_s": dict(spans.self_s),
                           "incl_s": dict(spans.incl_s),
                           "calls": dict(spans.calls),
                           "record_s": spans.record_s,
                           "capped": spans.capped,
                           "inner_iters": spans.inner_iters}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
