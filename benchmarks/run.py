"""Closed-loop and training benchmark for swarmcbf.

    python3 benchmarks/run.py --workload lidar_learned --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py and README.md) from this checkout's
`src/`, with BLAS pinned to one thread.  The timed phase runs whole rounds
of 100 steps until it has lasted --seconds.  Every round's outputs are
checked (checks.py).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics (tracing.py) with --trace 1.  The full
record, with the environment and the program's counts, goes to
benchmarks/out/.
"""
import os
import sys
import time

T_SCRIPT = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads: results depend on it

import argparse
import json
import platform
import resource

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _since_process_start() -> float:
    """Seconds since this process started (exec), from /proc; falls back to
    the time since this script began."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_SCRIPT


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(workload, seconds: float, n_rounds: int | None, verify,
               tracer=None):
    """Whole rounds until `seconds` of round time (or exactly n_rounds).
    Each round is checked right after it, untraced; only step times are
    kept."""
    from workloads import ROUND_STEPS
    step_s, errors, failures, counts = [], [], [], {}
    attempted = failed = 0
    wall = 0.0
    k = 0
    while k < n_rounds if n_rounds is not None else (k == 0 or wall < seconds):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        rnd = workload.run_round()
        wall += time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        attempted += ROUND_STEPS
        if rnd.error is not None:
            failed += ROUND_STEPS
            errors.append(f"round {k}: raised {rnd.error}")
        else:
            bad = verify(workload, rnd, k, counts)
            if bad:
                failed += ROUND_STEPS
                failures += [f"round {k}: {msg}" for msg in bad]
            step_s.extend(rnd.step_s)
        k += 1
    return {"step_s": step_s, "wall_s": wall, "rounds": k, "attempted": attempted,
            "failed": failed, "errors": errors, "failures": failures,
            "counts": counts}


def pin_cpu() -> int | None:
    """Keep this process on the highest-numbered CPU it may use.  Which CPU
    a run lands on can decide its speed: on a 2-vCPU VM, CPU 0 ran a fixed
    numpy loop 25-35% slower than CPU 1."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_cpu()
    import numpy as np
    try:
        import swarmcbf
    except ImportError as e:
        print(f"cannot import swarmcbf from {os.path.join(ROOT, 'src')}: {e}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(swarmcbf.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"swarmcbf imported from {swarmcbf.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from tracing import Tracer, PER_LAYER, per_layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(swarmcbf) if args.trace else None
    if tracer:
        workload.step_listener = lambda step: setattr(tracer, "step", step)
        with tracer:
            workload.setup()
    else:
        workload.setup()
    setup_s = _since_process_start()
    from verify import verify     # loads scipy, which is not the program's set-up

    timed = run_rounds(workload, args.seconds, None, verify)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    step_ms = np.asarray(timed["step_s"]) * 1e3
    if step_ms.size == 0:
        print("no step completed:", *timed["errors"], sep="\n  ", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"git_sha": _git_sha(), "numpy": np.__version__,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "cpu_count": os.cpu_count(), "pinned_cpu": cpu,
                "python": platform.python_version(),
                "machine": platform.machine()},
        "rounds": timed["rounds"], "steps": int(step_ms.size),
        "counts": timed["counts"], "errors": timed["errors"],
        "failures": timed["failures"],
        "step_ms": step_ms.round(4).tolist(),
    }
    if tracer:
        traced = run_rounds(workload, args.seconds, timed["rounds"], verify, tracer)
        metrics = per_layer_metrics(tracer, traced["wall_s"] - timed["wall_s"])
        units = dict(PER_LAYER)
        attempted = timed["attempted"] + traced["attempted"]
        failed = timed["failed"] + traced["failed"]
        record["errors"] += traced["errors"]
        record["failures"] += traced["failures"]
        record["traced_counts"] = traced["counts"]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = tracer.span_arrays()
        np.savez_compressed(os.path.join(HERE, "out", f"trace-{args.workload}-s{args.seed}.npz"),
                            names=np.array(tracer.names), **spans)
    else:
        metrics = {
            "setup_s": setup_s,
            "agent_steps_per_s": workload.agents * step_ms.size / (step_ms.sum() / 1e3),
            "step_ms_p50": float(np.percentile(step_ms, 50)),
            "step_ms_p90": float(np.percentile(step_ms, 90)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "agent_steps_per_s": "agent-steps/s",
                 "step_ms_p50": "ms", "step_ms_p90": "ms", "peak_rss_mb": "MB"}
        attempted, failed = timed["attempted"], timed["failed"]
    correct = not record["failures"]
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for msg in record["errors"] + record["failures"]:
        print("FAILED", msg, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
