"""Benchmark for elastowave: one command, three workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  Every job runs in a fresh child process with the linear-algebra
thread pools capped at the number of cores.

--trace 0 sets the problem up SETUP_REPS times (each in a new process, from
before `import elastowave` to a built problem and its time step) and then
runs whole jobs (run_experiment, outputs written and checked) until S
seconds have passed, at least one.  It reports the end-to-end metrics:
setup_s, wall_s, dof_updates_per_s and peak_rss_mb, each the median over
the repetitions.

--trace 1 runs one job with every layer's public functions wrapped in
spans on a random half of its steps (drawn from the seed), and reports
per-layer figures plus the tracing overhead (traced minus untraced steps
of the same job).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The inputs are fixed presets; the
seed names the output directory and picks the traced steps.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("strip2d", "hws3d_desk", "planewave3d")
SETUP_REPS = 5
JOB_TIMEOUT_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("dof_updates_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {
    "solver.step_ms": "ms", "solver.rhs_ms": "ms",
    "solver.rhs_per_step": "count", "solver.rhs_ns_per_dof": "ns",
    "solver.rhs_self_ms": "ms", "solver.step_self_ms": "ms",
    "solver.run_callbacks_ms_per_step": "ms",
    "solver.rhs_peak_alloc_states": "ratio",
    "solver.step_peak_alloc_states": "ratio",
    "flux.calls_per_rhs": "count", "flux.ms_per_rhs": "ms",
    "sources.inject_ms_per_step": "ms", "sources.receiver_ms_per_step": "ms",
    "diagnostics.energy_ms_per_step": "ms",
    "diagnostics.linf_ms_per_step": "ms",
    "harness.write_outputs_s": "s", "harness.snapshot_mb": "MB",
    "import_s": "s", "harness.build_problem_s": "s",
    "mesh.build_mesh_s": "s", "operators.build_operators_s": "s",
    "pml.build_damping_s": "s", "solver.discretize_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
    "trace.overhead_share": "ratio", "threads.cap": "count",
    "threads.peak": "count",
}


class JobError(RuntimeError):
    pass


def thread_cap():
    return len(os.sched_getaffinity(0))


def child_env(cap):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "ELASTOWAVE_THREADS"):
        env[var] = str(cap)
    env["PYTHONWARNINGS"] = "ignore"
    return env


def job(args, env):
    """Run job.py in a new process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "job.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise JobError(f"{' '.join(args)}: no result after"
                       f" {JOB_TIMEOUT_S:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobError(f"{' '.join(args)}: exit {proc.returncode}\n"
                       + proc.stderr[-2000:])
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise JobError(f"{' '.join(args)}: no result line: {lines[-1]!r}")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(workload, seconds, env, outdir):
    """--trace 0: end-to-end metrics over SETUP_REPS set-ups and whole jobs."""
    setups = [job(["setup", workload], env)["setup_s"]
              for _ in range(SETUP_REPS)]
    runs, failed = [], 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        jobdir = fresh_dir(os.path.join(outdir, f"job{len(runs)}"))
        try:
            res = job(["run", workload, jobdir], env)
        except JobError as exc:
            print(f"job failed: {exc}", file=sys.stderr)
            res = None
        shutil.rmtree(jobdir, ignore_errors=True)
        runs.append(res)
        if res is None or res["fails"]:
            failed += 1
    done = [r for r in runs if r is not None]
    if not done:
        raise JobError(f"every {workload} job failed")
    metrics = {"setup_s": statistics.median(setups)}
    for key, _ in END_TO_END[1:]:
        metrics[key] = statistics.median(r[key] for r in done)
    return metrics, runs, failed


def trace(workload, seed, env, outdir):
    """--trace 1: one job traced on a random half of its steps."""
    jobdir = fresh_dir(os.path.join(outdir, "job"))
    traced = job(["run", workload, jobdir, "--trace", str(seed)], env)
    os.replace(os.path.join(jobdir, "trace.jsonl"),
               os.path.join(outdir, "trace.jsonl"))
    shutil.rmtree(jobdir)
    return dict(traced["layers"]), [traced], int(bool(traced["fails"]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "elastowave",
                                       "__init__.py")):
        sys.exit(f"no elastowave sources under {ROOT}/src")
    cap = thread_cap()
    env = child_env(cap)
    outdir = fresh_dir(os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    try:
        if args.trace:
            metrics, runs, failed = trace(args.workload, args.seed, env,
                                          outdir)
        else:
            metrics, runs, failed = measure(args.workload, args.seconds, env,
                                            outdir)
    except JobError as exc:
        sys.exit(f"benchmark could not run: {exc}")

    done = [r for r in runs if r is not None]
    peak_threads = max((r["threads"] for r in done), default=0)
    fails = [f for r in done for f in r["fails"]]
    if peak_threads > cap:
        fails.append(f"a job ran {peak_threads} threads, cap {cap}")
    if args.trace:
        metrics["threads.cap"] = cap
        metrics["threads.peak"] = peak_threads
        units = PER_LAYER_UNITS
    else:
        units = dict(END_TO_END)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "thread_cap": cap,
              "threads_peak": peak_threads, "jobs": runs,
              "metrics": metrics}
    with open(os.path.join(outdir, "run.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(runs)}"
          f"  failed {failed}  thread cap {cap} (peak {peak_threads})")
    for r in done:
        print("  checks: " + ", ".join(f"{k} {v:.4g}" for k, v in
                                       sorted(r["figures"].items())))
    for msg in fails:
        print(f"  CHECK FAILED: {msg}")
    for key in units:
        print(f"  {key:36s} {metrics[key]:14.6g} {units[key]}")
    print(json.dumps({
        "correct": not fails,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))


if __name__ == "__main__":
    main()
