"""One benchmark job in its own process; run.py starts it.

    python3 benchmarks/job.py setup WORKLOAD
    python3 benchmarks/job.py run WORKLOAD OUTDIR [--trace SEED]

`setup` times the import of elastowave and the building of the problem
(preset, build_problem, stable_dt).  `run` times run_experiment from its
call to its return, checks the outputs and reports peak RSS and the
thread count; with --trace it also wraps the package's functions in
spans on a random half of the steps, drawn from SEED, and reports
per-layer figures.  Each prints one JSON object as its
last line.  The parent sets the thread caps and PYTHONPATH.
"""

import glob
import json
import os
import random
import resource
import statistics
import sys
import time
import tracemalloc


def _import():
    """Import the package first, before anything loads numpy, and time it."""
    t0 = time.perf_counter()
    from elastowave import solver, sources
    from elastowave.harness import experiments, presets
    return time.perf_counter() - t0, solver, sources, experiments, presets


def _threads():
    return len(os.listdir("/proc/self/task"))


def setup(name):
    import_s, solver, _, experiments, presets = _import()
    import workloads
    config, _, _ = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    cfg = config(presets)
    disc, _, _, _ = experiments.build_problem(cfg)
    # the largest damping rate, as run_experiment derives it: peak of the
    # layer profile plus the frequency shift
    rate = max((float(tab.damp.max()) + tab.alpha for tab in disc.damping),
               default=0.0)
    dt = solver.stable_dt(disc.mesh, cfg.materials, cfg.degree, cfg.cfl,
                          damping_rate=rate)
    return {"setup_s": import_s + time.perf_counter() - t0,
            "import_s": import_s, "dt": dt}


class _SolverClock:
    """Times solver.run from outside; one span per job."""

    def __init__(self, solver):
        self.solver, self.fn, self.seconds = solver, solver.run, 0.0

    def __enter__(self):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
        self.solver.run = timed
        return self

    def __exit__(self, *exc):
        self.solver.run = self.fn


def _measured(fn, *args, **kwargs):
    """Call fn under tracemalloc; returns (result, peak bytes allocated)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class _Tracing:
    """Spans around each layer's functions, on half of the steps.

    Each step is traced or not by a coin drawn from `seed`, so the traced
    and untraced steps see the same machine and neither lines up with a
    periodic callback (receivers, snapshots); their difference is the
    tracing overhead.  Each iteration is timed from one step's start to
    the next (step plus callbacks).  tracemalloc measures the peak
    allocation of step 3 and of the first RHS of step 5, both traced.
    """

    STEP_SAMPLE, RHS_SAMPLE = 3, 5

    def __init__(self, tracer, solver, experiments, sources, seed):
        self.tracer = tracer
        self.starts = []       # (traced?, start time)
        coin = random.Random(seed)
        self.end = None
        self.step_peak = self.rhs_peak = None
        step, rhs = solver.ader_step, solver._rhs

        def sampled_step(*args, **kwargs):
            if len(self.starts) == self.STEP_SAMPLE:
                out, self.step_peak = _measured(step, *args, **kwargs)
                return out
            return step(*args, **kwargs)

        def sampled_rhs(*args, **kwargs):
            if len(self.starts) == self.RHS_SAMPLE and self.rhs_peak is None:
                out, self.rhs_peak = _measured(rhs, *args, **kwargs)
                return out
            return rhs(*args, **kwargs)

        tracer.patch(solver, "ader_step", sampled_step)
        tracer.patch(solver, "_rhs", sampled_rhs)
        # each function under the name through which its caller reaches it
        for attr in ("build_problem", "write_outputs"):
            tracer.wrap(experiments, attr, f"harness.{attr}")
        tracer.wrap(experiments, "build_mesh", "mesh.build_mesh")
        tracer.wrap(experiments, "build_operators", "operators.build_operators")
        tracer.wrap(experiments, "build_damping", "pml.build_damping")
        tracer.wrap(experiments, "discrete_energy", "diagnostics.energy")
        tracer.wrap(experiments, "linf_series", "diagnostics.linf")
        for attr in ("discretize", "setup_state", "stable_dt", "ader_step"):
            tracer.wrap(solver, attr, f"solver.{attr}")
        tracer.wrap(solver, "_rhs", "solver.rhs")
        for attr in ("hat_interface", "hat_boundary", "fluctuation"):
            tracer.wrap(solver, attr, "flux")
        tracer.wrap(sources.MomentTensorSource, "inject", "sources.inject")
        tracer.wrap(sources.Receiver, "__call__", "sources.receiver")

        traced_step = solver.ader_step

        def coin_step(*args, **kwargs):
            n = len(self.starts) + 1
            tracer.active = n in (self.STEP_SAMPLE, self.RHS_SAMPLE) \
                or coin.random() < 0.5
            self.starts.append((tracer.active, time.perf_counter()))
            return traced_step(*args, **kwargs)

        run = solver.run

        def run_with_traced_callbacks(state, t_end, dt, sources=(),
                                      callbacks=()):
            cbs = [tracer.span("solver.callbacks", cb) for cb in callbacks]
            tracer.active = False      # the initial callbacks are not a step
            try:
                return run(state, t_end, dt, sources=sources, callbacks=cbs)
            finally:
                self.end = time.perf_counter()
                tracer.active = True

        tracer.patch(solver, "ader_step", coin_step)
        tracer.patch(solver, "run",
                     tracer.span("solver.run", run_with_traced_callbacks))

    def overhead(self):
        """(added seconds per traced step, share of an untraced step),
        from the medians of the traced and the untraced iterations."""
        ends = [t for _, t in self.starts[1:]] + [self.end]
        traced, plain = [], []
        for (on, t0), t1 in zip(self.starts, ends):
            (traced if on else plain).append(t1 - t0)
        extra = statistics.median(traced) - statistics.median(plain)
        return extra, extra / statistics.median(plain)


def _dir_mb(path, pattern):
    return sum(os.path.getsize(p) for p in
               glob.glob(os.path.join(path, pattern))) / 1e6


def run(name, outdir, trace_seed=None):
    import_s, solver, sources, experiments, presets = _import()
    import workloads
    config, check, writes = workloads.WORKLOADS[name]
    cfg = config(presets)
    target = outdir if writes else None
    tracing = None
    if trace_seed is not None:
        from tracer import Tracer
        tracing = _Tracing(Tracer(), solver, experiments, sources,
                           trace_seed)
    with _SolverClock(solver) as clock:
        t0 = time.perf_counter()
        result = experiments.run_experiment(cfg, target)
        wall = time.perf_counter() - t0
    if tracing is not None:
        tracing.tracer.restore()
    fails, figures = check(result, cfg, outdir)
    state = result.state
    values = steps = 0
    if state is not None:
        values = state.Q.size + sum(w.size for w in state.w)
        steps = len(result.energy) - 1   # every workload samples each step
    out = {
        "wall_s": wall,
        "solver_run_s": clock.seconds,
        "steps": steps,
        "values": values,
        "dof_updates_per_s": values * steps / clock.seconds
        if clock.seconds > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "threads": _threads(),
        "import_s": import_s,
        "fails": fails,
        "figures": figures,
    }
    if tracing is not None:
        out["layers"] = _layers(tracing, result, steps, values, outdir)
        out["layers"]["import_s"] = import_s
        tracing.tracer.dump(os.path.join(outdir, "trace.jsonl"))
    return out


def _layers(tracing, result, steps, values, outdir):
    """Per-layer figures; per-step and per-RHS figures average over the
    traced steps only."""
    tracer = tracing.tracer
    agg = tracer.summary()

    def get(name, key="total_s"):
        return agg.get(name, {}).get(key, 0)

    extra, share = tracing.overhead()
    rhs_calls = get("solver.rhs", "calls")
    traced_steps = get("solver.ader_step", "calls")
    per_step = 1e3 / traced_steps if traced_steps else 0.0
    per_rhs = 1e3 / rhs_calls if rhs_calls else 0.0
    state_bytes = result.state.Q.nbytes
    return {
        "solver.step_ms": get("solver.ader_step") * per_step,
        "solver.rhs_ms": get("solver.rhs") * per_rhs,
        "solver.rhs_per_step": rhs_calls / traced_steps
        if traced_steps else 0.0,
        "solver.rhs_ns_per_dof": get("solver.rhs") / rhs_calls / values
        * 1e9 if rhs_calls else 0.0,
        "solver.rhs_self_ms": get("solver.rhs", "self_s") * per_rhs,
        "solver.step_self_ms": get("solver.ader_step", "self_s") * per_step,
        "solver.run_callbacks_ms_per_step":
            get("solver.callbacks") * per_step,
        "solver.rhs_peak_alloc_states": (tracing.rhs_peak or 0)
        / state_bytes,
        "solver.step_peak_alloc_states": (tracing.step_peak or 0)
        / state_bytes,
        "flux.calls_per_rhs": get("flux", "calls") / rhs_calls
        if rhs_calls else 0.0,
        "flux.ms_per_rhs": get("flux") * per_rhs,
        "sources.inject_ms_per_step": get("sources.inject") * per_step,
        "sources.receiver_ms_per_step": get("sources.receiver") * per_step,
        "diagnostics.energy_ms_per_step":
            get("diagnostics.energy") * per_step,
        "diagnostics.linf_ms_per_step": get("diagnostics.linf") * per_step,
        "harness.write_outputs_s": get("harness.write_outputs"),
        "harness.snapshot_mb": _dir_mb(outdir, "snapshot_*"),
        "harness.build_problem_s": get("harness.build_problem"),
        "mesh.build_mesh_s": get("mesh.build_mesh"),
        "operators.build_operators_s": get("operators.build_operators"),
        "pml.build_damping_s": get("pml.build_damping"),
        "solver.discretize_s": get("solver.discretize"),
        "trace.spans": len(tracer.spans),
        # the time spans would add to a job traced on every step
        "trace.overhead_s": extra * steps,
        "trace.overhead_share": share,
    }


def main(argv):
    mode, name = argv[0], argv[1]
    if mode == "setup":
        out = setup(name)
    elif mode == "run":
        out = run(name, argv[2], int(argv[4]) if argv[3:4] == ["--trace"]
                  else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
