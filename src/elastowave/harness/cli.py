"""Command-line interface.

Verbs: `run` a config file, `preset` a named benchmark, `check-operators`
for the operator identities, `convergence` for an element-size refinement
study.  The ELASTOWAVE_THREADS environment variable caps the linear
algebra worker count (0 = auto); it is applied before the numeric
libraries load, which is why the heavy imports happen inside main().
"""

import argparse
import os
import sys


def _thread_cap():
    raw = os.environ.get("ELASTOWAVE_THREADS")
    if raw is None or not raw.strip():
        return
    try:
        n = int(raw)
    except ValueError:
        sys.exit(f"ELASTOWAVE_THREADS must be an integer, got {raw!r}")
    if n < 0:
        sys.exit(f"ELASTOWAVE_THREADS must be >= 0, got {n}")
    if n == 0:
        return  # auto: leave the library defaults alone
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def build_parser():
    from ..operators import MAX_DEGREE

    p = argparse.ArgumentParser(
        prog="elastowave",
        description="wave propagation runs with absorbing layers")
    sub = p.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a configuration file")
    run.add_argument("config", help="path to a config file")
    run.add_argument("--output-dir", default="out")

    pre = sub.add_parser("preset", help="run a named benchmark setup")
    pre.add_argument("name")
    pre.add_argument("--elements", type=int,
                     help="elements across the interior per direction")
    pre.add_argument("--degree", type=int)
    pre.add_argument("--theta", type=float, choices=[0.0, 1.0])
    pre.add_argument("--tend", type=float, help="final time in seconds")
    pre.add_argument("--output-dir", default="out")

    chk = sub.add_parser("check-operators",
                         help="verify the discrete operator identities")
    chk.add_argument("--max-degree", type=int, default=MAX_DEGREE,
                     help=f"highest degree checked, 1 to {MAX_DEGREE}")

    conv = sub.add_parser("convergence",
                          help="element-size refinement study")
    conv.add_argument("config", help="path to a config file")
    conv.add_argument("--levels", required=True,
                      help="comma-separated element sizes,"
                           " e.g. `10 km,5 km,2.5 km`")
    conv.add_argument("--pad", default="60 km",
                      help="outward shift of truncated faces in the"
                           " reference run")
    conv.add_argument("--resolve-tol", action="store_true",
                      help="re-derive the layer tolerance at each level"
                           " from the grid resolution")
    conv.add_argument("--output-dir", default="out")
    return p


def _length(token):
    from ..errors import ParseError
    from .config import _NUM_RE, _UNITS
    parts = token.strip().split()
    if len(parts) == 1 and _NUM_RE.match(parts[0]):
        return float(parts[0])
    if len(parts) == 2 and _NUM_RE.match(parts[0]) and parts[1] in ("m", "km"):
        return float(parts[0]) * _UNITS[parts[1]]
    raise ParseError(f"bad length {token!r}; write `2500` or `2.5 km`")


def _report(result, output_dir):
    meta = result.metadata
    print(f"elements {meta['elements']}, degree {meta['degree']},"
          f" dt = {result.dt:.6g} s")
    print(f"reached t = {result.t_end:.6g} s"
          + (" (diverged)" if result.diverged else ""))
    for line in meta.get("notes", ()):
        print(f"note: {line}")
    if output_dir is not None:
        print(f"artifacts in {output_dir}")


def _check_operators(max_degree):
    import numpy as np

    from ..errors import UnsupportedDegree
    from ..operators import MAX_DEGREE, build_operators

    if not 1 <= max_degree <= MAX_DEGREE:
        raise UnsupportedDegree(
            f"--max-degree must lie in [1, {MAX_DEGREE}], got {max_degree}")
    worst = 0.0
    failed = False
    for kind in ("GLL", "GL", "GLR"):
        for degree in range(1, max_degree + 1):
            ops = build_operators(degree, kind)
            nodes, weights = ops.rule.nodes, ops.rule.weights
            sbp = np.abs(ops.Qmat + ops.Qmat.T - ops.B).max()
            wsum = abs(weights.sum() - 2.0)
            deriv = 0.0
            for j in range(degree + 1):
                want = j * nodes ** (j - 1) if j else np.zeros_like(nodes)
                got = ops.D @ nodes ** j
                scale = max(np.abs(want).max(), 1.0)
                deriv = max(deriv, np.abs(got - want).max() / scale)
            ok = sbp <= 1e-12 and deriv <= 1e-10 and wsum <= 1e-13
            failed |= not ok
            worst = max(worst, sbp, deriv, wsum)
            print(f"{kind:3s} P={degree:2d}  sbp={sbp:.2e}"
                  f"  deriv={deriv:.2e}  weights={wsum:.2e}"
                  f"  {'ok' if ok else 'FAIL'}")
    print(f"worst residual {worst:.3e}")
    return 1 if failed else 0


def main(argv=None):
    _thread_cap()
    args = build_parser().parse_args(argv)
    from ..errors import ElastowaveError
    try:
        return _dispatch(args)
    except ElastowaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    if args.verb == "check-operators":
        return _check_operators(args.max_degree)

    from .experiments import convergence_study, run_experiment

    if args.verb == "run":
        from .config import parse_config
        with open(args.config) as f:
            cfg = parse_config(f.read())
        result = run_experiment(cfg, args.output_dir)
        _report(result, args.output_dir)
        return 2 if result.diverged else 0

    if args.verb == "preset":
        from .presets import preset
        cfg = preset(args.name, elements=args.elements,
                     degree=args.degree, theta=args.theta,
                     tend=args.tend)
        result = run_experiment(cfg, args.output_dir)
        _report(result, args.output_dir)
        return 2 if result.diverged else 0

    if args.verb == "convergence":
        from .config import parse_config
        with open(args.config) as f:
            cfg = parse_config(f.read())
        levels = [_length(tok) for tok in args.levels.split(",")]
        pad = _length(args.pad)
        errors, rates = convergence_study(cfg, levels, pad,
                                          output_dir=args.output_dir,
                                          resolve=args.resolve_tol)
        print("dx,error,rate")
        for k, (h, e) in enumerate(zip(levels, errors)):
            rate = "" if k == 0 else f"{rates[k - 1]:.4f}"
            print(f"{h:g},{e:.6e},{rate}")
        print(f"table in {args.output_dir}/convergence.csv")
        return 0

    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
