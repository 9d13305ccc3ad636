"""Command-line interface.

Verbs: `run` a config file, `preset` a named benchmark, `check-operators`
for the operator identities, `convergence` for an element-size refinement
study.  Package errors and failed file reads or writes are reported as
one `error:` line with exit code 1.
"""

import argparse
import sys

import numpy as np

from ..errors import ElastowaveError, ParseError, UnsupportedDegree
from ..operators import MAX_DEGREE, build_operators
from . import experiments
from .config import parse_config, parse_length
from .presets import preset


def build_parser():
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


def _load_config(path):
    """The parsed config file at path; text that does not decode is a
    ParseError, like any other malformed config."""
    try:
        with open(path) as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not a text config file: {exc}") \
            from None
    return parse_config(text)


def _report(result, output_dir):
    meta = result.metadata
    print(f"elements {meta['elements']}, degree {meta['degree']},"
          f" dt = {result.dt:.6g} s")
    print(f"reached t = {result.t_end:.6g} s"
          + (" (diverged)" if result.diverged else ""))
    for line in meta["notes"]:
        print(f"note: {line}")
    print(f"artifacts in {output_dir}")


def _check_operators(max_degree):
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
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ElastowaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    if args.verb == "check-operators":
        return _check_operators(args.max_degree)

    if args.verb == "convergence":
        cfg = _load_config(args.config)
        levels = [parse_length(tok) for tok in args.levels.split(",")]
        pad = parse_length(args.pad)
        errors, rates = experiments.convergence_study(
            cfg, levels, pad, output_dir=args.output_dir,
            resolve=args.resolve_tol)
        print("dx,error,rate")
        for k, (h, e) in enumerate(zip(levels, errors)):
            rate = "" if k == 0 else f"{rates[k - 1]:.4f}"
            print(f"{h:g},{e:.6e},{rate}")
        print(f"table in {args.output_dir}/convergence.csv")
        return 0

    # run and preset: one run of the config file or of the named preset
    if args.verb == "run":
        cfg = _load_config(args.config)
    else:
        cfg = preset(args.name, elements=args.elements,
                     degree=args.degree, theta=args.theta,
                     tend=args.tend)
    result = experiments.run_experiment(cfg, args.output_dir)
    _report(result, args.output_dir)
    return 2 if result.diverged else 0


if __name__ == "__main__":
    sys.exit(main())
