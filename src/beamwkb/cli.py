"""Command-line driver: expand, validate, oracle, sweep-delta."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness, inner, oracle, outer
from .model import ConfigError, load_config

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2


def _parse_l_range(text):
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi or lo)
    if lo > hi or lo < 1:             # the rule RunSpec applies to l_range
        raise argparse.ArgumentTypeError(f"need 1 <= lo <= hi, got {text}")
    return lo, hi


def _positive_float(text):
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _float_list(text):
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"need at least one value, got {text!r}")
    return values


def build_parser():
    ap = argparse.ArgumentParser(
        prog="beamwkb",
        description="Asymptotic expansions of global beam vibrations with a "
                    "concentrated mass, validated against a direct eigensolver.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="build an expansion artifact")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="oracle comparison sweep from an artifact")
    p.add_argument("--artifact", required=True)
    p.add_argument("--n", type=int, required=True, help="truncation order")
    p.add_argument("--l", type=_parse_l_range, default=None,
                   help="index range lo:hi (default: artifact run range)")
    p.add_argument("--csv", default=None, help="CSV output path")
    p.add_argument("--json", dest="json_path", default=None,
                   help="JSON output path")
    p.add_argument("--refine", type=_positive_float, default=1.0,
                   help="oracle mesh refinement factor")

    p = sub.add_parser("oracle", help="solve one (epsilon, target) pair directly")
    p.add_argument("--config", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("sweep-delta",
                       help="repeat expansion + validation over a delta grid")
    p.add_argument("--config", required=True)
    p.add_argument("--deltas", type=_float_list, required=True,
                   help="comma-separated deformation angles")
    p.add_argument("--n", type=int, default=None,
                   help="truncation order (default: config n_max)")
    p.add_argument("--out-prefix", default="sweep",
                   help="per-delta report prefix")
    return ap


def cmd_expand(args):
    coeffs, run = load_config(args.config)
    art = harness.build_expansion(coeffs, run)
    harness.save_artifact(art, args.out)
    print(f"artifact written to {args.out}: orders 0..{art.n_max}, "
          f"{len(art.f_beta)} inner terms, l0={art.l0}")
    diag = art.diagnostics
    if diag["degenerate_right"]:
        print(f"warning: degenerate configuration: lambda0 lies within "
              f"{diag['gap_right']:.3g} of the right-interval clamped spectrum "
              "(multiple three-point eigenvalue, outside the theory)")
    for key, note in diag["notes"].items():
        print(f"note: {key}: {note}")
    return EXIT_OK


def cmd_validate(args):
    art = harness.load_artifact(args.artifact)
    l_values = None
    if args.l is not None:
        l_values = range(args.l[0], args.l[1] + 1)
    report = harness.run_convergence(art, args.n, l_values=l_values,
                                     refine=args.refine)
    if args.csv:
        harness.emit_report(report, "csv", args.csv)
    if args.json_path:
        harness.emit_report(report, "json", args.json_path)
    fit = report.fits.get("abs_err")
    if fit:
        print(f"eigenvalue rate at n={args.n}: slope {fit['slope']:.3f} "
              f"over {fit['n_rows']} rows (drop-one spread "
              f"{fit['drop_one_spread']:.3f})")
    else:
        print("no rate fit (fewer than 4 valid window rows)")
    for r in report.rows:
        if r["valid"]:
            print(f"l={r['l']:3d} eps={r['epsilon']:.5f} "
                  f"lambda={r['lambda_oracle']:.8f} err={r['abs_err']:.3e} "
                  f"gap={r['gap']:.3e} kappa={r['kappa']:.4f}")
        else:
            print(f"l={r['l']:3d} excluded: {r['exclude_reason']}")
    return EXIT_OK


def cmd_oracle(args):
    coeffs, run = load_config(args.config)
    # S1 comes from the phase of the limit problem; build the cheap pieces only
    mode = outer.solve_three_point_eigen(
        coeffs, run.mode_index, outer_grid=run.outer_grid)
    lam1 = outer.compute_lambda1(mode)
    phase = inner.compute_phase(coeffs, mode.lambda0, lam1, run.inner_grid)
    prob = oracle.assemble(coeffs, args.epsilon, phase.S1)
    res = oracle.solve_near(prob, args.target)
    res = oracle.normalize_weighted(res, prob, mode.v_left)
    lo, hi = res.flanking()
    payload = {
        "epsilon": args.epsilon, "target": args.target,
        "eigenvalue": res.eigenvalue, "residual": res.residual,
        "gap": res.gap, "flanking": [lo, hi],
        "sign_correlation": res.sign_correlation,
    }
    print(json.dumps(payload))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload) + "\n")
    return EXIT_OK


def cmd_sweep_delta(args):
    coeffs, run = load_config(args.config)
    n = args.n if args.n is not None else run.n_max
    harness.check_order(n, run.n_max)
    # every input is checked before the first build
    runs = [dataclasses.replace(run, delta=d) for d in args.deltas]
    summary = []
    for run_d in runs:
        art = harness.build_expansion(coeffs, run_d)
        report = harness.run_convergence(art, n)
        tag = f"{args.out_prefix}_delta{run_d.delta:g}"
        harness.emit_report(report, "csv", tag + ".csv")
        harness.emit_report(report, "json", tag + ".json")
        fit = report.fits.get("abs_err", {})
        summary.append({"delta": run_d.delta, "lambdas": art.lambdas,
                        "rate": fit.get("slope")})
        print(f"delta={run_d.delta:g}: lambdas={['%.6f' % v for v in art.lambdas]} "
              f"rate={fit.get('slope')}")
    with open(f"{args.out_prefix}_summary.json", "w") as fh:
        fh.write(json.dumps({"n": n, "results": harness._jsonable(summary)})
                 + "\n")
    return EXIT_OK


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "expand":
            return cmd_expand(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "sweep-delta":
            return cmd_sweep_delta(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:              # module errors -> exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
