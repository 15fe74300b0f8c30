"""Command line front end: compute screens and curves, run verifications.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.
"""

import argparse
import os
import sys
import time

from . import (__version__, exact, exports, geometry, recursion, semiclassics,
               verify)
from .errors import EmptyScreen, SpinScreenError
from .screen import require_accepted
from .spins import ScreenParams

_OUTPUTS = ("screen", "caustics", "ridges", "potentials", "cos-theta3",
            "pr-compare")


def _add_params(parser, defaults=(None,) * 4):
    """--two-a .. --two-d; one without a default is required."""
    for name, default in zip(("two-a", "two-b", "two-c", "two-d"), defaults):
        parser.add_argument("--" + name, type=int, default=default,
                            required=default is None,
                            help="twice the angular momentum %s" % name[-1])


def _sample_count(text):
    """argparse type of a sample count: an int of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("must be at least 1 (got %d)" % count)
    return count


def _params_from(args):
    """ScreenParams from the command line, or None after reporting why not."""
    try:
        return ScreenParams(args.two_a, args.two_b, args.two_c, args.two_d)
    except (EmptyScreen, ValueError) as err:
        print("invalid parameters: %s" % err, file=sys.stderr)
        return None


# the method registry under the name perfbench's tracer test reads
_SCREEN_BUILDERS = recursion.SCREEN_METHODS


def cmd_compute(args):
    outputs = [o.strip() for o in args.output.split(",") if o.strip()]
    # an empty list has nothing to write: report the text as the unknown output
    for o in outputs or [args.output]:
        if o not in _OUTPUTS:
            print("unknown output %r (choose from %s)" % (o, ", ".join(_OUTPUTS)),
                  file=sys.stderr)
            return 2
    params = _params_from(args)
    if params is None:
        return 2
    needs_screen = "screen" in outputs or "pr-compare" in outputs
    if args.method == "oracle" and params.two_kappa > exact.ORACLE_KAPPA2_CAP \
            and needs_screen:
        print("oracle screens are limited to kappa2 <= %d (requested %d); "
              "use --method eigensolve"
              % (exact.ORACLE_KAPPA2_CAP, params.two_kappa), file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    screen = None
    if needs_screen:
        screen = recursion.SCREEN_METHODS[args.method](params)
        require_accepted(screen)
    outdir = args.outdir or os.environ.get("SPINSCREEN_OUTDIR", ".")
    os.makedirs(outdir, exist_ok=True)
    base = os.path.join(outdir, "spinscreen_a%d_b%d_c%d_d%d" % params.as_tuple())
    written = []
    if "screen" in outputs:
        path = "%s_%s_screen.%s" % (base, args.method, args.format)
        if args.format == "csv":
            exports.write_screen_csv(screen, path)
        else:
            exports.write_screen_json(screen, path)
        written.append(path)
    if "caustics" in outputs or "ridges" in outputs:
        caustics = geometry.ridges_and_caustics(params)
        if "caustics" in outputs:
            path = base + "_caustics.json"
            exports.write_caustics_json(caustics, path)
            written.append(path)
        if "ridges" in outputs:
            path = base + "_ridges.json"
            exports.write_ridges_json(caustics, path)
            written.append(path)
    if "potentials" in outputs:
        path = base + "_potentials.json"
        exports.write_potentials_json(geometry.potentials(params), path)
        written.append(path)
    if "cos-theta3" in outputs:
        grid = geometry.cos_theta3_grid(params)
        path = "%s_cos_theta3.%s" % (base, args.format)
        if args.format == "csv":
            exports.write_field_csv(params, grid, "cos_theta3", path)
        else:
            exports.write_field_json(params, grid, "cos_theta3", path)
        written.append(path)
    if "pr-compare" in outputs:
        comparison = semiclassics.pr_compare(screen)
        path = base + "_pr_compare.csv"
        exports.write_pr_compare_csv(comparison, path)
        written.append(path)
    elapsed = time.perf_counter() - t0
    print("screen %dx%d (kappa2=%d), method=%s" % (
        params.side, params.side, params.two_kappa, args.method))
    if screen is not None:
        print("orthonormality defect: %.3e"
              % screen.diagnostics["orthonormality_defect"])
    for path in written:
        print("wrote %s" % path)
    print("wall time: %.3f s" % elapsed)
    return 0


def _print_results(results):
    width = max(len(r.name) for r in results)
    for r in results:
        print("%-*s  %-4s  value=%.3e  threshold=%.3e  %s" % (
            width, r.name, "PASS" if r.passed else "FAIL",
            r.value, r.threshold, r.detail))


def cmd_verify(args):
    params = _params_from(args)
    if params is None:
        return 2
    names = args.check or None
    results = verify.run_checks(names=names, params=params,
                                n_random=args.random, seed=args.seed,
                                golden_path=args.golden)
    if not results:
        print("no checks matched %r" % (names,), file=sys.stderr)
        return 2
    _print_results(results)
    if args.report:
        exports._write_json(verify.results_report(results), args.report)
        print("report written to %s" % args.report)
    return 0 if all(r.passed for r in results) else 1


def cmd_ninej_check(args):
    params = None
    if args.reduce:
        params = _params_from(args)
        if params is None:
            return 2
    results = verify.run_ninej_checks(
        count=args.count, two_j_max=args.two_j_max, seed=args.seed,
        two_h=args.two_h, reduce_check=args.reduce, params=params)
    if results is None:
        print("no admissible stencils for the requested filter",
              file=sys.stderr)
        return 2
    _print_results(results)
    if args.report:
        exports._write_json(verify.results_report(results), args.report)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinscreen",
        description="Compute and verify orthonormal 6j screens.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="generate screen/curve files")
    _add_params(p_compute)
    p_compute.add_argument("--method", choices=tuple(recursion.SCREEN_METHODS),
                           default="eigensolve")
    p_compute.add_argument("--output", default="screen",
                           help="comma list of: %s" % ", ".join(_OUTPUTS))
    p_compute.add_argument("--format", choices=("csv", "json"), default="csv")
    p_compute.add_argument("--outdir", default=None,
                           help="output directory (default $SPINSCREEN_OUTDIR or .)")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run named invariant checks")
    _add_params(p_verify)
    p_verify.add_argument("--check", action="append",
                          help="substring filter; repeatable")
    p_verify.add_argument("--random", type=_sample_count, default=200,
                          help="sample count for randomized checks")
    p_verify.add_argument("--seed", type=int, default=1234)
    p_verify.add_argument("--golden", default=None,
                          help="alternative golden data file")
    p_verify.add_argument("--report", default=None,
                          help="write a JSON report to this path")
    p_verify.set_defaults(func=cmd_verify)

    p_nine = sub.add_parser("ninej-check",
                            help="9j recurrence residuals and reduction")
    p_nine.add_argument("--count", type=_sample_count, default=100)
    p_nine.add_argument("--two-j-max", type=int, default=12)
    p_nine.add_argument("--seed", type=int, default=0)
    p_nine.add_argument("--two-h", type=int, default=None,
                        help="fix the h entry (0 selects reduction stencils)")
    p_nine.add_argument("--reduce", action="store_true",
                        help="also run the h=0 reduction ratio check")
    _add_params(p_nine, verify.DEFAULT_PARAMS.as_tuple())
    p_nine.add_argument("--report", default=None)
    p_nine.set_defaults(func=cmd_ninej_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpinScreenError as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
