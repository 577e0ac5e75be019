"""Command-line front end.

Subcommands: anomaly, table, plancherel, heat-trace, zeta-check,
synth-spectrum, verify.  Exit codes: 0 success, 1 verification failure,
2 usage error (bad flags or files, or an input on which a quadrature does
not converge).  HYPERZETA_PRECISION overrides the float display digits
(default 6).  Exact output is a pure function of the flags; nothing
here reads the locale, the clock, or anything else ambient.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import warnings
from fractions import Fraction

# Each command imports the package modules it uses inside its handler, so a
# process loads only its own command's: no numeric command loads the anomaly
# layer, and zeta-check and synth-spectrum load no renderer.
from . import FORMATS, __version__
from .exact import check_dimension

__all__ = ["main", "build_parser"]


def _display_digits() -> int:
    """Float display digits from HYPERZETA_PRECISION; ValueError if unusable."""
    raw = os.environ.get("HYPERZETA_PRECISION")
    if raw is None:
        return 6
    try:
        digits = int(raw)
    except ValueError:
        raise ValueError("HYPERZETA_PRECISION must be a positive integer") from None
    if not 1 <= digits <= 50:
        raise ValueError("HYPERZETA_PRECISION must be between 1 and 50")
    return digits


def _flag_rule(shown: str, rule, *args):
    """``rule(*args)``, run before any work. Its ValueError names no flag (the
    rule serves several), so here it leads with ``shown``: flags and values."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ValueError(f"{shown}: {exc}") from None


# The flag that sets each library parameter whose rule the library states.
# A library ValueError about a caller's argument starts with the
# parameter's name; main prints the flag in its place.
_FLAGS = {
    "count": "--count", "min_length": "--min-length", "max_power": "--max-power",
    "volume": "--volume", "betti": "--betti", "dims": "--dims", "forms": "--forms",
    "s": "--s", "t": "--t", "mass_sq_R_sq": "--mass-sq", "r": "--eval",
}


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperzeta",
        description="Conformal anomalies of p-form fields on compact hyperbolic "
        "spaces: exact tables plus heat-kernel/zeta numerics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_anom = sub.add_parser("anomaly", help="single anomaly value for (dim, form)")
    p_anom.add_argument("--dim", type=int, required=True, help="even spacetime dimension n")
    p_anom.add_argument("--form", type=int, default=0, help="form order p (default 0)")
    p_anom.add_argument(
        "--alpha-mode",
        choices=("default", "conformal-scalar", "massive"),
        default="default",
        help="spectral shift policy: co-exact p-form (default), conformally "
        "coupled scalar, or massive scalar via --mass-sq",
    )
    p_anom.add_argument(
        "--mass-sq", type=_fraction_arg, default=None,
        help="m^2 R^2 as a rational (default 0), only for --alpha-mode massive",
    )
    p_anom.add_argument(
        "--radius", type=_fraction_arg, default=Fraction(1),
        help="curvature radius R > 0 as a rational; scales the result by R^-n",
    )
    p_anom.add_argument(
        "--format", choices=("both", "exact", "float"), default="both",
        help="print 'exact = float' (default), exact only, or float only",
    )

    p_table = sub.add_parser("table", help="reproduce the anomaly tables")
    p_table.add_argument(
        "--which", choices=("table1", "table2", "custom"), required=True,
        help="table1: conformal scalars n=2..14; table2: p-forms n=2..10; "
        "custom: grid from --dims/--forms",
    )
    p_table.add_argument("--dims", type=int, nargs="+", help="dimensions for custom grids")
    p_table.add_argument("--forms", type=int, nargs="+", help="form orders for custom grids")
    p_table.add_argument("--format", choices=FORMATS, default="markdown")

    p_plan = sub.add_parser("plancherel", help="inspect a Plancherel polynomial/density")
    p_plan.add_argument("--dim", type=int, required=True, help="even dimension n = 2k")
    p_plan.add_argument("--form", type=int, required=True, help="form order p, 0 <= p <= n-1")
    p_plan.add_argument(
        "--eval", type=float, action="append", default=None, metavar="R",
        help="also evaluate the spectral density at r=R (repeatable)",
    )

    p_heat = sub.add_parser("heat-trace", help="co-exact heat trace on a stored manifold")
    p_heat.add_argument("--manifold", required=True, help="path to a manifold file")
    p_heat.add_argument("--form", type=int, default=0, help="co-exact form order p")
    p_heat.add_argument("--t", type=float, nargs="+", required=True, help="heat times")
    p_heat.add_argument("--format", choices=FORMATS, default="markdown")

    p_zeta = sub.add_parser(
        "zeta-check",
        help="hyperbolic Mellin transform: Bessel form vs time quadrature, plus s->0 scaling",
    )
    p_zeta.add_argument("--manifold", required=True, help="path to a manifold file")
    p_zeta.add_argument("--form", type=int, default=0, help="form order p")
    p_zeta.add_argument("--s", type=float, nargs="+", default=[0.3, 0.5, 0.7])
    p_zeta.add_argument(
        "--tolerance", type=float, default=1e-8,
        help="max relative Bessel-vs-quadrature mismatch before exit 1",
    )

    p_synth = sub.add_parser("synth-spectrum", help="emit a synthetic manifold file")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--count", type=int, required=True, help="number of primitive classes")
    p_synth.add_argument("--min-length", type=float, default=1.0)
    p_synth.add_argument("--max-power", type=int, default=1, help="iterates per primitive")
    p_synth.add_argument("--dim", type=int, required=True, help="even dimension n")
    p_synth.add_argument("--volume", type=float, default=1.0)
    p_synth.add_argument(
        "--betti", type=int, nargs="+", default=None,
        help="n+1 Betti numbers; default 1,0,...,0,1",
    )
    p_synth.add_argument("--out", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument(
        "--fast", action="store_true",
        help="skip quadrature-heavy checks; golden tables always run",
    )
    p_verify.add_argument("--golden", default=None, help="override the golden reference file")

    return parser


def cmd_anomaly(args: argparse.Namespace, digits: int) -> int:
    from .anomaly import (
        AnomalySpec, _check_form, alpha_conformal_scalar, alpha_default, alpha_massive_scalar,
        conformal_anomaly,
    )
    n, p = _flag_rule(f"--dim {args.dim}", check_dimension, args.dim), args.form
    _flag_rule(f"--form {p}", _check_form, n, p)
    if args.radius <= 0:
        # R^n is even in R at even n, so a negative radius would pass as |R|
        raise ValueError(f"--radius must be positive, got {args.radius}")
    if args.mass_sq is not None and args.alpha_mode != "massive":
        raise ValueError("--mass-sq applies only to --alpha-mode massive")
    if args.alpha_mode == "conformal-scalar":
        alpha = alpha_conformal_scalar(n)
    elif args.alpha_mode == "massive":
        alpha = alpha_massive_scalar(n, args.mass_sq or 0)
    else:
        alpha = alpha_default(n, p)
    spec = AnomalySpec(
        dimension=n, form_order=p, alpha=alpha,
        radius_power_scale=args.radius ** n,
    )
    value = conformal_anomaly(spec)
    if args.format == "float":
        print(value.render_float(digits))
        return 0
    try:
        exact = value.exact_str()
    except ValueError:
        # an int longer than sys.get_int_max_str_digits() has no str()
        raise ValueError(
            f"the exact value has more than {sys.get_int_max_str_digits()} digits, "
            f"which grow with the digits of --radius and --mass-sq: "
            f"use --format float"
        ) from None
    print(exact if args.format == "exact" else f"{exact} = {value.render_float(digits)}")
    return 0


def cmd_table(args: argparse.Namespace, digits: int) -> int:
    from .anomaly import generate_table
    from .output import pform_output, scalar_output
    if args.which == "custom":
        for n in args.dims or ():
            _flag_rule(f"--dims {n}", check_dimension, n)
    cells = generate_table(args.which, args.dims, args.forms)
    if args.which == "table1":
        table = scalar_output(cells, digits=digits, format=args.format)
    else:
        table = pform_output(cells, digits=digits, format=args.format)
    sys.stdout.write(table.render())
    return 0


def cmd_plancherel(args: argparse.Namespace, digits: int) -> int:
    from .plancherel import miatello_coefficients, plancherel_density
    n, p = _flag_rule(f"--dim {args.dim}", check_dimension, args.dim), args.form
    k = n // 2
    coeffs = _flag_rule(f"--form {p}", miatello_coefficients, k, p)
    # densities first, so a failing --eval prints nothing
    densities = [(r, plancherel_density(k, p, r)) for r in args.eval or ()]
    print(f"dimension n={n} (k={k}), form order p={p}")
    print(f"degree in r^2: {len(coeffs) - 1}, monic: {coeffs[-1] == 1}")
    print("coefficients a_{2l}, l=0..k-1:")
    for ell, c in enumerate(coeffs):
        print(f"  a_{2 * ell} = {c}")
    for r, mu in densities:
        print(f"mu(r={r:g}) = {mu:.{digits}g}")
    return 0


def _load_manifold(path: str):
    """Load a manifold file for heat-trace and zeta-check; a bad file is a ValueError."""
    from . import manifold
    try:
        return manifold.load_manifold(path)
    except manifold.ManifoldFormatError as exc:
        raise ValueError(f"bad manifold file: {exc}") from exc


def cmd_heat_trace(args: argparse.Namespace, digits: int) -> int:
    from . import heat_zeta
    from .output import OutputTable
    # checked before the file is read, so a bad --t is reported first
    for t in args.t:
        heat_zeta._check_time(t)
    data = _load_manifold(args.manifold)
    _flag_rule(f"--form {args.form}", heat_zeta._check_form_order, data.dimension, args.form)
    table = OutputTable(
        headers=("t", "identity", "hyperbolic", "betti", "total"),
        rows=tuple(
            tuple(
                f"{x:.{digits}g}"
                for x in (br.t, br.identity_part, br.hyperbolic_part, br.betti_part, br.total)
            )
            for br in heat_zeta.coexact_trace(data, args.form, args.t)
        ),
        format=args.format,
    )
    sys.stdout.write(table.render())
    return 0


def cmd_zeta_check(args: argparse.Namespace, digits: int) -> int:
    from . import heat_zeta
    # checked before the file is read, so a bad --s is reported first
    heat_zeta._check_mellin_s(args.s)
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and non-negative, got {args.tolerance!r}")
    data = _load_manifold(args.manifold)
    _flag_rule(f"--form {args.form}", heat_zeta._check_form_order, data.dimension, args.form)
    ident, bessels, quads, gaps, f_2, f_3 = heat_zeta.zeta_check(data, args.form, args.s)
    failed = False
    for s, bessel, quad, rel in zip(args.s, bessels, quads, gaps):
        ok = rel <= args.tolerance
        failed = failed or not ok
        print(
            f"s={s:g}: bessel={bessel:.{digits}g} quadrature={quad:.{digits}g} "
            f"rel={rel:.3e} [{'ok' if ok else 'MISMATCH'}]"
        )
    if f_3 != 0.0:
        print(f"s->0 scaling ratio f(1e-2)/f(1e-3) = {f_2 / f_3:.4f} (linear => 10)")
    print(f"identity-sector zeta(0) = {ident:.{digits}g}; hyperbolic part at s=1e-2: {f_2:.3e}")
    return 1 if failed else 0


def cmd_synth_spectrum(args: argparse.Namespace, digits: int) -> int:
    from . import manifold
    n = _flag_rule(f"--dim {args.dim}", check_dimension, args.dim)
    betti = tuple(args.betti) if args.betti else (1,) + (0,) * (n - 1) + (1,)
    # the --volume and --betti rules, on an empty spectrum, and then
    # synth_spectrum's argument rules all run before any class is drawn
    data = manifold.ManifoldData(dimension=n, volume=args.volume, betti=betti, geodesics=())
    _flag_rule(f"--count {args.count} --max-power {args.max_power}",
               manifold._check_class_count, args.count, args.max_power)
    try:
        drawn = manifold._synth_columns(args.seed, args.count, args.min_length, args.max_power, n)
    except OverflowError as exc:
        raise ValueError(f"{exc}; lower --min-length or --max-power") from None
    manifold._set_spectrum(data, drawn)
    if args.out:
        manifold.save_manifold(data, args.out)
    else:
        manifold._write_manifold(data, sys.stdout)
    return 0


def cmd_verify(args: argparse.Namespace, digits: int) -> int:
    from .verify import run_verification
    results = run_verification(fast=args.fast, golden_path=args.golden)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 1 if n_fail else 0


@contextlib.contextmanager
def _one_line_warnings():
    """Print each distinct warning raised inside as one stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


# The parser is built once per process; main looks each command's handler up
# by name on every call, so a handler replaced at run time is the one called.
def main(argv: list[str] | None = None) -> int:
    try:
        # the precision first, so its error comes before any flag's
        digits = _display_digits()
        args = build_parser().parse_args(argv)
        handler = {
            "anomaly": cmd_anomaly, "table": cmd_table, "plancherel": cmd_plancherel,
            "heat-trace": cmd_heat_trace, "zeta-check": cmd_zeta_check,
            "synth-spectrum": cmd_synth_spectrum, "verify": cmd_verify,
        }[args.command]
        with _one_line_warnings():
            return handler(args, digits)
    except (OSError, ValueError) as exc:
        # every bad input, QuadratureError included, ends here.  An
        # OSError's text starts with its errno, never a parameter name
        name, space, rest = str(exc).partition(" ")
        print(f"error: {_FLAGS.get(name, name)}{space}{rest}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
