"""Command-line front end.

Subcommands stream designs through the design-file format on stdin/stdout,
so the construction steps compose as a pipeline:

    oamix generate --base lattice --m 3 --w 3 | oamix expand \
        | oamix cross --levels 0.75,1.5,3 | oamix evaluate --model eq6

`oamix demo` regenerates the bundled reference designs (table1, table2,
table3, table5) together with evaluation reports and FDS curves for the
two worked studies.  The default output directory can be set through the
OAMIX_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import as_fraction
from .errors import InvalidParameter, OamixError
from .evaluate import (
    ContinuousAmounts,
    DiscreteAmounts,
    evaluate_design,
    fds_curve,
    power,
)
from .io import _MAX_DECIMALS, read_design, write_design
from .models import ModelKind, build_spec, coded_model_matrix, model_matrix
from .oofa import cross_amounts, oofa_expand, scale_amounts
from .simplex import project_columns, simplex_centroid, simplex_lattice

_MODEL_HELP = (
    "model family: eq1 linear mixture-amount, eq2 quadratic mixture-amount, "
    "eq3 linear component-amount, eq4 quadratic component-amount, "
    "eq5 eq1 plus order factors, eq6 eq2 plus order factors and reduced "
    "order interactions, eq7 eq3 plus order factors, eq8 eq4 plus order "
    "factors and reduced order interactions"
)


def _read_stdin_design(args) -> "Design":
    if args.input:
        try:
            text = Path(args.input).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"cannot read --input {args.input!r}: {exc}") from None
    else:
        text = sys.stdin.read()
    return read_design(text)


def _json(data: dict) -> str:
    """Indented JSON with every non-finite float (an undefined R^2, power
    or a determinant beyond float range) written as null, so any RFC 8259
    parser reads it."""

    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    return json.dumps(finite(data), indent=2, allow_nan=False) + "\n"


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise InvalidParameter(f"cannot write {str(path)!r}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def _decimals(fmt: str) -> int | None:
    if fmt == "rational":
        return None
    digits = fmt.removeprefix("decimals:")
    # the length test keeps int() within Python's int-from-str digit limit
    if digits == fmt or not (digits.isdecimal() and len(digits) <= 4 and int(digits) <= _MAX_DECIMALS):
        raise InvalidParameter(
            f"--format must be rational or decimals:K with 0 <= K <= {_MAX_DECIMALS}, got {fmt!r}"
        )
    return int(digits)


def _add_io_args(p, with_input=True):
    if with_input:
        p.add_argument("--input", "-i", help="design file (default: stdin)")
    p.add_argument("--out", "-o", help="output path (default: stdout)")


def _add_format_arg(p):
    p.add_argument(
        "--format",
        default="rational",
        help="value rendering: rational (default, lossless) or decimals:K",
    )


def _spec_for(args, design):
    kind = ModelKind.parse(args.model)
    return build_spec(kind, design.m, reduction=args.reduction)


def cmd_generate(args) -> int:
    decimals = _decimals(args.format)
    if args.base == "lattice":
        if args.w is None:
            raise InvalidParameter("lattice base needs --w")
        design = simplex_lattice(args.m, args.w)
    else:
        design = simplex_centroid(args.m)
    _emit(write_design(design, decimals=decimals), args.out)
    return 0


def cmd_project(args) -> int:
    decimals = _decimals(args.format)
    design = _read_stdin_design(args)
    try:
        drop = {int(tok) for tok in args.drop.split(",") if tok.strip()}
    except ValueError:
        raise InvalidParameter(f"--drop needs comma-separated column numbers, got {args.drop!r}") from None
    out = project_columns(design, drop)
    _emit(write_design(out, decimals=decimals), args.out)
    return 0


def cmd_expand(args) -> int:
    decimals = _decimals(args.format)
    design = _read_stdin_design(args)
    _emit(write_design(oofa_expand(design), decimals=decimals), args.out)
    return 0


def _exact(text: str, flag: str):
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameter(f"{flag} needs exact numbers such as 3/4 or 0.75, got {text!r}") from None


def cmd_cross(args) -> int:
    decimals = _decimals(args.format)
    design = _read_stdin_design(args)
    levels = [_exact(tok, "--levels") for tok in args.levels.split(",") if tok.strip()]
    out = cross_amounts(design, levels)
    _emit(write_design(out, decimals=decimals), args.out)
    return 0


def cmd_scale(args) -> int:
    decimals = _decimals(args.format)
    design = _read_stdin_design(args)
    out = scale_amounts(design, _exact(args.a_max, "--a-max"))
    _emit(write_design(out, decimals=decimals), args.out)
    return 0


def cmd_matrix(args) -> int:
    design = _read_stdin_design(args)
    spec = _spec_for(args, design)
    mm = coded_model_matrix(design, spec) if args.coding == "coded" else model_matrix(design, spec)
    lines = [",".join(mm.col_labels)]
    for row in mm.X:
        lines.append(",".join(f"{v:.12g}" for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_evaluate(args) -> int:
    design = _read_stdin_design(args)
    spec = _spec_for(args, design)
    report = evaluate_design(
        design, spec, signal_sd=args.signal, alpha=args.alpha, coding=args.coding
    )
    _emit(_json(report.to_dict()), args.out)
    return 0


def _amount_policy(args, design):
    if args.amounts == "continuous":
        return None  # library default: continuous over the design's level range
    if args.amounts == "discrete":
        return DiscreteAmounts(tuple(float(a) for a in design.amount_levels))
    try:
        lo, hi = (float(tok) for tok in args.amounts.split(":", 1))
    except ValueError:
        raise InvalidParameter(
            f"--amounts must be continuous, discrete or LO:HI, got {args.amounts!r}"
        ) from None
    return ContinuousAmounts(lo, hi)


def cmd_fds(args) -> int:
    design = _read_stdin_design(args)
    spec = _spec_for(args, design)
    curve = fds_curve(
        design,
        spec,
        n_samples=args.samples,
        seed=args.seed,
        amount_policy=_amount_policy(args, design),
        sign_policy=args.signs,
    )
    _emit(curve.to_text(), args.out)
    return 0


def cmd_power(args) -> int:
    design = _read_stdin_design(args)
    spec = _spec_for(args, design)
    mm = coded_model_matrix(design, spec) if args.coding == "coded" else model_matrix(design, spec)
    rows = {
        label: power(mm, j, args.signal, args.alpha)
        for j, label in enumerate(mm.col_labels)
        if not args.term or label == args.term
    }
    if args.term and not rows:
        raise InvalidParameter(f"term {args.term!r} not in model ({', '.join(mm.col_labels)})")
    _emit(_json({"signal_sd": args.signal, "alpha": args.alpha, "power": rows}), args.out)
    return 0


def cmd_demo(args) -> int:
    out_dir = Path(args.out or os.environ.get("OAMIX_OUT", "oamix-demo"))

    table1 = oofa_expand(simplex_lattice(3, 3))
    table2 = oofa_expand(project_columns(simplex_centroid(4), {4}))
    table3 = cross_amounts(table1, [Fraction(3, 4), Fraction(3, 2), Fraction(3)])
    table5 = scale_amounts(table2, 500)

    spec6 = build_spec(ModelKind.OOFA_MA_FULL, 3)
    spec8 = build_spec(ModelKind.OOFA_CA_FULL, 3)
    report1 = evaluate_design(table3, spec6, signal_sd=0.5, alpha=0.05)
    report2 = evaluate_design(table5, spec8, signal_sd=2.0, alpha=0.05)
    curve1 = fds_curve(table3, spec6, n_samples=args.samples, seed=args.seed)
    curve2 = fds_curve(table5, spec8, n_samples=args.samples, seed=args.seed)

    # everything is computed before the first file is written, so a failure
    # leaves no partial output directory
    files = {
        "table1.csv": write_design(table1),
        "table2.csv": write_design(table2),
        "table3.csv": write_design(table3),
        "table5.csv": write_design(table5),
        "table1_display.csv": write_design(table1, decimals=2),
        "table3_display.csv": write_design(table3, decimals=2),
        "table5_display.csv": write_design(table5, decimals=1),
        "example1_report.json": _json(report1.to_dict()),
        "example2_report.json": _json(report2.to_dict()),
        "example1_fds.txt": curve1.to_text(),
        "example2_fds.txt": curve2.to_text(),
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameter(f"cannot make the output directory {str(out_dir)!r}: {exc}") from None
    for name, text in files.items():
        _write(out_dir / name, text)

    print(f"# oamix demo {args.suite} --out {out_dir} --samples {args.samples} --seed {args.seed}")
    print(f"example1: N={report1.n_runs} p={report1.n_params} "
          f"max_pv={report1.max_pv:.4f} avg_pv={report1.avg_pv:.4f} "
          f"g_efficiency_pct={report1.g_efficiency_pct:.2f}")
    print(f"example2: N={report2.n_runs} p={report2.n_params} "
          f"max_pv={report2.max_pv:.4f} avg_pv={report2.avg_pv:.4f} "
          f"g_efficiency_pct={report2.g_efficiency_pct:.2f}")
    print(f"wrote {out_dir}/table1.csv table2.csv table3.csv table5.csv + reports + fds curves")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamix",
        description="Construct and evaluate order-of-addition mixture-amount designs.",
    )
    parser.add_argument("--version", action="version", version=f"oamix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simplex-lattice or simplex-centroid base design")
    p.add_argument("--base", choices=("lattice", "centroid"), required=True)
    p.add_argument("--m", type=int, required=True, help="number of components")
    p.add_argument("--w", type=int, help="lattice degree (lattice base only)")
    _add_io_args(p, with_input=False)
    _add_format_arg(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("project", help="delete columns, reinterpreting rows as amounts")
    p.add_argument("--drop", required=True, help="comma-separated 1-based columns to delete")
    _add_io_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("expand", help="expand each run over all orderings of its support")
    _add_io_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("cross", help="cross a proportion design with total-amount levels")
    p.add_argument("--levels", required=True, help="comma-separated exact levels, e.g. 0.75,1.5,3")
    _add_io_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_cross)

    p = sub.add_parser("scale", help="scale an amount design to a physical maximum")
    p.add_argument("--a-max", dest="a_max", required=True, help="positive exact scale, e.g. 500")
    _add_io_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("matrix", help="materialize the model matrix as CSV")
    p.add_argument("--model", required=True, help=_MODEL_HELP)
    p.add_argument("--reduction", default="cyclic", choices=("cyclic", "keep_all"))
    p.add_argument("--coding", default="raw", choices=("raw", "coded"))
    _add_io_args(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("evaluate", help="criteria report (JSON)")
    p.add_argument("--model", required=True, help=_MODEL_HELP)
    p.add_argument("--reduction", default="cyclic", choices=("cyclic", "keep_all"))
    p.add_argument("--coding", default="coded", choices=("coded", "raw"))
    p.add_argument("--signal", type=float, default=2.0, help="signal size in error SDs")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_io_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fds", help="fraction-of-design-space curve (two-column text)")
    p.add_argument("--model", required=True, help=_MODEL_HELP)
    p.add_argument("--reduction", default="cyclic", choices=("cyclic", "keep_all"))
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--amounts",
        default="continuous",
        help="continuous (design range), discrete (design levels), or LO:HI",
    )
    p.add_argument("--signs", default="orderings", choices=("orderings", "continuous"))
    _add_io_args(p)
    p.set_defaults(func=cmd_fds)

    p = sub.add_parser("power", help="two-sided t-test power per term (JSON)")
    p.add_argument("--model", required=True, help=_MODEL_HELP)
    p.add_argument("--reduction", default="cyclic", choices=("cyclic", "keep_all"))
    p.add_argument("--coding", default="coded", choices=("coded", "raw"))
    p.add_argument("--term", help="report a single term label (default: all terms)")
    p.add_argument("--signal", type=float, required=True, help="signal size in error SDs")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_io_args(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("demo", help="regenerate the bundled reference designs and reports")
    p.add_argument("suite", nargs="?", default="paper", choices=("paper",),
                   help="demo suite name (default: paper)")
    p.add_argument("--out", help="output directory (default: $OAMIX_OUT or ./oamix-demo)")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OamixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
