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
from .errors import InvalidParameter, OamixError, _shown
from .io import _MAX_DECIMALS, _check_components, read_design, write_design
from .oofa import cross_amounts, oofa_expand, scale_amounts
from .simplex import project_columns, simplex_centroid, simplex_lattice

# `evaluate` and `models` load numpy, so only the commands that fit a model
# import them: generate, project, expand, cross and scale start without it.

_MODEL_HELP = (
    "model family: eq1 linear mixture-amount, eq2 quadratic mixture-amount, "
    "eq3 linear component-amount, eq4 quadratic component-amount, "
    "eq5 eq1 plus order factors, eq6 eq2 plus order factors and reduced "
    "order interactions, eq7 eq3 plus order factors, eq8 eq4 plus order "
    "factors and reduced order interactions"
)


def _read_design(args) -> "Design":
    """The design in the file --input names, or on stdin without one; a
    source that cannot be read or decoded raises InvalidParameter naming it."""
    source = f"--input {args.input!r}" if args.input else "stdin"
    try:
        text = Path(args.input).read_text() if args.input else sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"cannot read {source}: {exc}") from None
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


def _decimals(fmt: str) -> int | None:
    if fmt == "rational":
        return None
    digits = fmt.removeprefix("decimals:")
    # the length test keeps int() within Python's int-from-str digit limit
    if digits == fmt or not (digits.isdecimal() and len(digits) <= 4 and int(digits) <= _MAX_DECIMALS):
        raise InvalidParameter(
            f"--format must be rational or decimals:K with 0 <= K <= {_MAX_DECIMALS}, got {_shown(fmt)}"
        )
    return int(digits)


def _add_shared(p, *, reads=True, build=None, model=False, coding=None):
    """Declare the flags subcommands share: --model and --reduction, --coding
    with this command's default (listed first), --input unless the command
    reads no design, and --out.  A construction command passes its builder,
    (args, design) -> Design, and gets --format and the run-and-write step."""
    if model:
        p.add_argument("--model", required=True, help=_MODEL_HELP)
        p.add_argument("--reduction", default="cyclic", choices=("cyclic", "keep_all"))
    if coding:
        p.add_argument("--coding", default=coding, choices=(coding, "raw" if coding == "coded" else "coded"))
    if reads:
        p.add_argument("--input", "-i", help="design file (default: stdin)")
    p.add_argument("--out", "-o", help="output path (default: stdout)")
    if build:
        p.add_argument(
            "--format",
            default="rational",
            help="value rendering: rational (default, lossless) or decimals:K",
        )
        p.set_defaults(func=_construct, build=build)


def _construct(args) -> str:
    """The one run-and-write step of generate, project, expand, cross and
    scale: check --format, read the input design (generate has none), then
    render the design the command's builder makes of it."""
    decimals = _decimals(args.format)
    design = _read_design(args) if "input" in args else None
    return write_design(args.build(args, design), decimals=decimals)


def _generate(args, _) -> "Design":
    if args.base == "lattice" and args.w is None:
        raise InvalidParameter("lattice base needs --w")
    # checked before building: a centroid on m components has 2**m - 1 runs
    _check_components(args.m)
    return simplex_lattice(args.m, args.w) if args.base == "lattice" else simplex_centroid(args.m)


def _project(args, design) -> "Design":
    try:
        drop = {int(tok) for tok in args.drop.split(",") if tok.strip()}
    except ValueError:
        raise InvalidParameter(f"--drop needs comma-separated column numbers, got {_shown(args.drop)}") from None
    return project_columns(design, drop)


def _exact(text: str, flag: str):
    try:
        return as_fraction(text)
    except ValueError:
        raise InvalidParameter(f"{flag} needs exact numbers such as 3/4 or 0.75, got {_shown(text)}") from None


def _cross(args, design) -> "Design":
    levels = [_exact(tok, "--levels") for tok in args.levels.split(",") if tok.strip()]
    return cross_amounts(design, levels)


def _spec(args, design):
    from .models import build_spec

    return build_spec(args.model, design.m, reduction=args.reduction)


def _matrix(args, design):
    from .models import coded_model_matrix, model_matrix

    spec = _spec(args, design)
    return coded_model_matrix(design, spec) if args.coding == "coded" else model_matrix(design, spec)


def cmd_matrix(args) -> str:
    mm = _matrix(args, _read_design(args))
    lines = [",".join(mm.col_labels)]
    for row in mm.X:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> str:
    from .evaluate import evaluate_design

    design = _read_design(args)
    report = evaluate_design(
        design, _spec(args, design), signal_sd=args.signal, alpha=args.alpha, coding=args.coding
    )
    return _json(report.to_dict())


def _amount_policy(args, design):
    from .evaluate import ContinuousAmounts, DiscreteAmounts
    from .models import _level_floats

    if args.amounts == "continuous":
        return None  # library default: continuous over the design's level range
    if args.amounts == "discrete":
        return DiscreteAmounts(tuple(_level_floats(design)))
    try:
        lo, hi = (float(tok) for tok in args.amounts.split(":", 1))
    except ValueError:
        raise InvalidParameter(
            f"--amounts must be continuous, discrete or LO:HI, got {_shown(args.amounts)}"
        ) from None
    return ContinuousAmounts(lo, hi)


def cmd_fds(args) -> str:
    from .evaluate import fds_curve

    design = _read_design(args)
    curve = fds_curve(
        design,
        _spec(args, design),
        n_samples=args.samples,
        seed=args.seed,
        amount_policy=_amount_policy(args, design),
        sign_policy=args.signs,
    )
    return curve.to_text()


def cmd_power(args) -> str:
    from .evaluate import power

    mm = _matrix(args, _read_design(args))
    rows = {
        label: power(mm, j, args.signal, args.alpha)
        for j, label in enumerate(mm.col_labels)
        if not args.term or label == args.term
    }
    if args.term and not rows:
        raise InvalidParameter(f"term {_shown(args.term)} not in model ({', '.join(mm.col_labels)})")
    return _json({"signal_sd": args.signal, "alpha": args.alpha, "power": rows})


def cmd_demo(args) -> None:
    """Write the demo files into the --out directory and a summary to stdout."""
    from .evaluate import evaluate_design, fds_curve
    from .models import ModelKind, build_spec

    out_dir = Path(args.out or os.environ.get("OAMIX_OUT", "oamix-demo"))

    table1 = oofa_expand(simplex_lattice(3, 3))
    table2 = oofa_expand(project_columns(simplex_centroid(4), {4}))
    table3 = cross_amounts(table1, [Fraction(3, 4), Fraction(3, 2), Fraction(3)])
    table5 = scale_amounts(table2, 500)

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
    }
    reports = {}
    for name, design, kind, signal in (
        ("example1", table3, ModelKind.OOFA_MA_FULL, 0.5),
        ("example2", table5, ModelKind.OOFA_CA_FULL, 2.0),
    ):
        spec = build_spec(kind, 3)
        reports[name] = evaluate_design(design, spec, signal_sd=signal, alpha=0.05)
        files[f"{name}_report.json"] = _json(reports[name].to_dict())
        files[f"{name}_fds.txt"] = fds_curve(design, spec, n_samples=args.samples, seed=args.seed).to_text()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameter(f"cannot make the output directory {str(out_dir)!r}: {exc}") from None
    for name, text in files.items():
        _write(out_dir / name, text)

    print(f"# oamix demo {args.suite} --out {out_dir} --samples {args.samples} --seed {args.seed}")
    for name, report in reports.items():
        print(f"{name}: N={report.n_runs} p={report.n_params} "
              f"max_pv={report.max_pv:.4f} avg_pv={report.avg_pv:.4f} "
              f"g_efficiency_pct={report.g_efficiency_pct:.2f}")
    print(f"wrote {out_dir}/table1.csv table2.csv table3.csv table5.csv + reports + fds curves")


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
    _add_shared(p, reads=False, build=_generate)

    p = sub.add_parser("project", help="delete columns, reinterpreting rows as amounts")
    p.add_argument("--drop", required=True, help="comma-separated 1-based columns to delete")
    _add_shared(p, build=_project)

    p = sub.add_parser("expand", help="expand each run over all orderings of its support")
    _add_shared(p, build=lambda _, design: oofa_expand(design))

    p = sub.add_parser("cross", help="cross a proportion design with total-amount levels")
    p.add_argument("--levels", required=True, help="comma-separated exact levels, e.g. 0.75,1.5,3")
    _add_shared(p, build=_cross)

    p = sub.add_parser("scale", help="scale an amount design to a physical maximum")
    p.add_argument("--a-max", dest="a_max", required=True, help="positive exact scale, e.g. 500")
    _add_shared(p, build=lambda args, design: scale_amounts(design, _exact(args.a_max, "--a-max")))

    p = sub.add_parser("matrix", help="materialize the model matrix as CSV")
    _add_shared(p, model=True, coding="raw")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("evaluate", help="criteria report (JSON)")
    _add_shared(p, model=True, coding="coded")
    p.add_argument("--signal", type=float, default=2.0, help="signal size in error SDs")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fds", help="fraction-of-design-space curve (two-column text)")
    _add_shared(p, model=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--amounts",
        default="continuous",
        help="continuous (design range), discrete (design levels), or LO:HI",
    )
    p.add_argument("--signs", default="orderings", choices=("orderings", "continuous"))
    p.set_defaults(func=cmd_fds)

    p = sub.add_parser("power", help="two-sided t-test power per term (JSON)")
    _add_shared(p, model=True, coding="coded")
    p.add_argument("--term", help="report a single term label (default: all terms)")
    p.add_argument("--signal", type=float, required=True, help="signal size in error SDs")
    p.add_argument("--alpha", type=float, default=0.05)
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
        # a command returns its output text, written here to --out or
        # stdout; demo writes its own files and returns None
        text = args.func(args)
        if text is not None:
            if args.out:
                _write(Path(args.out), text)
            else:
                sys.stdout.write(text)
    except OamixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
