"""CLI pipelines, demo artifacts, and determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oamix
from oamix import read_design, reference_design, write_design
from oamix.cli import build_parser, main


def test_generate_expand_pipeline(tmp_path):
    base = tmp_path / "base.csv"
    expanded = tmp_path / "expanded.csv"
    assert main(["generate", "--base", "lattice", "--m", "3", "--w", "3", "--out", str(base)]) == 0
    assert main(["expand", "--input", str(base), "--out", str(expanded)]) == 0
    design = read_design(expanded.read_text())
    assert len(design) == 21
    assert design.is_expanded


def test_shell_pipe_matches_file_pipeline(tmp_path):
    out = subprocess.run(
        f"{sys.executable} -m oamix.cli generate --base lattice --m 3 --w 3 | "
        f"{sys.executable} -m oamix.cli expand",
        shell=True,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert len(read_design(out.stdout)) == 21


def test_full_pipeline_evaluate(tmp_path):
    base = tmp_path / "b.csv"
    exp = tmp_path / "e.csv"
    crossed = tmp_path / "c.csv"
    report = tmp_path / "r.json"
    main(["generate", "--base", "lattice", "--m", "3", "--w", "3", "--out", str(base)])
    main(["expand", "--input", str(base), "--out", str(exp)])
    main(["cross", "--levels", "0.75,1.5,3", "--input", str(exp), "--out", str(crossed)])
    assert main(["evaluate", "--model", "eq6", "--signal", "0.5",
                 "--input", str(crossed), "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["n_runs"] == 63 and data["n_params"] == 36
    assert data["avg_pv"] == pytest.approx(36 / 63, abs=1e-8)


def test_projection_pipeline(tmp_path):
    base = tmp_path / "c4.csv"
    proj = tmp_path / "proj.csv"
    main(["generate", "--base", "centroid", "--m", "4", "--out", str(base)])
    main(["project", "--drop", "4", "--input", str(base), "--out", str(proj)])
    design = read_design(proj.read_text())
    assert design.m == 3 and len(design) == 15


def test_matrix_output(tmp_path):
    base = tmp_path / "b.csv"
    exp = tmp_path / "e.csv"
    mat = tmp_path / "m.csv"
    main(["generate", "--base", "centroid", "--m", "4", "--out", str(base)])
    main(["project", "--drop", "4", "--input", str(base), "--out", str(base)])
    main(["expand", "--input", str(base), "--out", str(exp)])
    assert main(["matrix", "--model", "eq8", "--input", str(exp), "--out", str(mat)]) == 0
    lines = mat.read_text().splitlines()
    assert lines[0].startswith("1,a1,a2,a3,z12")
    assert len(lines) == 32


def test_fds_seeded_byte_identical(tmp_path):
    base = tmp_path / "b.csv"
    exp = tmp_path / "e.csv"
    main(["generate", "--base", "centroid", "--m", "4", "--out", str(base)])
    main(["project", "--drop", "4", "--input", str(base), "--out", str(base)])
    main(["expand", "--input", str(base), "--out", str(exp)])
    outs = []
    for name in ("f1.txt", "f2.txt"):
        path = tmp_path / name
        assert main(["fds", "--model", "eq8", "--samples", "5000", "--seed", "7",
                     "--input", str(exp), "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_power_single_term(tmp_path, capsys):
    base = tmp_path / "b.csv"
    exp = tmp_path / "e.csv"
    main(["generate", "--base", "centroid", "--m", "4", "--out", str(base)])
    main(["project", "--drop", "4", "--input", str(base), "--out", str(base)])
    main(["expand", "--input", str(base), "--out", str(exp)])
    assert main(["power", "--model", "eq8", "--term", "z12", "--signal", "2",
                 "--input", str(exp)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["power"]["z12"] == pytest.approx(0.3196, abs=0.002)


def test_error_exit_code_and_message(tmp_path, capsys):
    base = tmp_path / "b.csv"
    main(["generate", "--base", "centroid", "--m", "4", "--out", str(base)])
    main(["project", "--drop", "4", "--input", str(base), "--out", str(base)])
    code = main(["cross", "--levels", "1", "--input", str(base)])
    assert code == 2
    assert "WrongKind" in capsys.readouterr().err


def test_demo_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "paper", "--out", str(out), "--samples", "2000", "--seed", "7"]) == 0
    for name in ("table1.csv", "table2.csv", "table3.csv", "table5.csv",
                 "example1_report.json", "example2_report.json",
                 "example1_fds.txt", "example2_fds.txt"):
        assert (out / name).exists(), name
    data = Path(oamix.__file__).resolve().parent / "data"
    for name in ("table1.csv", "table2.csv", "table3.csv", "table5.csv"):
        assert (out / name).read_bytes() == (data / name).read_bytes(), name
    rep2 = json.loads((out / "example2_report.json").read_text())
    assert rep2["g_efficiency_pct"] == pytest.approx(53.79, abs=0.3)
    printed = capsys.readouterr().out
    assert "example1" in printed and "example2" in printed


@pytest.mark.parametrize(
    "argv, table",
    [
        (["cross", "--levels", "abc"], "table1"),
        (["cross", "--levels", "1/0"], "table1"),
        (["scale", "--a-max", "x"], "table2"),
        (["fds", "--model", "eq6", "--samples", "50"], "table3"),
        (["fds", "--model", "eq6", "--samples", str(10**20)], "table3"),
        (["fds", "--model", "eq6", "--amounts", "3:x"], "table3"),
        (["fds", "--model", "eq6", "--amounts", "5:1"], "table3"),
        (["fds", "--model", "eq6", "--amounts", "5"], "table3"),
        (["evaluate", "--model", "eq9"], "table3"),
        (["evaluate", "--model", "eq6", "--alpha", "1.5"], "table3"),
        (["evaluate", "--model", "eq6", "--alpha", "0"], "table3"),
        (["evaluate", "--model", "eq6", "--signal", "nan"], "table3"),
        (["power", "--model", "eq6", "--signal", "1", "--alpha", "1"], "table3"),
        (["power", "--model", "eq6", "--signal", "nan"], "table3"),
        (["power", "--model", "eq6", "--signal", "1", "--term", "nope"], "table3"),
        (["fds", "--model", "eq6", "--amounts", "discrete"], "table1"),
        (["fds", "--model", "eq6", "--seed", "-1"], "table3"),
        (["project", "--drop", "abc"], "table1"),
        *(
            ([*command, "--format", fmt], table)
            for command, table in (
                (["project", "--drop", "3"], "table1"),
                (["expand"], "table1"),
                (["cross", "--levels", "1"], "table1"),
                (["scale", "--a-max", "2"], "table2"),
            )
            for fmt in ("foo", "decimals:x", "decimals:-1", "decimals:100000")
        ),
    ],
    ids=lambda value: "_".join(value) if isinstance(value, list) else value,
)
def test_misuse_exits_2_with_named_error(tmp_path, capsys, argv, table):
    path = tmp_path / f"{table}.csv"
    path.write_text(write_design(reference_design(table)))
    assert main([*argv, "--input", str(path)]) == 2
    assert "error: InvalidParameter: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--model", "eq6"],
        ["fds", "--model", "eq6", "--samples", "100"],
        ["fds", "--model", "eq6", "--samples", "100", "--amounts", "discrete"],
    ],
    ids=lambda argv: "_".join(argv),
)
def test_a_level_beyond_float_range_exits_2(tmp_path, capsys, argv):
    expanded, crossed = tmp_path / "expanded.csv", tmp_path / "crossed.csv"
    expanded.write_text(write_design(oamix.oofa_expand(oamix.simplex_lattice(3, 2))))
    assert main(["cross", "--levels", f"1,2,{10**400}", "--input", str(expanded), "--out", str(crossed)]) == 0
    assert main([*argv, "--input", str(crossed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidParameter: a total amount A of the design is too large for a float")


def test_project_of_a_crossed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "crossed.csv"
    path.write_text(write_design(oamix.cross_amounts(oamix.simplex_lattice(3, 2), [1, 2])))
    assert main(["project", "--drop", "3", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: WrongKind: project the base design before crossing amounts")


@pytest.mark.parametrize(
    "argv",
    [
        ["--w", "2", "--format", "foo"],
        ["--w", "2", "--format", "decimals:x"],
        ["--w", "2", "--format", "decimals:-1"],
        ["--w", "2", "--format", "decimals:100000"],
        [],
    ],
    ids=["format_foo", "format_decimals_x", "format_decimals_-1", "format_decimals_100000", "lattice_without_w"],
)
def test_generate_misuse_exits_2_with_named_error(capsys, argv):
    assert main(["generate", "--base", "lattice", "--m", "3", *argv]) == 2
    assert "error: InvalidParameter: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--base", "centroid", "--m", "3"],
        ["project", "--drop", "3"],
        ["expand"],
        ["cross", "--levels", "1"],
        ["scale", "--a-max", "2"],
        ["matrix", "--model", "eq8"],
        ["evaluate", "--model", "eq8"],
        ["fds", "--model", "eq8", "--samples", "1000"],
        ["power", "--model", "eq8", "--signal", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, argv):
    inputs = {
        "project": oamix.simplex_centroid(4),
        "expand": oamix.simplex_lattice(3, 3),
        "cross": reference_design("table1"),
        "scale": reference_design("table2"),
    }
    design = tmp_path / "in.csv"
    design.write_text(write_design(inputs.get(argv[0]) or reference_design("table5")))
    out = tmp_path / "missing" / "x.json"
    with_input = [] if argv[0] == "generate" else ["--input", str(design)]
    assert main([*argv, *with_input, "--out", str(out)]) == 2
    assert f"error: InvalidParameter: cannot write {str(out)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["under_a_file", "file_is_a_directory"])
def test_demo_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, target):
    blocker = tmp_path / "blocker"
    if target == "under_a_file":
        blocker.write_text("")
        out, named = blocker / "demo", blocker / "demo"
    else:
        (blocker / "table1.csv").mkdir(parents=True)
        out, named = blocker, blocker / "table1.csv"
    assert main(["demo", "paper", "--out", str(out), "--samples", "1000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidParameter: ") and repr(str(named)) in err


def test_power_is_finite_for_strong_signals(tmp_path, capsys):
    path = tmp_path / "table3.csv"
    path.write_text(write_design(reference_design("table3")))
    assert main(["power", "--model", "eq6", "--signal", "20", "--input", str(path)]) == 0
    rows = _strict_json(capsys.readouterr().out)["power"]
    assert all(isinstance(rows[label], float) for label in rows)
    for label in ("x1", "x2", "x3"):
        assert 0.99 < rows[label] <= 1.0


def test_demo_failure_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "paper", "--out", str(out), "--samples", "10"]) == 2
    assert "error: InvalidParameter: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, text, error",
    [
        ("missing.csv", None, "InvalidParameter"),
        (".", None, "InvalidParameter"),
        ("header_only.csv", "x1,x2,x3,A\n", "MalformedHeader"),
    ],
    ids=["missing", "directory", "header_only"],
)
def test_bad_input_file_exits_2_with_named_error(tmp_path, capsys, name, text, error):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert main(["matrix", "--model", "eq1", "--coding", "coded", "--input", str(path)]) == 2
    assert f"error: {error}: " in capsys.readouterr().err


def test_imports_leave_scipy_stats_and_integrate_unloaded():
    code = (
        "import sys, oamix, oamix.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate', 'scipy.linalg') "
        "if m in sys.modules))"
    )
    src = str(Path(oamix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("model", ["eq3", "eq4", "eq7", "eq8"])
def test_evaluate_writes_strict_json(tmp_path, capsys, model):
    path = tmp_path / "table5.csv"
    path.write_text(write_design(reference_design("table5")))
    assert main(["evaluate", "--model", model, "--input", str(path)]) == 0
    data = _strict_json(capsys.readouterr().out)
    # the intercept column is constant, so its R^2 is undefined
    assert data["terms"][0]["label"] == "1" and data["terms"][0]["r2"] is None


def test_demo_reports_are_strict_json(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "paper", "--out", str(out), "--samples", "1000", "--seed", "7"]) == 0
    _strict_json((out / "example1_report.json").read_text())
    rep2 = _strict_json((out / "example2_report.json").read_text())
    assert rep2["terms"][0]["r2"] is None


def test_no_subcommand_imports_scipy(tmp_path):
    # with sys.modules["scipy"] = None, any import of scipy or a submodule
    # raises ImportError, so a subcommand that needs scipy fails here
    tables = {}
    for name in ("table1", "table2", "table3", "table5"):
        tables[name] = str(tmp_path / f"{name}.csv")
        Path(tables[name]).write_text(write_design(reference_design(name)))
    centroid, projected = str(tmp_path / "centroid.csv"), str(tmp_path / "projected.csv")
    commands = [
        ["generate", "--base", "centroid", "--m", "4", "--out", centroid],
        ["project", "--drop", "4", "--input", centroid, "--out", projected],
        ["expand", "--input", projected, "--out", str(tmp_path / "expanded.csv")],
        ["cross", "--levels", "0.75,1.5,3", "--input", tables["table1"], "--out", str(tmp_path / "crossed.csv")],
        ["scale", "--a-max", "500", "--input", tables["table2"], "--out", str(tmp_path / "scaled.csv")],
        ["matrix", "--model", "eq8", "--input", tables["table5"], "--out", str(tmp_path / "m.csv")],
        ["evaluate", "--model", "eq6", "--input", tables["table3"], "--out", str(tmp_path / "e.json")],
        ["fds", "--model", "eq8", "--samples", "1000", "--input", tables["table5"], "--out", str(tmp_path / "f.txt")],
        ["power", "--model", "eq8", "--signal", "2", "--input", tables["table5"], "--out", str(tmp_path / "p.json")],
        ["demo", "paper", "--samples", "1000", "--out", str(tmp_path / "demo")],
    ]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in commands) == sorted(subparsers.choices)
    code = (
        "import sys; sys.modules['scipy'] = None; from oamix.cli import main; "
        f"print([main(argv) for argv in {commands!r}])"
    )
    src = str(Path(oamix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    # demo prints its summary first
    assert out.stdout.splitlines()[-1] == str([0] * len(commands)), out.stderr


def test_construction_subcommands_import_no_numpy(tmp_path):
    # with sys.modules["numpy"] = None, any import of numpy raises
    # ImportError, so a construction step that loads it fails here
    table1, table2 = str(tmp_path / "table1.csv"), str(tmp_path / "table2.csv")
    Path(table1).write_text(write_design(reference_design("table1")))
    Path(table2).write_text(write_design(reference_design("table2")))
    centroid, projected = str(tmp_path / "centroid.csv"), str(tmp_path / "projected.csv")
    commands = [
        ["generate", "--base", "centroid", "--m", "4", "--out", centroid],
        ["project", "--drop", "4", "--input", centroid, "--out", projected],
        ["expand", "--input", projected, "--out", str(tmp_path / "expanded.csv")],
        ["cross", "--levels", "0.75,1.5,3", "--input", table1, "--out", str(tmp_path / "crossed.csv")],
        ["scale", "--a-max", "500", "--input", table2, "--out", str(tmp_path / "scaled.csv")],
    ]
    code = (
        "import sys; sys.modules['numpy'] = None; from oamix.cli import main; "
        f"print([main(argv) for argv in {commands!r}])"
    )
    src = str(Path(oamix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str([0] * len(commands)), out.stderr
    assert Path(tmp_path / "crossed.csv").read_text() == write_design(reference_design("table3"))
    assert Path(tmp_path / "scaled.csv").read_text() == write_design(reference_design("table5"))


def test_package_names_are_the_same_before_and_after_they_load():
    # the evaluation and model names load on first access, and dir() lists
    # them before and after
    code = (
        "import sys, oamix; before = dir(oamix); loaded = 'numpy' in sys.modules; "
        "[getattr(oamix, name) for name in oamix.__all__]; "
        "print(loaded, before == dir(oamix), all(name in before for name in oamix.__all__))"
    )
    src = str(Path(oamix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["False", "True", "True"], out.stderr
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        oamix.nope


def test_undecodable_stdin_exits_2_naming_stdin(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"x1,x2\n\xff,1\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["expand"]) == 2
    assert capsys.readouterr().err.startswith("error: InvalidParameter: cannot read stdin: ")


@pytest.mark.parametrize(
    "argv",
    [["--base", "centroid", "--m", "40"], ["--base", "lattice", "--m", "10", "--w", "1"]],
    ids=["centroid_40", "lattice_10"],
)
def test_generate_refuses_more_than_9_components_before_building(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError("the base design was built")

    monkeypatch.setattr("oamix.cli.simplex_centroid", refuse)
    monkeypatch.setattr("oamix.cli.simplex_lattice", refuse)
    assert main(["generate", *argv]) == 2
    assert capsys.readouterr().err == "error: MalformedHeader: the file format covers up to 9 components\n"


MODEL_HELP = (
    "model family: eq1 linear mixture-amount, eq2 quadratic mixture-amount, "
    "eq3 linear component-amount, eq4 quadratic component-amount, "
    "eq5 eq1 plus order factors, eq6 eq2 plus order factors and reduced "
    "order interactions, eq7 eq3 plus order factors, eq8 eq4 plus order "
    "factors and reduced order interactions"
)
FORMAT_HELP = "value rendering: rational (default, lossless) or decimals:K"
# (flags, dest, default, type, choices, required, help) of each option
INPUT = (("--input", "-i"), "input", None, None, None, False, "design file (default: stdin)")
OUT = (("--out", "-o"), "out", None, None, None, False, "output path (default: stdout)")
MODEL = (("--model",), "model", None, None, None, True, MODEL_HELP)
REDUCTION = (("--reduction",), "reduction", "cyclic", None, ("cyclic", "keep_all"), False, None)
FORMAT = (("--format",), "format", "rational", None, None, False, FORMAT_HELP)
PARSER_SURFACE = {
    "generate": [
        (("--base",), "base", None, None, ("lattice", "centroid"), True, None),
        FORMAT,
        (("--m",), "m", None, "int", None, True, "number of components"),
        OUT,
        (("--w",), "w", None, "int", None, False, "lattice degree (lattice base only)"),
    ],
    "project": [
        (("--drop",), "drop", None, None, None, True, "comma-separated 1-based columns to delete"),
        FORMAT,
        INPUT,
        OUT,
    ],
    "expand": [
        FORMAT,
        INPUT,
        OUT,
    ],
    "cross": [
        FORMAT,
        INPUT,
        (("--levels",), "levels", None, None, None, True, "comma-separated exact levels, e.g. 0.75,1.5,3"),
        OUT,
    ],
    "scale": [
        (("--a-max",), "a_max", None, None, None, True, "positive exact scale, e.g. 500"),
        FORMAT,
        INPUT,
        OUT,
    ],
    "matrix": [
        (("--coding",), "coding", "raw", None, ("raw", "coded"), False, None),
        INPUT,
        MODEL,
        OUT,
        REDUCTION,
    ],
    "evaluate": [
        (("--alpha",), "alpha", 0.05, "float", None, False, None),
        (("--coding",), "coding", "coded", None, ("coded", "raw"), False, None),
        INPUT,
        MODEL,
        OUT,
        REDUCTION,
        (("--signal",), "signal", 2.0, "float", None, False, "signal size in error SDs"),
    ],
    "fds": [
        (("--amounts",), "amounts", "continuous", None, None, False, "continuous (design range), discrete (design levels), or LO:HI"),
        INPUT,
        MODEL,
        OUT,
        REDUCTION,
        (("--samples",), "samples", 100000, "int", None, False, None),
        (("--seed",), "seed", 7, "int", None, False, None),
        (("--signs",), "signs", "orderings", None, ("orderings", "continuous"), False, None),
    ],
    "power": [
        (("--alpha",), "alpha", 0.05, "float", None, False, None),
        (("--coding",), "coding", "coded", None, ("coded", "raw"), False, None),
        INPUT,
        MODEL,
        OUT,
        REDUCTION,
        (("--signal",), "signal", None, "float", None, True, "signal size in error SDs"),
        (("--term",), "term", None, None, None, False, "report a single term label (default: all terms)"),
    ],
    "demo": [
        (("--out",), "out", None, None, None, False, "output directory (default: $OAMIX_OUT or ./oamix-demo)"),
        (("--samples",), "samples", 100000, "int", None, False, None),
        (("--seed",), "seed", 7, "int", None, False, None),
        ((), "suite", "paper", None, ("paper",), False, "demo suite name (default: paper)"),
    ],
}


def test_parser_surface_is_pinned():
    """Every subcommand's options, with their flags, dest, default, type,
    choices, required flag and help text; --help may list them in any order."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(PARSER_SURFACE)
    for name, expected in PARSER_SURFACE.items():
        options = [
            (tuple(a.option_strings), a.dest, a.default, a.type and a.type.__name__, a.choices, a.required, a.help)
            for a in subparsers.choices[name]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert sorted(options, key=lambda row: row[1]) == expected, name
