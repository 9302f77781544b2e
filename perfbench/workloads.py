"""The two workloads: their inputs, op lists, output checks and layer probes.

Importing this module imports oamix, so a workload process's set-up time is
the time to import this module and construct one of the classes below.

Each workload has
  run_pass(p)     the fixed op list, every call timed by `Pass.op`;
  check(p)        the output checks for a finished pass, and its counts;
  probe(p, src)   calls into single layers after a traced pass `src`, to
                  time what the pass's ops do inside (traced runs only);
                  paper-study's probe also runs the CLI pipelines, which
                  time the cli layer;
  close()         removal of the files the passes wrote;
  design_spans    span prefixes of the ops design_runs_per_cal divides by.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oamix as ox
from oamix.errors import ConstantColumn
from oamix.models import coded_model_matrix

import checks
from passes import Pass

TABLES = ("table1", "table2", "table3", "table5")
TABLE3_LEVELS = (Fraction(3, 4), Fraction(3, 2), Fraction(3))
ALPHA = 0.05
SUBPROCESS_TIMEOUT_S = 120

IMPORT_PROBES = (
    ("interp.bare", "pass"),
    ("import.oamix", "import oamix"),
    ("import.oamix_cli", "import oamix.cli"),
)


def packaged_tables(root: Path) -> dict[str, str]:
    return {name: (root / "src" / "oamix" / "data" / f"{name}.csv").read_text() for name in TABLES}


def run_python(argv: list[str], stdout=subprocess.DEVNULL) -> None:
    proc = subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}")


def probe_imports(p: Pass) -> None:
    """Interpreter start alone, then with each import, as fresh processes."""
    for span, code in IMPORT_PROBES:
        p.op(span, span, run_python, ["-c", code])


def r2_all(term) -> list[float]:
    out = []
    for j in range(term.X.shape[1]):
        try:
            out.append(ox.r2_multicollinearity(term.X, j))
        except ConstantColumn:
            out.append(float("nan"))
    return out


def power_all(term, signal_sd: float) -> list[float]:
    return [ox.power(term, j, signal_sd=signal_sd, alpha=ALPHA) for j in range(term.X.shape[1])]


def _same(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-9, atol=1e-12, equal_nan=True))


def probe_evaluation(p: Pass, key: str, design, spec, coding: str, signal_sd: float, report) -> None:
    """Time the parts of one evaluate_design call through the public API and
    check each part against the report the call produced."""
    first = len(p.ops)
    mm = p.op(f"{key}: model_matrix", "models.model_matrix", ox.model_matrix, design, spec)
    if coding == "coded":
        term = p.op(f"{key}: coded_model_matrix", "models.coded_model_matrix", coded_model_matrix, design, spec)
    else:
        term = mm
    lev = p.op(f"{key}: leverages", "evaluate.leverages", ox.leverages, mm)
    se = p.op(f"{key}: std_errors", "evaluate.std_errors", ox.std_errors, term)
    dc = p.op(f"{key}: d_criteria", "evaluate.d_criteria", ox.d_criteria, term)
    r2 = p.op(f"{key}: r2", "evaluate.r2", r2_all, term)
    pw = p.op(f"{key}: power", "evaluate.power", power_all, term, signal_sd)

    built = [mm] if coding == "raw" else [mm, term]
    p.counts["models.cells"] += sum(matrix.X.size for matrix in built if matrix is not None)
    if report is None:
        for op in p.ops[first:]:
            p.check(op.key, False, "the evaluate_design call it is compared with failed")
        return
    n, q = report.n_runs, report.n_params
    p.counts["evaluate.terms"] += q
    p.check(f"{key}: model_matrix", mm is not None and mm.X.shape == (n, q), "shape differs from the report")
    if term is not mm:
        p.check(f"{key}: coded_model_matrix", term is not None and term.X.shape == (n, q), "shape differs")
    p.check(
        f"{key}: leverages",
        lev is not None and checks.close(float(np.max(lev)), report.max_pv, 1e-9)
        and checks.close(float(np.sum(lev)), q, 1e-6),
        "max or sum of leverages differs from the report",
    )
    p.check(f"{key}: std_errors", se is not None and _same(se, [t.se for t in report.terms]), "SE differ")
    p.check(
        f"{key}: d_criteria",
        dc is not None and checks.close(dc["log_det"], report.d_criteria["log_det"], 1e-9),
        "log det differs from the report",
    )
    p.check(f"{key}: r2", r2 is not None and _same(r2, [t.r2 for t in report.terms]), "R^2 differ")
    p.check(f"{key}: power", pw is not None and _same(pw, [t.power for t in report.terms]), "power differs")


def count_io(p: Pass, text, design) -> None:
    """One write and one read of the same rows."""
    if isinstance(text, str) and design is not None:
        p.counts["io.rows"] += 2 * len(design)
        p.counts["io.bytes"] += 2 * len(text.encode())


class PaperStudy:
    """Tables 1/2/3/5, the two studies' evaluations and four FDS curves."""

    design_spans = ("simplex.", "oofa.", "io.")
    BUILT_BY = {"table1": "expand table1", "table2": "expand table2", "table3": "cross table3", "table5": "scale table5"}

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.packaged = packaged_tables(root)
        self.cli = PaperCli(root, seed, smoke)
        spec6 = ox.build_spec("eq6", 3)
        spec8 = ox.build_spec("eq8", 3)
        self.samples = 1000 if smoke else 100_000
        self.evaluations = (
            ("evaluate table3 eq6 coded", "table3", spec6, "coded", 0.5, "table3-eq6"),
            ("evaluate table3 eq6 raw", "table3", spec6, "raw", 0.5, "table3-eq6"),
            ("evaluate table5 eq8 coded", "table5", spec8, "coded", 2.0, "table5-eq8"),
            ("evaluate table5 eq8 raw", "table5", spec8, "raw", 2.0, "table5-eq8"),
        )
        rng = random.Random(seed)
        discrete = ox.DiscreteAmounts(tuple(float(a) for a in TABLE3_LEVELS))
        self.fds = tuple(
            (key, span, table, spec, kwargs, rng.randrange(2**31), config)
            for key, span, table, spec, kwargs, config in (
                ("fds table3 eq6 orderings", "evaluate.fds_orderings", "table3", spec6, {}, "table3-eq6-orderings"),
                ("fds table5 eq8 orderings", "evaluate.fds_orderings", "table5", spec8, {}, "table5-eq8-orderings"),
                (
                    "fds table5 eq8 continuous signs",
                    "evaluate.fds_continuous_signs",
                    "table5",
                    spec8,
                    {"sign_policy": "continuous"},
                    "table5-eq8-continuous-signs",
                ),
                (
                    "fds table3 eq6 discrete amounts",
                    "evaluate.fds_discrete_amounts",
                    "table3",
                    spec6,
                    {"amount_policy": discrete},
                    "table3-eq6-discrete-amounts",
                ),
            )
        )

    def run_pass(self, p: Pass) -> None:
        base = p.op("lattice 3 3", "simplex.lattice", ox.simplex_lattice, 3, 3)
        t1 = p.op("expand table1", "oofa.expand", ox.oofa_expand, base)
        cen = p.op("centroid 4", "simplex.centroid", ox.simplex_centroid, 4)
        proj = p.op("project drop 4", "simplex.project", ox.project_columns, cen, {4})
        t2 = p.op("expand table2", "oofa.expand", ox.oofa_expand, proj)
        t3 = p.op("cross table3", "oofa.cross", ox.cross_amounts, t1, TABLE3_LEVELS)
        t5 = p.op("scale table5", "oofa.scale", ox.scale_amounts, t2, 500)
        designs = {"table1": t1, "table2": t2, "table3": t3, "table5": t5}
        for name, design in designs.items():
            text = p.op(f"write {name}", "io.write", ox.write_design, design)
            p.op(f"read {name}", "io.read", ox.read_design, text)
        for key, table, spec, coding, signal, _ in self.evaluations:
            p.op(key, "evaluate.evaluate_design", ox.evaluate_design, designs[table], spec,
                 signal_sd=signal, alpha=ALPHA, coding=coding)
        for key, span, table, spec, kwargs, seed, _ in self.fds:
            p.op(key, span, ox.fds_curve, designs[table], spec, self.samples, seed, **kwargs)

    def check_determinism(self, p: Pass, src: Pass) -> None:
        """Each FDS curve of pass `src` again with two workers: it must be bit-identical."""
        for key, span, table, spec, kwargs, seed, _ in self.fds:
            first = src.result(key)
            again = p.op(f"{key} workers=2", span, ox.fds_curve, src.result(self.BUILT_BY[table]), spec,
                         self.samples, seed, workers=2, **kwargs)
            p.check(
                f"{key} workers=2",
                first is not None and again is not None and np.array_equal(first.variances, again.variances),
                "curve with workers=2 differs from workers=1",
            )

    def check(self, p: Pass) -> None:
        p.check("lattice 3 3", len(p.result("lattice 3 3") or ()) == 10, "lattice(3,3) needs 10 points")
        p.check("centroid 4", len(p.result("centroid 4") or ()) == 15, "centroid(4) needs 15 points")
        p.check("project drop 4", len(p.result("project drop 4") or ()) == 15, "projection keeps 15 runs")
        for name in TABLES:
            design = p.result(self.BUILT_BY[name])
            text = p.result(f"write {name}")
            p.check(f"write {name}", text == self.packaged[name], f"not byte-equal to the packaged {name}.csv")
            p.check(f"read {name}", design is not None and p.result(f"read {name}") == design,
                    "read-back design differs from the one written")
            count_io(p, text, design)
            if design is not None:
                p.counts["design_rows"] += len(design)
        for key in ("expand table1", "expand table2", "cross table3", "scale table5"):
            p.counts["oofa.runs"] += len(p.result(key) or ())
        for key, _table, _spec, _coding, _signal, study in self.evaluations:
            report = p.result(key)
            problems = checks.report_problems(report.to_dict(), study) if report is not None else ["no report"]
            for problem in problems:
                p.check(key, False, problem)
        for key, _span, _table, _spec, _kwargs, _seed, config in self.fds:
            curve = p.result(key)
            problems = checks.fds_problems(curve.variances, self.samples, config) if curve is not None else ["no curve"]
            for problem in problems:
                p.check(key, False, problem)
            p.counts["evaluate.fds_samples"] += self.samples

    def probe(self, p: Pass, src: Pass) -> None:
        for key, table, spec, coding, signal, _ in self.evaluations:
            probe_evaluation(p, key, src.result(self.BUILT_BY[table]), spec, coding, signal, src.result(key))
        self.cli.run_pass(p)
        self.cli.check(p)
        self.cli.probe(p)

    def close(self) -> None:
        self.cli.close()


class Scale:
    """An m = 6 study: 2448 crossed runs under eq5 and 651 scaled runs under eq8."""

    design_spans = ("simplex.", "oofa.", "io.")
    # The seed orders a fixed set of crossing levels, which orders the crossed
    # runs, rather than drawing the levels' values, so that every seed does
    # the same exact-rational arithmetic: the fastest of seven evaluate_design
    # calls under eq5 was within 3% across the six orders.
    LEVELS = (Fraction(1, 2), Fraction(5, 4), Fraction(2))

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.levels = tuple(random.Random(seed).sample(self.LEVELS, len(self.LEVELS)))
        if smoke:
            self.m, self.w = 4, 3
            self.expect = {"lattice": 20, "expand": 52, "cross": 156, "p5": 20, "centroid": 15, "expand2": 31, "p8": 16}
        else:
            self.m, self.w = 6, 4
            self.expect = {"lattice": 126, "expand": 816, "cross": 2448, "p5": 42, "centroid": 63, "expand2": 651, "p8": 36}
        self.spec5 = ox.build_spec("eq5", self.m)
        self.spec8 = ox.build_spec("eq8", self.m - 1)

    def run_pass(self, p: Pass) -> None:
        lattice = p.op("lattice", "simplex.lattice", ox.simplex_lattice, self.m, self.w)
        expanded = p.op("expand lattice", "oofa.expand", ox.oofa_expand, lattice)
        crossed = p.op("cross", "oofa.cross", ox.cross_amounts, expanded, self.levels)
        text = p.op("write crossed", "io.write", ox.write_design, crossed)
        back = p.op("read crossed", "io.read", ox.read_design, text)
        p.op("validate crossed", "oofa.validate", ox.validate_design, back)
        p.op("evaluate eq5", "evaluate.evaluate_design", ox.evaluate_design, back, self.spec5)
        centroid = p.op("centroid", "simplex.centroid", ox.simplex_centroid, self.m)
        projected = p.op("project", "simplex.project", ox.project_columns, centroid, {self.m})
        expanded2 = p.op("expand centroid", "oofa.expand", ox.oofa_expand, projected)
        scaled = p.op("scale", "oofa.scale", ox.scale_amounts, expanded2, 500)
        text2 = p.op("write scaled", "io.write", ox.write_design, scaled)
        back2 = p.op("read scaled", "io.read", ox.read_design, text2)
        p.op("evaluate eq8", "evaluate.evaluate_design", ox.evaluate_design, back2, self.spec8)

    def check(self, p: Pass) -> None:
        e = self.expect
        for key, want in (("lattice", e["lattice"]), ("expand lattice", e["expand"]), ("cross", e["cross"]),
                          ("centroid", e["centroid"]), ("project", e["centroid"]),
                          ("expand centroid", e["expand2"]), ("scale", e["expand2"])):
            got = len(p.result(key) or ())
            p.check(key, got == want, f"{got} runs, expected {want}")
        crossed, scaled, expanded2 = p.result("cross"), p.result("scale"), p.result("expand centroid")
        p.check(
            "cross",
            crossed is not None and crossed.amount_levels == self.LEVELS
            and crossed.runs[0].amount == self.levels[0] and crossed.runs[-1].amount == self.levels[-1],
            "levels or their order differ from the input",
        )
        p.check(
            "scale",
            scaled is not None and expanded2 is not None
            and all(a.amount * 500 == b.amount for a, b in zip(expanded2.runs, scaled.runs)),
            "amounts are not 500 times the unscaled ones",
        )
        for write, read, design in (("write crossed", "read crossed", crossed), ("write scaled", "read scaled", scaled)):
            text = p.result(write)
            p.check(write, isinstance(text, str) and text.count("\n") == len(design or ()) + 1, "row count differs")
            p.check(read, design is not None and p.result(read) == design, "read-back design differs")
            count_io(p, text, design)
        p.check("validate crossed", p.by_key["validate crossed"].error is None, "validation failed")
        for key, n, q in (("evaluate eq5", e["cross"], e["p5"]), ("evaluate eq8", e["expand2"], e["p8"])):
            report = p.result(key)
            ok = (report is not None and report.n_runs == n and report.n_params == q
                  and checks.close(report.avg_pv, q / n, checks.EXACT_TOL) and math.isfinite(report.max_pv))
            p.check(key, ok, f"expected N={n}, p={q} and avg_pv = p/N")
        for key in ("expand lattice", "cross", "expand centroid", "scale"):
            p.counts["oofa.runs"] += len(p.result(key) or ())
        p.counts["design_rows"] += len(crossed or ()) + len(scaled or ())

    def probe(self, p: Pass, src: Pass) -> None:
        probe_evaluation(p, "evaluate eq5", src.result("read crossed"), self.spec5, "coded", 2.0,
                         src.result("evaluate eq5"))
        probe_evaluation(p, "evaluate eq8", src.result("read scaled"), self.spec8, "coded", 2.0,
                         src.result("evaluate eq8"))

    def close(self) -> None:
        pass


class PaperCli:
    """The README pipelines and `oamix demo paper`, one subprocess per command.

    Not a workload of its own: a pass takes about 16 s, nearly all of it
    interpreter start and imports, whose time drifts with the host by up to
    1.5x over minutes, so too few passes fit in a run to give a steady
    figure.  paper-study's traced rounds run it to time the cli layer.

    Stages run in sequence, each reading the file the stage before wrote, so
    every command's time is its own, interpreter start included.
    """

    DESIGN_FILES = {
        "p1 generate": ("digest", "generate lattice 3 3"),
        "p1 expand": ("table", "table1"),
        "p2 generate": ("digest", "generate lattice 3 3"),
        "p2 expand": ("table", "table1"),
        "p2 cross": ("table", "table3"),
        "p3 generate": ("digest", "generate centroid 4"),
        "p3 project": ("digest", "project drop 4"),
        "p3 expand": ("table", "table2"),
        "p3 scale": ("table", "table5"),
    }

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.work = root / ".perfbench" / f"paper-cli-{os.getpid()}"
        self.packaged = packaged_tables(root)
        rng = random.Random(seed)
        self.fds_seed = rng.randrange(2**31)
        self.demo_seed = rng.randrange(2**31)
        self.samples = 1000 if smoke else 100_000
        lattice = ["generate", "--base", "lattice", "--m", "3", "--w", "3"]
        samples = ["--samples", str(self.samples)]
        # (op key, command, op key of the stage whose output is the input)
        self.stages = (
            ("p1 generate", lattice, None),
            ("p1 expand", ["expand"], "p1 generate"),
            ("p2 generate", lattice, None),
            ("p2 expand", ["expand"], "p2 generate"),
            ("p2 cross", ["cross", "--levels", "0.75,1.5,3"], "p2 expand"),
            ("p2 evaluate", ["evaluate", "--model", "eq6", "--signal", "0.5"], "p2 cross"),
            ("p3 generate", ["generate", "--base", "centroid", "--m", "4"], None),
            ("p3 project", ["project", "--drop", "4"], "p3 generate"),
            ("p3 expand", ["expand"], "p3 project"),
            ("p3 scale", ["scale", "--a-max", "500"], "p3 expand"),
            ("p3 fds", ["fds", "--model", "eq8", *samples, "--seed", str(self.fds_seed)], "p3 scale"),
            ("demo", ["demo", "paper", "--out", str(self.work / "demo"), *samples, "--seed", str(self.demo_seed)],
             None),
        )

    def _path(self, key: str) -> Path:
        return self.work / (key.replace(" ", "_") + ".out")

    def _run(self, key: str, command: list[str], source: str | None) -> None:
        argv = ["-m", "oamix.cli", *command]
        if source is not None:
            argv += ["--input", str(self._path(source))]
        with open(self._path(key), "wb") as out:
            run_python(argv, stdout=out)

    def run_pass(self, p: Pass) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for key, command, source in self.stages:
            p.op(key, f"cli.{command[0]}", self._run, key, command, source)

    def _read(self, path: Path) -> str | None:
        try:
            return path.read_text()
        except OSError:
            return None

    def check(self, p: Pass) -> None:
        for key, (how, ref) in self.DESIGN_FILES.items():
            text = self._read(self._path(key))
            if how == "table":
                ok = text == self.packaged[ref]
            else:
                ok = text is not None and hashlib.sha256(text.encode()).hexdigest() == checks.DIGESTS[ref]
            p.check(key, ok, f"output differs from {ref}")
        self._check_report(p, "p2 evaluate", self._path("p2 evaluate"), "table3-eq6")
        self._check_fds(p, "p3 fds", self._path("p3 fds"), "table5-eq8-orderings", self.fds_seed)
        demo = self.work / "demo"
        for name in TABLES:
            p.check("demo", self._read(demo / f"{name}.csv") == self.packaged[name], f"demo {name}.csv differs")
        self._check_report(p, "demo", demo / "example1_report.json", "table3-eq6")
        self._check_report(p, "demo", demo / "example2_report.json", "table5-eq8")
        self._check_fds(p, "demo", demo / "example1_fds.txt", "table3-eq6-orderings", self.demo_seed)
        self._check_fds(p, "demo", demo / "example2_fds.txt", "table5-eq8-orderings", self.demo_seed)

    def _check_report(self, p: Pass, key: str, path: Path, study: str) -> None:
        text = self._read(path)
        try:
            report = json.loads(text) if text is not None else None
        except json.JSONDecodeError:
            report = None
        problems = checks.report_problems(report, study) if isinstance(report, dict) else ["no JSON report"]
        for problem in problems:
            p.check(key, False, f"{path.name}: {problem}")

    def _check_fds(self, p: Pass, key: str, path: Path, config: str, seed: int) -> None:
        text = self._read(path)
        if text is None:
            p.check(key, False, f"{path.name} missing")
            return
        header, variances = checks.parse_fds_text(text)
        p.check(key, f"seed={seed} samples={self.samples}" in header, f"{path.name} header {header!r}")
        for problem in checks.fds_problems(variances, self.samples, config):
            p.check(key, False, f"{path.name}: {problem}")

    def probe(self, p: Pass) -> None:
        """Read, validate and write again each design a stage wrote: the io
        work the next stage's process does."""
        for key in self.DESIGN_FILES:
            text = self._read(self._path(key))
            design = p.op(f"{key}: read", "io.read", ox.read_design, text)
            p.op(f"{key}: validate", "oofa.validate", ox.validate_design, design)
            again = p.op(f"{key}: write", "io.write", ox.write_design, design)
            p.check(f"{key}: write", text is not None and again == text, "write(read(file)) differs from the file")
            count_io(p, text, design)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"paper-study": PaperStudy, "scale": Scale}
