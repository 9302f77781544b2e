"""Run lists that no Design holds, as a file and a walk see them.

A Design is checked when it is built, so a faulty run list exists only as
runs.  `runs_text` writes it as ``write_design`` writes a design of those
runs, for the reader, and `first_fault` is the plain walk of
``validate_run`` over it: the answer that building the Design and reading
the file must both give.
"""

from __future__ import annotations

from oamix import OamixError, validate_run
from oamix.io import _columns


def runs_text(m: int, kind, runs) -> str:
    """The design file of `runs`, m components of `kind`, in the rational
    format: the header of the first run's shape, then one row per run of
    each value's ``str``, as the writer renders a valid design."""
    first = runs[0]
    header = _columns(kind, m, first.pwo is not None, first.amount is not None)
    rows = [
        ",".join(map(str, (*run.point.values, *(run.pwo or ()), *(() if run.amount is None else (run.amount,)))))
        for run in runs
    ]
    return "\n".join([",".join(header), *rows]) + "\n"


def first_fault(runs) -> tuple[int, OamixError] | None:
    """The 1-based number and error of the first run ``validate_run``
    refuses, or None when it refuses none."""
    for n, run in enumerate(runs, start=1):
        try:
            validate_run(run)
        except OamixError as exc:
            return n, exc
    return None
