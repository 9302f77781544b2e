"""Exact rational model rows: the reference for the float term evaluator.

Every term is the exact product of its component powers, its sign factor
and its power of the total amount, with pairs in the file format's
lexicographic sign-column order.
"""

from fractions import Fraction


def design_cells(design, code=lambda a: a):
    """(proportions, signs, amount) per run, with the amount recoded."""
    return [(run.point.values, run.pwo, None if run.amount is None else code(run.amount))
            for run in design.runs]


def exact_model_rows(cells, terms, m):
    pairs = [(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)]
    rows = []
    for comps, signs, amount in cells:
        row = []
        for term in terms:
            v = Fraction(1)
            for i, p in term.comp_powers:
                v *= comps[i - 1] ** p
            if term.pwo_pair is not None:
                v *= signs[pairs.index(term.pwo_pair)]
            if term.amount_power:
                v *= amount**term.amount_power
            row.append(v)
        rows.append(row)
    return rows
