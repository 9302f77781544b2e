"""Exact rational model rows and linear algebra: the references for the
float term evaluator and the factorization behind every criterion, plus
a numeric-integration reference for the power routine.

Every term is the exact product of its component powers, its sign factor
and its power of the total amount, with pairs in the file format's
lexicographic sign-column order.  M = X'X, its inverse, determinant and
the leverages f' M^-1 f are computed over the rationals.
"""

from fractions import Fraction

import numpy as np
from scipy import integrate, stats


def nct_power_oracle(delta: float, df: int, alpha: float) -> float:
    """Two-sided noncentral-t power by integrating the noncentral-t density
    directly; pins the library routine to 1e-6 absolute accuracy."""
    tcrit = stats.t.ppf(1.0 - alpha / 2.0, df)

    def density(x):
        return stats.nct.pdf(x, df, delta)

    upper, _ = integrate.quad(density, tcrit, np.inf, limit=200)
    lower, _ = integrate.quad(density, -np.inf, -tcrit, limit=200)
    return float(upper + lower)


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


def exact_gram(rows):
    p = len(rows[0])
    M = [[Fraction(0)] * p for _ in range(p)]
    for row in rows:
        nz = [(j, v) for j, v in enumerate(row) if v]
        for a, va in nz:
            for b, vb in nz:
                M[a][b] += va * vb
    return M


def exact_inverse(M):
    """Gauss-Jordan inverse over the rationals."""
    p = len(M)
    A = [list(row) + [Fraction(int(i == j)) for j in range(p)] for i, row in enumerate(M)]
    for c in range(p):
        r = next(r for r in range(c, p) if A[r][c] != 0)
        A[c], A[r] = A[r], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(p):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [v - f * w for v, w in zip(A[r], A[c])]
    return [row[p:] for row in A]


def exact_det(M):
    """Determinant of a positive definite M over the rationals: the product
    of its Gaussian-elimination pivots, which need no row exchanges."""
    A = [list(row) for row in M]
    det = Fraction(1)
    for c in range(len(A)):
        det *= A[c][c]
        for r in range(c + 1, len(A)):
            if A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [v - f * w for v, w in zip(A[r], A[c])]
    return det


def exact_leverages(rows, Minv=None):
    """f' M^-1 f for each row f; M^-1 is taken from the rows unless given."""
    if Minv is None:
        Minv = exact_inverse(exact_gram(rows))
    out = []
    for row in rows:
        nz = [(j, v) for j, v in enumerate(row) if v]
        out.append(sum(va * vb * Minv[a][b] for a, va in nz for b, vb in nz))
    return out
