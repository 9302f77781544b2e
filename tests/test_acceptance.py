"""Acceptance suite: one test per criterion, one printed line per sub-check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Where a statistic of the crossed three-level study (criteria 3 and 8) or
the amount study's FDS curve (criterion 7) follows from the printed design,
the test derives it independently, by exact rational arithmetic or by the
numeric-integration power oracle, and asserts that the program gives it to
1e-12 (1e-6 for power).  Three reference figures documented for these
studies differ from what the printed designs give; each is printed as an
``[INFO]`` line with its gap, and the test asserts the derivation that
shows why the printed design cannot give it:

* maximum prediction variance 0.761 and G-efficiency 75.1%: the exact hat
  matrix of the 63 x 36 matrix has maximum 97/126 = 0.7698, so G is
  100 * 72/97 = 74.23%.  The amount block {1, A, A^2} is saturated on three
  crossed levels, so the leverages are those of the 21-run mixture-order
  block, which no coding of A touches, and every membership reduction of
  the order interactions gives the same maximum;
* x1 power 10.2%: it needs SE(x1) = 0.36, while the lowest SE(x1) over all
  translations of the amount coding is 0.646 under every membership
  reduction;
* "the majority of the FDS curve lies below 0.96": this holds when sign
  factors are sampled as continuous [-1, 1] numerics (0.57), but not over
  realizable addition orders (0.11), the default sampler.

Everything else reproduces within the stated tolerances.
"""

import time
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, isclose, sqrt

import numpy as np

from oamix import (
    build_spec,
    cross_amounts,
    d_criteria,
    fds_curve,
    g_efficiency,
    leverages,
    model_matrix,
    oofa_expand,
    ordering_from_pwo,
    power,
    project_columns,
    pwo_from_ordering,
    pwo_pairs,
    r2_multicollinearity,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
    std_errors,
)
from oamix.core import DesignPoint, Kind
from scipy.optimize import brentq
from oamix.evaluate import _nct_two_sided
from oamix.io import round_half_up
from oamix.models import coded_model_matrix

from exact_terms import (
    design_cells,
    exact_gram,
    exact_inverse,
    exact_leverages,
    exact_model_rows,
    nct_power_oracle,
)
from golden_rows import TABLE1, TABLE2, TABLE3, TABLE5, parse_rows


def run_checks(criterion, checks):
    for label, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {criterion} {label}: {detail}")
    failed = [f"{label} ({detail})" for label, ok, detail in checks if not ok]
    assert not failed, f"{criterion}: {len(failed)} failed: " + "; ".join(failed)


def design_rows(design, decimals):
    rows = []
    for run in design.runs:
        if decimals is None:
            cells = list(run.point.values)
        else:
            cells = [round_half_up(v, decimals) for v in run.point.values]
        cells += [Fraction(z) for z in run.pwo]
        if run.amount is not None:
            cells.append(run.amount if decimals is None else round_half_up(run.amount, decimals))
        rows.append(tuple(cells))
    return sorted(rows)


# The order-interaction reductions: three (member, pair) choices, pairs in
# the file format's lexicographic sign-column order.
MEMBERSHIP_REDUCTIONS = list(
    combinations([(i, pair) for pair in ((1, 2), (1, 3), (2, 3)) for i in pair], 3)
)


def amount_free(spec):
    """The terms of a mixture-amount spec that do not involve A."""
    return [term for term in spec.terms if term.amount_power == 0]


def min_quadratic_form(V):
    """min over real c of g' V g with g = (1, c, c^2), V positive definite."""
    coef = [sum(V[a][b] for a in range(3) for b in range(3) if a + b == k) for k in range(5)]
    slope = [float(k * coef[k]) for k in range(4, 0, -1)]
    return min(sum(float(ck) * r.real**k for k, ck in enumerate(coef))
               for r in np.roots(slope) if abs(r.imag) < 1e-9)


def test_criterion_1_construction_goldens(table1, table2, table3, table5):
    t0 = time.perf_counter()
    d1 = oofa_expand(simplex_lattice(3, 3))
    d2 = oofa_expand(project_columns(simplex_centroid(4), {4}))
    d3 = cross_amounts(d1, [Fraction(3, 4), Fraction(3, 2), Fraction(3)])
    d5 = scale_amounts(d2, 500)
    elapsed = time.perf_counter() - t0
    run_checks(
        "criterion 1",
        [
            ("table1", design_rows(d1, 2) == parse_rows(TABLE1), f"{len(d1)} rows at 2 decimals"),
            ("table2", design_rows(d2, None) == parse_rows(TABLE2), f"{len(d2)} rows exact"),
            ("table3", design_rows(d3, 2) == parse_rows(TABLE3), f"{len(d3)} rows at 2 decimals"),
            ("table5", design_rows(d5, 1) == parse_rows(TABLE5), f"{len(d5)} rows at 1 decimal"),
            ("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"),
        ],
    )


def test_criterion_2_counting_laws():
    checks = []
    lattice_ok = True
    for m in range(2, 7):
        for w in range(1, 7):
            expected = sorted(
                tuple(Fraction(k, w) for k in combo)
                for combo in product(range(w + 1), repeat=m)
                if sum(combo) == w
            )
            d = simplex_lattice(m, w)
            if len(d) != comb(m + w - 1, w) or sorted(r.point.values for r in d.runs) != expected:
                lattice_ok = False
    checks.append(("lattice counts", lattice_ok, "binom(m+w-1,w) vs brute force, m,w <= 6"))
    centroid_ok = True
    for m in range(2, 7):
        subsets = [s for r in range(1, m + 1) for s in combinations(range(1, m + 1), r)]
        if len(simplex_centroid(m)) != 2**m - 1 or len(subsets) != 2**m - 1:
            centroid_ok = False
    checks.append(("centroid counts", centroid_ok, "2^m - 1 vs subset enumeration, m <= 6"))
    levels = project_columns(simplex_centroid(4), {4}).amount_levels
    expected_levels = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))
    checks.append(("projection levels", levels == expected_levels, f"{levels}"))
    run_checks("criterion 2", checks)


def test_criterion_3_example1_evaluation(table1, table3, spec6):
    """The crossed study's leverage criteria, each against an exact
    derivation: the hat matrix of the 63 x 36 matrix in rationals (trace 36,
    maximum 97/126, so G = 100 * 72/97 = 74.23%); its leverages equal the
    21-run mixture-order block's, because {1, A, A^2} is saturated on three
    crossed levels, so amount coding cannot move them; and all 20 choices of
    three membership interactions give the same maximum.  The documented
    0.761 and 75.1% are printed with their gaps: the printed design cannot
    give them, and neither can its two-decimal display."""
    t0 = time.perf_counter()
    lev = leverages(model_matrix(table3, spec6))
    elapsed = time.perf_counter() - t0
    max_pv = float(lev.max())
    avg_pv = float(lev.mean())
    g = g_efficiency(36, 63, max_pv)
    coding_gap = float(np.abs(lev - leverages(coded_model_matrix(table3, spec6))).max())

    exact = exact_leverages(exact_model_rows(design_cells(table3), spec6.terms, 3))
    exact_max = max(exact)
    g_exact = Fraction(100 * 36, 63) / exact_max
    block = exact_leverages(exact_model_rows(design_cells(table1), amount_free(spec6), 3))
    block_of = {(run.point.values, run.pwo): h for run, h in zip(table1.runs, block)}
    saturated = all(h == block_of[run.point.values, run.pwo] for run, h in zip(table3.runs, exact))

    reduction_maxima = set()
    reduction_gap = 0.0
    for reduction in MEMBERSHIP_REDUCTIONS:
        spec = build_spec("eq6", 3, reduction=list(reduction))
        rows = exact_model_rows(design_cells(table1), amount_free(spec), 3)
        reduction_maxima.add(max(exact_leverages(rows)))
        program = float(leverages(model_matrix(table3, spec)).max())
        reduction_gap = max(reduction_gap, abs(program - float(exact_max)))

    display = [(r[:3], r[3:6], r[6]) for r in parse_rows(TABLE3)]
    display_rows = np.array(exact_model_rows(display, spec6.terms, 3), dtype=float)
    display_max = float(leverages(display_rows).max())
    print(f"[INFO] criterion 3 documented max_pv 0.761: the printed design gives "
          f"{exact_max} = {float(exact_max):.4f} (gap {float(exact_max) - 0.761:+.4f}); "
          f"its two-decimal display gives {display_max:.4f}")
    print(f"[INFO] criterion 3 documented G-efficiency 75.1%: the printed design gives "
          f"{float(g_exact):.2f}% (gap {float(g_exact) - 75.1:+.2f})")
    run_checks(
        "criterion 3",
        [
            ("avg_pv", abs(avg_pv - 36 / 63) <= 1e-8, f"{avg_pv:.6f} == 36/63"),
            ("exact hat matrix", sum(exact) == 36 and exact_max == Fraction(97, 126),
             f"trace {sum(exact)}, max {exact_max} in rationals"),
            ("max_pv", abs(max_pv - float(exact_max)) <= 1e-12,
             f"{max_pv:.12f} vs exact {exact_max}, gap {abs(max_pv - float(exact_max)):.1e}"),
            ("g_efficiency", isclose(g, float(g_exact), rel_tol=1e-12, abs_tol=0.0),
             f"{g:.10f}% vs exact {g_exact} (relative 1e-12)"),
            ("amount block saturated", saturated,
             "each of the 63 exact leverages equals its 21-run block leverage"),
            ("coding invariance", coding_gap <= 1e-12,
             f"raw vs coded leverage gap {coding_gap:.1e}"),
            ("reductions", reduction_maxima == {exact_max} and reduction_gap <= 1e-12,
             f"{len(MEMBERSHIP_REDUCTIONS)} membership reductions: exact maxima "
             f"{sorted(map(str, reduction_maxima))}, program gap {reduction_gap:.1e}"),
            ("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"),
        ],
    )


def test_criterion_4_example2_evaluation(table2, table5, spec8):
    t0 = time.perf_counter()
    lev_unit = leverages(model_matrix(table2, spec8))
    lev_mg = leverages(model_matrix(table5, spec8))
    elapsed = time.perf_counter() - t0
    max_pv = float(lev_unit.max())
    avg_pv = float(lev_unit.mean())
    g = g_efficiency(16, 31, max_pv)
    coding_gap = float(np.abs(lev_unit - lev_mg).max())
    run_checks(
        "criterion 4",
        [
            ("max_pv", abs(max_pv - 0.96) <= 0.01, f"{max_pv:.4f} vs 0.96 +- 0.01"),
            ("avg_pv", abs(avg_pv - 16 / 31) <= 1e-8, f"{avg_pv:.6f} == 16/31"),
            ("g_efficiency", abs(g - 53.8) <= 0.3, f"{g:.2f}% vs 53.8 +- 0.3"),
            ("coding invariance", coding_gap <= 1e-8, f"unit vs mg leverage gap {coding_gap:.2e}"),
            ("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"),
        ],
    )


def test_criterion_5_multicollinearity(table2, spec8):
    X = coded_model_matrix(table2, spec8).X
    labels = coded_model_matrix(table2, spec8).col_labels
    j_a1, j_a11 = labels.index("a1"), labels.index("a11")
    r2_a1 = r2_multicollinearity(X, j_a1)
    r2_a11 = r2_multicollinearity(X, j_a11)
    rng = np.random.default_rng(17)
    D = np.diag(rng.uniform(0.05, 20.0, X.shape[1]))
    stable = max(
        abs(r2_multicollinearity(X @ D, j_a1) - r2_a1),
        abs(r2_multicollinearity(X @ D, j_a11) - r2_a11),
    )
    run_checks(
        "criterion 5",
        [
            ("R2 a1", abs(r2_a1 - 0.9645) <= 0.001, f"{r2_a1:.4f} vs 0.9645 +- 0.001"),
            ("R2 a1^2", abs(r2_a11 - 0.7966) <= 0.001, f"{r2_a11:.4f} vs 0.7966 +- 0.001"),
            ("rescaling invariance", stable <= 1e-9, f"max shift {stable:.2e} under diagonal rescale"),
        ],
    )


def test_criterion_6_pwo_properties(table1, table2):
    rng = np.random.default_rng(20260810)
    round_trip_ok = True
    masking_ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        ks = rng.integers(0, 4, size=m)
        point = DesignPoint(tuple(Fraction(int(k), 6) for k in ks), Kind.AMOUNT)
        support = point.support()
        ordering = tuple(int(c) for c in rng.permutation(support)) if support else ()
        z = pwo_from_ordering(point, ordering)
        if ordering_from_pwo(support, z) != ordering:
            round_trip_ok = False
        for (j, k), sign in zip(pwo_pairs(m), z):
            if (sign == 0) != (min(point.values[j - 1], point.values[k - 1]) == 0):
                masking_ok = False
    transitive_ok = True
    counts_ok = True
    for base in (simplex_lattice(3, 3), project_columns(simplex_centroid(4), {4}),
                 simplex_lattice(4, 2)):
        expanded = oofa_expand(base)
        expected = sum(factorial(max(1, len(r.point.support()))) for r in base.runs)
        if len(expanded) != expected:
            counts_ok = False
        for run in expanded.runs:
            ordering = ordering_from_pwo(run.point.support(), run.pwo)
            if pwo_from_ordering(run.point, ordering) != run.pwo:
                transitive_ok = False
    run_checks(
        "criterion 6",
        [
            ("round trip", round_trip_ok, "1000 random points and orderings, m <= 5"),
            ("zero masking", masking_ok, "z = 0 exactly when a component is absent"),
            ("transitivity", transitive_ok, "every expanded sign vector has an inducing order"),
            ("cardinality", counts_ok, "expansion sizes equal sum of s!"),
        ],
    )


def test_criterion_7_fds(table5, spec8):
    """FDS curve of the amount study.  The default curve (sign factors from
    realizable addition orders, so +-1 and transitive) is sorted, does not
    depend on workers, and is fast.  The majority-below-0.96 claim is
    asserted where it holds, on sign_policy="continuous" (each sign factor
    uniform on [-1, 1]); over realizable orders only a minority of the space
    lies below 0.96.  Both fractions must clear 0.5 by six binomial standard
    errors, so the verdict is not Monte Carlo noise."""
    t0 = time.perf_counter()
    curve = fds_curve(table5, spec8, n_samples=100000, seed=7)
    elapsed = time.perf_counter() - t0
    small = fds_curve(table5, spec8, n_samples=30000, seed=3, workers=1)
    small_mt = fds_curve(table5, spec8, n_samples=30000, seed=3, workers=4)
    relaxed = fds_curve(table5, spec8, n_samples=100000, seed=7, sign_policy="continuous")
    frac = curve.fraction_below(0.96)
    frac_c = relaxed.fraction_below(0.96)
    se = sqrt(frac * (1 - frac) / curve.n_samples)
    se_c = sqrt(frac_c * (1 - frac_c) / relaxed.n_samples)
    print(f"[INFO] criterion 7 documented majority below 0.96: over realizable orders "
          f"the fraction is {frac:.3f} +- {se:.4f} (gap {frac - 0.5:+.3f} to a majority); "
          f"with continuous signs it is {frac_c:.3f} +- {se_c:.4f}")
    run_checks(
        "criterion 7",
        [
            ("nondecreasing", bool(np.all(np.diff(curve.variances) >= 0)), "sorted curve"),
            ("deterministic", np.array_equal(small.variances, small_mt.variances),
             "workers=1 vs workers=4 bit-identical"),
            ("majority below 0.96, continuous signs", frac_c - 0.5 > 6 * se_c,
             f"fraction {frac_c:.3f} vs > 0.5 + 6 SE ({se_c:.4f})"),
            ("minority below 0.96, orderings", 0.5 - frac > 6 * se,
             f"fraction {frac:.3f} vs < 0.5 - 6 SE ({se:.4f})"),
            ("runtime", elapsed < 10.0, f"{elapsed:.2f}s < 10s for 1e5 samples"),
        ],
    )


def test_criterion_8_power(table1, table2, table3, spec6, spec8):
    """Power.  The amount study's z12 power reproduces under the coded
    convention.  For the crossed study, SE(x1) comes from an exact rational
    inverse of the coded matrix (amount levels -1, -1/3, 1): relabeling the
    components maps the design onto itself, so SE(x1) = SE(x2) = SE(x3), and
    x1 power must equal the integration oracle at that SE.  The documented
    10.2% needs SE(x1) = 0.36.  SE(x1) depends on the amount coding only
    through its origin, and the lowest SE(x1) over every translation of A,
    under every membership reduction, is 0.646; the test computes both and
    asserts the gap."""
    X2 = coded_model_matrix(table2, spec8)
    X3 = coded_model_matrix(table3, spec6)
    null_gap = abs(power(X2, 4, signal_sd=0.0, alpha=0.05) - 0.05)
    monotone = [power(X2, 4, signal_sd=k) for k in (0.0, 0.5, 1.0, 2.0, 4.0)]
    p_z12 = 100 * power(X2, X2.col_labels.index("z12"), signal_sd=2.0, alpha=0.05)
    grid_gap = max(
        abs(_nct_two_sided(delta, df, 0.05) - nct_power_oracle(delta, df, 0.05))
        for df in (5, 15, 27, 51)
        for delta in (0.3, 0.694, 1.0, 1.59, 2.5)
    )

    levels = sorted({run.amount for run in table3.runs})
    lo, hi = levels[0], levels[-1]

    def code(a):
        return (2 * a - lo - hi) / (hi - lo)

    Minv = exact_inverse(exact_gram(exact_model_rows(design_cells(table3, code), spec6.terms, 3)))
    labels = list(X3.col_labels)
    ix = [labels.index(f"x{i}") for i in (1, 2, 3)]
    var_x = [Minv[j][j] for j in ix]
    se_exact = sqrt(var_x[0])
    se_prog = std_errors(X3)[ix]
    se_gap = float(np.abs(se_prog - se_exact).max())
    df = X3.shape[0] - X3.shape[1]
    p_x1 = power(X3, ix[0], signal_sd=0.5, alpha=0.05)
    p_oracle = nct_power_oracle(0.25 / se_exact, df, 0.05)

    # Var of the x1 coefficient with A's origin moved to coded c is g(c)' V g(c),
    # g = (1, c, c^2), V the covariance of (x1, x1A, x1A^2); scaling A leaves it
    # alone.  On the crossed design V = Var(x1 | 21-run block) * (G'G)^-1, G the
    # coded-level matrix (asserted for the cyclic reduction below), so each
    # reduction's floor needs only its 21-run block.
    block_ix = [labels.index(label) for label in ("x1", "x1A", "x1A^2")]
    V = [[Minv[a][b] for b in block_ix] for a in block_ix]
    c0 = code(Fraction(0))
    se_origin0 = sqrt(sum(V[a][b] * c0 ** (a + b) for a in range(3) for b in range(3)))
    se_raw = [
        std_errors(model_matrix(cross_amounts(table1, [k * a for a in levels]), spec6))[ix[0]]
        for k in (1, 10)
    ]
    origin_gap = max(abs(se / se_origin0 - 1) for se in se_raw)
    G_inv = exact_inverse(exact_gram([[Fraction(1), c, c * c] for c in map(code, levels)]))
    q_min = min_quadratic_form(G_inv)
    block_var = {}
    for spec in [spec6] + [build_spec("eq6", 3, reduction=list(r)) for r in MEMBERSHIP_REDUCTIONS]:
        terms = amount_free(spec)
        j = [term.label("x") for term in terms].index("x1")
        block_var[frozenset(spec.labels)] = exact_inverse(
            exact_gram(exact_model_rows(design_cells(table1), terms, 3)))[j][j]
    var_cyclic = block_var[frozenset(spec6.labels)]
    kron = all(V[a][b] == var_cyclic * G_inv[a][b] for a in range(3) for b in range(3))
    floor = sqrt(float(min(block_var.values())) * q_min)
    se_needed = brentq(lambda se: nct_power_oracle(0.25 / se, df, 0.05) - 0.102, 0.05, 5.0)
    print(f"[INFO] criterion 8 documented x1 power 10.2%: the printed design gives "
          f"{100 * p_x1:.1f}% (gap {100 * p_x1 - 10.2:+.1f} points) at SE(x1) = {se_exact:.4f}; "
          f"10.2% needs SE(x1) = {se_needed:.3f}, below the floor {floor:.3f}")
    run_checks(
        "criterion 8",
        [
            ("null power", null_gap <= 1e-9, f"|power(k=0) - alpha| = {null_gap:.2e}"),
            ("monotone", all(a < b for a, b in zip(monotone, monotone[1:])),
             "power strictly increasing in signal"),
            ("z12 power", abs(p_z12 - 32.0) <= 0.5, f"{p_z12:.1f}% vs 32.0 +- 0.5"),
            ("x SE symmetry", var_x[0] == var_x[1] == var_x[2] and se_gap <= 1e-12,
             f"exact Var(x1) = Var(x2) = Var(x3) = {var_x[0]}, program gap {se_gap:.1e}"),
            ("x1 power", abs(p_x1 - p_oracle) <= 1e-6,
             f"{100 * p_x1:.4f}% vs oracle {100 * p_oracle:.4f}% at exact SE, df {df}"),
            ("x1 SE by origin of A", origin_gap <= 1e-10,
             f"raw SE(x1) {se_raw[0]:.6f} at levels x1 and x10 vs exact g(c)'Vg(c) at A = 0, "
             f"relative gap {origin_gap:.1e}"),
            ("x1 SE floor", kron and floor > se_needed,
             f"min over translations of A and {len(block_var)} reductions {floor:.4f} "
             f"> {se_needed:.4f} needed for 10.2%"),
            ("integration oracle", grid_gap <= 1e-6, f"max |power - quad| = {grid_gap:.2e} over 20 cases"),
        ],
    )


def test_criterion_9_documented_exclusions(table2, spec8):
    """No response data ship with the reference designs, so model fitting
    stays plumbing; the determinant criterion is emitted under both
    run-count scalings and no particular documented value is asserted."""
    out = d_criteria(coded_model_matrix(table2, spec8).X)
    print(f"[INFO] criterion 9 coded determinant scalings: "
          f"per_run_scaled={out['per_run_scaled']:.4f}, "
          f"n_scaled_inverse={out['n_scaled_inverse']:.4f}")
    run_checks(
        "criterion 9",
        [
            ("both scalings emitted",
             {"per_run_scaled", "n_scaled_inverse", "det", "log_det", "d_eff_per_param"} <= set(out),
             "determinant criteria carry both run-count conventions"),
        ],
    )
