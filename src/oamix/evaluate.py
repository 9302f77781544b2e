"""Design-evaluation criteria.

Everything here works on the model matrix X (N x p): information matrix
M = X'X, leverages / prediction variances d(f) = f' M^{-1} f, G-efficiency
100 p / (N max d), determinant criteria, per-term standard errors and
multicollinearity R^2, two-sided t-test power, Monte Carlo fraction-of-
design-space (FDS) curves, and least-squares fits.  Each X is factored
once, by `_Factor`, and every quantity is read off that factor; a
`ModelMatrix` keeps its factor across calls, a plain array does not.
`evaluate_design` and `fds_curve` read a model as its (spec, factor)
parts (`_model_parts`): one, the spec and its full X, or on a crossed
mixture-amount design (`_crossed_factors`) two, the base spec with X_base
and the amount spec with X_A, whose Kronecker product the full X is up to
row order; there the full X is never built unless a gate fails.  The
matrices and factors of a design are kept, per spec and
coding, in one private memo of the design (``models._memoized``), filled
after the design is checked and gone with the design: a design evaluated
coded and raw and then sampled builds and factors each matrix once.
Nothing else is kept between calls; `fds_curve`'s buffers are its own.

Prediction variances are reported unscaled (d = f' M^{-1} f); the N-scaled
variant N*d is emitted alongside, clearly labeled.  Leverage-based criteria
are invariant to any invertible column recoding of X, so they do not depend
on whether amounts are expressed in unit or physical scales.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, reduce
from numbers import Real
from statistics import NormalDist

import numpy as np

from .core import Design
from .errors import (
    ConstantColumn,
    InvalidParameter,
    MissingAmount,
    NoResidualDf,
    SingularInformation,
    _SIZE_DIGITS,
    _digits,
    _int_in_range,
    _shown,
)
from .models import (
    ModelMatrix,
    ModelSpec,
    _amount_rows,
    _check_design,
    _checked_matrix,
    _crossed_rows,
    _level_floats,
    _memoized,
    coded_model_matrix,
    model_matrix,
    term_columns,
)
from .oofa import _pwo_pairs

__all__ = [
    "leverages",
    "prediction_variance",
    "g_efficiency",
    "d_criteria",
    "std_errors",
    "r2_multicollinearity",
    "power",
    "ContinuousAmounts",
    "DiscreteAmounts",
    "FdsCurve",
    "fds_curve",
    "TermStats",
    "EvalReport",
    "evaluate_design",
    "OlsFit",
    "fit_ols",
]

RCOND_FLOOR = 1e-10
# a signal of k error SDs is read as a +-k/2 half-range (see `power`)
SIGNAL_HALF_RANGE = 0.5
_FDS_CHUNK = 8192
_FDS_BLOCK = 2048


class _Factor:
    """One factorization of X, with a reciprocal-condition gate.

    X'X is never formed.  The columns of X are equilibrated by their norms
    D, then X D^{-1} = Q R by QR and R = U S V' by a p x p SVD, so the
    singular values of X D^{-1} are S (padded with zeros when N < p) and
    M^{-1} = W W' with W = D^{-1} V S^{-1}.  The gate and the numerics do
    not depend on column units: the reciprocal condition (s_min/s_max)^2 of
    the equilibrated X'X below 1e-10 raises SingularInformation naming the
    columns that load on the near-null space, rather than returning noise;
    a NaN or infinite cell raises InvalidParameter naming its columns.
    log|X'X| = 2 (sum log S + sum log D).
    """

    def __init__(self, arr: np.ndarray, labels: tuple[str, ...]):
        p = arr.shape[1]
        finite = np.isfinite(arr).all(axis=0)
        if not finite.all():
            bad = [labels[j] for j in np.nonzero(~finite)[0]]
            raise InvalidParameter(f"columns hold NaN or infinite cells: {bad}")
        scale = np.linalg.norm(arr, axis=0)
        if np.any(scale <= 0):
            dead = [labels[j] for j in np.nonzero(scale <= 0)[0]]
            raise SingularInformation(f"columns are identically zero: {dead}")
        _, s, Vt = np.linalg.svd(np.linalg.qr(arr / scale, mode="r"))
        s = np.concatenate([s, np.zeros(p - s.size)])
        rcond = (s[-1] / s[0]) ** 2
        if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
            mass = np.abs(Vt[s**2 < s[0] ** 2 * RCOND_FLOOR]).max(axis=0)
            suspects = [labels[j] for j in np.nonzero(mass > 0.5 * mass.max())[0]]
            raise SingularInformation(
                f"information matrix is singular at working precision "
                f"(rcond={rcond:.2e}); near-null-space columns include {suspects}"
            )
        self.X = arr
        self.labels = labels
        self.rcond = float(rcond)
        self.log_det = float(2.0 * (np.log(s).sum() + np.log(scale).sum()))
        self._W = Vt.T / (s * scale[:, None])

    def pv(self, F: np.ndarray, out=None, work=None) -> np.ndarray:
        """d_i = f_i' M^{-1} f_i = ||f_i' W||^2 for each row f_i of F, a 2-D
        float array, taken as it is (the FDS loop calls this once per block).

        The product F W is written into `work` and the d_i into `out` when
        they are given (arrays of F's shape and of its row count)."""
        G = np.matmul(F, self._W, out=work)
        return np.einsum("ij,ij->i", G, G, out=out)

    def inverse_diag(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self._W, self._W)

    @cached_property
    def r2(self) -> np.ndarray:
        """R^2 of each column on the others (`_r2`).  Computed once per
        factor; the array is read-only."""
        r2 = _r2(_centred_sst(self.X), self.inverse_diag(), _constant(self.X))
        r2.flags.writeable = False
        return r2

    def solve(self, y: np.ndarray) -> np.ndarray:
        """M^{-1} X'y = W W'X'y: the least-squares coefficients for y."""
        return self._W @ (self._W.T @ (self.X.T @ y))


def _centred_sst(X: np.ndarray) -> np.ndarray:
    """Each column's sum of squares about its mean."""
    return np.sum((X - X.mean(axis=0)) ** 2, axis=0)


def _kron_sst(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The centred sums of squares of the columns of kron(a, f), each row of
    `a` paired with every row of `f`, from the factors alone.  With the
    mean of a column a (x) f equal to mean(a) mean(f),
    a_l f_b - mean(a) mean(f) = a_l (f_b - mean(f)) + (a_l - mean(a)) mean(f),
    and the cross term sums to zero over b, so the sum is
    sum(a^2) SST_f + n_f SST_a mean(f)^2: two terms >= 0, with no
    cancellation."""
    return np.kron((a * a).sum(axis=0), _centred_sst(f)) + len(f) * np.kron(_centred_sst(a), f.mean(axis=0) ** 2)


def _constant(X: np.ndarray) -> np.ndarray:
    """For each column of X, whether all its cells are equal."""
    return (X == X[0]).all(axis=0)


def _r2(sst: np.ndarray, inverse_diag: np.ndarray, constant: np.ndarray) -> np.ndarray:
    """R^2 of each column on the others: 1/[M^{-1}]_jj is the residual sum
    of squares of column j, so R^2_j = 1 - 1/(SST_j [M^{-1}]_jj), NaN where
    the column is `constant` (or SST_j underflows to 0).  A constant column
    is told by its cells, not by its computed SST_j: the mean of equal
    cells need not round back to their value, and the SST_j of such a
    column is then a tiny positive number that gives a huge negative R^2."""
    with np.errstate(divide="ignore"):
        return np.where(constant | (sst == 0.0), np.nan, 1.0 - 1.0 / (sst * inverse_diag))


def _factor(X) -> _Factor:
    """The factor a `ModelMatrix` keeps, or a new one of an array that
    passes ``models._checked_matrix``."""
    if isinstance(X, ModelMatrix):
        return X._factor
    return _Factor(*_checked_matrix(X))


def leverages(X) -> np.ndarray:
    """Per-run prediction variances d_i = x_i' (X'X)^{-1} x_i; they sum to p."""
    fac = _factor(X)
    return fac.pv(fac.X)


def prediction_variance(X, f) -> float:
    """Unscaled prediction variance d = f' (X'X)^{-1} f at a model vector f;
    an f that is not p finite values raises InvalidParameter."""
    fac = _factor(X)
    p = fac.X.shape[1]
    try:
        f = np.asarray(f, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(f"f needs {p} finite values") from None
    if f.shape != (p,) or not np.isfinite(f).all():
        raise InvalidParameter(f"f needs {p} finite values, got shape {f.shape}")
    return float(fac.pv(f[None, :])[0])


def g_efficiency(p: int, n: int, max_pv: float) -> float:
    """100 p / (N max d); equals 100 exactly when max d is p/N.  Each of
    `p`, `n` and `max_pv` must be a positive, finite real number (not a
    bool), and so must the result as a float; anything else raises
    InvalidParameter."""
    for name, value in (("p", p), ("n", n), ("max_pv", max_pv)):
        if not (_is_real(value) and _is_finite(value) and value > 0):
            raise InvalidParameter(f"{name} must be a positive finite number, got {_shown(value)}")
    denominator = n * max_pv
    g = 100.0 * p / denominator if denominator else math.inf
    if not math.isfinite(g):
        raise InvalidParameter(
            f"g_efficiency of p={_shown(p)}, n={_shown(n)}, max_pv={_shown(max_pv)} is beyond float range"
        )
    return g


def d_criteria(X) -> dict:
    """Determinant criteria from the factor's log|X'X|.

    Both common run-count scalings are reported so a convention stated
    without a formula can be identified empirically:
      det, log_det          |X'X| and its log
      d_eff_per_param       |X'X|^(1/p)
      per_run_scaled        |X'X / N|^(1/p)
      n_scaled_inverse      N * |X'X|^(-1/p)
    An X whose equilibrated reciprocal condition is below 1e-10 raises
    SingularInformation, as every other criterion does.
    """
    fac = _factor(X)
    return _d_criteria(fac.log_det, *fac.X.shape)


def _d_criteria(logdet: float, n: int, p: int) -> dict:
    per_param = math.exp(logdet / p)
    return {
        "det": math.exp(logdet) if logdet < 700 else float("inf"),
        "log_det": logdet,
        "d_eff_per_param": per_param,
        "per_run_scaled": per_param / n,
        "n_scaled_inverse": n / per_param,
    }


def std_errors(X) -> np.ndarray:
    """sqrt of the diagonal of (X'X)^{-1}: per-term standard errors at unit
    error variance."""
    return np.sqrt(_factor(X).inverse_diag())


def r2_multicollinearity(X, j: int) -> float:
    """R^2 of column j regressed on all other columns.

    The total sum of squares is taken about the column mean.  Invariant
    under positive diagonal rescaling of the columns.  A singular X raises
    SingularInformation, and a `j` that is not an integer from 0 to p - 1
    raises InvalidParameter.  A `ModelMatrix` computes every column's R^2
    once, on first use.
    """
    fac = _factor(X)
    p = fac.X.shape[1]
    if p < 2:
        raise ConstantColumn("need at least two columns")
    j = _int_in_range("j", j, 0, p - 1)
    r2 = fac.r2[j]
    if np.isnan(r2):
        raise ConstantColumn(f"column {fac.labels[j]} is constant")
    return float(r2)


def _is_finite(value) -> bool:
    """`math.isfinite(value)`, false as well for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_real(value) -> bool:
    """True for a real number that is not a bool and not NaN."""
    return isinstance(value, Real) and not isinstance(value, bool) and value == value


def _check_power_args(signal_sd: float, alpha: float) -> None:
    if not (_is_real(alpha) and 0.0 < alpha < 1.0):
        raise InvalidParameter(f"alpha must lie in (0, 1), got {_shown(alpha)}")
    if not (_is_real(signal_sd) and _is_finite(signal_sd)):
        raise InvalidParameter(f"signal must be a finite number of SDs, got {_shown(signal_sd)}")


# Gamma(b + 1/2) / Gamma(b) = sqrt(b) (1 + sum_i a_i / b^i) for large b
_HALF_RATIO_SERIES = (-1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144, 869 / 4194304)
# most terms one beta series may sum (see `_nct_two_sided` for the alphas
# that need more)
_BETA_TERMS_CAP = 1 << 22
# below this alpha the t quantile is solved on the tail P(|T| > c) itself
_SMALL_ALPHA = 1e-3
# most Poisson weights formed at once
_WINDOW_CELLS = 1 << 18


def _half_gamma_ratio(df: int) -> float:
    """Gamma((df + 1)/2) / Gamma(df/2): the exact product of (k + 1)/k over
    k = 1 or 2, ..., df - 2 below df = 128, and from there the series in
    1/b, b = df/2, which is within 3e-16 at b = 64 and closer beyond."""
    if df >= 128:
        b = df / 2
        s = 0.0
        for a in reversed(_HALF_RATIO_SERIES):
            s = (s + a) / b
        return math.sqrt(b) * (1.0 + s)
    r = 1.0 / math.sqrt(math.pi) if df % 2 else math.sqrt(math.pi) / 2.0
    for k in range(2 - df % 2, df - 1, 2):
        r *= (k + 1) / k
    return r


def _t_terms(c: float, df: int) -> tuple[float, float, float]:
    """x = c^2/(c^2 + df), 1 - x, and t = I_x(1/2, df/2) - I_x(3/2, df/2)
    = 2 c f(c) for the central t density f with df degrees of freedom."""
    c2 = c * c
    x, y = c2 / (c2 + df), df / (c2 + df)
    # x^(1/2) (1 - x)^b Gamma(b + 1/2) / (Gamma(3/2) Gamma(b)), b = df/2
    t = 2.0 / math.sqrt(math.pi) * _half_gamma_ratio(df) * math.sqrt(x) * math.exp(-0.5 * df * math.log1p(c2 / df))
    return x, y, t


def _beta_series(z: float, p: float, q: float, t: float, top: int) -> np.ndarray:
    """I_z(p + j, q) for j = 0, ..., top, given t = I_z(p, q) - I_z(p + 1, q);
    shorter where the rest lie below 2^-60.

    The differences t_j = I_z(p + j, q) - I_z(p + j + 1, q) are positive,
    with t_{j+1} = t_j z (p + q + j)/(p + 1 + j), and I_z(p + j, q) -> 0,
    so each value is the sum of the terms from t_j on, added smallest
    first.  Terms are made in blocks until the rest, bounded by a geometric
    series, is below 2^-53 of the value at `top`, or below 2^-60 before
    `top` is reached; the values keep their relative accuracy down to that
    2^-60."""
    blocks, k, size, from_top = [], 0, 64, 0.0
    while True:
        i = np.arange(k, k + size, dtype=float)
        ratio = z * (i + (p + q)) / (i + (p + 1.0))
        terms = np.empty(size)
        terms[0] = t
        np.cumprod(ratio[:-1], out=terms[1:])
        terms[1:] *= t
        blocks.append(terms)
        if k + size > top:
            from_top += float(terms[max(top - k, 0) :].sum())
        k += size
        t = terms[-1] * ratio[-1]
        # the ratios fall to z when q > 1 and rise to it when q < 1
        rho = max(float(ratio[-1]), z)
        if rho < 1.0:
            rest = t / (1.0 - rho)
            if rest <= 2.0**-53 * from_top or (k <= top and rest <= 2.0**-60):
                break
        if k >= _BETA_TERMS_CAP:
            raise InvalidParameter(
                f"power needs more than {_BETA_TERMS_CAP} incomplete-beta terms at x = {float(z):.9g}; "
                "alpha is too small for these residual degrees of freedom"
            )
        size = min(2 * size, 1 << 16)
    terms = np.concatenate(blocks)
    values = np.cumsum(terms[::-1])[::-1][: top + 1]
    return values[: np.count_nonzero(values)]


@lru_cache(maxsize=64)
def _t_critical(df: int, alpha: float) -> float:
    """c with P(|T| > c) = alpha for a central t with df degrees of freedom.

    Closed forms at df 1 and 2.  Otherwise Newton from the Cornish-Fisher
    expansion about the normal quantile, on P(|T| > c) = 1 - I_x(1/2, b)
    or, below alpha = 1e-3, on P(|T| > c) = I_{1-x}(b, 1/2) so that alpha
    keeps its relative accuracy; x = c^2/(c^2 + df), b = df/2.  The
    derivative is -2 f(c) = -t/c (`_t_terms`).  The tail is convex in
    c > 0, so from the first step on the iterates rise to the root."""
    if df == 1:
        return 1.0 / math.tan(math.pi * alpha / 2.0)
    if df == 2:
        return (1.0 - alpha) * math.sqrt(2.0 / (alpha * (2.0 - alpha)))
    z = -NormalDist().inv_cdf(max(alpha / 2.0, 1e-300))
    z2 = z * z
    c = z * (
        1.0
        + (z2 + 1.0) / (4.0 * df)
        + ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * df**2)
        + (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / (384.0 * df**3)
        + ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / (92160.0 * df**4)
    )
    for _ in range(100):
        x, y, t = _t_terms(c, df)
        if not t > 0.0:
            break
        if alpha < _SMALL_ALPHA:
            tail = _beta_series(y, df / 2.0, 0.5, t / df, 0)[0]
        else:
            tail = 1.0 - _beta_series(x, 0.5, df / 2.0, t, 0)[0]
        step = (tail - alpha) * c / t
        c = max(c + step, 0.5 * c)
        if abs(step) <= 1e-13 * c:
            return c
    raise InvalidParameter(f"alpha={_shown(alpha)} is too small for power at {df} residual df")


def _nct_two_sided(delta, df: int, alpha: float):
    """Two-sided t-test power at noncentrality delta (a scalar or an array)
    with df residual degrees of freedom, from numpy and `math` alone.

    For a t statistic T with noncentrality d, T^2 is noncentral F(1, df,
    d^2): a Poisson(mu = d^2/2) mixture over j of beta variables with
    P(T^2 < c^2 | j) = I_x(j + 1/2, df/2), x = c^2/(c^2 + df).  So

        power = 1 - sum_j Pois(j; mu) I_x(j + 1/2, df/2),

    with c the two-sided critical value (`_t_critical`).  The beta
    sequence does not depend on d and is made once per call
    (`_beta_series`).  Each d sums the j within 10 sqrt(mu) + 34 of the
    Poisson mode, with weights built by ratios from the window's first j
    and normalized to sum to 1; the Poisson mass outside that window is
    below 1e-21.  Every term is positive, so 1 - power keeps its relative
    accuracy down to an absolute 1e-18, and power is non-decreasing in
    |d|, exactly alpha at d = 0 and finite for every d.  Over df 1..2411,
    alpha 0.01..0.2 and d in [0, 12] it agrees with scipy's `stdtrit` and
    `nctdtr` to 1e-12.  At two residual df the sequence is the closed form
    I_x(j + 1/2, 1) = x^(j + 1/2), so every alpha is reached there.  An
    alpha below about 2e-3 at one residual df or 1e-7 at three needs more
    than 2^22 series terms and raises InvalidParameter.
    """
    d = np.abs(np.asarray(delta, dtype=float))
    mu = np.minimum(0.5 * d * d, 2.0**62).ravel()  # power is 1.0 long before the cap
    c = _t_critical(df, alpha)
    mode = np.floor(mu)
    half = np.ceil(10.0 * np.sqrt(mu)) + 34.0
    end = mode + half
    inside = mu > 0
    x, y, t = _t_terms(c, df)
    top = int(min(end.max(where=inside, initial=0.0), _BETA_TERMS_CAP))
    if df == 2:
        # I_x(j + 1/2, 1) = x^(j + 1/2), taken from log x = log1p(-y) so that
        # an x near 1 keeps its accuracy, and cut where it falls below 2^-60
        log_x = math.log1p(-y)
        stop = 60.0 * math.log(2.0) / -log_x if log_x < 0.0 else math.inf
        seq = np.exp(np.arange(0.5, min(top + 1, math.ceil(stop))) * log_x)
    else:
        seq = _beta_series(x, 0.5, df / 2.0, t, top)  # I_x(j + 1/2, df/2)
    padded = np.append(seq, 0.0)  # the sequence is 0 past its end
    lo = np.maximum(mode - half, 0.0)
    span = end - lo
    live = np.flatnonzero(inside & (lo < seq.size))
    tail = np.where(np.isnan(mu), np.nan, 0.0)  # 1 - power; 0 where the window holds only zeros
    while live.size:
        rows = live[:256]
        while rows.size > 1 and rows.size * span[rows].max() > _WINDOW_CELLS:
            rows = rows[: rows.size // 2]
        live = live[rows.size :]
        start, width = lo[rows].astype(np.int64), int(span[rows].max()) + 1
        # Pois(start + i)/Pois(start), i = 0..width - 1
        weights = np.ones((rows.size, width))
        np.cumprod(mu[rows, None] / (start[:, None] + np.arange(1, width)), axis=1, out=weights[:, 1:])
        window = padded[np.minimum(start[:, None] + np.arange(width), seq.size)]
        tail[rows] = np.einsum("ij,ij->i", weights, window) / weights.sum(axis=1)
    return np.where(d == 0.0, alpha, 1.0 - tail.reshape(d.shape))[()]


def power(X, j: int, signal_sd: float, alpha: float = 0.05) -> float:
    """Two-sided t-test power for coefficient j.

    The signal "k standard deviations" is read as a +-k/2 half-range, so the
    noncentrality is delta = (SIGNAL_HALF_RANGE * k) / SE_j with
    SIGNAL_HALF_RANGE = 0.5; the residual degrees of freedom are N - p.
    This convention reproduces the reference designs' documented power
    columns for linear, sign, and interaction terms.  A `j` that is not an
    integer from 0 to p - 1 raises InvalidParameter.
    """
    _check_power_args(signal_sd, alpha)
    fac = _factor(X)
    n, p = fac.X.shape
    if n - p < 1:
        raise NoResidualDf(f"N - p = {n - p}; no residual degrees of freedom")
    j = _int_in_range("j", j, 0, p - 1)
    se = np.sqrt(fac.inverse_diag())
    return float(_nct_two_sided(SIGNAL_HALF_RANGE * signal_sd / se[j], n - p, alpha))


# ---------------------------------------------------------------------------
# FDS sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousAmounts:
    """Sample the total amount uniformly on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (all(_is_real(v) and _is_finite(v) for v in (lo, hi)) and 0 <= lo <= hi):
            raise InvalidParameter(f"amount range needs real finite 0 <= lo <= hi, got {_shown(lo)}:{_shown(hi)}")


@dataclass(frozen=True)
class DiscreteAmounts:
    """Sample the total amount uniformly over a fixed level set, kept as a
    tuple so the policy is hashable."""

    levels: tuple[float, ...]

    def __post_init__(self):
        try:
            levels = tuple(self.levels)
        except TypeError:
            levels = None
        if not levels or not all(_is_real(a) and _is_finite(a) and a >= 0 for a in levels):
            raise InvalidParameter(
                f"amount levels need a nonempty set of real finite values >= 0, got {_shown(self.levels)}"
            )
        object.__setattr__(self, "levels", levels)


def _default_policy(design: Design) -> ContinuousAmounts:
    levels = _level_floats(design)
    if not levels:
        raise MissingAmount("design carries no amount levels to define a sampling range")
    return ContinuousAmounts(lo=min(levels), hi=max(levels))


def _row_sums(e: np.ndarray) -> np.ndarray:
    """`e.sum(axis=1)` with its bits.  numpy adds a row of up to 7 values
    left to right, which whole-column adds repeat without its per-row cost;
    from 8 values on it adds in 8 pairwise lanes, so its sum is kept."""
    if e.shape[1] > 7:
        return e.sum(axis=1)
    s = e[:, 0].copy()
    for c in range(1, e.shape[1]):
        s += e[:, c]
    return s


def _sample_chunk(seed: int, index: int, n: int, m: int, policy, sign_policy: str, draws=None, sign_draws=None):
    """One chunk's proportions x and order keys, continuous signs and amounts.

    x and the keys are (n, m) F-ordered views of (m, n) column buffers, so
    every later step reads a component's samples as one contiguous column.
    The exponentials and the keys are drawn in stream order into one
    C-ordered scratch buffer and each is moved into its columns by one
    strided pass: x as e[:, i] / s, with s the `_row_sums` of the draw.
    Under continuous signs the keys are None: nothing reads them, so the
    stream is advanced past the n * m doubles they would take (PCG64 spends
    one 64-bit output per double), and the signs and amounts that follow
    are those of a draw.  The signs are an (n, pairs) C-ordered array, or
    None under orderings: uniforms U drawn into `sign_draws`, a buffer of
    at least n * pairs floats (fresh when None), then doubled and less 1,
    which is numpy's ``uniform(-1, 1)``, -1 + 2U, bit for bit (2U is
    exact, so either way the one rounding is that of the sum).  The
    amounts are the first n floats of the scratch buffer, which x and the
    keys no longer need: continuous amounts are uniforms U times hi - lo,
    plus lo, in place, which is numpy's ``uniform(lo, hi)``, lo + (hi -
    lo) U, with the same two roundings; discrete ones are a `np.take` of
    the levels.  `draws` holds the scratch, x and key buffers, each of at
    least n * m floats; when it is None they are fresh.  The stream and
    the bits do not depend on the buffers."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    scratch, x_buf, key_buf = draws if draws is not None else np.empty((3, n * m))
    # exponential spacings: normalized iid exponentials are uniform on the simplex
    e = rng.standard_exponential(out=scratch[: n * m].reshape(n, m))
    s = _row_sums(e)
    x = x_buf[: n * m].reshape(m, n).T
    for i in range(m):
        np.divide(e[:, i], s, out=x[:, i])
    if sign_policy == "continuous":
        rng.bit_generator.advance(n * m)
        keys = None
        pairs = m * (m - 1) // 2
        buffer = np.empty(n * pairs) if sign_draws is None else sign_draws[: n * pairs]
        signs = rng.random(out=buffer.reshape(n, pairs))
        signs *= 2.0
        signs -= 1.0
    else:
        keys = key_buf[: n * m].reshape(m, n).T
        keys[...] = rng.random(out=scratch[: n * m].reshape(n, m))
        signs = None
    if isinstance(policy, DiscreteAmounts):
        levels = np.asarray(policy.levels, dtype=float)
        amounts = np.take(levels, rng.integers(0, len(levels), n), out=scratch[:n])
    else:
        lo, hi = float(policy.lo), float(policy.hi)
        amounts = rng.random(out=scratch[:n])
        amounts *= hi - lo
        amounts += lo
    return x, keys, signs, amounts


def _pair_signs(m: int, comps, keys, signs, z):
    """The sign factors of one chunk in `pwo_pairs` order: drawn from the
    keys when `signs` is None, and masked to zero where a component of the
    pair is zero.  Each pair is written into its column of `z` (an F-ordered
    (n, pairs) array) or of a fresh one; continuous signs with no zero
    component are returned as given."""
    # where every component is present the zero masks are all ones and
    # would change no sign
    masked = not comps.all()
    if signs is not None and not masked:
        return signs
    pairs = np.array(_pwo_pairs(m)) - 1
    if z is None:
        z = np.empty((len(pairs), len(comps))).T
    for c, (j, k) in enumerate(pairs):
        if signs is None:
            # j before k (+1) when its key is smaller: the sign of k's key
            # minus j's.  A tie goes to the lower index, as a stable argsort
            # of the keys would rank it, since x - x is +0
            np.subtract(keys[:, k], keys[:, j], out=z[:, c])
            np.copysign(1.0, z[:, c], out=z[:, c])
        else:
            z[:, c] = signs[:, c]
        if masked:
            z[:, c] *= comps[:, j] != 0
            z[:, c] *= comps[:, k] != 0
    return z


def _rows_from_samples(spec: ModelSpec, x, keys, signs, amounts, out=None, z=None, comps=None) -> np.ndarray:
    """The model rows of one chunk of samples, written into `out` (an
    F-ordered (n, p) array) or into a fresh array of that layout, so BLAS
    sees one layout for every chunk whether or not a buffer is reused.
    `z` is the sign buffer of `_pair_signs`; a model without order factors
    uses no signs.  A component-amount model's amounts x * A are written
    into `comps`, an (n, m) array of contiguous columns, or a fresh one."""
    comps = np.multiply(x, amounts[:, None], out=comps) if spec.kind.uses_amounts else x
    if spec.kind.has_pwo:
        signs = _pair_signs(spec.m, comps, keys, signs, z)
    if out is None:
        out = np.empty((spec.p, len(amounts))).T
    return term_columns(spec, comps, signs, amounts, out=out)


def _crossed_factors(design: Design, spec: ModelSpec, coded: bool = False):
    """The two (spec, factor) parts of a crossed mixture-amount design,
    ((base spec, factor of X_base), (amount spec, factor of X_A)), or None.

    The design and spec are checked first, as `model_matrix` checks them.
    The path: the spec splits into a base spec and an amount spec of the
    terms 1, A, ..., A^T (``ModelSpec._parts``) and the design crosses one
    multiset of base runs with its amount levels; then the full model
    matrix X is X_A (x) X_base up to the order of its rows
    (``models._crossed_rows``), so M = M_A (x) M_base and M^{-1} =
    M_A^{-1} (x) M_base^{-1}.  Both codings share X_base and its factor;
    X_A holds the levels coded as `coded_model_matrix` codes A when
    `coded` is true, else the raw ones (``models._amount_rows``).  The
    equilibrated X is the Kronecker product of the equilibrated factors,
    so its reciprocal condition is the product of theirs.

    None sends the caller to the full matrix, whose factor raises the full
    path's error or passes: off the path, when a base column is constant
    (so that whether a column's R^2 is NaN is read from the cells of the
    full matrix), when a small factor raises, and when the product of the
    base and amount factors' reciprocal conditions is below RCOND_FLOOR.
    The coded parts are sought only when the raw ones pass.

    The result, None too, is kept in the design's memo (``models._memoized``)
    per spec and coding, after the check; the coded result shares the base
    part of the raw one, so a design evaluated under both codings and then
    sampled recognizes its structure and factors X_base once."""
    _check_design(design, spec)
    raw = _memoized(design, ("crossed", spec, False), lambda: _gated_parts(design, spec, False, None))
    if not coded or raw is None:
        return raw
    return _memoized(design, ("crossed", spec, True), lambda: _gated_parts(design, spec, True, raw[0]))


def _gated_parts(design: Design, spec: ModelSpec, coded: bool, base):
    """`_crossed_factors` of a checked design and spec: the base part
    `base`, or the one of X_base when it is None, and the amount part of
    X_A under the coding `coded`, or None where a gate fails."""
    if base is None:
        X_base = _crossed_rows(design, spec)
        if X_base is None or _constant(X_base).any():
            return None
    base_spec, amount_spec = spec._parts
    X_A = _amount_rows(design, amount_spec, coded)
    try:
        base = base or (base_spec, _Factor(X_base, base_spec.labels))
        amount = (amount_spec, _Factor(X_A, amount_spec.labels))
    except (InvalidParameter, SingularInformation):
        return None
    if base[1].rcond * amount[1].rcond < RCOND_FLOOR:
        return None
    return base, amount


def _model_parts(design: Design, spec: ModelSpec, coded: bool = False) -> tuple:
    """The (spec, factor) parts of the design's model matrix under `spec`,
    raw or `coded`: the two of `_crossed_factors` on its path, else one,
    the spec and the factor of its full model matrix."""
    parts = _crossed_factors(design, spec, coded)
    if parts is None:
        return ((spec, _factor((coded_model_matrix if coded else model_matrix)(design, spec))),)
    return parts


def _blocks(count: int):
    """Row blocks of at most `_FDS_BLOCK` rows covering range(count); a
    one-row tail joins the block before it, since numpy hands a one-row
    product to gemv, whose bits can differ from gemm's."""
    edges = list(range(0, count, _FDS_BLOCK)) + [count]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return zip(edges, edges[1:])


@dataclass(frozen=True, eq=False)
class FdsCurve:
    """Sorted prediction variances over a random sample of the design space."""

    variances: np.ndarray
    n_samples: int
    seed: int
    policy: object
    sign_policy: str = "orderings"

    @property
    def fractions(self) -> np.ndarray:
        s = self.n_samples
        return np.arange(1, s + 1) / s

    def fraction_below(self, value: float) -> float:
        """Fraction of sampled space with prediction variance < value, a
        real number that is not NaN."""
        if not _is_real(value):
            raise InvalidParameter(f"value must be a real number, not NaN, got {_shown(value)}")
        return float(np.searchsorted(self.variances, value, side="left")) / self.n_samples

    def quantile(self, fraction: float) -> float:
        """The smallest sampled variance with at least `fraction` of the
        samples at or below it; `fraction` is a real number in [0, 1]."""
        if not (_is_real(fraction) and 0 <= fraction <= 1):
            raise InvalidParameter(f"fraction must be a real number in [0, 1], got {_shown(fraction)}")
        i = min(self.n_samples - 1, max(0, int(math.ceil(fraction * self.n_samples)) - 1))
        return float(self.variances[i])

    def to_text(self) -> str:
        header = f"# fds seed={self.seed} samples={self.n_samples} policy={self.policy} signs={self.sign_policy}\n"
        pairs = np.empty(2 * self.n_samples)
        pairs[0::2] = self.fractions
        pairs[1::2] = self.variances
        return header + ("%.6f %.10e\n" * self.n_samples) % tuple(pairs.tolist())


def fds_curve(
    design: Design,
    spec: ModelSpec,
    n_samples: int,
    seed: int,
    amount_policy=None,
    workers: int = 1,
    sign_policy: str = "orderings",
) -> FdsCurve:
    """Monte Carlo FDS curve for a design under a model spec.

    Sampling is uniform over the order-of-addition design space:
    proportions uniform on the simplex by the exponential-spacings method,
    the addition order uniform over the permutations of a full support, and
    the total amount per `amount_policy` (default: continuous between the
    design's smallest and largest levels).  Sampled sign factors are masked
    to zero whenever an involved amount is zero.

    `sign_policy="orderings"` (the default) realizes the sign factors from
    a random addition order, so they are +-1 and transitive.
    `sign_policy="continuous"` instead draws each sign factor uniformly
    from [-1, 1] the way generic DOE software treats numeric factors; that
    relaxed space is the one on which this design family's documented
    majority-below-the-design-maximum claims hold.

    Samples are drawn in fixed-size chunks with counter-based seeds, so the
    curve is bit-identical for a given (seed, n_samples, policies) tuple on
    one BLAS build (another build may pick other kernels and move the last
    bits).  The model is read as its (spec, factor) parts
    (`_model_parts`): one, the spec and the factor of its full model
    matrix, or, for a mixture-amount spec whose terms are one base list
    times A^t for t = 0..T (eq1, eq2, eq5, eq6) on a crossed design, one
    whose amount levels each hold the same multiset of base runs (point
    values and sign tuple, compared by value), two (`_crossed_factors`):
    the base spec with the factor of X_base, the first level's base rows,
    and the amount spec of the terms 1, A, ..., A^T with the factor of
    X_A, the levels' powers of A.  There M^{-1} = M_A^{-1} (x)
    M_base^{-1}, so each variance is exactly d_base(x, z) d_A(A); it
    agrees with the full product to rounding (within 1e-13 relative on the
    paper's designs).  The full model matrix is built and factored only
    off that path or when a gate of `_crossed_factors` fails (a small
    factor raises, or the product of their reciprocal conditions, which is
    the full matrix's, is below 1e-10), so the errors are those of every
    other path.  The parts are recognized and factored once per design and
    spec and kept in the design's memo (see the module docstring), so a
    second curve of the design, or one after `evaluate_design`, factors
    nothing.

    Every per-sample array of a chunk is laid out in columns: the
    proportions, the order keys, the component amounts, the signs drawn
    from the keys and the model rows are (c, k) F-ordered views of (k, c)
    buffers, so each step reads and writes a component's or a column's
    samples as one contiguous run.  One call allocates, for chunks of
    c = min(8192, n_samples) samples, buffers it reuses for every chunk: a
    C-ordered scratch of c * m floats that the exponentials, then the
    order keys and last the total amounts are drawn into, in stream order
    (see `_sample_chunk`), and column buffers of c * m floats each for the
    proportions, the keys and the component amounts; a (c, pairs) sign
    buffer; one flat row buffer of p * c floats, p the widest part's
    terms, whose columns each term's product is written into in place
    (``models.term_columns``); a flat product buffer of min(2049, c) rows
    of p; and one of min(2049, c) floats, so no chunk makes a large
    allocation.  No buffer outlives the call.  Under continuous signs
    nothing reads the order keys, so the stream is advanced past them
    rather than drawn (see `_sample_chunk`); the signs are drawn as
    uniforms into one more C-ordered buffer of c * pairs floats and mapped
    onto (-1, 1) in place, and the amounts are those of a draw.  The
    n_samples result, which the curve keeps, is allocated after the
    buffers; an n_samples too large to allocate raises InvalidParameter.
    A seed of more than 4300 digits, which the curve's text could not
    show, raises InvalidParameter before anything is drawn.

    For each chunk, each part's rows are built in turn, as a view of the
    row buffer, so each model column is written with one contiguous store.
    Their variances are then formed in blocks of 2048 rows, whose product
    buffer stays in a 2 MB L2 cache at p = 36: the first part's are
    written into the result and every later part's multiplied into it.  A
    one-row tail joins the block before it: numpy hands a one-row product
    to gemv, whose bits can differ from gemm's.  The returned curve owns
    its array and shares no memory with another.

    `workers` must be at least 1 and is otherwise unused: the chunks run
    serially (threads bought wall time only with more CPU), so the output
    does not depend on it.
    """
    n_samples = _int_in_range("n_samples", n_samples, 100)
    seed = _int_in_range("seed", seed, 0)
    if _digits(seed) > _SIZE_DIGITS:
        raise InvalidParameter(f"seed must have at most {_SIZE_DIGITS} digits, got {_shown(seed)}")
    if not (isinstance(sign_policy, str) and sign_policy in ("orderings", "continuous")):
        raise InvalidParameter(f"sign_policy must be 'orderings' or 'continuous', got {_shown(sign_policy)}")
    _int_in_range("workers", workers, 1)
    if amount_policy is not None and not isinstance(amount_policy, (ContinuousAmounts, DiscreteAmounts)):
        raise InvalidParameter(
            f"amount_policy must be None, ContinuousAmounts or DiscreteAmounts, got {_shown(amount_policy)}"
        )
    parts = _model_parts(design, spec)
    policy = amount_policy if amount_policy is not None else _default_policy(design)
    m, p = spec.m, max(part.p for part, _ in parts)
    chunk = min(_FDS_CHUNK, n_samples)
    block = min(_FDS_BLOCK + 1, chunk)
    # the scratch first, the result the curve keeps last
    draws = np.empty((3, chunk * m))
    comps = np.empty((m, chunk)).T
    z = np.empty((m * (m - 1) // 2, chunk)).T
    sign_draws = np.empty(chunk * (m * (m - 1) // 2)) if sign_policy == "continuous" else None
    rows = np.empty(p * chunk)
    work = np.empty(block * p)
    factor_pv = np.empty(block)
    try:
        variances = np.empty(n_samples)
    except (ValueError, MemoryError):
        raise InvalidParameter(f"n_samples={_shown(n_samples)} is too many to hold in memory") from None
    for index, start in enumerate(range(0, n_samples, _FDS_CHUNK)):
        count = min(_FDS_CHUNK, n_samples - start)
        x, keys, signs, amounts = _sample_chunk(seed, index, count, m, policy, sign_policy, draws, sign_draws)
        for k, (part, fac) in enumerate(parts):
            out = rows[: part.p * count].reshape(part.p, count).T
            F = _rows_from_samples(part, x, keys, signs, amounts, out=out, z=z[:count], comps=comps[:count])
            for lo, hi in _blocks(count):
                d = variances[start + lo : start + hi]
                G = work[: (hi - lo) * part.p].reshape(hi - lo, part.p)
                if k:
                    d *= fac.pv(F[lo:hi], out=factor_pv[: hi - lo], work=G)
                else:
                    fac.pv(F[lo:hi], out=d, work=G)
    variances.sort()
    return FdsCurve(
        variances=variances,
        n_samples=n_samples,
        seed=seed,
        policy=policy,
        sign_policy=sign_policy,
    )


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermStats:
    label: str
    se: float
    r2: float
    power: float


@dataclass(frozen=True, eq=False)
class EvalReport:
    n_runs: int
    n_params: int
    max_pv: float
    avg_pv: float
    max_pv_n_scaled: float
    g_efficiency_pct: float
    d_criteria: dict
    rcond: float
    coding: str
    signal_sd: float
    alpha: float
    terms: tuple[TermStats, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "terms": [asdict(t) for t in self.terms]}


def evaluate_design(
    design: Design,
    spec: ModelSpec,
    signal_sd: float = 2.0,
    alpha: float = 0.05,
    *,
    coding: str = "coded",
) -> EvalReport:
    """Full criteria bundle for a design under a model spec.

    Leverage-based quantities (max/avg prediction variance, G-efficiency)
    do not depend on the column coding.  The determinant criteria (log|X'X|
    of table5 under eq8 is 213.58 raw, 14.81 coded), per-term standard
    errors, multicollinearity R^2, and power do: `coding="coded"` (the
    default) centers and scales numeric amount factors to [-1, 1] before
    building terms, which is the convention under which the bundled
    reference designs' documented per-term columns reproduce;
    `coding="raw"` uses the design's own units.  Standard errors assume
    unit error variance.

    Every field is read from the (spec, factor) parts of the model matrix
    (`_model_parts`), the raw ones for the leverages and rcond and those of
    the coding for the rest: one part, the full matrix, or on a crossed
    mixture-amount design (`_crossed_factors`) two, X_base and X_A, with no
    full matrix built.  Each run's leverage is the product of its parts',
    so max_pv and avg_pv are products of the parts' maxima and means; diag
    M^{-1} is the Kronecker product of the parts' (X_A's first, in the
    full matrix's column order); log|X'X| is the sum over parts of
    (p / p_k) log|M_k|; and rcond is the product of the raw parts'.  Only
    R^2 tells the two forms apart: one part's is its factor's, and on two
    the centred sum of squares of the Kronecker column a (x) f is
    sum(a^2) SST_f + n_base SST_a mean(f)^2 (`_kron_sst`).  On two parts
    the report agrees with the per-matrix functions to about 1e-13
    relative.
    """
    if not (isinstance(coding, str) and coding in ("coded", "raw")):
        raise InvalidParameter(f"coding must be 'coded' or 'raw', got {_shown(coding)}")
    _check_power_args(signal_sd, alpha)
    raw = _model_parts(design, spec)
    # X_A's factor first: the full matrix's columns are amount-major
    term = [fac for _, fac in reversed(_model_parts(design, spec, True) if coding == "coded" else raw)]
    lev = [fac.pv(fac.X) for _, fac in raw]
    max_pv = float(math.prod(d.max() for d in lev))
    avg_pv = float(math.prod(d.mean() for d in lev))
    inverse_diag = reduce(np.kron, [fac.inverse_diag() for fac in term])
    if len(term) == 1:
        r2 = term[0].r2
    else:
        a, f = (fac.X for fac in term)
        r2 = _r2(_kron_sst(a, f), inverse_diag, np.kron(_constant(a), _constant(f)))
    log_det = sum(spec.p // fac.X.shape[1] * fac.log_det for fac in term)
    rcond = math.prod(fac.rcond for _, fac in raw)
    n, p = len(design), spec.p
    se = np.sqrt(inverse_diag)
    pw = _nct_two_sided(SIGNAL_HALF_RANGE * signal_sd / se, n - p, alpha) if n > p else np.full(p, np.nan)
    return EvalReport(
        n_runs=n,
        n_params=p,
        max_pv=max_pv,
        avg_pv=avg_pv,
        max_pv_n_scaled=max_pv * n,
        g_efficiency_pct=g_efficiency(p, n, max_pv),
        d_criteria=_d_criteria(log_det, n, p),
        rcond=rcond,
        coding=coding,
        signal_sd=signal_sd,
        alpha=alpha,
        terms=tuple(
            TermStats(label=label, se=float(s), r2=float(r), power=float(w))
            for label, s, r, w in zip(spec.labels, se, r2, pw)
        ),
    )


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OlsFit:
    coef: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    df_resid: int
    sse: float
    sigma2: float


def fit_ols(X, y) -> OlsFit:
    """Least squares on the one factor of X: coef = W W'X'y, then one
    refinement step against its residual.  An X that no criterion accepts
    (N < p, or an equilibrated reciprocal condition below 1e-10) raises
    SingularInformation naming the near-null-space columns; a y that is not
    N finite values raises InvalidParameter."""
    fac = _factor(X)
    n, p = fac.X.shape
    try:
        y = np.asarray(y, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(f"y needs {n} finite values") from None
    if y.shape != (n,) or not np.isfinite(y).all():
        raise InvalidParameter(f"y needs {n} finite values, got shape {y.shape}")
    coef = fac.solve(y)
    coef = coef + fac.solve(y - fac.X @ coef)
    fitted = fac.X @ coef
    residuals = y - fitted
    sse = float(residuals @ residuals)
    df = n - p
    sigma2 = sse / df if df > 0 else float("nan")
    return OlsFit(coef=coef, fitted=fitted, residuals=residuals, df_resid=df, sse=sse, sigma2=sigma2)
