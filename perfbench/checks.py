"""Reference values the benchmark checks the program's outputs against.

Designs are compared byte for byte with the packaged tables; the paper
studies' criteria against their derivable or documented values; FDS curves
against reference quantiles, by the fraction of the curve that falls below
each one, within a Monte Carlo tolerance.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_TOL = 1e-9

# Expected report values as (value, tolerance).  Example 1 (table3, eq6):
# both pv values follow from the printed design.  Example 2 (table5, eq8):
# documented values with half a unit of their last printed digit.
STUDIES = {
    "table3-eq6": {
        "n_runs": (63, 0),
        "n_params": (36, 0),
        "avg_pv": (36 / 63, EXACT_TOL),
        "max_pv": (97 / 126, EXACT_TOL),
    },
    "table5-eq8": {
        "n_runs": (31, 0),
        "n_params": (16, 0),
        "avg_pv": (16 / 31, EXACT_TOL),
        "max_pv": (0.9596, 5e-5),
        "g_efficiency_pct": (53.8, 0.05),
    },
}
# Example 2's z12 row in coded units at a 2-SD signal; the documented R^2
# 0.8416 is truncated from 101/120, hence a whole unit.
TABLE5_Z12_CODED = {"se": (0.63, 0.005), "r2": (0.8416, 1e-4), "power": (0.320, 5e-4)}

# sha256 of the CLI outputs that no packaged table holds.
DIGESTS = {
    "generate lattice 3 3": "cbb2e6079bf679b355f2a671cd5cdfb1bf4395d4d5aa240f0dea9c0ce4594f8c",
    "generate centroid 4": "875a734bb82511d96799294d7b7fa2a797c0a68a57f5fb72eba876104d6155e9",
    "project drop 4": "48c5c348d93390c7ac3293b1dad89fd4cf951ca0b9012c6a5c79ced58a7f49cb",
}

# FDS reference quantiles at FDS_FRACTIONS, from fds_curve(..., n_samples=
# 4_000_000, seed=20241004) on the packaged tables.  Seeded curves may move at
# the ULP level between versions, so they are compared statistically.
FDS_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)
FDS_REFERENCE = {
    "table3-eq6-orderings": (0.542908, 0.784587, 1.2252, 1.89058, 2.76593),
    "table5-eq8-orderings": (0.904589, 1.37654, 2.00101, 2.83012, 3.64088),
    "table5-eq8-continuous-signs": (0.283428, 0.479279, 0.84298, 1.35263, 1.93316),
    "table3-eq6-discrete-amounts": (0.613563, 0.875077, 1.33038, 1.91724, 2.77854),
}


def close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol


def fds_problems(variances, n_samples: int, config: str) -> list[str]:
    """Why a sorted FDS curve does not match its reference, if it does not.

    The fraction of n samples below a reference quantile is binomial around
    its fraction, so it must lie within six standard errors of it (plus
    0.002 for the reference's own sampling error).
    """
    v = np.asarray(variances, dtype=float)
    if v.shape != (n_samples,):
        return [f"{config}: {v.shape} values, expected {n_samples}"]
    if not np.all(np.isfinite(v)) or np.any(np.diff(v) < 0):
        return [f"{config}: curve is not finite and sorted"]
    out = []
    for f, q in zip(FDS_FRACTIONS, FDS_REFERENCE[config]):
        got = np.searchsorted(v, q, side="left") / n_samples
        tol = 6.0 * math.sqrt(f * (1.0 - f) / n_samples) + 0.002
        if abs(got - f) > tol:
            out.append(f"{config}: {got:.4f} of the curve below q{f} = {q}, expected {f} +- {tol:.4f}")
    return out


def parse_fds_text(text: str) -> tuple[str, np.ndarray]:
    """Header line and prediction variances of an `oamix fds` curve file."""
    header, _, body = text.partition("\n")
    tokens = body.split()
    return header, np.array(tokens[1::2], dtype=float)


def report_problems(report: dict, study: str) -> list[str]:
    """Why an evaluation report (as `EvalReport.to_dict`) misses its study's values."""
    out = [
        f"{key} {report.get(key)} != {want} +- {tol}"
        for key, (want, tol) in STUDIES[study].items()
        if not close(report.get(key), want, tol)
    ]
    if study == "table5-eq8" and report.get("coding") == "coded":
        z12 = next((t for t in report.get("terms", ()) if t["label"] == "z12"), None)
        if z12 is None:
            return out + ["no z12 term"]
        out += [
            f"z12 {field} {z12[field]} != {want} +- {tol}"
            for field, (want, tol) in TABLE5_Z12_CODED.items()
            if not close(z12[field], want, tol)
        ]
    return out
