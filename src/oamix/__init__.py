"""Order-of-addition mixture-amount and component-amount designs.

Construction pipeline: simplex base designs (lattice/centroid), column
projection into amount designs, expansion over addition orders with
pairwise-order sign factors, amount crossing or scaling.  Evaluation:
prediction variance, G-efficiency, determinant criteria, FDS curves,
standard errors, multicollinearity, and power.
"""

from .core import (
    Design,
    DesignPoint,
    Kind,
    OofARun,
    as_fraction,
    total_amount,
    validate_point,
)
from .errors import OamixError
from .io import read_design, reference_design, write_design
from .oofa import (
    cross_amounts,
    oofa_expand,
    ordering_from_pwo,
    pwo_from_ordering,
    pwo_pairs,
    scale_amounts,
    validate_design,
    validate_run,
)
from .simplex import project_columns, simplex_centroid, simplex_lattice

__version__ = "0.1.0"

# The model and evaluation names load numpy, which the construction steps
# never need, so they are imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(
        (
            "ContinuousAmounts",
            "DiscreteAmounts",
            "EvalReport",
            "FdsCurve",
            "OlsFit",
            "d_criteria",
            "evaluate_design",
            "fds_curve",
            "fit_ols",
            "g_efficiency",
            "leverages",
            "power",
            "prediction_variance",
            "r2_multicollinearity",
            "std_errors",
        ),
        "evaluate",
    ),
    **dict.fromkeys(("ModelKind", "ModelMatrix", "ModelSpec", "Term", "build_spec", "model_matrix"), "models"),
}


def __getattr__(name: str):
    module = _LAZY.get(name, name if name in ("evaluate", "models") else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    # what dir() listed when every submodule was imported eagerly
    names = set(globals()) - {"_LAZY", "__getattr__", "__dir__"}
    return sorted(names | set(_LAZY) | {"evaluate", "models"})


__all__ = [
    "Design",
    "DesignPoint",
    "Kind",
    "OofARun",
    "as_fraction",
    "total_amount",
    "validate_point",
    "OamixError",
    "ContinuousAmounts",
    "DiscreteAmounts",
    "EvalReport",
    "FdsCurve",
    "d_criteria",
    "evaluate_design",
    "fds_curve",
    "g_efficiency",
    "leverages",
    "power",
    "prediction_variance",
    "r2_multicollinearity",
    "std_errors",
    "read_design",
    "reference_design",
    "write_design",
    "ModelKind",
    "ModelMatrix",
    "ModelSpec",
    "OlsFit",
    "Term",
    "build_spec",
    "fit_ols",
    "model_matrix",
    "cross_amounts",
    "oofa_expand",
    "ordering_from_pwo",
    "pwo_from_ordering",
    "pwo_pairs",
    "scale_amounts",
    "validate_design",
    "validate_run",
    "project_columns",
    "simplex_centroid",
    "simplex_lattice",
    "__version__",
]
