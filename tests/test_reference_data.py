"""Packaged fixtures match freshly constructed designs byte for byte, and
their evaluation reproduces the headline statistics."""

import pytest

from oamix import (
    evaluate_design,
    g_efficiency,
    leverages,
    model_matrix,
    reference_design,
    write_design,
)
from oamix import io
from oamix.errors import InvalidParameter


@pytest.mark.parametrize("name", ["table1", "table2", "table3", "table5"])
def test_fixture_equals_fresh_construction(name, table1, table2, table3, table5):
    fresh = {"table1": table1, "table2": table2, "table3": table3, "table5": table5}[name]
    packaged = reference_design(name)
    assert packaged == fresh
    assert write_design(packaged) == write_design(fresh)


@pytest.mark.parametrize("name", ["nope", None, 3, "../table1"], ids=["unknown", "None", "int", "path"])
def test_unknown_reference_design_is_refused_before_reading(monkeypatch, name):
    monkeypatch.setattr(io, "resources", None)  # any look at package data fails
    with pytest.raises(InvalidParameter, match="^reference design must be one of table1, table2, table3, table5, got "):
        reference_design(name)


def test_fixture_evaluation_reproduces_statistics(spec6, spec8):
    lev = leverages(model_matrix(reference_design("table2"), spec8))
    assert g_efficiency(16, 31, lev.max()) == pytest.approx(53.79, abs=0.3)
    report = evaluate_design(reference_design("table5"), spec8, signal_sd=2.0)
    assert report.avg_pv == pytest.approx(16 / 31, abs=1e-8)
    assert report.d_criteria["n_scaled_inverse"] == pytest.approx(12.29, abs=0.05)
