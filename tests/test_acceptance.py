"""Acceptance gate: one test per criterion, each reading the result of
the verification suite that implements it at its fixed tolerance from the
session's one ``run_all`` (the ``verify_run`` fixture) and printing one
pass/fail line (run pytest with -s to see them)."""

import inspect

import pytest

from cosserat_plate import verification as V

CRITERIA = (
    ("criterion-01", V.suite_roundtrip_3d),
    ("criterion-02", V.suite_energy_positivity),
    ("criterion-03", V.suite_plate_quadratic_consistency),
    ("criterion-04", V.suite_thickness_roundtrip),
    ("criterion-05", V.suite_operator_residual),
    ("criterion-06", V.suite_classical_limit),
    ("criterion-07", V.suite_convergence),
    ("criterion-08", V.suite_energy_conservation),
    ("criterion-09", V.suite_hpr_stationarity),
    ("criterion-10", V.suite_dispersion_sanity),
)


@pytest.mark.parametrize("label,suite", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(label, suite, verify_run):
    k = V.ALL_SUITES.index(suite)
    # run_all gives suite k the seed k, its default: the standalone result
    assert inspect.signature(suite).parameters["seed"].default == k
    result = verify_run[0][k]
    print(f"{label} {result.line()}")
    assert result.passed, result.details


def test_diff_table_artifact(tmp_path):
    """The coefficient diff table is emitted and nonfailing (criterion 5's
    documentation artifact)."""
    path = tmp_path / "coefficient_diff.csv"
    V.write_diff_table(path)
    text = path.read_text()
    assert text.startswith("entry,")
    assert "k3" in text
