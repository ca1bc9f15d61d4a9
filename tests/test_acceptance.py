"""One test per reproduction check; each prints as its own pass/fail line."""

import pytest

from discweil.acceptance import CHECKS, run_check


@pytest.mark.parametrize(
    "index", range(1, len(CHECKS) + 1), ids=[name for name, _ in CHECKS]
)
def test_criterion(index):
    result = run_check(index)
    assert result["passed"], "%s: %s (%.1fs)" % (
        result["name"],
        result["detail"],
        result["seconds"],
    )


def test_dimension_formulas_under_a_lowered_bound(monkeypatch):
    # |D_{12,2}| = 576 is over a bound of 400, so check 3 takes the
    # p-primary product route for it, as it does for (30, 6) by default
    monkeypatch.setenv("WEILREP_MAX_D", "400")
    result = run_check(3)
    assert result["passed"], result["detail"]
    assert "kernel cross-checks [(6, 2, 10), (4, 2, 8)];" in result["detail"]
    assert "product route [(12, 2, 16, 16), (30, 6, 70, 70)]" in result["detail"]
