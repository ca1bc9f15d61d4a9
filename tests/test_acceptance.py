"""One test per reproduction check; each prints as its own pass/fail line."""

from types import SimpleNamespace

import pytest

import discweil.acceptance as A
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
    # |D_{12,2}| = 576 is over a bound of 400, as |D_{30,6}| = 32400 is over
    # the default one: check 3 certifies both through their p-primary parts
    monkeypatch.setenv("WEILREP_MAX_D", "400")
    result = run_check(3)
    assert result["passed"], result["detail"]
    assert result["detail"].endswith(
        "certified dimensions match dimension_formula at"
        " [(6, 2, 10), (4, 2, 8), (12, 2, 16), (30, 6, 70)]"
    )


def test_budgets_are_timed_on_the_monotonic_clock(monkeypatch):
    # a wall clock can step; with only time.monotonic reachable, a check
    # read as 500 s long overruns its 120 s budget and p = 7 its 60 s one
    ticks = iter([0.0, 500.0])
    monkeypatch.setattr(A, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    monkeypatch.setattr(A, "CHECKS", [("stub", lambda: (True, "ok", 120.0))])
    assert run_check(1) == {"index": 1, "name": "stub", "passed": False,
                            "detail": "ok [exceeded 120s budget]", "seconds": 500.0}
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 66.0])
    monkeypatch.setattr(A, "verify_eta_prime", lambda p, prec: {"verified": True})
    assert A.check_eta_prime_identities() == (False, "failures [], over budget [(7, 60.0)]", None)
