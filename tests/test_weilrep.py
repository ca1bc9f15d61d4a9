from fractions import Fraction as F

import pytest

from discweil import weilrep as W
from discweil.fqmod import FqModule, hyperbolic_pair
from discweil.groupring import GroupRingVector
from discweil.subgroups import EnumerationBoundError, enumerate_subgroups

A1 = FqModule((2,), [F(1, 4)], [[F(1, 2)]])  # signature 1
A2 = FqModule((3,), [F(1, 3)], [[F(2, 3)]])  # signature 2


def test_relations_small_modules_any_signature():
    # S^4 = e(-sig/2) id, so it is the identity exactly for even signature
    for m in (A1, A2, hyperbolic_pair(2, 1), hyperbolic_pair(3, 1)):
        rep = W.weil_relations_report(m)
        assert rep["st3"], m
        assert rep["s_unitary"] and rep["t_unitary"]
        assert rep["s2_is_negation"]
        assert rep["s4"] == (m.signature_mod8() % 2 == 0), m


def test_relations_fast_path_matches_dense():
    m = hyperbolic_pair(4, 1)
    fast = W.weil_relations_report(m)
    dense = W._relations_dense(m)
    for k in ("s4", "st3", "s_unitary", "t_unitary"):
        assert fast[k] == dense[k] is True


def test_apply_S_on_e0():
    m = hyperbolic_pair(2, 1)
    vec = [F(0)] * m.size
    vec[m.index((0, 0, 0, 0))] = F(1)
    out = W.apply_S(m, vec)
    assert all(x == F(1, 2) for x in out)


def test_apply_T_phases():
    m = hyperbolic_pair(3, 1)
    from discweil.cyclo import exp_frac

    vec = [F(1)] * m.size
    out = W.apply_T_power(m, 2, vec)
    for i, x in enumerate(m.element_list):
        assert out[i] == exp_frac(2 * m.q_value(x))


def test_apply_S_matches_matrix():
    m = hyperbolic_pair(3, 1)
    vec = [F(i % 4 - 1) for i in range(m.size)]
    by_mat = W.rho_S(m).apply(vec)
    by_fn = W.apply_S(m, vec)
    assert all(a == b for a, b in zip(by_mat, by_fn))


def test_sl2_word_round_trip():
    mats = [((2, 1), (7, 4)), ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((5, 2), (12, 5))]
    for mat in mats:
        word = W.sl2_word(mat)
        assert W.evaluate_word(word) == mat


def test_rho_is_a_homomorphism_through_words():
    m = hyperbolic_pair(2, 1)
    mat = ((2, 1), (7, 4))
    vec = [F(1), F(0), F(2), F(0)]
    direct = W.rho(m, mat).apply(vec)
    word = W.sl2_word(mat)
    assert W.apply_word(m, word, vec) == direct


def test_verify_mu():
    m = hyperbolic_pair(6, 1)
    for u in (1, 5):
        assert W.verify_mu(m, u)["ok"]


def test_vH_action_all_subgroups():
    m = hyperbolic_pair(6, 1)
    for h in enumerate_subgroups(m):
        assert W.check_vH_action(m, h)


def test_invariant_space_methods_agree():
    for N, Np, want in [(2, 1, 2), (6, 1, 4), (2, 2, 5)]:
        m = hyperbolic_pair(N, Np)
        ker = W.invariant_space(m, method="kernel")
        sub = W.invariant_space(m, method="subgroups")
        assert len(ker) == len(sub) == want
        from discweil.linalg import same_rational_span

        iso = list(m.isotropic_indices)
        a = [[v.get(g) for g in iso] for v in ker]
        b = [[v.get(g) for g in iso] for v in sub]
        assert same_rational_span(a, b)


def test_invariant_vectors_are_fixed_by_generators():
    m = hyperbolic_pair(4, 1)
    for v in W.invariant_space(m):
        dense = v.dense_rational()
        assert W.apply_S(m, dense) == dense
        assert W.apply_T_power(m, 1, dense) == dense


def test_selfdual_span_report():
    rep = W.verify_selfdual_span(hyperbolic_pair(6, 1))
    assert rep == {
        "dimension": 4,
        "family_size": 4,
        "family_rank": 4,
        "span_equal": True,
    }


def test_env_var_bound_governs_dense_tables(monkeypatch):
    # |D| = 16 is over a bound of 10, so the dense tables are refused
    m = hyperbolic_pair(4, 1)
    monkeypatch.setenv("WEILREP_MAX_D", "10")
    with pytest.raises(EnumerationBoundError):
        W.weil_relations_report(m)
    # also when the tables were built before the bound was lowered
    monkeypatch.delenv("WEILREP_MAX_D")
    assert W.weil_relations_report(m)["s4"]
    monkeypatch.setenv("WEILREP_MAX_D", "10")
    with pytest.raises(EnumerationBoundError):
        W.weil_relations_report(m)
