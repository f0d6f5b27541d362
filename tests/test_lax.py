from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ybsl21.lax import (SpectralTriple, apply_fundamental_r,
                        apply_matrix_on_leg, build_lax, build_lax_factorized,
                        build_lax_tensor, check_invariance, check_rll,
                        covariant_derivatives, matrices_equal)
from ybsl21.opalg import (EvenDeriv, MulOdd, OddDeriv, Scalar, compose,
                          equal_on_degree, op_sum)
from ybsl21.sl21 import Weight
from ybsl21.superpoly import (SuperPolynomial, enumerate_basis, monomial_poly,
                              theta, theta_bar)

T = SpectralTriple.from_weight(Q(2), Weight(Q(1), Q(1, 3)))


def test_parametrization_roundtrip_examples():
    u, w = T.to_weight()
    assert (u, w.ell, w.b) == (Q(2), Q(1), Q(1, 3))
    assert T.as_tuple() == (Q(10, 3), Q(8, 3), Q(4, 3))


rationals = st.fractions(min_value=-6, max_value=6)


@settings(max_examples=30, deadline=None)
@given(rationals, rationals, rationals)
def test_parametrization_roundtrip_random(u1, u2, u3):
    t = SpectralTriple(u1, u2, u3)
    u, w = t.to_weight()
    assert SpectralTriple.from_weight(u, w).as_tuple() == t.as_tuple()


def test_printed_entries():
    lax = build_lax(1, T, "chiral", nsites=1)
    # entry(1,2) = -(d_thb + th d/2)
    want12 = -1 * op_sum(OddDeriv(theta_bar(1)),
                         Q(1, 2) * compose(MulOdd(theta(1)), EvenDeriv(1)))
    assert equal_on_degree(lax.entry(1, 2), want12, 3, nsites=1).passed
    # entry(3,3) = -z d - th d_th + u3
    from ybsl21.opalg import MulZ
    want33 = op_sum(-1 * (MulZ(1) @ EvenDeriv(1)),
                    -1 * (MulOdd(theta(1)) @ OddDeriv(theta(1))),
                    Scalar(T.u3))
    assert equal_on_degree(lax.entry(3, 3), want33, 3, nsites=1).passed


def test_tensor_construction_equals_printed():
    for t in (T, SpectralTriple(Q(1, 2), Q(-3), Q(7, 5))):
        lp = build_lax(1, t, "chiral", nsites=1)
        lt = build_lax_tensor(1, t, "chiral", nsites=1)
        assert matrices_equal(lp, lt, 3, nsites=1).passed


def test_tensor_construction_sign_matters():
    # dropping the Koszul sign on entry (1,2) must break the equality
    lt = build_lax_tensor(1, T, "chiral", nsites=1)
    lp = build_lax(1, T, "chiral", nsites=1)
    broken = [[lt.entries[i][k] for k in range(3)] for i in range(3)]
    broken[0][1] = -1 * broken[0][1]
    from ybsl21.lax import SuperMatrixOperator
    assert not matrices_equal(lp, SuperMatrixOperator(broken), 2,
                              nsites=1).passed


def test_antichiral_names_equal_tensor():
    la = build_lax(1, T, "antichiral", nsites=1)
    lta = build_lax_tensor(1, T, "antichiral", nsites=1)
    assert matrices_equal(la, lta, 3, nsites=1).passed


@pytest.mark.parametrize("t", [
    T,
    SpectralTriple(Q(1, 2), Q(-3), Q(7, 5)),
    SpectralTriple(Q(-2, 7), Q(4), Q(0)),
])
def test_factorized_equals_explicit(t):
    lp = build_lax(1, t, "chiral", nsites=1)
    lf = build_lax_factorized(1, t, nsites=1)
    assert matrices_equal(lp, lf, 4, nsites=1).passed


def test_factorized_even_sector_corner():
    # at th = thb = 0 the (1,1) entry acts as z d + u1 on even polynomials
    lf = build_lax_factorized(1, T, nsites=1)
    z = SuperPolynomial.z_var(1, 1)
    for p in (SuperPolynomial.one(1), z, z * z):
        from ybsl21.opalg import MulZ
        want = (MulZ(1) @ EvenDeriv(1)).apply(p) + T.u1 * p
        assert lf.entry(1, 1).apply(p) == want


def test_factorized_middle_only_differs():
    from ybsl21.lax import SuperMatrixOperator, covariant_derivatives
    d_minus, d_plus = covariant_derivatives(1)
    zero = Scalar(0)
    mid = SuperMatrixOperator([
        [Scalar(T.u1), d_minus, -1 * EvenDeriv(1)],
        [zero, Scalar(T.u2 - 1), -1 * d_plus],
        [zero, zero, Scalar(T.u3)]])
    lp = build_lax(1, T, "chiral", nsites=1)
    assert not matrices_equal(lp, mid, 2, nsites=1).passed


def test_covariant_derivative_anticommutators():
    # each covariant derivative squares to zero; the cross anticommutator
    # is proportional to the even derivative
    d_minus, d_plus = covariant_derivatives(1)
    from ybsl21.opalg import graded_commutator
    assert equal_on_degree(graded_commutator(d_minus, d_minus), Scalar(0), 3,
                           nsites=1).passed
    assert equal_on_degree(graded_commutator(d_plus, d_plus), Scalar(0), 3,
                           nsites=1).passed
    assert equal_on_degree(graded_commutator(d_plus, d_minus),
                           -1 * EvenDeriv(1), 3, nsites=1).passed


def test_fundamental_rmatrix_agrees_with_leg_action():
    from ybsl21.lax import fundamental_rmatrix
    one = SuperPolynomial.one(1)
    u = Q(5, 3)
    triples = fundamental_rmatrix(u)
    for i in range(3):
        for j in range(3):
            want = apply_fundamental_r(u, 0, 1, {(i, j): one})
            got = {}
            for tgt, src, c in triples:
                if src == (i, j):
                    got[tgt] = got.get(tgt, SuperPolynomial.zero(1)) + c * one
            got = {k: v for k, v in got.items() if not v.is_zero()}
            assert got == want


def test_fundamental_permutation_signs():
    one = SuperPolynomial.one(1)
    # P(e2 x e2) = -e2 x e2 : the only negated swap
    state = {(1, 1): one}
    out = apply_fundamental_r(0, 0, 1, state)
    assert out == {(1, 1): -1 * one}
    state = {(0, 2): one}
    out = apply_fundamental_r(0, 0, 1, state)
    assert out == {(2, 0): one}
    # P^2 = identity on all 9 pairs
    for i in range(3):
        for j in range(3):
            s = {(i, j): one}
            assert apply_fundamental_r(0, 0, 1,
                                       apply_fundamental_r(0, 0, 1, s)) == s


@pytest.mark.parametrize("kind", ["chiral", "antichiral"])
def test_rll(kind):
    assert check_rll(Weight(Q(1), Q(1, 3)), Q(2), Q(1, 2), 2, kind).passed


def test_rll_equal_arguments():
    assert check_rll(Weight(Q(1), Q(1, 3)), Q(1), Q(1), 2, "chiral").passed


def test_rll_detects_corruption():
    # flip the sign of entry (1,2) of L(u); the relation must fail
    w = Weight(Q(1), Q(1, 3))
    u, v = Q(2), Q(1, 2)
    l_u = build_lax(1, SpectralTriple.from_weight(u, w), "chiral", nsites=1)
    l_v = build_lax(1, SpectralTriple.from_weight(v, w), "chiral", nsites=1)
    from ybsl21.lax import SuperMatrixOperator
    bad = [[l_u.entries[i][k] for k in range(3)] for i in range(3)]
    bad[0][1] = -1 * bad[0][1]
    l_bad = SuperMatrixOperator(bad)
    found_mismatch = False
    for m in enumerate_basis(2, nsites=1):
        pm = monomial_poly(m)
        for i in range(3):
            for j in range(3):
                start = {(i, j): pm}
                lhs = apply_matrix_on_leg(l_v, 1, 2, start)
                lhs = apply_matrix_on_leg(l_bad, 0, 2, lhs)
                lhs = apply_fundamental_r(u - v, 0, 1, lhs)
                rhs = apply_fundamental_r(u - v, 0, 1, start)
                rhs = apply_matrix_on_leg(l_bad, 0, 2, rhs)
                rhs = apply_matrix_on_leg(l_v, 1, 2, rhs)
                if lhs != rhs:
                    found_mismatch = True
    assert found_mismatch


@pytest.mark.parametrize("lam", [Q(0), Q(1), Q(2, 3), Q(-5, 2)])
def test_invariance_even_sector(lam):
    t = SpectralTriple.from_weight(Q(0), Weight(Q(1), Q(0)))
    assert check_invariance(1, t, lam, max_degree=3, nsites=1).passed
