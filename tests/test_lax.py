from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ybsl21 import lax
from ybsl21.lax import (SpectralTriple, SuperMatrixOperator, build_lax,
                        build_lax_factorized, build_lax_tensor,
                        check_invariance, check_rll, covariant_derivatives,
                        fundamental_rmatrix, intertwines, matrices_equal,
                        on_leg, tensor)
from ybsl21.opalg import (EvenDeriv, MulOdd, MulZ, OddDeriv, Scalar,
                          TerminatingExp, compose, equal_on_degree, op_sum)
from ybsl21.sl21 import Weight, build_generators
from ybsl21.superpoly import SuperPolynomial, theta, theta_bar

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
    lax = build_lax(1, T, "chiral")
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
        lp = build_lax(1, t, "chiral")
        lt = build_lax_tensor(t, "chiral")
        assert matrices_equal(lp, lt, 3, nsites=1).passed


def test_tensor_signs_odd_operators_on_odd_columns():
    # a (x) W- on e_k (x) psi: (-1)^{grading(k)} (a e_k) (x) W-(psi)
    w_minus = build_generators(1, Weight(Q(1), Q(1, 3)))["W-"]
    a = [[1, -1, 3], [4, 5, 6], [7, 8, 9]]
    m = tensor(a, w_minus)
    # a unit entry, with its sign taken, is the operator itself
    assert m.entry(1, 1) is w_minus and m.entry(1, 2) is w_minus
    for i in range(3):
        for k in range(3):
            sign = -1 if k == 1 else 1
            assert equal_on_degree(m.entries[i][k],
                                   Q(sign * a[i][k]) * w_minus, 3,
                                   nsites=1).passed
            assert not equal_on_degree(m.entries[i][k],
                                       Q(-sign * a[i][k]) * w_minus, 3,
                                       nsites=1).passed
    # an even operator takes no sign, and a zero entry is Scalar(0)
    z = MulZ(1)
    even = tensor([[0, 1, 0], [1, 0, 0], [0, 0, 1]], z)
    assert even.entry(1, 2) is z and even.entry(2, 1) is z
    assert lax._is_zero(even.entry(1, 1))


def test_tensor_construction_sign_matters():
    # dropping the Koszul sign on entry (1,2) must break the equality
    lt = build_lax_tensor(T, "chiral")
    lp = build_lax(1, T, "chiral")
    broken = [[lt.entries[i][k] for k in range(3)] for i in range(3)]
    broken[0][1] = -1 * broken[0][1]
    from ybsl21.lax import SuperMatrixOperator
    assert not matrices_equal(lp, SuperMatrixOperator(broken), 2,
                              nsites=1).passed


def test_antichiral_names_equal_tensor():
    la = build_lax(1, T, "antichiral")
    lta = build_lax_tensor(T, "antichiral")
    assert matrices_equal(la, lta, 3, nsites=1).passed


@pytest.mark.parametrize("t", [
    T,
    SpectralTriple(Q(1, 2), Q(-3), Q(7, 5)),
    SpectralTriple(Q(-2, 7), Q(4), Q(0)),
])
def test_factorized_equals_explicit(t):
    lp = build_lax(1, t, "chiral")
    lf = build_lax_factorized(t)
    assert matrices_equal(lp, lf, 4, nsites=1).passed


def test_factorized_even_sector_corner():
    # at th = thb = 0 the (1,1) entry acts as z d + u1 on even polynomials
    lf = build_lax_factorized(T)
    z = SuperPolynomial.z_var(1)
    for p in (SuperPolynomial.one(), z, z * z):
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
    lp = build_lax(1, T, "chiral")
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


def test_fundamental_permutation_signs():
    p = fundamental_rmatrix(0)

    def image(i, j):
        # P applied to e_i (x) e_j, as {(k, l): coefficient}
        col = 3 * i + j
        return {divmod(row, 3): p[row][col] for row in range(9) if p[row][col]}

    # P(e2 x e2) = -e2 x e2 : the only negated swap
    assert image(1, 1) == {(1, 1): -1}
    assert image(0, 2) == {(2, 0): 1}
    # P^2 = identity on all 9 pairs
    for i in range(9):
        for k in range(9):
            assert sum(p[i][j] * p[j][k] for j in range(9)) == (i == k)


def test_fundamental_rmatrix_adds_u_on_the_diagonal():
    u = Q(5, 3)
    r, p = fundamental_rmatrix(u), fundamental_rmatrix(0)
    for i in range(9):
        for k in range(9):
            assert r[i][k] == p[i][k] + (u if i == k else 0)


def test_on_one_leg_is_the_matrix():
    m = build_lax(1, T, "antichiral")
    assert on_leg(m, 0, 1).entries == m.entries


def _rll_report(l_u, l_v, u, v, embed=on_leg):
    l1, l2 = embed(l_u, 0, 2), embed(l_v, 1, 2)
    r = tensor(fundamental_rmatrix(u - v), Scalar(1))
    return intertwines(r, l1 @ l2, l2 @ l1, 2, nsites=1)


@pytest.mark.parametrize("kind", ["chiral", "antichiral"])
def test_rll_needs_the_odd_past_leg_sign(monkeypatch, kind):
    w = Weight(Q(1), Q(1, 3))
    u, v = Q(2), Q(1, 2)
    l_u = build_lax(1, SpectralTriple.from_weight(u, w), kind)
    l_v = build_lax(1, SpectralTriple.from_weight(v, w), kind)
    assert _rll_report(l_u, l_v, u, v).passed

    def unsigned(m, leg, nlegs):
        # every leg index even: no odd entry picks up the sign
        with monkeypatch.context() as mp:
            mp.setattr(lax, "GRADING", (0, 0, 0))
            return on_leg(m, leg, nlegs)

    assert not _rll_report(l_u, l_v, u, v, embed=unsigned).passed


@pytest.mark.parametrize("kind", ["chiral", "antichiral"])
def test_rll(kind):
    assert check_rll(Weight(Q(1), Q(1, 3)), Q(2), Q(1, 2), 2, kind).passed


def test_rll_equal_arguments():
    assert check_rll(Weight(Q(1), Q(1, 3)), Q(1), Q(1), 2, "chiral").passed


def test_rll_detects_corruption():
    # flip the sign of entry (1,2) of L(u); the relation must fail
    w = Weight(Q(1), Q(1, 3))
    u, v = Q(2), Q(1, 2)
    l_u = build_lax(1, SpectralTriple.from_weight(u, w), "chiral")
    l_v = build_lax(1, SpectralTriple.from_weight(v, w), "chiral")
    bad = [[l_u.entries[i][k] for k in range(3)] for i in range(3)]
    bad[0][1] = -1 * bad[0][1]
    assert not _rll_report(SuperMatrixOperator(bad), l_v, u, v).passed


@pytest.mark.parametrize("lam", [Q(0), Q(1), Q(2, 3), Q(-5, 2)])
def test_invariance_even_sector(lam):
    t = SpectralTriple.from_weight(Q(0), Weight(Q(1), Q(0)))
    assert check_invariance(t, lam, max_degree=3).passed


def _corrupted(t, i, k):
    # entry (i,k) of L(t) doubled, or 1 where it is zero
    entries = [list(row) for row in build_lax(1, t, "chiral").entries]
    entry = entries[i - 1][k - 1]
    entries[i - 1][k - 1] = (Scalar(1) if lax._is_zero(entry)
                             else Q(2) * entry)
    return SuperMatrixOperator(entries)


@pytest.mark.parametrize("i,k", [(i, k) for i in (1, 2, 3) for k in (1, 2, 3)])
def test_invariance_detects_corruption(monkeypatch, i, k):
    # only entry (2,2) commutes with S M, so doubling it keeps the identity
    t = SpectralTriple.from_weight(Q(0), Weight(Q(1), Q(0)))
    monkeypatch.setattr(lax, "build_lax",
                        lambda site, tt, kind: _corrupted(tt, i, k))
    report = check_invariance(t, Q(2, 3), max_degree=3)
    assert report.passed == ((i, k) == (2, 2))
    assert report.check_name == "lax-invariance"


def _shift(lam):
    # exp(lam d/dz): p(z) -> p(z + lam)
    return TerminatingExp(Scalar(Q(lam)) @ EvenDeriv(1))


def test_intertwines_operators():
    # the shift moves z to z + 3: exp(3 d) z = (z + 3) exp(3 d)
    s, z = _shift(3), MulZ(1)
    good = intertwines(s, z, z + Scalar(3), 3, nsites=1, name="shift",
                       params={"lam": "3"})
    assert good.passed
    assert (good.check_name, good.params) == ("shift", {"lam": "3"})
    bad = intertwines(s, z, z, 3, nsites=1)
    assert not bad.passed
    assert bad.check_name == "intertwining"
    assert bad.failures[0].input == "1"


def _diagonal_matrix(entries):
    zero = Scalar(0)
    return SuperMatrixOperator([[entries[i] if i == k else zero
                                 for k in range(3)] for i in range(3)])


def test_intertwines_operator_on_every_auxiliary_index():
    s, z = _shift(Q(1, 2)), MulZ(1)
    zs = z + Scalar(Q(1, 2))
    x = _diagonal_matrix([z, Scalar(2), compose(z, z)])
    y = _diagonal_matrix([zs, Scalar(2), compose(zs, zs)])
    assert intertwines(s, x, y, 3, nsites=1).passed
    report = intertwines(s, x, x, 3, nsites=1)
    assert not report.passed
    assert report.failures[0].input.startswith("entry(1,1) on ")
    # the third diagonal entry alone is wrong: a reaches index 3 too
    y_bad = _diagonal_matrix([zs, Scalar(2), compose(z, z)])
    first = intertwines(s, x, y_bad, 3, nsites=1).failures[0]
    assert first.input.startswith("entry(3,3) on ")


def test_intertwines_matrices():
    # the graded swap P moves an even matrix from leg 0 to leg 1
    a = tensor([[1, 0, 5], [0, 2, 0], [7, 0, 3]], Scalar(1))
    p = tensor(fundamental_rmatrix(0), Scalar(1))
    on0, on1 = on_leg(a, 0, 2), on_leg(a, 1, 2)
    assert intertwines(p, on0, on1, 1, nsites=1).passed
    assert not intertwines(p, on0, on0, 1, nsites=1).passed
