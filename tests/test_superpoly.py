from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from ybsl21.superpoly import (Monomial, SuperPolynomial, enumerate_basis,
                              theta, theta_bar)

TH1, THB1 = theta(1), theta_bar(1)
TH2, THB2 = theta(2), theta_bar(2)


def sp(var):
    return SuperPolynomial.odd_var(var, 2)


def z(site):
    return SuperPolynomial.z_var(site, 2)


def test_linear_combine_cancellation():
    th = sp(TH1)
    assert (Q(1) * th + Q(-1) * th).is_zero()


def test_linear_combine_sum():
    p = Q(2) * z(1) + Q(3) * z(2)
    assert p.text() == "2 z1 + 3 z2"


def test_linear_combine_merges():
    tt = sp(TH1) * sp(THB1)
    p = Q(1, 2) * tt + Q(1, 2) * tt
    assert p == tt


def test_mul_anticommutes():
    assert sp(TH1) * sp(THB1) == -1 * (sp(THB1) * sp(TH1))
    assert (sp(TH1) * sp(THB1)).text() == "1 th1 thb1"


def test_mul_nilpotent():
    assert (sp(TH1) * sp(TH1)).is_zero()


def test_mul_even_mixed():
    p = (z(1) + sp(TH1) * sp(THB1)) * z(1)
    assert p == z(1) * z(1) + (sp(TH1) * sp(THB1)) * z(1)


def test_deriv_even_examples():
    p = (z(1) * z(1)) * sp(TH2)
    assert p.deriv_even(1) == Q(2) * (z(1) * sp(TH2))
    assert z(1).deriv_even(2).is_zero()
    assert (z(1) * z(2)).deriv_even(1) == z(2)


def test_deriv_odd_examples():
    tt = sp(TH1) * sp(THB1)
    assert tt.deriv_odd(THB1) == -1 * sp(TH1)
    assert tt.deriv_odd(TH1) == sp(THB1)
    assert (z(1) * sp(TH1)).deriv_odd(TH2).is_zero()


def test_enumerate_basis_counts():
    assert len(enumerate_basis(0)) == 16
    assert len(enumerate_basis(1)) == 48
    assert len(enumerate_basis(4)) == 240


def test_enumerate_basis_order_deterministic():
    basis = enumerate_basis(1)
    assert basis[0] == Monomial((0, 0), 0)
    assert basis[1] == Monomial((0, 0), 1)
    assert basis == enumerate_basis(1)


def test_rendering():
    p = Q(1, 2) * ((z(1) * z(1)) * (sp(TH1) * sp(THB2))) - z(2)
    assert p.text() == "1/2 z1^2 th1 thb2 - 1 z2"
    assert SuperPolynomial.zero(2).text() == "0"
    assert SuperPolynomial.scalar(Q(-3, 4), 2).text() == "-3/4"


# -- property tests ---------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)
monomials = st.builds(
    Monomial,
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 15))


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    pairs = [(draw(monomials), draw(coeffs)) for _ in range(n)]
    return SuperPolynomial.from_terms(pairs, 2)


@st.composite
def homogeneous_polys(draw, parity=None):
    par = parity if parity is not None else draw(st.integers(0, 1))
    n = draw(st.integers(1, 4))
    pairs = []
    for _ in range(n):
        m = draw(monomials.filter(lambda m: m.parity == par))
        pairs.append((m, draw(coeffs)))
    return SuperPolynomial.from_terms(pairs, 2)


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=25, deadline=None)
@given(polys())
def test_mul_unital(p):
    one = SuperPolynomial.one(2)
    assert one * p == p
    assert p * one == p


@settings(max_examples=40, deadline=None)
@given(homogeneous_polys(), homogeneous_polys())
def test_graded_commutativity(p, q):
    pp, pq = p.parity(), q.parity()
    if pp is None or pq is None:
        return
    sign = -1 if pp and pq else 1
    assert p * q == sign * (q * p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), homogeneous_polys(), polys())
def test_odd_derivation_leibniz(var, p, q):
    par = p.parity()
    if par is None:
        return
    sign = -1 if par else 1
    lhs = (p * q).deriv_odd(var)
    rhs = p.deriv_odd(var) * q + sign * (p * q.deriv_odd(var))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), polys())
def test_odd_derivative_squares_to_zero(var, p):
    assert p.deriv_odd(var).deriv_odd(var).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), polys())
def test_derivs_commute(site, var, p):
    assert p.deriv_even(site).deriv_odd(var) == p.deriv_odd(var).deriv_even(site)
    other = 3 - site
    assert p.deriv_even(site).deriv_even(other) == \
        p.deriv_even(other).deriv_even(site)
