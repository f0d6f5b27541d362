from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ybsl21.opalg import (Cached, Compose, DegreeDiagonal, EvenDeriv,
                          IndefiniteParity, MulOdd, MulPoly, MulZ,
                          NonTerminatingExp, OddDeriv, PochhammerSpec, Scalar,
                          SwapSites, TerminatingExp, compose, equal_on_degree,
                          graded_commutator, op_sum, rising_factorial)
from ybsl21.rops import ParamPair, build_r
from ybsl21.superpoly import SuperPolynomial, theta, theta_bar

TH1, THB1, TH2, THB2 = theta(1), theta_bar(1), theta(2), theta_bar(2)
ONE = SuperPolynomial.one(2)
PP = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2), Q(-3, 2))


def z(site):
    return SuperPolynomial.z_var(site, 2)


def sp(var):
    return SuperPolynomial.odd_var(var, 2)


def test_rising_factorial():
    assert rising_factorial(Q(3), 2) == 12
    assert rising_factorial(Q(1, 2), 0) == 1
    assert rising_factorial(Q(-2), 3) == 0


def test_apply_deriv_after_mul():
    op = compose(EvenDeriv(1), MulZ(1))
    assert op.apply(ONE) == ONE


def test_degree_diagonal_pochhammer():
    # (3)_2 / (5)_2 = 12/30 = 2/5, frozen from the hand loop
    op = DegreeDiagonal(1, PochhammerSpec([Q(3)], [Q(5)]))
    assert op.apply(z(1) * z(1)) == Q(2, 5) * (z(1) * z(1))


def test_apply_odd_deriv():
    p = z(2) * (sp(TH1) * sp(THB2))
    assert OddDeriv(TH1).apply(p) == z(2) * sp(THB2)


def test_heisenberg_commutator():
    r = equal_on_degree(graded_commutator(EvenDeriv(1), MulZ(1)), Scalar(1), 3)
    assert r.passed


def test_odd_anticommutator_is_identity():
    r = equal_on_degree(graded_commutator(OddDeriv(TH1), MulOdd(TH1)),
                        Scalar(1), 3)
    assert r.passed


def test_disjoint_odd_pair_anticommutes_to_zero():
    r = equal_on_degree(graded_commutator(OddDeriv(TH1), MulOdd(THB2)),
                        Scalar(0), 3)
    assert r.passed


def test_indefinite_parity_raises():
    with pytest.raises(IndefiniteParity):
        graded_commutator(op_sum(MulZ(1), MulOdd(TH1)), EvenDeriv(1))


def test_exp_two_term_nilpotent():
    op = TerminatingExp(compose(MulOdd(TH1), OddDeriv(TH2)))
    assert op.apply(sp(TH2)) == sp(TH2) + sp(TH1)


def test_exp_translation():
    op = TerminatingExp(compose(Scalar(-1), MulZ(1)) @ EvenDeriv(2))
    assert op.apply(z(2)) == z(2) - z(1)


def test_exp_even_nilpotent_prefactor():
    # exp((th1 thb1/2) d1) z1^2 = z1^2 + z1 th1 thb1; the k=2 term dies
    # because the odd prefactor squares to zero
    half_tt = Q(1, 2) * (sp(TH1) * sp(THB1))
    op = TerminatingExp(compose(MulPoly(half_tt), EvenDeriv(1)))
    assert op.apply(z(1) * z(1)) == z(1) * z(1) + z(1) * (sp(TH1) * sp(THB1))


def test_exp_inverse_pairs():
    for gen in (compose(MulOdd(TH1), OddDeriv(TH2)),
                compose(MulPoly(z(1) + Q(1, 2) * (sp(TH1) * sp(THB1))),
                        EvenDeriv(2))):
        r = equal_on_degree(
            compose(TerminatingExp(gen), TerminatingExp(-1 * gen)),
            Scalar(1), 4)
        assert r.passed


def test_exp_nonterminating_budget():
    with pytest.raises(NonTerminatingExp):
        TerminatingExp(MulZ(1)).apply(ONE)


def test_equal_on_degree_identity_vs_empty_compose():
    assert equal_on_degree(Scalar(1), Compose(()), 3).passed


def test_equal_on_degree_fail_witness():
    r = equal_on_degree(OddDeriv(TH1), OddDeriv(THB1), 2)
    assert not r.passed
    assert any("th1" in f.input for f in r.failures)


def test_swap_sites_signs():
    swap = SwapSites(1, 2)
    assert swap.apply(sp(TH1) * sp(TH2)) == -1 * (sp(TH1) * sp(TH2))
    assert swap.apply(z(1)) == z(2)
    assert equal_on_degree(compose(swap, swap), Scalar(1), 3).passed


def test_swap_sites_three_site_signs():
    from ybsl21.superpoly import theta as th_id, theta_bar as thb_id

    def ov(v):
        return SuperPolynomial.odd_var(v, 3)

    th1, th2, th3 = ov(th_id(1)), ov(th_id(2)), ov(th_id(3))
    thb2, thb3 = ov(thb_id(2)), ov(thb_id(3))
    # th1 th2 -> th3 th2 = -th2 th3 under the 1<->3 relabeling
    assert SwapSites(1, 3).apply(th1 * th2) == -1 * (th2 * th3)
    # th1 thb2 th3 -> th1 thb3 th2 = -th1 th2 thb3
    assert SwapSites(2, 3).apply(th1 * thb2 * th3) == -1 * (th1 * th2 * thb3)
    for a, b in ((1, 2), (1, 3), (2, 3)):
        pp = compose(SwapSites(a, b), SwapSites(a, b))
        assert equal_on_degree(pp, Scalar(1), 1, nsites=3).passed
    # adjacent transpositions braid and compose to the far swap
    lhs = compose(SwapSites(1, 2), SwapSites(2, 3), SwapSites(1, 2))
    assert equal_on_degree(lhs, SwapSites(1, 3), 1, nsites=3).passed


def test_cached_matches_uncached():
    op = compose(MulZ(1), EvenDeriv(1)) + Scalar(Q(1, 3))
    cached = Cached(op)
    p = z(1) * z(1) + sp(TH2)
    assert cached.apply(p) == op.apply(p)
    assert cached.apply(p) == op.apply(p)  # second hit uses the memo


def test_pochhammer_pole_raises():
    from ybsl21.opalg import PochhammerPole
    spec = PochhammerSpec([Q(1)], [Q(-1)])
    with pytest.raises(PochhammerPole):
        spec.value(2)


# -- properties -------------------------------------------------------------

simple_ops = st.sampled_from([
    MulZ(1), MulZ(2), EvenDeriv(1), EvenDeriv(2),
    MulOdd(TH1), MulOdd(THB2), OddDeriv(TH2), OddDeriv(THB1),
    Scalar(Q(2, 3)),
])

coeffs = st.fractions(min_value=-3, max_value=3)
from ybsl21.superpoly import Monomial  # noqa: E402

monomials = st.builds(
    Monomial, st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 15))


@st.composite
def polys(draw):
    pairs = [(draw(monomials), draw(coeffs)) for _ in range(draw(st.integers(0, 3)))]
    return SuperPolynomial.from_terms(pairs, 2)


@settings(max_examples=30, deadline=None)
@given(simple_ops, coeffs, polys(), polys())
def test_apply_is_linear(op, c, p, q):
    assert op.apply(c * p + q) == c * op.apply(p) + op.apply(q)


@settings(max_examples=30, deadline=None)
@given(simple_ops, simple_ops, simple_ops, polys())
def test_compose_associative(a, b, c, p):
    assert compose(compose(a, b), c).apply(p) == compose(a, compose(b, c)).apply(p)


@settings(max_examples=30, deadline=None)
@given(simple_ops, polys())
def test_parity_shift(op, p):
    par = p.parity()
    if par is None:
        return
    img = op.apply(p)
    if img.is_zero():
        return
    assert img.parity() == (par + op.parity()) % 2


def test_degree_diagonal_empty_is_identity():
    op = DegreeDiagonal(1, PochhammerSpec([], []))
    r = equal_on_degree(op, Scalar(1), 3)
    assert r.passed


# -- the integer evaluation path against SuperPolynomial arithmetic ----------

fracs = st.builds(Q, st.integers(-12, 12), st.integers(2, 12))


@st.composite
def frac_polys(draw, parity=None):
    """Two-site polynomials with fractional coefficients; `parity` keeps
    only odd masks of that parity (a parity-homogeneous multiplier)."""
    masks = st.integers(0, 15)
    if parity is not None:
        masks = masks.filter(lambda k: k.bit_count() % 2 == parity)
    pairs = [(Monomial(draw(st.tuples(st.integers(0, 2), st.integers(0, 2))),
                       draw(masks)), draw(fracs))
             for _ in range(draw(st.integers(0, 4)))]
    return SuperPolynomial.from_terms(pairs, 2)


frac_ops = st.sampled_from([
    MulZ(2), EvenDeriv(1), MulOdd(THB1), OddDeriv(TH2), SwapSites(1, 2),
    Scalar(Q(-5, 6)),
    MulPoly(Q(1, 2) * z(1) + Q(2, 3) * (sp(TH1) * sp(THB1))),
    MulPoly(Q(3, 4) * sp(THB2)),
    DegreeDiagonal(2, PochhammerSpec([Q(1, 2)], [Q(7, 3)])),
    TerminatingExp(Q(1, 3) * compose(MulOdd(TH1), OddDeriv(TH2))),
])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1).flatmap(frac_polys), frac_polys())
def test_mul_poly_matches_product(q, p):
    assert MulPoly(q).apply(p) == q * p


@settings(max_examples=40, deadline=None)
@given(frac_polys())
def test_derivatives_match_polynomial_calculus(p):
    for site in (1, 2):
        assert EvenDeriv(site).apply(p) == p.deriv_even(site)
    for var in (TH1, THB1, TH2, THB2):
        assert OddDeriv(var).apply(p) == p.deriv_odd(var)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(Q(0)), fracs), frac_polys())
def test_scalar_matches_scaling(c, p):
    assert Scalar(c).apply(p) == c * p


@settings(max_examples=40, deadline=None)
@given(frac_ops, frac_ops, frac_polys())
def test_sum_and_compose_match_their_parts(a, b, p):
    assert op_sum(a, b).apply(p) == a.apply(p) + b.apply(p)
    assert compose(a, b).apply(p) == a.apply(b.apply(p))


R_OPS = {k: build_r(k, PP) for k in (1, 2, 3)}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(R_OPS)), fracs, fracs, frac_polys(), frac_polys())
def test_built_operator_is_linear(k, a, b, p, q):
    op = R_OPS[k]
    assert op.apply(a * p + b * q) == a * op.apply(p) + b * op.apply(q)


@settings(max_examples=40, deadline=None)
@given(frac_ops, frac_ops, frac_polys())
def test_cached_cold_and_warm_agree(a, b, p):
    op = compose(a, b)
    cached = Cached(op)
    want = op.apply(p)
    assert cached.apply(p) == want
    assert cached.apply(p) == want
