from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ybsl21 import opalg
from ybsl21.lax import (SpectralTriple, SuperMatrixOperator, build_lax,
                        check_invariance, check_rll)
from ybsl21.opalg import (Cached, Compose, DegreeDiagonal, DiffOp, EvenDeriv,
                          IndefiniteParity, MulOdd, MulPoly, MulZ,
                          NonTerminatingExp, OddDeriv, OnSites, Scalar,
                          SwapSites, TerminatingExp, compose,
                          equal_on_degree, graded_commutator, op_sum,
                          rising_factorial)
from ybsl21.rops import (build_full_R, build_r, check_defining,
                         check_factorization, check_lemma_system, check_ybe)
from ybsl21.sl21 import (Weight, build_generators, casimir, check_casimir,
                         check_relations)
from ybsl21.superpoly import (FIELD_MASK, ODD_MASK, Z_MAX, Z_SHIFTS, Monomial,
                              SuperPolynomial, enumerate_basis, theta,
                              theta_bar)
from support import (ONE, PP, TH1, TH2, THB1, THB2, YBE, deriv_even, deriv_odd,
                     from_terms, sp, z)


def test_rising_factorial():
    assert rising_factorial(Q(3), 2) == 12
    assert rising_factorial(Q(1, 2), 0) == 1
    assert rising_factorial(Q(-2), 3) == 0


def pochhammer_product(x, n):
    """(x)_n as the Fraction product x (x+1) .. (x+n-1), written out here so
    the kernel's values are not checked against the kernel's own rule."""
    out = Q(1)
    for j in range(n):
        out *= x + j
    return out


@pytest.mark.parametrize("x", [Q(3), Q(-2), Q(1, 2), Q(0), Q(-3), Q(7, 3),
                               Q(-7, 2)])
def test_rising_factorial_is_the_product(x):
    for n in range(9):
        assert rising_factorial(x, n) == pochhammer_product(x, n)
        # at a nonpositive integer x the factor x + j is 0 at j = -x, so
        # (x)_n vanishes exactly from n = 1 - x on
        if x.denominator == 1 and x <= 0:
            assert (rising_factorial(x, n) == 0) == (n > -x)


def test_apply_deriv_after_mul():
    op = compose(EvenDeriv(1), MulZ(1))
    assert op.apply(ONE) == ONE


def test_degree_diagonal_pochhammer():
    # (3)_2 / (5)_2 = 12/30 = 2/5, frozen from the hand loop
    op = DegreeDiagonal(1, Q(3), Q(5))
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
        return SuperPolynomial.odd_var(v)

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


def test_swap_sites_sign_is_the_product_sign():
    # every odd monomial of two and three sites under every swap a < b: the
    # image is the product of the relabeled odd variables in the old order
    cases, mismatches = 0, []
    for nsites in (2, 3):
        for a, b in combinations(range(1, nsites + 1), 2):
            moved = {a: b, b: a}
            for mask in range(1 << (2 * nsites)):
                mono = want = SuperPolynomial.one()
                for site in range(1, nsites + 1):
                    for var in (theta, theta_bar):
                        if mask >> var(site) & 1:
                            mono = mono * SuperPolynomial.odd_var(var(site))
                            want = want * SuperPolynomial.odd_var(
                                var(moved.get(site, site)))
                cases += 1
                if SwapSites(a, b).apply(mono) != want:
                    mismatches.append((nsites, a, b, mask))
    assert cases == 208
    assert mismatches == []


#: even two-site operators to lift: the dressed exchange operator, and one
#: that moves an odd variable and a z-degree from one site to the other
LIFTED = {
    "full-R": build_full_R(PP),
    "hop": op_sum(compose(MulOdd(TH2), OddDeriv(TH1)),
                  compose(MulZ(1), EvenDeriv(2))),
}


@pytest.mark.parametrize("name", sorted(LIFTED))
def test_on_sites_is_op_on_two_sites(name):
    op = LIFTED[name]
    assert equal_on_degree(OnSites(op, (1, 2)), op, 2).passed


@pytest.mark.parametrize("name", sorted(LIFTED))
@pytest.mark.parametrize("sites, spectator",
                         [((1, 2), 3), ((1, 3), 2), ((2, 3), 1)])
def test_on_sites_commutes_with_spectator(name, sites, spectator):
    lifted = Cached(OnSites(LIFTED[name], sites))
    for mul in (MulZ(spectator), MulOdd(theta(spectator)),
                MulOdd(theta_bar(spectator))):
        assert equal_on_degree(compose(lifted, mul), compose(mul, lifted), 1,
                               nsites=3).passed


@pytest.mark.parametrize("name", sorted(LIFTED))
def test_on_sites_matches_relabeled_lift(name):
    op = LIFTED[name]
    relabeled = compose(SwapSites(2, 3), OnSites(op, (1, 2)), SwapSites(2, 3))
    assert equal_on_degree(OnSites(op, (1, 3)), relabeled, 1, nsites=3).passed


def test_on_sites_rejects_odd_op_and_unordered_sites():
    with pytest.raises(IndefiniteParity):
        OnSites(MulOdd(TH1), (1, 2))
    with pytest.raises(ValueError):
        OnSites(LIFTED["hop"], (2, 1))


def test_lift_swap_and_diagonal_read_a_missing_site_as_degree_zero():
    z3, th3 = SuperPolynomial.z_var(3), SuperPolynomial.odd_var(theta(3))
    # the hop on sites (a, 3) is th3 d_th_a + z_a d_z3
    for a in (1, 2):
        lifted = OnSites(LIFTED["hop"], (a, 3))
        assert lifted.apply(z(a)).is_zero()
        assert lifted.apply(sp(theta(a))) == th3
        assert lifted.apply(z(a) * z3) == z(a) * z(a)
    assert SwapSites(1, 3).apply(z(1)) == z3
    assert SwapSites(2, 3).apply(z(1) * sp(TH1)) == z(1) * sp(TH1)
    # (2)_0 / (3)_0 = 1 at a site the input lacks, (2)_1 / (3)_1 = 2/3
    for site, p in ((3, z(1)), (2, ONE)):
        assert DegreeDiagonal(site, 2, 3).apply(p) == p
    assert DegreeDiagonal(3, 2, 3).apply(z3) == Q(2, 3) * z3


def test_one_cache_serves_every_site_count():
    op = op_sum(OnSites(LIFTED["hop"], (2, 3)), SwapSites(1, 2),
                DegreeDiagonal(1, 2, 3))
    cached = Cached(op)
    for nsites in (1, 2, 3, 1):
        for m in enumerate_basis(1, nsites):
            p = SuperPolynomial({m: 1})
            assert cached.apply(p) == op.apply(p)
    assert len(cached._images) == len(enumerate_basis(1, 3))


def test_cached_returns_the_stored_column_of_a_unit_monomial():
    op = op_sum(Q(1, 3) * compose(MulZ(2), OddDeriv(TH1)), Scalar(Q(1, 2)))
    cached = Cached(op)
    m, other = Monomial((1,), 1 << TH1), Monomial((0, 1), 1 << THB2)
    unit = SuperPolynomial({m: 1})
    assert cached.apply(unit) == op.apply(unit)
    assert cached._apply(unit) is cached._images[m]
    for p in (SuperPolynomial({m: 2}), SuperPolynomial({m: 1}, 3),
              SuperPolynomial({m: 1, other: 1}), SuperPolynomial({other: 1})):
        assert cached.apply(p) == op.apply(p)
    assert set(cached._images) == {m, other}


def test_cached_remembers_a_whole_vector_by_identity():
    op = op_sum(Q(1, 3) * compose(MulZ(2), OddDeriv(TH1)), Scalar(Q(1, 2)),
                TerminatingExp(compose(MulOdd(THB1), OddDeriv(TH2))))
    p = z(1) * sp(TH1) + Q(2, 5) * z(2) * sp(TH2) + ONE
    cached = Cached(op)
    cached.remember(p)
    remembered = cached._vectors[id(p)][1]
    assert cached._apply(p) is remembered
    assert cached.apply(p) == Cached(op).apply(p) == op.apply(p)
    # an equal but distinct polynomial takes the columns, to the same value
    twin = SuperPolynomial(dict(p.terms), p.den)
    assert twin == p and twin is not p
    assert cached._apply(twin) is not remembered
    assert cached.apply(twin) == remembered


W1, W2, W3 = YBE[:3]

#: each check at degree 1, and the sites its operators reach: the basis it
#: must sweep, since no polynomial carries a site count to stop a smaller one
SWEEPS = {
    "ybe": (lambda: check_ybe(*YBE, 1), 3),
    "rll": (lambda: check_rll(W1, Q(2), Q(1, 2), 1), 1),
    "invariance": (lambda: check_invariance(
        SpectralTriple.from_weight(Q(0), Weight(Q(1), Q(0))), Q(2, 3), 1), 1),
    "relations-site-1": (lambda: check_relations(build_generators(1, W1), 1),
                         1),
    "relations-site-2": (lambda: check_relations(build_generators(2, W1), 1),
                         2),
    "casimir-site-1": (lambda: check_casimir(build_generators(1, W2), 1), 1),
    "casimir-site-2": (lambda: check_casimir(build_generators(2, W2), 1), 2),
    "defining": (lambda: check_defining(1, PP, 1), 2),
    "lemmas": (lambda: check_lemma_system(2, PP, 1), 2),
    "factorization": (lambda: check_factorization(PP, 1), 2),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_each_check_sweeps_the_sites_its_operators_reach(monkeypatch, name):
    run, want = SWEEPS[name]
    swept = []

    def recording(max_z_degree, nsites=2):
        swept.append(nsites)
        return enumerate_basis(max_z_degree, nsites)

    monkeypatch.setattr(opalg, "enumerate_basis", recording)
    assert run().status == "pass"
    assert set(swept) == {want}


def test_mul_odd_is_mul_poly_of_one_odd_variable():
    for var in (TH1, THB1, TH2, THB2):
        assert equal_on_degree(MulOdd(var), MulPoly(sp(var)), 3).passed


def test_unit_numerator_scalar_leaves_input_terms():
    p = Q(2, 5) * z(1) + Q(-3, 7) * (sp(TH1) * sp(THB2))
    before = dict(p.terms)
    out = Scalar(Q(1, 3))._apply(p)
    assert p.terms == before and p.den == 35
    assert out == Q(1, 3) * p


def test_cached_matches_uncached():
    op = compose(MulZ(1), EvenDeriv(1)) + Scalar(Q(1, 3))
    cached = Cached(op)
    p = z(1) * z(1) + sp(TH2)
    assert cached.apply(p) == op.apply(p)
    assert cached.apply(p) == op.apply(p)  # second hit uses the memo


def test_pochhammer_pole_raises():
    from ybsl21.opalg import PochhammerPole
    op = DegreeDiagonal(1, Q(1), Q(-1))
    with pytest.raises(PochhammerPole):
        op.value(2)


#: the pole message of each nonpositive integer b, at its first pole 1 - b
POLE_MESSAGES = {
    0: "denominator Pochhammer (b)_n with b = 0 vanishes at degree 1",
    -1: "denominator Pochhammer (b)_n with b = -1 vanishes at degree 2",
    -3: "denominator Pochhammer (b)_n with b = -3 vanishes at degree 4",
}


@pytest.mark.parametrize("a", [Q(3), Q(-2), Q(1, 2)])
@pytest.mark.parametrize("b", [Q(5), Q(7, 3), Q(0), Q(-1), Q(-3)])
def test_degree_diagonal_values_and_first_pole(a, b):
    from ybsl21.opalg import PochhammerPole
    op = DegreeDiagonal(1, a, b)
    pole = 1 - int(b) if b in POLE_MESSAGES else None
    for n in range(6 if pole is None else pole):
        want = pochhammer_product(a, n) / pochhammer_product(b, n)
        assert op.value(n) == want
        assert op.apply(z(1) ** n) == want * z(1) ** n
    if pole is not None:
        with pytest.raises(PochhammerPole) as exc:
            op.value(pole)
        assert str(exc.value) == POLE_MESSAGES[b]



@pytest.mark.parametrize("b", [Q(7, 3), Q(-3)])
def test_degree_diagonal_values_asked_out_of_order(b):
    # each degree's value is computed when first asked for; asking high
    # first gives the in-order values and reports a pole at the degree
    # asked for, even past the first pole
    from ybsl21.opalg import PochhammerPole

    def outcomes(op, degrees):
        out = {}
        for n in degrees:
            try:
                out[n] = op.value(n)
            except PochhammerPole as exc:
                out[n] = str(exc)
        return out

    in_order = outcomes(DegreeDiagonal(1, Q(1, 2), b), range(7))
    high_first = DegreeDiagonal(1, Q(1, 2), b)
    assert outcomes(high_first, [6, 5, 2, 0, 4, 3, 1]) == in_order
    assert outcomes(high_first, range(7)) == in_order
    if b == -3:
        assert in_order[5] == ("denominator Pochhammer (b)_n with b = -3 "
                               "vanishes at degree 5")
        assert in_order[4] == POLE_MESSAGES[-3]
        assert in_order[3] == (rising_factorial(Q(1, 2), 3)
                               / rising_factorial(b, 3))
    else:
        assert all(in_order[n] == rising_factorial(Q(1, 2), n)
                   / rising_factorial(b, n) for n in range(7))


# -- properties -------------------------------------------------------------

simple_ops = st.sampled_from([
    MulZ(1), MulZ(2), EvenDeriv(1), EvenDeriv(2),
    MulOdd(TH1), MulOdd(THB2), OddDeriv(TH2), OddDeriv(THB1),
    Scalar(Q(2, 3)),
])

coeffs = st.fractions(min_value=-3, max_value=3)

monomials = st.builds(
    Monomial, st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 15))


@st.composite
def polys(draw):
    pairs = [(draw(monomials), draw(coeffs)) for _ in range(draw(st.integers(0, 3)))]
    return from_terms(pairs)


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
    op = DegreeDiagonal(1, 1, 1)
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
    return from_terms(pairs)


frac_ops = st.sampled_from([
    MulZ(2), EvenDeriv(1), MulOdd(THB1), OddDeriv(TH2), SwapSites(1, 2),
    Scalar(Q(-5, 6)),
    MulPoly(Q(1, 2) * z(1) + Q(2, 3) * (sp(TH1) * sp(THB1))),
    MulPoly(Q(3, 4) * sp(THB2)),
    DegreeDiagonal(2, Q(1, 2), Q(7, 3)),
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
        assert EvenDeriv(site).apply(p) == deriv_even(p, site)
    for var in (TH1, THB1, TH2, THB2):
        assert OddDeriv(var).apply(p) == deriv_odd(p, var)


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


# -- the normal form of the differential part --------------------------------

#: the primitives over two sites, each with its action written in
#: SuperPolynomial arithmetic
PRIMITIVES = (
    [(MulZ(s), lambda p, s=s: z(s) * p) for s in (1, 2)]
    + [(EvenDeriv(s), lambda p, s=s: deriv_even(p, s)) for s in (1, 2)]
    + [(MulOdd(v), lambda p, v=v: sp(v) * p) for v in (TH1, THB1, TH2, THB2)]
    + [(OddDeriv(v), lambda p, v=v: deriv_odd(p, v))
       for v in (TH1, THB1, TH2, THB2)]
    + [(Scalar(Q(-2, 3)), lambda p: Q(-2, 3) * p),
       (MulPoly(z(1) * z(1) * sp(THB2) - Q(1, 2) * sp(TH1)),
        lambda p: (z(1) * z(1) * sp(THB2) - Q(1, 2) * sp(TH1)) * p)])


def normal_form(op):
    assert isinstance(op, DiffOp)
    return op.terms, op.den


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(PRIMITIVES), min_size=1, max_size=4))
def test_normal_ordered_word_matches_its_factors(word):
    op = compose(*(prim for prim, _ in word))
    assert isinstance(op, DiffOp)
    # the three-site inputs have odd variables beyond every primitive's sites
    for m in enumerate_basis(2, 2) + enumerate_basis(1, 3):
        p = stepwise = by_hand = SuperPolynomial({m: 1})
        for prim, action in reversed(word):
            stepwise = prim.apply(stepwise)
            by_hand = action(by_hand)
        assert op.apply(p) == stepwise == by_hand


def test_every_normal_ordered_pair_matches_its_factors():
    basis = [SuperPolynomial({m: 1}) for m in enumerate_basis(1, 2)]
    for left, left_action in PRIMITIVES:
        for right, right_action in PRIMITIVES:
            op = compose(left, right)
            for p in basis:
                assert op.apply(p) == left_action(right_action(p))


def test_primitives_are_one_normal_form():
    for prim, _ in PRIMITIVES:
        assert isinstance(prim, DiffOp)
    assert len(MulPoly(z(1) * z(2) + sp(TH1) * sp(TH2)).terms) == 2
    with pytest.raises(IndefiniteParity):
        MulPoly(z(1) + sp(TH1))


def test_exact_normal_forms():
    z1 = MulPoly(z(1) * z(1) * z(1))
    assert normal_form(graded_commutator(EvenDeriv(1), z1)) == \
        normal_form(MulPoly(3 * (z(1) * z(1))))
    assert normal_form(graded_commutator(OddDeriv(TH1), MulOdd(TH1))) == \
        normal_form(Scalar(1))
    assert normal_form(graded_commutator(OddDeriv(TH1), MulOdd(TH2))) == \
        ({}, 1)


def test_quadratic_casimir_is_one_scalar():
    g = build_generators(1, Weight(Q(2, 3), Q(1, 5)))
    # l^2 - b^2 = 4/9 - 1/25
    assert normal_form(casimir(g, 2)) == ({(0, 0): 91}, 225)


def test_mixed_parity_sum_raises_only_on_parity():
    op = op_sum(MulZ(1), MulOdd(TH1))
    assert op.apply(ONE) == z(1) + sp(TH1)
    with pytest.raises(IndefiniteParity):
        op.parity()


def test_diff_op_applies_on_every_site_count_it_reaches():
    op = compose(MulZ(1), OddDeriv(THB1))
    for spectator in (ONE, sp(TH2), SuperPolynomial.odd_var(theta(3))):
        assert op.apply(sp(THB1) * spectator) == z(1) * spectator


def lax_pair():
    return build_lax(1, PP.u), build_lax(2, PP.v)


def as_fractions(p):
    assert 0 not in p.terms.values()
    return {m: Q(n, p.den) for m, n in p.terms.items()}


def record_plans(monkeypatch) -> list:
    """The (operator, mask) of every DiffOp plan built from now on."""
    built = []
    plan = DiffOp._plan
    monkeypatch.setattr(DiffOp, "_plan",
                        lambda self, mask: built.append((self, mask))
                        or plan(self, mask))
    return built


def test_term_less_diff_op_builds_its_empty_plan_once(monkeypatch):
    built = record_plans(monkeypatch)
    op = Scalar(0)
    assert normal_form(op) == ({}, 1)
    inputs = (z(1) * sp(TH2), sp(TH1), z(2) * sp(TH2) + z(1), ONE)
    for _ in range(3):
        for p in inputs:
            assert op.apply(p) == SuperPolynomial.zero()
    # once for each mask it meets
    assert built == [(op, 1 << TH2), (op, 1 << TH1), (op, 0)]


def test_lax_entry_builds_one_plan_per_input_mask(monkeypatch):
    l1, l2 = lax_pair()
    entry = (l1 @ l2).entry(1, 1)
    assert isinstance(entry, DiffOp)
    built = record_plans(monkeypatch)
    basis = enumerate_basis(2)
    for _ in range(2):
        for m in basis:
            entry.apply(SuperPolynomial({m: 1}))
    masks = [mask for _, mask in built]
    assert {op for op, _ in built} == {entry}
    assert len(masks) == len(set(masks)) <= len({m & ODD_MASK for m in basis})


def test_diff_op_on_inputs_that_mix_odd_masks():
    # a site-3 factor s is a spectator: entry(m s) = entry(m) s, with s
    # right of every site-1 and site-2 factor in canonical order
    site3 = FIELD_MASK << Z_SHIFTS[2] | 1 << theta(3) | 1 << theta_bar(3)
    l1, l2 = lax_pair()
    for entry in (e for row in (l1 @ l2).entries for e in row):
        for basis in (enumerate_basis(2), enumerate_basis(1, nsites=3)):
            mixed = SuperPolynomial({m: j + 1 for j, m in enumerate(basis)})
            want: dict = {}
            for j, m in enumerate(basis):
                image = entry.apply(SuperPolynomial({m & ~site3: 1}))
                assert 0 not in image.terms.values()
                image = image * SuperPolynomial({m & site3: 1})
                for k, c in as_fractions(image).items():
                    want[k] = want.get(k, 0) + (j + 1) * c
            assert as_fractions(entry._apply(mixed)) == \
                {k: c for k, c in want.items() if c}


def test_diff_op_never_carries_a_z_degree_into_the_next_field():
    top = z(2) ** Z_MAX
    assert MulZ(1).apply(top) == z(1) * top
    assert compose(EvenDeriv(2), MulZ(2)).apply(top) == (Z_MAX + 1) * top
    with pytest.raises(ValueError):
        MulZ(2).apply(top)
    with pytest.raises(ValueError):
        MulPoly(top).apply(z(2))
    with pytest.raises(ValueError):
        compose(MulPoly(top), MulZ(2))


def test_matrix_product_skips_zero_factors():
    # applying the (0, 0) entry's skipped term would raise NonTerminatingExp
    zero, bad = Scalar(0), TerminatingExp(MulZ(1))
    a = SuperMatrixOperator([[zero, Scalar(2)], [zero, zero]])
    b = SuperMatrixOperator([[bad, zero], [Scalar(3), zero]])
    prod = a @ b
    assert normal_form(prod.entries[0][0]) == normal_form(Scalar(6))
    for entry in (prod.entries[0][1], *prod.entries[1]):
        assert normal_form(entry) == ({}, 1)
