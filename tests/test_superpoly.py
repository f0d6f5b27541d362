import random
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ybsl21.superpoly import (MAX_SITES, ODD_MASK, Z_MAX, LayoutError,
                              Monomial, SuperPolynomial, charge,
                              enumerate_basis, exponents, lincomb, theta,
                              theta_bar)
from support import (TH1, TH2, THB1, THB2, deriv_even, deriv_odd, from_terms,
                     sp, z)


def test_charge_counts_z_degrees_twice_and_thetas_against_theta_bars():
    assert charge(Monomial((), 0)) == (0, 0)
    assert charge(Monomial((2, 0, 1), 0)) == (6, 0)
    for site in (1, 2, 3):
        assert charge(Monomial((), 1 << theta(site))) == (1, -1)
        assert charge(Monomial((), 1 << theta_bar(site))) == (1, 1)
    mask = 1 << TH1 | 1 << THB1 | 1 << THB2 | 1 << theta_bar(3)
    assert charge(Monomial((1, 1), mask)) == (8, 2)


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


def test_equality_compares_values_whatever_the_denominators():
    m = Monomial((1,), 1 << TH1)
    assert SuperPolynomial({m: 2}, 4) == SuperPolynomial({m: 1}, 2)
    assert SuperPolynomial({m: 2}, 2) != SuperPolynomial({m: 1}, 2)
    assert SuperPolynomial({m: 3}, 2) == SuperPolynomial({m: 3}, 2)
    assert SuperPolynomial({m: 1}, 2) != SuperPolynomial({m: 1, 0: 1}, 2)


def test_lincomb_matches_a_fraction_reference():
    x, y = Monomial((1,), 1 << TH1), Monomial((0, 2), 0)
    p = SuperPolynomial({x: 3, y: -2}, 4)
    q = SuperPolynomial({x: 1}, 6)
    cases = (
        ([], 2),
        ([(0, p), (2, q)], 1),                  # a zero weight
        ([(0, p)], 3),
        ([(3, p)], 1),                          # one part
        ([(1, p)], 5),
        ([(-2, p)], 7),
        ([(-2, p), (3, q)], 2),
        ([(1, p), (-1, p)], 3),                 # parts that cancel
        ([(2, p), (-1, SuperPolynomial({x: 6, y: -4}, 4))], 1),
        ([(2, p), (-9, q)], 1),                 # x cancels, y stays
        ([(1, q), (0, p), (1, p), (-1, q)], 1),
    )
    for parts, den in cases:
        got = lincomb(parts, den)
        want: dict = {}
        for w, r in parts:
            for m, n in r.terms.items():
                want[m] = want.get(m, 0) + Q(w * n, r.den * den)
        assert got.den > 0 and 0 not in got.terms.values()
        assert ({m: Q(n, got.den) for m, n in got.terms.items()}
                == {m: c for m, c in want.items() if c})
    assert lincomb([(1, p), (1, SuperPolynomial.zero())]) is p


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
    assert deriv_even(p, 1) == Q(2) * (z(1) * sp(TH2))
    assert deriv_even(z(1), 2).is_zero()
    assert deriv_even(z(1) * z(2), 1) == z(2)


def test_deriv_odd_examples():
    tt = sp(TH1) * sp(THB1)
    assert deriv_odd(tt, THB1) == -1 * sp(TH1)
    assert deriv_odd(tt, TH1) == sp(THB1)
    assert deriv_odd(z(1) * sp(TH1), TH2).is_zero()


def test_enumerate_basis_counts():
    assert len(enumerate_basis(0)) == 16
    assert len(enumerate_basis(1)) == 48
    assert len(enumerate_basis(4)) == 240


def test_enumerate_basis_order_deterministic():
    basis = enumerate_basis(1)
    assert basis[0] == Monomial((0, 0), 0)
    assert basis[1] == Monomial((0, 0), 1)
    assert basis == enumerate_basis(1)


def test_key_layout():
    # z1 | z2 | z3 | mask, 8-bit z fields above a 6-bit odd mask
    assert Monomial((1, 2, 3), 5) == 1 << 22 | 2 << 14 | 3 << 6 | 5
    assert Monomial((1, 2), 5) == Monomial((1, 2, 0), 5)
    assert exponents(Monomial((Z_MAX, 0, 4), 63)) == (Z_MAX, 0, 4)


@pytest.mark.parametrize("nsites", [1, 2, 3])
def test_key_order_is_tuple_order(nsites):
    degree = 2
    masks = range(4 ** nsites)
    ref = [Monomial(zs, mask)
           for zs in sorted(t for t in product(range(degree + 1),
                                               repeat=nsites)
                            if sum(t) <= degree)
           for mask in masks]
    basis = enumerate_basis(degree, nsites)
    assert basis == ref
    shuffled = list(basis)
    random.Random(nsites).shuffle(shuffled)
    p = SuperPolynomial({m: i % 7 - 3 or 5 for i, m in enumerate(shuffled)},
                        4)
    assert p.text() == ref_text({m: Q(n, 4) for m, n in p.terms.items()},
                                nsites)


def test_site_count_is_one_to_three():
    for nsites in (0, 4):
        with pytest.raises(ValueError):
            enumerate_basis(0, nsites)
    with pytest.raises(ValueError):
        Monomial((0, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        Monomial((0, 0, 0), 64)
    assert len(enumerate_basis(0, 3)) == 64


def test_variables_lie_on_the_given_sites():
    assert SuperPolynomial.z_var(MAX_SITES).text() == "1 z3"
    assert SuperPolynomial.odd_var(2 * MAX_SITES - 1).text() == "1 thb3"
    with pytest.raises(LayoutError):
        SuperPolynomial.odd_var(2 * MAX_SITES)
    with pytest.raises(LayoutError):
        SuperPolynomial.z_var(MAX_SITES + 1)
    with pytest.raises(LayoutError):
        SuperPolynomial.z_var(0)


def test_z_degree_field_limit():
    top = z(1) ** Z_MAX
    assert top.text() == f"1 z1^{Z_MAX}"
    assert (z(2) * top).text() == f"1 z1^{Z_MAX} z2"
    assert deriv_even(top, 1) == Z_MAX * z(1) ** (Z_MAX - 1)
    # one more degree never carries into the z2 field
    with pytest.raises(ValueError):
        top * z(1)
    with pytest.raises(ValueError):
        (z(2) ** Z_MAX) * (z(2) * sp(TH1))
    with pytest.raises(ValueError):
        Monomial((0, Z_MAX + 1), 0)
    with pytest.raises(ValueError):
        enumerate_basis(Z_MAX + 1, 1)


def test_negative_power_raises():
    assert z(1) ** 0 == SuperPolynomial.one()
    with pytest.raises(ValueError):
        z(1) ** -1


def test_rendering():
    p = Q(1, 2) * ((z(1) * z(1)) * (sp(TH1) * sp(THB2))) - z(2)
    assert p.text() == "1/2 z1^2 th1 thb2 - 1 z2"
    assert SuperPolynomial.zero().text() == "0"
    assert SuperPolynomial.scalar(Q(-3, 4)).text() == "-3/4"


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
    return from_terms(pairs)


@st.composite
def homogeneous_polys(draw, parity=None):
    par = parity if parity is not None else draw(st.integers(0, 1))
    n = draw(st.integers(1, 4))
    pairs = []
    for _ in range(n):
        m = draw(monomials.filter(
            lambda m: (m & ODD_MASK).bit_count() % 2 == par))
        pairs.append((m, draw(coeffs)))
    return from_terms(pairs)


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=25, deadline=None)
@given(polys())
def test_mul_unital(p):
    one = SuperPolynomial.one()
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
    lhs = deriv_odd(p * q, var)
    rhs = deriv_odd(p, var) * q + sign * (p * deriv_odd(q, var))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), polys())
def test_odd_derivative_squares_to_zero(var, p):
    assert deriv_odd(deriv_odd(p, var), var).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), polys())
def test_derivs_commute(site, var, p):
    assert (deriv_odd(deriv_even(p, site), var)
            == deriv_even(deriv_odd(p, var), site))
    other = 3 - site
    assert (deriv_even(deriv_even(p, site), other)
            == deriv_even(deriv_even(p, other), site))


# -- the integer form against a per-term Fraction reference ------------------

@st.composite
def forms(draw):
    """(p, ref): p built directly as numerators over a denominator that need
    not be reduced, ref the same polynomial as a key -> Fraction map."""
    den = draw(st.integers(1, 12))
    nums = draw(st.dictionaries(monomials, st.integers(-9, 9).filter(bool),
                                max_size=4))
    return (SuperPolynomial(nums, den),
            {m: Q(n, den) for m, n in nums.items()})


def ref_combine(*parts):
    out = {}
    for w, ref in parts:
        for m, c in ref.items():
            out[m] = out.get(m, 0) + w * c
    return {m: c for m, c in out.items() if c}


def ref_mul(r1, r2):
    out = {}
    for m1, c1 in r1.items():
        for m2, c2 in r2.items():
            mask1, mask2 = m1 & ODD_MASK, m2 & ODD_MASK
            if mask1 & mask2:
                continue
            # one sign flip per odd factor of m2 moved left past a later
            # odd factor of m1
            flips = sum(1 for i in range(6) for j in range(i)
                        if mask1 >> i & 1 and mask2 >> j & 1)
            m = Monomial(tuple(a + b for a, b in zip(exponents(m1),
                                                     exponents(m2))),
                         mask1 | mask2)
            out[m] = out.get(m, 0) + (-1) ** flips * c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_key(m):
    return (*exponents(m), m & ODD_MASK)


def ref_monomial_text(m, nsites):
    names = ("th1", "thb1", "th2", "thb2", "th3", "thb3")
    parts = [f"z{i + 1}" + (f"^{d}" if d > 1 else "")
             for i, d in enumerate(exponents(m)) if d]
    parts += [names[k] for k in range(2 * nsites) if m >> k & 1]
    return " ".join(parts) or "1"


def ref_text(ref, nsites=2):
    if not ref:
        return "0"
    out = []
    for m in sorted(ref, key=ref_key, reverse=True):
        c = ref[m]
        mono = ref_monomial_text(m, nsites)
        body = str(abs(c)) if mono == "1" else f"{abs(c)} {mono}"
        sign = ("" if c > 0 else "-") if not out else ("+ " if c > 0 else "- ")
        out.append(sign + body)
    return " ".join(out)


def assert_matches(p, ref):
    assert p.den > 0 and all(p.terms.values())
    assert set(p.terms) == set(ref)
    assert all(p.coefficient(m) == c for m, c in ref.items())
    assert p.text() == ref_text(ref)


@settings(max_examples=60, deadline=None)
@given(forms(), forms(), st.fractions(min_value=-5, max_value=5,
                                      max_denominator=7), monomials)
def test_int_form_matches_fraction_reference(a, b, c, m):
    (p, pr), (q, qr) = a, b
    assert_matches(p, pr)
    assert_matches(p + q, ref_combine((1, pr), (1, qr)))
    assert_matches(p - q, ref_combine((1, pr), (-1, qr)))
    assert_matches(p * q, ref_mul(pr, qr))
    assert_matches(c * p, ref_combine((c, pr)))
    assert_matches(Q(0) * p, {})
    assert_matches(-p, ref_combine((-1, pr)))
    assert p.coefficient(m) == pr.get(m, 0)


@settings(max_examples=60, deadline=None)
@given(forms(), st.integers(2, 6))
def test_unreduced_form_equals_reduced(a, k):
    p, _ = a
    scaled = SuperPolynomial({m: k * n for m, n in p.terms.items()},
                             k * p.den)
    assert scaled == p and p == scaled
    assert hash(scaled) == hash(p)
    assert scaled.reduced().den == p.reduced().den
    if p.terms:
        m = next(iter(p.terms))
        bumped = dict(scaled.terms)
        bumped[m] += 1 if bumped[m] != -1 else 2
        assert SuperPolynomial(bumped, scaled.den) != p
