"""Values and polynomial helpers that several test modules share.

The helpers are plain functions on `SuperPolynomial`s that only tests
call: the site mirror Sigma and its parameter map, a constructor from
(monomial, rational) pairs, the degree measure, and the even and odd
derivatives that serve as oracles for `DiffOp`; and `subspace_at_weight`,
a finite-subspace check with its generators built at another weight.
"""

from fractions import Fraction as Q
from math import lcm

from ybsl21 import sl21
from ybsl21.rops import ParamPair
from ybsl21.sl21 import Weight, check_finite_subspace
from ybsl21.superpoly import (FIELD_MASK, ODD_MASK, Z_SHIFTS, SuperPolynomial,
                              exponents, theta, theta_bar)

#: a regular parameter pair, for tests that need one fixed pair
PP = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2), Q(-3, 2))
#: a regular Yang-Baxter configuration (w1, w2, w3, u, v)
YBE = (Weight(Q(1), Q(1, 3)), Weight(Q(1, 2), Q(-2, 5)),
       Weight(Q(3, 2), Q(2, 7)), Q(2), Q(1, 2))
ONE = SuperPolynomial.one()
TH1, THB1, TH2, THB2 = theta(1), theta_bar(1), theta(2), theta_bar(2)


def z(site):
    return SuperPolynomial.z_var(site)


def sp(var):
    return SuperPolynomial.odd_var(var)


def mirror(p):
    """Sigma: z1 <-> z2, th1 -> thb2, thb1 -> th2, th2 -> thb1, thb2 -> th1.

    The images of a monomial's odd factors multiply in the monomial's
    canonical order, and the product re-sorts them with its sign.  Sigma
    is an involution; it swaps R1 with R3 when the parameters go to
    `mirrored` ones.
    """
    odd_images = {TH1: THB2, THB1: TH2, TH2: THB1, THB2: TH1}
    out = SuperPolynomial.zero()
    for key in p.terms:
        d1, d2, _ = exponents(key)
        image = z(2) ** d1 * z(1) ** d2
        for var, var_image in odd_images.items():
            if key >> var & 1:
                image = image * sp(var_image)
        out = out + p.coefficient(key) * image
    return out


def mirrored(pp):
    """The parameters of the mirror image: (-v3, -v2, -v1; -u3, -u2, -u1)."""
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    return ParamPair.from_rationals(-v3, -v2, -v1, -u3, -u2, -u1)


def from_terms(pairs):
    """The polynomial sum(c * m for m, c in pairs), rationals c summed per
    monomial key m."""
    coeffs = {}
    for m, c in pairs:
        coeffs[m] = coeffs.get(m, 0) + Q(c)
    den = lcm(*(c.denominator for c in coeffs.values()))
    return SuperPolynomial({m: c.numerator * (den // c.denominator)
                            for m, c in coeffs.items() if c}, den)


def degree_measure(p):
    """Values of z-degree + (odd count)/2 across p's terms."""
    return {Q(2 * sum(exponents(m)) + (m & ODD_MASK).bit_count(), 2)
            for m in p.terms}


def deriv_even(p, site):
    """d/dz_site of p."""
    shift = Z_SHIFTS[site - 1]
    terms = {}
    for m, c in p.terms.items():
        a = m >> shift & FIELD_MASK
        if a:
            terms[m - (1 << shift)] = c * a
    return SuperPolynomial(terms, p.den)


def deriv_odd(p, var):
    """Left Grassmann derivative: anticommute `var` to the front, delete it."""
    bit = 1 << var
    terms = {}
    for m, c in p.terms.items():
        if not m & bit:
            continue
        below = (m & (bit - 1)).bit_count()
        sign = -1 if below & 1 else 1
        terms[m ^ bit] = sign * c
    return SuperPolynomial(terms, p.den)


def subspace_at_weight(monkeypatch, n, kind, w):
    """`check_finite_subspace(n, kind)` with every generator built at w."""
    real = sl21.build_generators
    monkeypatch.setattr(sl21, "build_generators",
                        lambda site, _: real(site, w))
    return check_finite_subspace(n, kind)
