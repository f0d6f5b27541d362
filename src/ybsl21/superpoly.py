"""Exact graded polynomial algebra over the rationals.

Even variables z1, z2, z3 and odd (Grassmann) variables th1, thb1, .., thb3;
a polynomial carries no site count, only a basis (`enumerate_basis`) does.
A polynomial holds int numerators over one positive int denominator, so
arithmetic and equality run on ints; a `Fraction` is made only where a
rational comes in (constructors, scaling) or goes out (`coefficient`,
`text`).  There is no floating point anywhere.
Odd monomial factors are stored canonically in the fixed global order
(th1, thb1, th2, thb2, th3, thb3); every sign in the algebra derives from
sorting products into this order.

A monomial is one int, its key, with the fixed layout z1 | z2 | z3 | mask:
three 8-bit z-degree fields, z1 most significant, above a 6-bit odd mask
whose bit k means ODD_NAMES[k] is a factor.  So a two-site key is the same
monomial on three sites, and sorting keys sorts monomials by (z1, z2, z3,
mask).  The top bit of each field is a guard: a z-degree is at most
Z_MAX = 127, and a sum of keys that sets a guard bit raises instead of
carrying into the next field.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable

Q = Fraction

#: canonical odd-variable names, indexed by odd-variable id
ODD_NAMES = ("th1", "thb1", "th2", "thb2", "th3", "thb3")
MAX_SITES = 3
#: the key bits of the odd mask
ODD_MASK = 0x3F
FIELD_MASK = 0xFF
Z_MAX = 0x7F
#: the bit offset of each site's z-degree field, site 1 first
Z_SHIFTS = (22, 14, 6)
GUARD = sum((Z_MAX + 1) << shift for shift in Z_SHIFTS)


class LayoutError(ValueError):
    """A monomial or a site count that the packed key layout cannot hold."""


def theta(site: int) -> int:
    """Odd-variable id of theta at a 1-based site."""
    return 2 * (site - 1)


def theta_bar(site: int) -> int:
    """Odd-variable id of theta-bar at a 1-based site."""
    return 2 * (site - 1) + 1


def Monomial(z: tuple[int, ...], mask: int) -> int:
    """The key of z1^z[0] .. zn^z[n-1] times the odd factors in `mask`."""
    if (len(z) > MAX_SITES or not 0 <= mask <= ODD_MASK
            or not all(0 <= d <= Z_MAX for d in z)):
        raise LayoutError(f"no key for z-degrees {z} and mask {mask}: a key "
                          f"holds {MAX_SITES} z-degrees in 0..{Z_MAX} and a "
                          f"mask in 0..{ODD_MASK}")
    return sum(d << shift for shift, d in zip(Z_SHIFTS, z)) | mask


def fit(key: int) -> int:
    """`key`, checked for a z-degree sum that reached its field's guard bit."""
    if key & GUARD:
        raise LayoutError(f"a z-degree exceeds {Z_MAX}, the most a key holds")
    return key


def exponents(key: int) -> tuple[int, ...]:
    """The z-degrees of sites 1, 2 and 3."""
    return tuple(key >> shift & FIELD_MASK for shift in Z_SHIFTS)


def monomial_text(key: int) -> str:
    parts = [f"z{i + 1}" + (f"^{d}" if d > 1 else "")
             for i, d in enumerate(exponents(key)) if d > 0]
    parts += [name for k, name in enumerate(ODD_NAMES) if key >> k & 1]
    return " ".join(parts) if parts else "1"


def _merge_masks(m1: int, m2: int) -> tuple[int, int]:
    """Concatenate two canonical odd products and re-canonicalize.

    Returns (sign, mask); sign is 0 when a variable repeats (nilpotency).
    """
    if m1 & m2:
        return 0, 0
    swaps = 0
    m = m2
    while m:
        low = m & -m
        # bits of m1 strictly above this bit of m2 must be jumped over
        swaps += (m1 >> low.bit_length()).bit_count()
        m ^= low
    return (-1 if swaps & 1 else 1), m1 | m2


class SuperPolynomial:
    """The polynomial sum(n * m for m, n in terms.items()) / den.

    `terms` maps a monomial key -> nonzero int and `den` is a positive int.
    The form need not be reduced (see `reduced`), so equal polynomials may
    differ as forms; equality and hashing compare values.  Instances are
    immutable values: `terms` is never mutated after construction, so forms
    may share it, and every operation returns a new polynomial.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[int, int], den: int = 1):
        self.terms = terms
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SuperPolynomial":
        return SuperPolynomial({})

    @staticmethod
    def from_terms(pairs: Iterable[tuple[int, Fraction]]) -> "SuperPolynomial":
        coeffs: dict[int, Fraction] = {}
        for m, c in pairs:
            coeffs[m] = coeffs.get(m, 0) + Q(c)
        den = lcm(*(c.denominator for c in coeffs.values()))
        return SuperPolynomial({m: c.numerator * (den // c.denominator)
                                for m, c in coeffs.items() if c}, den)

    @staticmethod
    def scalar(c) -> "SuperPolynomial":
        c = Q(c)
        if not c:
            return SuperPolynomial.zero()
        return SuperPolynomial({0: c.numerator}, c.denominator)

    @staticmethod
    def one() -> "SuperPolynomial":
        return SuperPolynomial.scalar(1)

    @staticmethod
    def z_var(site: int) -> "SuperPolynomial":
        if not 0 < site <= MAX_SITES:
            raise LayoutError(f"no site {site} among {MAX_SITES} sites")
        return SuperPolynomial({Monomial((0,) * (site - 1) + (1,), 0): 1})

    @staticmethod
    def odd_var(var: int) -> "SuperPolynomial":
        if not 0 <= var < 2 * MAX_SITES:
            raise LayoutError(f"no odd variable {var} on {MAX_SITES} sites")
        return SuperPolynomial({Monomial((), 1 << var): 1})

    def reduced(self) -> "SuperPolynomial":
        """The same polynomial with no factor common to `den` and every
        numerator."""
        g = gcd(self.den, *self.terms.values())
        if g == 1:
            return self
        return SuperPolynomial({m: n // g for m, n in self.terms.items()},
                               self.den // g)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return lincomb([(1, self), (1, other)])

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-1) * other

    def __rmul__(self, c) -> "SuperPolynomial":
        c = Q(c)
        if not c:
            return SuperPolynomial.zero()
        k = c.numerator
        terms = (self.terms if k == 1
                 else {m: k * n for m, n in self.terms.items()})
        return SuperPolynomial(terms, self.den * c.denominator)

    def __neg__(self) -> "SuperPolynomial":
        return (-1) * self

    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        """Graded-commutative product; repeated odd variables vanish.  The
        even part of a product key is the sum of the factors' even parts."""
        right = [(m & ODD_MASK, m & ~ODD_MASK, c)
                 for m, c in other.terms.items()]
        terms: dict[int, int] = {}
        for m1, c1 in self.terms.items():
            mask1 = m1 & ODD_MASK
            for mask2, even2, c2 in right:
                sign, mask = _merge_masks(mask1, mask2)
                if sign == 0:
                    continue
                m = fit(m1 - mask1 + even2) | mask
                terms[m] = terms.get(m, 0) + sign * c1 * c2
        return SuperPolynomial({m: n for m, n in terms.items() if n},
                               self.den * other.den)

    def __pow__(self, n: int) -> "SuperPolynomial":
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
        out = SuperPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not (isinstance(other, SuperPolynomial)
                and self.terms.keys() == other.terms.keys()):
            return False
        d1, d2, theirs = self.den, other.den, other.terms
        if d1 == d2:
            return self.terms == theirs
        return all(n * d2 == theirs[m] * d1 for m, n in self.terms.items())

    def __hash__(self):
        r = self.reduced()
        return hash((r.den, frozenset(r.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: int) -> Fraction:
        return Q(self.terms.get(m, 0), self.den)

    def parity(self) -> int | None:
        """0/1 for parity-homogeneous polynomials, None when mixed or zero."""
        ps = {(m & ODD_MASK).bit_count() & 1 for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def degree_measure(self) -> set[Fraction]:
        """Values of z-degree + (odd count)/2 across terms."""
        return {Q(2 * sum(exponents(m)) + (m & ODD_MASK).bit_count(), 2)
                for m in self.terms}

    # -- calculus ----------------------------------------------------------

    def deriv_even(self, site: int) -> "SuperPolynomial":
        shift = Z_SHIFTS[site - 1]
        terms: dict[int, int] = {}
        for m, c in self.terms.items():
            a = m >> shift & FIELD_MASK
            if a:
                terms[m - (1 << shift)] = c * a
        return SuperPolynomial(terms, self.den)

    def deriv_odd(self, var: int) -> "SuperPolynomial":
        """Left Grassmann derivative: anticommute `var` to the front, delete it."""
        bit = 1 << var
        terms: dict[int, int] = {}
        for m, c in self.terms.items():
            if not m & bit:
                continue
            below = (m & (bit - 1)).bit_count()
            sign = -1 if below & 1 else 1
            terms[m ^ bit] = sign * c
        return SuperPolynomial(terms, self.den)

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering: terms ordered by (z-degrees, mask), leading
        degree first."""
        if not self.terms:
            return "0"
        out = []
        for m in sorted(self.terms, reverse=True):
            c = Q(self.terms[m], self.den)
            mono = monomial_text(m)
            body = str(abs(c)) if mono == "1" else f"{abs(c)} {mono}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self):
        return f"SuperPolynomial({self.text()})"


# -- module-level operations ------------------------------------------------

def enumerate_basis(max_z_degree: int, nsites: int = 2) -> list[int]:
    """All monomials with total z-degree <= bound, every odd mask, as keys
    in ascending order: z-degree tuple lexicographic, then mask ascending.
    For two sites the count is 16*(D+1)(D+2)/2.
    """
    if not 0 < nsites <= MAX_SITES:
        raise LayoutError(f"nsites must be 1..{MAX_SITES}, got {nsites}")
    evens = [Monomial(z, 0)
             for z in product(range(max_z_degree + 1), repeat=nsites)
             if sum(z) <= max_z_degree]
    return sorted(e | mask for e in evens for mask in range(1 << (2 * nsites)))


def lincomb(parts, den: int = 1) -> SuperPolynomial:
    """sum(w * q for w, q in parts) / den for int weights w, over the lcm of
    the parts' denominators; the result need not be reduced, and holds no
    zero numerator."""
    parts = [(w, q) for w, q in parts if w and q.terms]
    if not parts:
        return SuperPolynomial({}, den)
    if len(parts) == 1:
        w, q = parts[0]
        if w == 1 and den == 1:
            return q
        terms = q.terms if w == 1 else {m: w * n for m, n in q.terms.items()}
        return SuperPolynomial(terms, den * q.den)
    common = lcm(*(q.den for _, q in parts))
    (w, q), *rest = parts
    f = w * (common // q.den)
    terms = {m: f * n for m, n in q.terms.items()}
    get = terms.get
    for w, q in rest:
        f = w * (common // q.den)
        for m, n in q.terms.items():
            terms[m] = get(m, 0) + f * n
    if 0 in terms.values():
        terms = {m: n for m, n in terms.items() if n}
    return SuperPolynomial(terms, den * common)
