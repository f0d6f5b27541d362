"""Exact graded polynomial algebra over the rationals.

Even variables z1..zn and odd (Grassmann) variables th1, thb1, .., thn, thbn.
A polynomial holds int numerators over one positive int denominator, so
arithmetic and equality run on ints; a `Fraction` is made only where a
rational comes in (constructors, scaling) or goes out (`coefficient`,
`text`).  There is no floating point anywhere.
Odd monomial factors are stored canonically in the fixed global order
(th1, thb1, th2, thb2, th3, thb3); every sign in the algebra derives from
sorting products into this order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

Q = Fraction

#: canonical odd-variable names, indexed by odd-variable id
ODD_NAMES = ("th1", "thb1", "th2", "thb2", "th3", "thb3")


def theta(site: int) -> int:
    """Odd-variable id of theta at a 1-based site."""
    return 2 * (site - 1)


def theta_bar(site: int) -> int:
    """Odd-variable id of theta-bar at a 1-based site."""
    return 2 * (site - 1) + 1


class Monomial(NamedTuple):
    """Basis element z1^a1 .. zn^an times an ordered subset of odd variables.

    `z` holds the even degrees per site, `mask` the odd subset as a bitmask
    (bit k set means ODD_NAMES[k] is a factor).
    """

    z: tuple[int, ...]
    mask: int

    @property
    def nsites(self) -> int:
        return len(self.z)

    @property
    def z_degree(self) -> int:
        return sum(self.z)

    @property
    def odd_count(self) -> int:
        return self.mask.bit_count()

    @property
    def parity(self) -> int:
        return self.mask.bit_count() & 1

    def sort_key(self):
        return (*self.z, self.mask)

    def text(self) -> str:
        parts = [f"z{i + 1}" + (f"^{d}" if d > 1 else "")
                 for i, d in enumerate(self.z) if d > 0]
        parts += [ODD_NAMES[k] for k in range(2 * len(self.z)) if self.mask >> k & 1]
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

    `terms` maps Monomial -> nonzero int and `den` is a positive int.  The
    form need not be reduced (see `reduced`), so equal polynomials may differ
    as forms; equality and hashing compare values.  Instances are immutable
    values: `terms` is never mutated after construction, so forms may share
    it, and every operation returns a new polynomial.
    """

    __slots__ = ("terms", "nsites", "den")

    def __init__(self, terms: dict[Monomial, int], nsites: int, den: int = 1):
        self.terms = terms
        self.nsites = nsites
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nsites: int = 2) -> "SuperPolynomial":
        return SuperPolynomial({}, nsites)

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Monomial, Fraction]], nsites: int) -> "SuperPolynomial":
        coeffs: dict[Monomial, Fraction] = {}
        for m, c in pairs:
            coeffs[m] = coeffs.get(m, 0) + Q(c)
        den = lcm(*(c.denominator for c in coeffs.values()))
        return SuperPolynomial({m: c.numerator * (den // c.denominator)
                                for m, c in coeffs.items() if c}, nsites, den)

    @staticmethod
    def scalar(c, nsites: int = 2) -> "SuperPolynomial":
        c = Q(c)
        if not c:
            return SuperPolynomial.zero(nsites)
        return SuperPolynomial({Monomial((0,) * nsites, 0): c.numerator},
                               nsites, c.denominator)

    @staticmethod
    def one(nsites: int = 2) -> "SuperPolynomial":
        return SuperPolynomial.scalar(1, nsites)

    @staticmethod
    def z_var(site: int, nsites: int = 2) -> "SuperPolynomial":
        z = [0] * nsites
        z[site - 1] = 1
        return SuperPolynomial({Monomial(tuple(z), 0): 1}, nsites)

    @staticmethod
    def odd_var(var: int, nsites: int = 2) -> "SuperPolynomial":
        return SuperPolynomial({Monomial((0,) * nsites, 1 << var): 1}, nsites)

    def reduced(self) -> "SuperPolynomial":
        """The same polynomial with no factor common to `den` and every
        numerator."""
        g = gcd(self.den, *self.terms.values())
        if g == 1:
            return self
        return SuperPolynomial({m: n // g for m, n in self.terms.items()},
                               self.nsites, self.den // g)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if self.nsites != other.nsites:
            raise ValueError("site-count mismatch")
        return lincomb([(1, self), (1, other)], self.nsites)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-1) * other

    def __rmul__(self, c) -> "SuperPolynomial":
        c = Q(c)
        if not c:
            return SuperPolynomial.zero(self.nsites)
        k = c.numerator
        terms = (self.terms if k == 1
                 else {m: k * n for m, n in self.terms.items()})
        return SuperPolynomial(terms, self.nsites, self.den * c.denominator)

    def __neg__(self) -> "SuperPolynomial":
        return (-1) * self

    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        """Graded-commutative product; repeated odd variables vanish."""
        if self.nsites != other.nsites:
            raise ValueError("site-count mismatch")
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, mask = _merge_masks(m1.mask, m2.mask)
                if sign == 0:
                    continue
                m = Monomial(tuple(a + b for a, b in zip(m1.z, m2.z)), mask)
                terms[m] = terms.get(m, 0) + sign * c1 * c2
        return SuperPolynomial({m: n for m, n in terms.items() if n},
                               self.nsites, self.den * other.den)

    def __pow__(self, n: int) -> "SuperPolynomial":
        out = SuperPolynomial.one(self.nsites)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not (isinstance(other, SuperPolynomial)
                and self.nsites == other.nsites
                and self.terms.keys() == other.terms.keys()):
            return False
        d1, d2, theirs = self.den, other.den, other.terms
        return all(n * d2 == theirs[m] * d1 for m, n in self.terms.items())

    def __hash__(self):
        r = self.reduced()
        return hash((r.nsites, r.den, frozenset(r.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> Fraction:
        return Q(self.terms.get(m, 0), self.den)

    def parity(self) -> int | None:
        """0/1 for parity-homogeneous polynomials, None when mixed or zero."""
        ps = {m.parity for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def degree_measure(self) -> set[Fraction]:
        """Values of z-degree + (odd count)/2 across terms."""
        return {Q(2 * m.z_degree + m.odd_count, 2) for m in self.terms}

    # -- calculus ----------------------------------------------------------

    def deriv_even(self, site: int) -> "SuperPolynomial":
        i = site - 1
        terms: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            a = m.z[i]
            if a == 0:
                continue
            z = list(m.z)
            z[i] = a - 1
            terms[Monomial(tuple(z), m.mask)] = c * a
        return SuperPolynomial(terms, self.nsites, self.den)

    def deriv_odd(self, var: int) -> "SuperPolynomial":
        """Left Grassmann derivative: anticommute `var` to the front, delete it."""
        bit = 1 << var
        terms: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            if not m.mask & bit:
                continue
            below = (m.mask & (bit - 1)).bit_count()
            sign = -1 if below & 1 else 1
            terms[Monomial(m.z, m.mask ^ bit)] = sign * c
        return SuperPolynomial(terms, self.nsites, self.den)

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering: terms ordered by (z-degrees, mask), leading
        degree first."""
        if not self.terms:
            return "0"
        out = []
        for m in sorted(self.terms, key=Monomial.sort_key, reverse=True):
            c = Q(self.terms[m], self.den)
            mono = m.text()
            body = str(abs(c)) if mono == "1" else f"{abs(c)} {mono}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self):
        return f"SuperPolynomial({self.text()})"


# -- module-level operations ------------------------------------------------

def iter_z_tuples(max_degree: int, nsites: int):
    """All degree tuples with total <= max_degree, lexicographic order."""
    if nsites == 0:
        yield ()
        return
    for d in range(max_degree + 1):
        for rest in iter_z_tuples(max_degree - d, nsites - 1):
            yield (d, *rest)


def enumerate_basis(max_z_degree: int, nsites: int = 2) -> list[Monomial]:
    """All monomials with total z-degree <= bound, every odd mask.

    Deterministic order: z-degree tuple lexicographic, then mask ascending.
    For two sites the count is 16*(D+1)(D+2)/2.
    """
    nmasks = 1 << (2 * nsites)
    return [Monomial(z, mask)
            for z in sorted(iter_z_tuples(max_z_degree, nsites))
            for mask in range(nmasks)]


def monomial_poly(m: Monomial) -> SuperPolynomial:
    return SuperPolynomial({m: 1}, m.nsites)


def lincomb(parts, nsites: int, den: int = 1) -> SuperPolynomial:
    """sum(w * q for w, q in parts) / den for int weights w, over the lcm of
    the parts' denominators; the result need not be reduced."""
    parts = [(w, q) for w, q in parts if q.terms]
    if len(parts) == 1 and parts[0][0] == 1 and den == 1:
        return parts[0][1]
    common = lcm(*(q.den for _, q in parts))
    terms: dict[Monomial, int] = {}
    get = terms.get
    for w, q in parts:
        f = w * (common // q.den)
        for m, n in q.terms.items():
            terms[m] = get(m, 0) + f * n
    return SuperPolynomial({m: n for m, n in terms.items() if n}, nsites,
                           den * common)
