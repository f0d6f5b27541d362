"""Exact graded polynomial algebra over the rationals.

Even variables z1..zn and odd (Grassmann) variables th1, thb1, .., thn, thbn.
Coefficients are `fractions.Fraction`; there is no floating point anywhere.
Odd monomial factors are stored canonically in the fixed global order
(th1, thb1, th2, thb2, th3, thb3); every sign in the algebra derives from
sorting products into this order.
"""

from __future__ import annotations

from fractions import Fraction
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
    """Finite map Monomial -> Fraction with no stored zero coefficients.

    Instances are immutable values: every operation returns a new polynomial.
    """

    __slots__ = ("terms", "nsites")

    def __init__(self, terms: dict[Monomial, Fraction], nsites: int):
        self.terms = terms
        self.nsites = nsites

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nsites: int = 2) -> "SuperPolynomial":
        return SuperPolynomial({}, nsites)

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Monomial, Fraction]], nsites: int) -> "SuperPolynomial":
        terms: dict[Monomial, Fraction] = {}
        for m, c in pairs:
            if not c:
                continue
            acc = terms.get(m)
            c = c if acc is None else acc + c
            if c:
                terms[m] = c
            elif acc is not None:
                del terms[m]
        return SuperPolynomial(terms, nsites)

    @staticmethod
    def scalar(c, nsites: int = 2) -> "SuperPolynomial":
        c = Q(c)
        if not c:
            return SuperPolynomial.zero(nsites)
        return SuperPolynomial({Monomial((0,) * nsites, 0): c}, nsites)

    @staticmethod
    def one(nsites: int = 2) -> "SuperPolynomial":
        return SuperPolynomial.scalar(1, nsites)

    @staticmethod
    def z_var(site: int, nsites: int = 2) -> "SuperPolynomial":
        z = [0] * nsites
        z[site - 1] = 1
        return SuperPolynomial({Monomial(tuple(z), 0): Q(1)}, nsites)

    @staticmethod
    def odd_var(var: int, nsites: int = 2) -> "SuperPolynomial":
        return SuperPolynomial({Monomial((0,) * nsites, 1 << var): Q(1)}, nsites)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if self.nsites != other.nsites:
            raise ValueError("site-count mismatch")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            s = c if acc is None else acc + c
            if s:
                terms[m] = s
            elif acc is not None:
                del terms[m]
        return SuperPolynomial(terms, self.nsites)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-1) * other

    def __rmul__(self, c) -> "SuperPolynomial":
        c = Q(c)
        if not c:
            return SuperPolynomial.zero(self.nsites)
        return SuperPolynomial({m: c * v for m, v in self.terms.items()}, self.nsites)

    def __neg__(self) -> "SuperPolynomial":
        return (-1) * self

    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        """Graded-commutative product; repeated odd variables vanish."""
        if self.nsites != other.nsites:
            raise ValueError("site-count mismatch")
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, mask = _merge_masks(m1.mask, m2.mask)
                if sign == 0:
                    continue
                m = Monomial(tuple(a + b for a, b in zip(m1.z, m2.z)), mask)
                c = sign * c1 * c2
                acc = terms.get(m)
                s = c if acc is None else acc + c
                if s:
                    terms[m] = s
                elif acc is not None:
                    del terms[m]
        return SuperPolynomial(terms, self.nsites)

    def __pow__(self, n: int) -> "SuperPolynomial":
        out = SuperPolynomial.one(self.nsites)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, SuperPolynomial)
                and self.nsites == other.nsites and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nsites, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Q(0))

    def parity(self) -> int | None:
        """0/1 for parity-homogeneous polynomials, None when mixed or zero."""
        ps = {m.parity for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def max_z_degree(self) -> int:
        return max((m.z_degree for m in self.terms), default=0)

    def degree_measure(self) -> set[Fraction]:
        """Values of z-degree + (odd count)/2 across terms."""
        return {Q(2 * m.z_degree + m.odd_count, 2) for m in self.terms}

    # -- calculus ----------------------------------------------------------

    def deriv_even(self, site: int) -> "SuperPolynomial":
        i = site - 1
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            a = m.z[i]
            if a == 0:
                continue
            z = list(m.z)
            z[i] = a - 1
            terms[Monomial(tuple(z), m.mask)] = c * a
        return SuperPolynomial(terms, self.nsites)

    def deriv_odd(self, var: int) -> "SuperPolynomial":
        """Left Grassmann derivative: anticommute `var` to the front, delete it."""
        bit = 1 << var
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if not m.mask & bit:
                continue
            below = (m.mask & (bit - 1)).bit_count()
            sign = -1 if below & 1 else 1
            terms[Monomial(m.z, m.mask ^ bit)] = sign * c
        return SuperPolynomial(terms, self.nsites)

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering: terms ordered by (z-degrees, mask), leading
        degree first."""
        if not self.terms:
            return "0"
        out = []
        for m in sorted(self.terms, key=Monomial.sort_key, reverse=True):
            c = self.terms[m]
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
    return SuperPolynomial({m: Q(1)}, m.nsites)
