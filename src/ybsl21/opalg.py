"""Linear-operator calculus on superpolynomials.

Operators are immutable expression trees over graded primitives with known
parity.  Application is exact; equality testing is extensional on
degree-bounded monomial bases (there is no symbolic normal form).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .report import CheckReport
from .superpoly import (Monomial, SuperPolynomial, _merge_masks,
                        enumerate_basis, monomial_poly)

Q = Fraction


class OperatorError(Exception):
    pass


class IndefiniteParity(OperatorError):
    """Raised when the parity of a mixed-parity sum is queried."""


class NonTerminatingExp(OperatorError):
    """A terminating-exponential series failed to vanish within its budget."""


class PochhammerPole(OperatorError):
    """A Pochhammer denominator vanished at the evaluated degree."""


def rising_factorial(x: Fraction, n: int) -> Fraction:
    """(x)_n = x (x+1) .. (x+n-1), with (x)_0 = 1."""
    out = Q(1)
    for j in range(n):
        out *= x + j
    return out


class PochhammerSpec:
    """Degree-diagonal factor h(n) = prod (a_j)_n / prod (b_k)_n."""

    __slots__ = ("nums", "dens", "_cache")

    def __init__(self, nums, dens):
        self.nums = tuple(Q(a) for a in nums)
        self.dens = tuple(Q(b) for b in dens)
        self._cache: dict[int, Fraction] = {}

    def value(self, n: int) -> Fraction:
        h = self._cache.get(n)
        if h is not None:
            return h
        num = Q(1)
        for a in self.nums:
            num *= rising_factorial(a, n)
        den = Q(1)
        for b in self.dens:
            den *= rising_factorial(b, n)
        if den == 0:
            raise PochhammerPole(
                f"denominator Pochhammer vanishes at degree {n}: {self.dens}")
        h = num / den
        self._cache[n] = h
        return h

    def __repr__(self):
        return f"PochhammerSpec({self.nums}, {self.dens})"


# ---------------------------------------------------------------------------
# integer form: what every _apply takes and returns
# ---------------------------------------------------------------------------

class _IntPoly:
    """The polynomial sum(n * m for m, n in terms) / den.

    `den` is a positive int and no numerator is zero; the form need not be
    reduced (see `_reduced`), so equal polynomials may differ as forms.
    """

    __slots__ = ("terms", "den", "nsites")

    def __init__(self, terms: dict[Monomial, int], den: int, nsites: int):
        self.terms = terms
        self.den = den
        self.nsites = nsites


def _to_int(p: SuperPolynomial) -> _IntPoly:
    den = lcm(*(c.denominator for c in p.terms.values()))
    return _IntPoly({m: c.numerator * (den // c.denominator)
                     for m, c in p.terms.items()}, den, p.nsites)


def _reduced(p: _IntPoly) -> _IntPoly:
    g = gcd(p.den, *p.terms.values())
    if g == 1:
        return p
    return _IntPoly({m: n // g for m, n in p.terms.items()}, p.den // g,
                    p.nsites)


def _to_poly(p: _IntPoly) -> SuperPolynomial:
    den = p.den
    return SuperPolynomial({m: Q(n, den) for m, n in p.terms.items()},
                           p.nsites)


def _lincomb(parts, nsites: int, den: int = 1) -> _IntPoly:
    """sum(w * q for w, q in parts) / den, for int weights w, over the lcm
    of the parts' denominators."""
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
    return _IntPoly({m: n for m, n in terms.items() if n}, den * common,
                    nsites)


# ---------------------------------------------------------------------------
# operator expression trees
# ---------------------------------------------------------------------------

class Operator:
    """Base class; subclasses implement _apply and _parity.

    `_apply` maps an `_IntPoly` to an `_IntPoly`; `apply` is the one place
    where `Fraction` coefficients are converted in and out.
    """

    __slots__ = ()

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        return _to_poly(self._apply(_to_int(p)))

    def parity(self) -> int:
        return self._parity()

    # sugar: + - builds sums, @ composes (left operand applied last),
    # scalar * rescales
    def __add__(self, other: "Operator") -> "Operator":
        return op_sum(self, other)

    def __sub__(self, other: "Operator") -> "Operator":
        return op_sum(self, Q(-1) * other)

    def __rmul__(self, c) -> "Operator":
        return compose(Scalar(Q(c)), self)

    def __neg__(self) -> "Operator":
        return Q(-1) * self

    def __matmul__(self, other: "Operator") -> "Operator":
        return compose(self, other)


class Scalar(Operator):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = Q(c)

    def _apply(self, p):
        c = self.c
        if not c:
            return _IntPoly({}, 1, p.nsites)
        a = c.numerator
        return _IntPoly({m: a * n for m, n in p.terms.items()},
                        p.den * c.denominator, p.nsites)

    def _parity(self):
        return 0


class MulZ(Operator):
    """Multiplication by the even variable z_site."""

    __slots__ = ("site",)

    def __init__(self, site: int):
        self.site = site

    def _apply(self, p):
        i = self.site - 1
        terms = {}
        for m, n in p.terms.items():
            z = list(m.z)
            z[i] += 1
            terms[Monomial(tuple(z), m.mask)] = n
        return _IntPoly(terms, p.den, p.nsites)

    def _parity(self):
        return 0


class MulOdd(Operator):
    """Left multiplication by one odd variable."""

    __slots__ = ("var",)

    def __init__(self, var: int):
        self.var = var

    def _apply(self, p):
        bit = 1 << self.var
        terms = {}
        for m, n in p.terms.items():
            if m.mask & bit:
                continue
            below = (m.mask & (bit - 1)).bit_count()
            # the new variable starts at the front and moves right past
            # the smaller canonical bits
            terms[Monomial(m.z, m.mask | bit)] = -n if below & 1 else n
        return _IntPoly(terms, p.den, p.nsites)

    def _parity(self):
        return 1


class MulPoly(Operator):
    """Left multiplication by a fixed parity-homogeneous polynomial."""

    __slots__ = ("_q", "_p")

    def __init__(self, poly: SuperPolynomial):
        par = poly.parity()
        if par is None and not poly.is_zero():
            raise IndefiniteParity("multiplier must be parity-homogeneous")
        self._q = _to_int(poly)
        self._p = par or 0

    def _apply(self, p):
        q = self._q
        terms: dict[Monomial, int] = {}
        get = terms.get
        for m1, n1 in q.terms.items():
            for m2, n2 in p.terms.items():
                sign, mask = _merge_masks(m1.mask, m2.mask)
                if sign == 0:
                    continue
                m = Monomial(tuple(a + b for a, b in zip(m1.z, m2.z)), mask)
                terms[m] = get(m, 0) + sign * n1 * n2
        return _IntPoly({m: n for m, n in terms.items() if n},
                        q.den * p.den, p.nsites)

    def _parity(self):
        return self._p


class EvenDeriv(Operator):
    __slots__ = ("site",)

    def __init__(self, site: int):
        self.site = site

    def _apply(self, p):
        i = self.site - 1
        terms = {}
        for m, n in p.terms.items():
            a = m.z[i]
            if a == 0:
                continue
            z = list(m.z)
            z[i] = a - 1
            terms[Monomial(tuple(z), m.mask)] = a * n
        return _IntPoly(terms, p.den, p.nsites)

    def _parity(self):
        return 0


class OddDeriv(Operator):
    """Left Grassmann derivative: anticommute `var` to the front, delete it."""

    __slots__ = ("var",)

    def __init__(self, var: int):
        self.var = var

    def _apply(self, p):
        bit = 1 << self.var
        terms = {}
        for m, n in p.terms.items():
            if not m.mask & bit:
                continue
            below = (m.mask & (bit - 1)).bit_count()
            terms[Monomial(m.z, m.mask ^ bit)] = -n if below & 1 else n
        return _IntPoly(terms, p.den, p.nsites)

    def _parity(self):
        return 1


class DegreeDiagonal(Operator):
    """Scale each term by h(n) where n is the term's z-degree at `site`."""

    __slots__ = ("site", "spec")

    def __init__(self, site: int, spec: PochhammerSpec):
        self.site = site
        self.spec = spec

    def _apply(self, p):
        i = self.site - 1
        value = self.spec.value
        # in term order, so a pole is reported at the same degree as a
        # term-by-term walk would meet it
        hs = {d: value(d) for d in dict.fromkeys(m.z[i] for m in p.terms)}
        common = lcm(*(h.denominator for h in hs.values()))
        scale = {d: h.numerator * (common // h.denominator)
                 for d, h in hs.items() if h}
        terms = {m: scale[m.z[i]] * n for m, n in p.terms.items()
                 if m.z[i] in scale}
        return _IntPoly(terms, p.den * common, p.nsites)

    def _parity(self):
        return 0


class SwapSites(Operator):
    """Graded site permutation: relabel all variables of two sites.

    Reordering signs arise automatically from re-canonicalizing the odd
    factors, e.g. th1 th2 -> th2 th1 = -th1 th2.
    """

    __slots__ = ("a", "b", "_tables")

    def __init__(self, a: int, b: int):
        if a > b:
            a, b = b, a
        self.a = a
        self.b = b
        self._tables: dict[int, list[tuple[int, int]]] = {}

    def _table(self, nsites: int) -> list[tuple[int, int]]:
        """(relabeled mask, sign) for every odd mask of `nsites` sites."""
        table = self._tables.get(nsites)
        if table is None:
            ia, ib = self.a - 1, self.b - 1
            bits_a = 0b11 << (2 * ia)
            bits_b = 0b11 << (2 * ib)
            shift = 2 * (ib - ia)
            table = [((mask & ~(bits_a | bits_b)) | ((mask & bits_a) << shift)
                      | ((mask & bits_b) >> shift), _relabel_sign(mask, ia, ib))
                     for mask in range(1 << (2 * nsites))]
            self._tables[nsites] = table
        return table

    def _apply(self, p):
        ia, ib = self.a - 1, self.b - 1
        table = self._table(p.nsites)
        terms = {}
        for m, n in p.terms.items():
            z = list(m.z)
            z[ia], z[ib] = z[ib], z[ia]
            mask, sign = table[m.mask]
            terms[Monomial(tuple(z), mask)] = sign * n
        return _IntPoly(terms, p.den, p.nsites)

    def _parity(self):
        return 0


def _relabel_sign(mask: int, ia: int, ib: int) -> int:
    """Parity of the permutation sending the old ordered factor list to the
    new canonical one."""
    order = [k for k in range(mask.bit_length()) if mask >> k & 1]
    ra = range(2 * ia, 2 * ia + 2)
    rb = range(2 * ib, 2 * ib + 2)
    relabeled = [k + 2 * (ib - ia) if k in ra else (k - 2 * (ib - ia) if k in rb else k)
                 for k in order]
    swaps = 0
    for i in range(len(relabeled)):
        for j in range(i + 1, len(relabeled)):
            if relabeled[i] > relabeled[j]:
                swaps += 1
    return -1 if swaps & 1 else 1


class Sum(Operator):
    __slots__ = ("ops",)

    def __init__(self, ops):
        flat = []
        for op in ops:
            if isinstance(op, Sum):
                flat.extend(op.ops)
            else:
                flat.append(op)
        self.ops = tuple(flat)

    def _apply(self, p):
        return _lincomb([(1, op._apply(p)) for op in self.ops], p.nsites)

    def _parity(self):
        ps = {op._parity() for op in self.ops}
        if len(ps) > 1:
            raise IndefiniteParity(f"sum mixes parities {ps}")
        return ps.pop() if ps else 0


class Compose(Operator):
    """Composition; the rightmost factor is applied first."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        flat = []
        for op in ops:
            if isinstance(op, Compose):
                flat.extend(op.ops)
            else:
                flat.append(op)
        self.ops = tuple(flat)

    def _apply(self, p):
        for op in reversed(self.ops):
            p = op._apply(p)
        return p

    def _parity(self):
        return sum(op._parity() for op in self.ops) & 1


class TerminatingExp(Operator):
    """sum_k A^k / k! for A nilpotent or z-degree lowering on polynomials."""

    __slots__ = ("op",)

    def __init__(self, op: Operator):
        if op._parity() != 0:
            raise IndefiniteParity("exponential generator must be even")
        self.op = op

    def _apply(self, p):
        parts = [(1, p)]
        term = p
        budget = max((sum(m.z) for m in p.terms), default=0) + 5
        k = 0
        while term.terms:
            k += 1
            if k > budget:
                raise NonTerminatingExp(
                    f"series not terminated after {budget} iterations")
            term = self.op._apply(term)
            # A^k p / k! = A(A^(k-1) p / (k-1)!) / k
            term = _IntPoly(term.terms, term.den * k, term.nsites)
            parts.append((1, term))
        return _lincomb(parts, p.nsites)

    def _parity(self):
        return 0


class Cached(Operator):
    """Memoizes the image of each basis monomial (operators are linear).

    Each image is stored reduced, which bounds the integer growth of
    everything built from it.
    """

    __slots__ = ("op", "_images")

    def __init__(self, op: Operator):
        self.op = op
        self._images: dict[Monomial, _IntPoly] = {}

    def _apply(self, p):
        parts = []
        for m, n in p.terms.items():
            img = self._images.get(m)
            if img is None:
                img = _reduced(self.op._apply(_IntPoly({m: 1}, 1, p.nsites)))
                self._images[m] = img
            parts.append((n, img))
        return _lincomb(parts, p.nsites, p.den)

    def _parity(self):
        return self.op._parity()


def op_sum(*ops: Operator) -> Operator:
    return Sum(ops)


def compose(*ops: Operator) -> Operator:
    return Compose(ops)


def graded_commutator(a: Operator, b: Operator) -> Operator:
    """a b - (-1)^{|a||b|} b a; anticommutator when both are odd."""
    sign = -1 if (a.parity() and b.parity()) else 1
    return compose(a, b) - Q(sign) * compose(b, a)


def equal_on_degree(a: Operator, b: Operator, max_degree: int,
                    nsites: int = 2, name: str = "equal_on_degree",
                    params: dict[str, str] | None = None,
                    max_failures: int = 5) -> CheckReport:
    """Exact extensional comparison on every basis monomial up to a z-degree."""
    report = CheckReport(check_name=name, params=params or {}, max_degree=max_degree)
    with report.timed(OperatorError):
        for m in enumerate_basis(max_degree, nsites):
            pm = monomial_poly(m)
            lhs = a.apply(pm)
            rhs = b.apply(pm)
            if lhs != rhs:
                report.add_failure(m.text(), lhs.text(), rhs.text(),
                                   (lhs - rhs).text(), limit=max_failures)
    return report
