"""Linear-operator calculus on superpolynomials.

Operators are immutable expression trees over graded primitives with known
parity.  Application is exact; equality testing is extensional on
degree-bounded monomial bases (there is no symbolic normal form).
"""

from __future__ import annotations

from fractions import Fraction

from .report import CheckReport
from .superpoly import Monomial, SuperPolynomial, enumerate_basis, monomial_poly

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
# operator expression trees
# ---------------------------------------------------------------------------

class Operator:
    """Base class; subclasses implement _apply and _parity."""

    __slots__ = ()

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        return self._apply(p)

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
        return self.c * p

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
        for m, c in p.terms.items():
            z = list(m.z)
            z[i] += 1
            terms[Monomial(tuple(z), m.mask)] = c
        return SuperPolynomial(terms, p.nsites)

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
        for m, c in p.terms.items():
            if m.mask & bit:
                continue
            below = (m.mask & (bit - 1)).bit_count()
            # the new variable starts at the front and moves right past
            # the smaller canonical bits
            sign = -1 if below & 1 else 1
            terms[Monomial(m.z, m.mask | bit)] = sign * c
        return SuperPolynomial(terms, p.nsites)

    def _parity(self):
        return 1


class MulPoly(Operator):
    """Left multiplication by a fixed parity-homogeneous polynomial."""

    __slots__ = ("poly", "_p")

    def __init__(self, poly: SuperPolynomial):
        par = poly.parity()
        if par is None and not poly.is_zero():
            raise IndefiniteParity("multiplier must be parity-homogeneous")
        self.poly = poly
        self._p = par or 0

    def _apply(self, p):
        return self.poly * p

    def _parity(self):
        return self._p


class EvenDeriv(Operator):
    __slots__ = ("site",)

    def __init__(self, site: int):
        self.site = site

    def _apply(self, p):
        return p.deriv_even(self.site)

    def _parity(self):
        return 0


class OddDeriv(Operator):
    __slots__ = ("var",)

    def __init__(self, var: int):
        self.var = var

    def _apply(self, p):
        return p.deriv_odd(self.var)

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
        terms = {}
        for m, c in p.terms.items():
            v = self.spec.value(m.z[i]) * c
            if v:
                terms[m] = v
        return SuperPolynomial(terms, p.nsites)

    def _parity(self):
        return 0


class SwapSites(Operator):
    """Graded site permutation: relabel all variables of two sites.

    Reordering signs arise automatically from re-canonicalizing the odd
    factors, e.g. th1 th2 -> th2 th1 = -th1 th2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a > b:
            a, b = b, a
        self.a = a
        self.b = b

    def _apply(self, p):
        ia, ib = self.a - 1, self.b - 1
        bits_a = 0b11 << (2 * ia)
        bits_b = 0b11 << (2 * ib)
        shift = 2 * (ib - ia)
        terms = {}
        for m, c in p.terms.items():
            z = list(m.z)
            z[ia], z[ib] = z[ib], z[ia]
            keep = m.mask & ~(bits_a | bits_b)
            mask = keep | ((m.mask & bits_a) << shift) | ((m.mask & bits_b) >> shift)
            # parity of the permutation sending the old ordered factor list
            # to the new canonical one
            sign = _relabel_sign(m.mask, ia, ib)
            terms[Monomial(tuple(z), mask)] = sign * c
        return SuperPolynomial(terms, p.nsites)

    def _parity(self):
        return 0


def _relabel_sign(mask: int, ia: int, ib: int) -> int:
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
        out = SuperPolynomial.zero(p.nsites)
        for op in self.ops:
            out = out + op._apply(p)
        return out

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
        out = p
        term = p
        budget = p.max_z_degree() + 5
        k = 0
        while not term.is_zero():
            k += 1
            if k > budget:
                raise NonTerminatingExp(
                    f"series not terminated after {budget} iterations")
            term = Q(1, k) * self.op._apply(term)
            out = out + term
        return out

    def _parity(self):
        return 0


class Cached(Operator):
    """Memoizes the image of each basis monomial (operators are linear)."""

    __slots__ = ("op", "_images")

    def __init__(self, op: Operator):
        self.op = op
        self._images: dict[Monomial, SuperPolynomial] = {}

    def _apply(self, p):
        out = SuperPolynomial.zero(p.nsites)
        for m, c in p.terms.items():
            img = self._images.get(m)
            if img is None:
                img = self.op._apply(monomial_poly(m))
                self._images[m] = img
            out = out + c * img
        return out

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
