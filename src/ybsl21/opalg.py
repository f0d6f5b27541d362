"""Linear-operator calculus on superpolynomials.

Operators are immutable and have known parity.  The differential part has a
normal form: `Scalar`, `MulZ`, `MulOdd`, `MulPoly`, `EvenDeriv` and
`OddDeriv` each return a `DiffOp`, a sum of terms z^a th^A dz^b dth^B with
multiplications left of derivatives, and `compose` and `op_sum` fold DiffOp
factors and summands into one by the graded Leibniz rule.  A DiffOp applies
through one plan per odd mask of its input terms, built on first use: with
the mask fixed, each term's odd action is one sign and one output mask, so
the derivative and multiplication signs fold into the numerators and the
terms that cannot act on that mask are left out.  The other operators
(degree-diagonal kernels, terminating exponentials, site swaps and lifts,
memoized columns) stay expression-tree nodes over the normal form.
Every `_apply` takes and returns a `SuperPolynomial` in its integer form and
may leave it unreduced; `apply` reduces the result once.  Application is
exact; equality testing stays extensional on degree-bounded monomial bases:
a verdict never comes from comparing normal forms.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import comb, gcd, lcm, perm, prod

from .report import STORED_FAILURES, CheckReport
from .superpoly import (FIELD_MASK, GUARD, ODD_MASK, Z_SHIFTS, Monomial,
                        SuperPolynomial, _merge_masks, charge,
                        enumerate_basis, exponents, fit, lincomb,
                        monomial_text)

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
    """(x)_n = x (x+1) .. (x+n-1), with (x)_0 = 1: for x = p/q the integer
    product (p)(p+q) .. (p+(n-1)q) over q^n, so one Fraction per value."""
    p, q = x.numerator, x.denominator
    return Q(prod(p + j * q for j in range(n)), q ** n)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class Operator:
    """Base class; subclasses implement _apply and parity."""

    __slots__ = ()

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        return self._apply(p).reduced()

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


# ---------------------------------------------------------------------------
# the differential part: one normal form
# ---------------------------------------------------------------------------

def _bits(mask: int) -> list[int]:
    """The odd-variable ids of a mask, ascending."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _deriv_sign(b_mask: int, mask: int) -> tuple[int, int]:
    """(sign, rest) with dth^B th^mask = sign * th^rest; sign 0 when some
    variable of B is missing.  dth^B = d_b1 .. d_bk acts with d_bk first."""
    sign = 1
    for v in reversed(_bits(b_mask)):
        bit = 1 << v
        if not mask & bit:
            return 0, 0
        if (mask & (bit - 1)).bit_count() & 1:
            sign = -sign
        mask ^= bit
    return sign, mask


@cache
def _odd_action(a: int, b: int, mask: int) -> tuple[int, int]:
    """(sign, out) with th^a dth^b th^mask = sign * th^out; sign 0 when the
    term annihilates th^mask.  Memoized: plan building asks for the same
    few triples of 6-bit masks over and over."""
    sign, rest = _deriv_sign(b, mask)
    if not sign:
        return 0, 0
    s, out = _merge_masks(a, rest)
    return sign * s, out


class DiffOp(Operator):
    """A polynomial-coefficient differential operator in normal form,
    sum(n * z^alpha th^A dz^beta dth^B for (x, y), n) / den.

    Multiplications stand left of derivatives.  x is the monomial key of
    z^alpha th^A and y that of z^beta th^B (see `superpoly`); th^A is the
    canonical (ascending) product and dth^B = d_b1 .. d_bk for b1 < .. < bk.
    The numerators are nonzero ints over one positive denominator with no
    common factor, so each operator has one form.  `compose` and `op_sum`
    fold adjacent DiffOps into one; equality checks stay extensional all
    the same.

    An input term with odd mask `mask` is applied through `_plans[mask]`,
    built when the first such term comes in: it holds only the terms that
    act on th^mask, each with its derivative and multiplication signs
    folded into its numerator (see `_plan`).
    """

    __slots__ = ("terms", "den", "_c", "_plans")

    def __init__(self, terms: dict, den: int = 1):
        terms = {k: n for k, n in terms.items() if n}
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: n // g for k, n in terms.items()}
            den //= g
        self.terms = terms
        self.den = den
        # the numerator of a pure scalar, which takes the fast path
        self._c = terms.get((0, 0)) if len(terms) == 1 else None
        self._plans: dict[int, list] = {}

    def _plan(self, mask: int) -> list:
        """The terms that act on th^mask, grouped by even derivative and then
        by even multiplier: [(dz, [(even multiplier key, [(output odd mask,
        signed numerator)])])].  dz lists (field shift, order, order << shift)
        triples.  Terms that meet one output mask are merged, and a merged
        numerator of 0 is dropped."""
        groups: dict[int, dict] = {}
        for (x, y), n in self.terms.items():
            a, b = x & ODD_MASK, y & ODD_MASK
            sign, out = _odd_action(a, b, mask)
            if sign:
                odd = groups.setdefault(y ^ b, {}).setdefault(x ^ a, {})
                odd[out] = odd.get(out, 0) + sign * n
        plan = []
        for y, by_alpha in groups.items():
            entries = [(alpha, live) for alpha, odd in by_alpha.items()
                       if (live := [(out, n) for out, n in odd.items() if n])]
            if entries:
                dz = tuple((shift, k, k << shift) for shift in Z_SHIFTS
                           if (k := y >> shift & FIELD_MASK))
                plan.append((dz, entries))
        self._plans[mask] = plan
        return plan

    def _apply(self, p):
        c = self._c
        if c is not None:
            terms = (p.terms if c == 1
                     else {m: c * n for m, n in p.terms.items()})
            return SuperPolynomial(terms, p.den * self.den)
        plans = self._plans
        out: dict[int, int] = {}
        get = out.get
        for key, n in p.terms.items():
            mask = key & ODD_MASK
            plan = plans.get(mask)
            if plan is None:
                plan = self._plan(mask)
            z = key ^ mask
            for dz, entries in plan:
                f = n
                zz = z
                if dz:
                    for shift, k, step in dz:
                        a = zz >> shift & FIELD_MASK
                        if a < k:
                            f = 0
                            break
                        zz -= step
                        f *= perm(a, k)
                    if not f:
                        continue
                for alpha, odd in entries:
                    zk = zz + alpha
                    if zk & GUARD:
                        fit(zk)
                    for merged, c in odd:
                        k = zk | merged
                        out[k] = get(k, 0) + c * f
        if 0 in out.values():
            out = {k: n for k, n in out.items() if n}
        return SuperPolynomial(out, p.den * self.den)

    def parity(self):
        ps = {((x & ODD_MASK).bit_count() + (y & ODD_MASK).bit_count()) & 1
              for x, y in self.terms}
        if len(ps) > 1:
            raise IndefiniteParity(f"sum mixes parities {ps}")
        return ps.pop() if ps else 0


def _odd_leibniz(v: int, terms: dict) -> dict:
    """d_v composed with normal-form terms, normal-ordered:
    d_v th^A = (d_v th^A) + (-1)^|A| th^A d_v."""
    bit = 1 << v
    out: dict = {}
    get = out.get
    for (x, y), n in terms.items():
        a = x & ODD_MASK
        if a & bit:
            key = (x ^ bit, y)
            s = -1 if (a & (bit - 1)).bit_count() & 1 else 1
            out[key] = get(key, 0) + s * n
        b = y & ODD_MASK
        s, merged = _merge_masks(bit, b)
        if s:
            key = (x, y ^ b | merged)
            s = -s if a.bit_count() & 1 else s
            out[key] = get(key, 0) + s * n
    return out


def _even_leibniz(order: int, terms: dict) -> dict:
    """dz^order (an even key) composed with normal-form terms, normal-ordered
    site by site: d^a z^b = sum_k C(a, k) b!/(b-k)! z^(b-k) d^(a-k)."""
    sites = [(shift, o) for shift in Z_SHIFTS
             if (o := order >> shift & FIELD_MASK)]
    out: dict = {}
    get = out.get
    for (x, y), n in terms.items():
        exps = [x >> shift & FIELD_MASK for shift, _ in sites]
        y = fit(y + order)
        for ks in product(*(range(min(o, e) + 1)
                            for (_, o), e in zip(sites, exps))):
            f = n
            lowered = 0
            for (shift, o), e, k in zip(sites, exps, ks):
                f *= comb(o, k) * perm(e, k)
                lowered += k << shift
            key = (x - lowered, y - lowered)
            out[key] = get(key, 0) + f
    return out


def _fold_compose(x: DiffOp, y: DiffOp) -> DiffOp:
    """The normal form of x y (y applied first)."""
    out: dict = {}
    get = out.get
    for (x1, y1), n1 in x.terms.items():
        inner = y.terms
        for v in reversed(_bits(y1 & ODD_MASK)):
            inner = _odd_leibniz(v, inner)
        if y1 & ~ODD_MASK:
            inner = _even_leibniz(y1 & ~ODD_MASK, inner)
        a1 = x1 & ODD_MASK
        for (x2, y2), n in inner.items():
            a2 = x2 & ODD_MASK
            s, merged = _merge_masks(a1, a2)
            if s:
                key = (fit(x1 - a1 + x2 - a2) | merged, y2)
                out[key] = get(key, 0) + s * n1 * n
    return DiffOp(out, x.den * y.den)


def _fold_sum(ops: list[DiffOp]) -> DiffOp:
    den = lcm(*(op.den for op in ops))
    out: dict = {}
    get = out.get
    for op in ops:
        f = den // op.den
        for key, n in op.terms.items():
            out[key] = get(key, 0) + f * n
    return DiffOp(out, den)


def Scalar(c) -> DiffOp:
    """Multiplication by the rational c."""
    c = Q(c)
    return DiffOp({(0, 0): c.numerator}, c.denominator)


def MulZ(site: int) -> DiffOp:
    """Multiplication by the even variable z_site."""
    return DiffOp({(Monomial((0,) * (site - 1) + (1,), 0), 0): 1})


def MulOdd(var: int) -> DiffOp:
    """Left multiplication by one odd variable."""
    return DiffOp({(1 << var, 0): 1})


def MulPoly(poly: SuperPolynomial) -> DiffOp:
    """Left multiplication by a fixed parity-homogeneous polynomial."""
    if poly.parity() is None and not poly.is_zero():
        raise IndefiniteParity("multiplier must be parity-homogeneous")
    return DiffOp({(m, 0): n for m, n in poly.terms.items()}, poly.den)


def EvenDeriv(site: int) -> DiffOp:
    """d/dz_site."""
    return DiffOp({(0, Monomial((0,) * (site - 1) + (1,), 0)): 1})


def OddDeriv(var: int) -> DiffOp:
    """Left Grassmann derivative: anticommute `var` to the front, delete it."""
    return DiffOp({(0, 1 << var): 1})


# ---------------------------------------------------------------------------
# expression-tree nodes over the normal form
# ---------------------------------------------------------------------------

class DegreeDiagonal(Operator):
    """Scale each term by (a)_n / (b)_n, where n is the term's z-degree at
    `site`; the first pole is at n = 1 - b when b is a nonpositive integer.
    Each degree's value is read off `rising_factorial` once and kept."""

    __slots__ = ("site", "a", "b", "_cache")

    def __init__(self, site: int, a, b):
        self.site = site
        self.a = Q(a)
        self.b = Q(b)
        self._cache: dict[int, Fraction] = {}

    def value(self, n: int) -> Fraction:
        h = self._cache.get(n)
        if h is None:
            den = rising_factorial(self.b, n)
            if den == 0:
                raise PochhammerPole(f"denominator Pochhammer (b)_n with "
                                     f"b = {self.b} vanishes at degree {n}")
            h = self._cache[n] = rising_factorial(self.a, n) / den
        return h

    def _apply(self, p):
        shift = Z_SHIFTS[self.site - 1]
        value = self.value
        # in term order, so a pole is reported at the same degree as a
        # term-by-term walk would meet it
        hs = {d: value(d) for d in dict.fromkeys(m >> shift & FIELD_MASK
                                                 for m in p.terms)}
        common = lcm(*(h.denominator for h in hs.values()))
        scale = {d: h.numerator * (common // h.denominator)
                 for d, h in hs.items() if h}
        terms = {m: scale[d] * n for m, n in p.terms.items()
                 if (d := m >> shift & FIELD_MASK) in scale}
        return SuperPolynomial(terms, p.den * common)

    def parity(self):
        return 0


class SwapSites(Operator):
    """Graded site permutation: relabel all variables of two sites.

    Reordering signs arise automatically from re-canonicalizing the odd
    factors, e.g. th1 th2 -> th2 th1 = -th1 th2.
    """

    __slots__ = ("a", "b", "_table")

    def __init__(self, a: int, b: int):
        if a > b:
            a, b = b, a
        self.a = a
        self.b = b
        # (relabeled mask, sign) for every odd mask: the relabeled odd
        # factors, in their old order, multiplied into canonical order
        moved = {a - 1: b - 1, b - 1: a - 1}
        self._table = []
        for mask in range(ODD_MASK + 1):
            sign, new = 1, 0
            for k in _bits(mask):
                site = moved.get(k >> 1, k >> 1)
                s, new = _merge_masks(new, 1 << (2 * site + (k & 1)))
                sign *= s
            self._table.append((new, sign))

    def _apply(self, p):
        sa, sb = Z_SHIFTS[self.a - 1], Z_SHIFTS[self.b - 1]
        # adding (za - zb) * step moves za to site b and zb to site a
        step = (1 << sb) - (1 << sa)
        table = self._table
        terms = {}
        for m, n in p.terms.items():
            odd = m & ODD_MASK
            mask, sign = table[odd]
            za, zb = m >> sa & FIELD_MASK, m >> sb & FIELD_MASK
            terms[m - odd + (za - zb) * step | mask] = sign * n
        return SuperPolynomial(terms, p.den)

    def parity(self):
        return 0


class OnSites(Operator):
    """An even two-site operator acting on sites a < b of a larger algebra.

    `op` acts on sites (1, 2); here those are sites a and b, and every other
    variable is a spectator.  An even operator that only touches the
    variables of a and b commutes with the spectators, so each monomial is
    split as sign * spectator * active, `op` is applied to the active part
    read as a two-site monomial, and the spectator is multiplied back.
    """

    __slots__ = ("op", "a", "b")

    def __init__(self, op: Operator, sites: tuple[int, int]):
        a, b = sites
        if not 0 < a < b:
            raise ValueError(f"sites must satisfy 0 < a < b, got {sites}")
        if op.parity() != 0:
            raise IndefiniteParity("a lifted operator must be even")
        self.op = op
        self.a = a
        self.b = b

    def _apply(self, p):
        # the z-field shifts of sites a, b and of the two-site positions
        # 1, 2 that `op` reads them at
        sa, sb = Z_SHIFTS[self.a - 1], Z_SHIFTS[self.b - 1]
        s1, s2 = Z_SHIFTS[:2]
        oa, ob = 2 * (self.a - 1), 2 * (self.b - 1)
        active_bits = (0b11 << oa) | (0b11 << ob)
        spectators = ~(FIELD_MASK << sa | FIELD_MASK << sb | ODD_MASK)
        parts = []
        for m, n in p.terms.items():
            active = m & active_bits
            spectator = m & ODD_MASK ^ active
            sign, _ = _merge_masks(spectator, active)
            local = ((m >> sa & FIELD_MASK) << s1
                     | (m >> sb & FIELD_MASK) << s2
                     | (active >> oa) & 0b11 | (active >> ob) << 2)
            img = self.op._apply(SuperPolynomial({local: 1}))
            base = m & spectators
            terms = {}
            for m2, n2 in img.terms.items():
                s, mask = _merge_masks(
                    spectator, (m2 & 0b11) << oa | (m2 >> 2 & 0b11) << ob)
                terms[base | (m2 >> s1 & FIELD_MASK) << sa
                      | (m2 >> s2 & FIELD_MASK) << sb | mask] = s * n2
            parts.append((sign * n, SuperPolynomial(terms, img.den)))
        return lincomb(parts, p.den)

    def parity(self):
        return 0


class Sum(Operator):
    """A sum that keeps non-DiffOp summands apart; `op_sum` builds it flat."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        self.ops = tuple(ops)

    def _apply(self, p):
        return lincomb([(1, op._apply(p)) for op in self.ops])

    def parity(self):
        ps = {op.parity() for op in self.ops}
        if len(ps) > 1:
            raise IndefiniteParity(f"sum mixes parities {ps}")
        return ps.pop() if ps else 0


class Compose(Operator):
    """Composition; the rightmost factor is applied first.  `compose` builds
    it flat."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        self.ops = tuple(ops)

    def _apply(self, p):
        for op in reversed(self.ops):
            p = op._apply(p)
        return p

    def parity(self):
        return sum(op.parity() for op in self.ops) & 1


class TerminatingExp(Operator):
    """sum_k A^k / k! for A nilpotent or z-degree lowering on polynomials."""

    __slots__ = ("op",)

    def __init__(self, op: Operator):
        if op.parity() != 0:
            raise IndefiniteParity("exponential generator must be even")
        self.op = op

    def _apply(self, p):
        parts = [(1, p)]
        term = p
        budget = max((sum(exponents(m)) for m in p.terms), default=0) + 5
        k = 0
        while term.terms:
            k += 1
            if k > budget:
                raise NonTerminatingExp(
                    f"series not terminated after {budget} iterations")
            term = self.op._apply(term)
            # A^k p / k! = A(A^(k-1) p / (k-1)!) / k
            term = SuperPolynomial(term.terms, term.den * k)
            parts.append((1, term))
        return lincomb(parts)

    def parity(self):
        return 0


class Cached(Operator):
    """Memoizes the image of each basis monomial (operators are linear),
    and of each whole vector handed to `remember`.

    Each image is stored reduced, which bounds the integer growth of
    everything built from it.  `build_r` and `build_rhat` return uncached
    operators; the code that sweeps a basis wraps what the sweep reuses.
    An operator applied to a few whole vectors is cheaper uncached: a
    column filled for every monomial of the vector is used once.  A key
    names the same monomial on any number of sites, so one cache serves
    inputs on one, two or three sites alike.  A remembered vector is known
    by its identity, not its value: the cache holds the vector, so its id
    is not reused, and an equal but distinct polynomial takes the columns.
    """

    __slots__ = ("op", "_images", "_vectors")

    def __init__(self, op: Operator):
        self.op = op
        self._images: dict[int, SuperPolynomial] = {}
        self._vectors: dict[int, tuple[SuperPolynomial, SuperPolynomial]] = {}

    def remember(self, p: SuperPolynomial) -> None:
        """Keep the image of the vector `p` itself: applying this operator
        to that same object later reads it back instead of combining one
        column per monomial."""
        if id(p) not in self._vectors:
            self._vectors[id(p)] = (p, self._apply(p).reduced())

    def _apply(self, p):
        images = self._images
        if len(p.terms) == 1 and p.den == 1:
            (m, n), = p.terms.items()
            if n == 1 and m in images:
                return images[m]
        vector = self._vectors.get(id(p))
        if vector is not None:
            return vector[1]
        parts = []
        for m, n in p.terms.items():
            img = images.get(m)
            if img is None:
                img = self._fill(m)
            parts.append((n, img))
        return lincomb(parts, p.den)

    def _fill(self, m: int) -> SuperPolynomial:
        """Compute and keep the column of the monomial m."""
        img = self.op._apply(SuperPolynomial({m: 1})).reduced()
        self._images[m] = img
        return img

    def parity(self):
        return self.op.parity()


class BlockCached(Cached):
    """A `Cached` that keeps the columns of one (S, B) block
    (`superpoly.charge`) at a time.

    An operator that conserves the charges, applied to the monomials of
    one block, reads only columns of that block; so while a basis is swept
    one charge shard after another (`equal_on_degree`), the first column
    filled in another block means the last shard is done, and its columns
    are dropped there.  An operator that does not conserve the charges is
    still applied exactly; it only fills some columns more than once.
    """

    __slots__ = ("_block",)

    def __init__(self, op: Operator):
        super().__init__(op)
        self._block = None

    def _fill(self, m):
        block = charge(m)
        if block != self._block:
            self._images.clear()
            self._block = block
        return super()._fill(m)


def op_sum(*ops: Operator) -> Operator:
    """The sum of `ops`, with every DiffOp summand merged into one."""
    flat = []
    for op in ops:
        flat.extend(op.ops if isinstance(op, Sum) else (op,))
    diff = [op for op in flat if isinstance(op, DiffOp)]
    if len(diff) == len(flat):
        return _fold_sum(diff)
    rest = [op for op in flat if not isinstance(op, DiffOp)]
    if diff:
        rest.append(_fold_sum(diff))
    return rest[0] if len(rest) == 1 else Sum(rest)


def compose(*ops: Operator) -> Operator:
    """The product of `ops` (the last applied first), with adjacent DiffOp
    factors normal-ordered into one."""
    flat: list[Operator] = []
    for op in ops:
        for f in (op.ops if isinstance(op, Compose) else (op,)):
            if isinstance(f, DiffOp) and flat and isinstance(flat[-1], DiffOp):
                flat[-1] = _fold_compose(flat[-1], f)
            else:
                flat.append(f)
    return flat[0] if len(flat) == 1 else Compose(flat)


def graded_commutator(a: Operator, b: Operator) -> Operator:
    """a b - (-1)^{|a||b|} b a; anticommutator when both are odd."""
    sign = -1 if (a.parity() and b.parity()) else 1
    return compose(a, b) - Q(sign) * compose(b, a)


def _sweep(a: Operator, b: Operator, indexed) -> list[tuple]:
    """Compare a with b on each (index, monomial) pair, in the order given.

    Returns the events in that order: (index, monomial, lhs, rhs) for each
    of the first STORED_FAILURES mismatches (a report stores no more) and,
    if an exception stopped the sweep, (index, exception) last.
    """
    events = []
    for i, m in indexed:
        try:
            pm = SuperPolynomial({m: 1})
            lhs = a.apply(pm)
            rhs = b.apply(pm)
        except Exception as exc:
            events.append((i, exc))
            break
        if len(events) < STORED_FAILURES and lhs != rhs:
            events.append((i, m, lhs, rhs))
    return events


#: the most workers `run_tasks` uses: forking has been measured with one
#: child only, on a 2-CPU host, and each worker fills every shared column
#: its tasks read (the two-site columns of a Yang-Baxter sweep), so each
#: further worker fills them once more
MAX_WORKERS = 2

#: the most task indices `run_tasks` queues, two bytes each: 4096 bytes,
#: one page, which a pipe holds on Linux and macOS, so the whole queue is
#: written before any fork without blocking
QUEUE_TASKS = 2048


def _workers() -> int:
    """The workers `run_tasks` may use.

    One where there is no `os.fork`, or while other threads run, since a
    forked child could wait forever on a lock one of them held.  Otherwise
    the CPUs this process may run on, at most MAX_WORKERS.
    """
    import os
    import threading
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _shards(indexed: list) -> list[list]:
    """The (index, monomial) pairs cut into one shard per (S, B) block
    (`charge`), the highest charge first, each shard in the order given.

    The cost of a monomial grows steeply with S, so the costly shards
    start first and the cheap ones fill in at the end.
    """
    shards: dict[tuple[int, int], list] = {}
    for i, m in indexed:
        shards.setdefault(charge(m), []).append((i, m))
    return [shards[c] for c in sorted(shards, reverse=True)]


def run_tasks(task: Callable, tasks: list) -> Iterable:
    """task(t) for each of `tasks`, in order, from up to `_workers()` workers.

    Worker j starts with task j: worker 0 is this process, each other an
    `os.fork` child.  The next QUEUE_TASKS tasks wait in a pipe as two
    index bytes each, and whichever worker is free reads the next; any
    tasks past those run here once the workers are done.  A child sends
    `{index: result}` back pickled through its own pipe.  A task whose
    result does not come back (the fork failed, the results did not pickle
    or unpickle, or the child died) is run again here.  A task should
    return its faults, not raise them, so that its child's other results
    still come back.  One task, or one worker, runs here as the caller
    iterates, so a caller that stops early runs no more tasks.
    """
    import os
    import pickle

    workers = min(len(tasks), _workers()) if len(tasks) > 1 else 1
    if workers < 2:
        return map(task, tasks)
    queue, fill = os.pipe()
    os.write(fill, b"".join(
        i.to_bytes(2, "big")
        for i in range(workers, min(len(tasks), workers + QUEUE_TASKS))))
    os.close(fill)

    def work(first: int) -> dict:
        done = {first: task(tasks[first])}
        while index := os.read(queue, 2):
            i = int.from_bytes(index, "big")
            done[i] = task(tasks[i])
        return done

    children, sent = [], []
    try:
        for j in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException as exc:
                os.close(r)
                os.close(w)
                if not isinstance(exc, OSError):
                    raise
                continue    # no process to spare (EAGAIN, ENOMEM)
            if pid == 0:
                # the child never returns into the caller, and _exit leaves
                # the stdio buffers it inherited unflushed
                try:
                    os.close(r)
                    try:
                        data = pickle.dumps(work(j))
                    except Exception:
                        data = b""
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        results = work(0)
    finally:
        os.close(queue)
        for pid, r in children:
            with open(r, "rb") as pipe:
                sent.append(pipe.read())
            os.waitpid(pid, 0)
    for data in sent:
        try:
            results.update(pickle.loads(data))
        except Exception:
            pass
    return [results[i] if i in results else task(t)
            for i, t in enumerate(tasks)]


def equal_on_degree(a: Operator, b: Operator, max_degree: int,
                    nsites: int = 2) -> CheckReport:
    """Exact extensional comparison on every basis monomial up to a z-degree.

    A basis of three or more sites is cut into shards, one per block of
    the charges (S, B) of `superpoly.charge`, and each shard is one task
    of `run_tasks`, the highest charge first: the tasks are swept by as
    many workers as there are CPUs this process may use, at most
    MAX_WORKERS (`_workers`), task 0 in this process and task 1 in an
    `os.fork` child, and whichever worker is free takes the next.  A
    two-site sweep is one task, swept in-process.  Every image stays in its
    own block, so the shards share no three-site work, and a `BlockCached`
    operator holds one shard's columns at a time.  The events are then
    replayed in basis order up to the first exception, which is raised
    again: the report, or the exception, is that of the one-process sweep
    in basis order, whatever the number of workers.  Columns that children
    fill in `Cached` operators are not kept here.
    """
    report = CheckReport(check_name="equal_on_degree", max_degree=max_degree)
    with report.timed(OperatorError):
        indexed = list(enumerate(enumerate_basis(max_degree, nsites)))
        # one fork costs more than a whole sweep of fewer than three sites
        tasks = _shards(indexed) if nsites >= 3 else [indexed]
        events = [event for part in run_tasks(partial(_sweep, a, b), tasks)
                  for event in part]
        events.sort(key=lambda event: event[0])
        for event in events:
            if len(event) == 2:
                raise event[1]
            _, m, lhs, rhs = event
            report.expect(monomial_text(m), lhs, rhs)
    return report
