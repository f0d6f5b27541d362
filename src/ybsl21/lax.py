"""Lax operators on V (x) C[Z]: 3x3 operator-valued matrices with graded
rows/columns, their factorized form, the fundamental R-matrix, and the RLL
and invariance checks.

Matrix convention: a matrix with quantum-operator entries acts on basis
vectors e_k (x) psi as e_k (x) psi -> sum_i e_i (x) M_ik(psi); all grading
signs of abstract tensor legs are baked into the entries at construction
time via the single Koszul rule (an odd factor passes an odd object at the
cost of one sign).  Matrices of any size combine only through `@`;
`tensor` puts one quantum operator against the auxiliary indices, and
`on_leg` embeds a 3x3 matrix in one of several auxiliary legs, where an
odd entry additionally anticommutes past every odd leg index standing
between its own leg and the quantum space.  `intertwines` is the one check
of a relation A X = Y A, on operators or on matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .opalg import (Cached, DiffOp, EvenDeriv, MulOdd, MulPoly, MulZ,
                    OddDeriv, Operator, Scalar, TerminatingExp, compose,
                    equal_on_degree, op_sum)
from .report import CheckReport
from .sl21 import GRADING, Weight, build_generators, fundamental_rep
from .superpoly import SuperPolynomial, theta, theta_bar

Q = Fraction


@dataclass
class SpectralTriple:
    """Parameters (u1, u2, u3) = (u+b+l, u+2b, u+b-l)."""

    u1: Fraction
    u2: Fraction
    u3: Fraction

    def __post_init__(self):
        self.u1, self.u2, self.u3 = Q(self.u1), Q(self.u2), Q(self.u3)

    @staticmethod
    def from_weight(u, w: Weight) -> "SpectralTriple":
        u = Q(u)
        return SpectralTriple(u + w.b + w.ell, u + 2 * w.b, u + w.b - w.ell)

    def to_weight(self) -> tuple[Fraction, Weight]:
        ell = (self.u1 - self.u3) / 2
        b = self.u2 - (self.u1 + self.u3) / 2
        u = self.u1 - b - ell
        return u, Weight(ell, b)

    def as_tuple(self):
        return (self.u1, self.u2, self.u3)


def covariant_derivatives(site: int) -> tuple[Operator, Operator]:
    """(D-, D+) at a site: D- = -d_thb + th d/2, D+ = -d_th + thb d/2."""
    dz = EvenDeriv(site)
    th, thb = theta(site), theta_bar(site)
    d_minus = op_sum(-1 * OddDeriv(thb), Q(1, 2) * compose(MulOdd(th), dz))
    d_plus = op_sum(-1 * OddDeriv(th), Q(1, 2) * compose(MulOdd(thb), dz))
    return d_minus, d_plus


def _is_zero(op: Operator) -> bool:
    return isinstance(op, DiffOp) and not op.terms


class SuperMatrixOperator:
    """Square array of quantum operators with graded row/column indices."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)

    def __matmul__(self, other: "SuperMatrixOperator") -> "SuperMatrixOperator":
        """Matrix product; a term with a Scalar(0) factor is skipped, and an
        entry with no term left is Scalar(0)."""
        rows = []
        for row in self.entries:
            out = []
            for col in zip(*other.entries):
                terms = [compose(a, b) for a, b in zip(row, col)
                         if not (_is_zero(a) or _is_zero(b))]
                out.append(op_sum(*terms) if len(terms) > 1
                           else terms[0] if terms else Scalar(0))
            rows.append(out)
        return SuperMatrixOperator(rows)

    def __add__(self, other: "SuperMatrixOperator") -> "SuperMatrixOperator":
        return SuperMatrixOperator([
            [a + b for a, b in zip(row_a, row_b)]
            for row_a, row_b in zip(self.entries, other.entries)])

    def entry(self, i: int, k: int) -> Operator:
        """1-based access matching the printed matrices."""
        return self.entries[i - 1][k - 1]


#: the identity matrix of one auxiliary leg
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def tensor(a, op: Operator) -> SuperMatrixOperator:
    """a (x) op for a square matrix a of rationals.

    On e_k (x) psi it acts as (-1)^{|op| grading(k)} (a e_k) (x) op(psi):
    entry (i, k) is that sign times a_ik op, a unit entry is op itself and a
    zero entry Scalar(0).  For an odd op, a is a 3x3 matrix of one leg.
    """
    odd = op.parity()

    def entry(c):
        return Scalar(0) if c == 0 else op if c == 1 else c * op

    return SuperMatrixOperator([
        [entry(-x if odd and GRADING[k] else x) for k, x in enumerate(row)]
        for row in a])


def on_leg(m: SuperMatrixOperator, leg: int,
           nlegs: int) -> SuperMatrixOperator:
    """The 3x3 matrix m on auxiliary leg `leg` of `nlegs`, identity elsewhere.

    Index I of the 3**nlegs square result stands for e_{i_0} (x) ... with
    leg 0 the most significant base-3 digit.  An odd entry anticommutes past
    every odd leg index to the right of `leg` on its way to the quantum
    factor.
    """
    size = 3 ** nlegs
    stride = 3 ** (nlegs - 1 - leg)
    rows = [[Scalar(0)] * size for _ in range(size)]
    for col, key in enumerate(product(range(3), repeat=nlegs)):
        k = key[leg]
        right_par = sum(GRADING[j] for j in key[leg + 1:]) & 1
        for i in range(3):
            entry = m.entries[i][k]
            if right_par and (GRADING[i] + GRADING[k]) & 1:
                entry = -1 * entry
            rows[col + (i - k) * stride][col] = entry
    return SuperMatrixOperator(rows)


def matrices_equal(a: SuperMatrixOperator, b: SuperMatrixOperator,
                   max_degree: int, nsites: int = 2,
                   name: str = "matrix-equality",
                   params: dict[str, str] | None = None) -> CheckReport:
    report = CheckReport(check_name=name, params=params or {},
                         max_degree=max_degree)
    with report.timed():
        for i, (row_a, row_b) in enumerate(zip(a.entries, b.entries), 1):
            for k, (x, y) in enumerate(zip(row_a, row_b), 1):
                sub = equal_on_degree(x, y, max_degree, nsites=nsites)
                report.merge(sub, prefix=f"entry({i},{k}) on ")
    return report


def intertwines(a, x, y, max_degree: int, nsites: int = 2,
                name: str = "intertwining",
                params: dict[str, str] | None = None) -> CheckReport:
    """Whether a x = y a on every basis monomial up to `max_degree`.

    x and y are both operators, compared by `equal_on_degree`, or both
    matrices, compared entry by entry by `matrices_equal`; against matrices
    an operator `a` acts on every auxiliary index (`tensor(I3, a)`).
    """
    if not isinstance(x, SuperMatrixOperator):
        return replace(equal_on_degree(compose(a, x), compose(y, a),
                                       max_degree, nsites=nsites),
                       check_name=name, params=params or {})
    if not isinstance(a, SuperMatrixOperator):
        a = tensor(I3, a)
    return matrices_equal(a @ x, y @ a, max_degree, nsites, name, params)


def build_lax(site: int, t: SpectralTriple,
              kind: str = "chiral") -> SuperMatrixOperator:
    """The Lax matrix in the functional representation, entries as printed."""
    if kind == "chiral":
        return _lax_chiral_explicit(site, t)
    if kind == "antichiral":
        u, w = t.to_weight()
        g = build_generators(site, w)
        uS = Scalar(u)
        return SuperMatrixOperator([
            [g["S"] - g["B"] + uS, -1 * g["V-"], g["S-"]],
            [g["W+"], Q(-2) * g["B"] + uS, g["W-"]],
            [g["S+"], g["V+"], -1 * g["B"] - g["S"] + uS],
        ])
    raise ValueError(f"unknown kind {kind!r}")


def _lax_chiral_explicit(site: int, t: SpectralTriple) -> SuperMatrixOperator:
    u1, u2, u3 = t.as_tuple()
    z = MulZ(site)
    dz = EvenDeriv(site)
    th_id, thb_id = theta(site), theta_bar(site)
    dth, dthb = OddDeriv(th_id), OddDeriv(thb_id)
    th = SuperPolynomial.odd_var(th_id)
    thb = SuperPolynomial.odd_var(thb_id)
    zp = SuperPolynomial.z_var(site)
    tt = th * thb
    mth, mthb = MulOdd(th_id), MulOdd(thb_id)

    l11 = op_sum(z @ dz, mthb @ dthb, Scalar(u1))
    l12 = -1 * (dthb + Q(1, 2) * (mth @ dz))
    l13 = -1 * dz
    l21 = op_sum(-1 * (MulPoly(zp - Q(1, 2) * tt) @ dth),
                 Q(-1, 2) * (mthb @ z @ dz),
                 Scalar(u2 - u1) @ mthb)
    l22 = op_sum(mthb @ dthb, -1 * (mth @ dth), Scalar(u2))
    l23 = dth + Q(1, 2) * (mthb @ dz)
    l31 = op_sum(z @ z @ dz, z @ mth @ dth, z @ mthb @ dthb,
                 Scalar(u1 - u3) @ z,
                 Scalar(Q(u1 + u3 - 2 * u2, 2)) @ MulPoly(tt))
    l32 = op_sum(-1 * (MulPoly(zp + Q(1, 2) * tt) @ dthb),
                 Q(-1, 2) * (mth @ z @ dz),
                 Scalar(u3 - u2) @ mth)
    l33 = op_sum(-1 * (z @ dz), -1 * (mth @ dth), Scalar(u3))
    return SuperMatrixOperator([[l11, l12, l13], [l21, l22, l23], [l31, l32, l33]])


#: the Lax operator as a sum of auxiliary (x) quantum generator pairs
_TENSOR_TERMS = (
    (Q(2), "S", "S"), (Q(-2), "B", "B"),
    (Q(1), "V+", "W-"), (Q(1), "S+", "S-"), (Q(-1), "W-", "V+"),
    (Q(1), "W+", "V-"), (Q(1), "S-", "S+"), (Q(-1), "V-", "W+"),
)


def build_lax_tensor(t: SpectralTriple,
                     kind: str = "chiral") -> SuperMatrixOperator:
    """Cross-construction of the one-site Lax matrix from representation
    matrices: u 1 plus each abstract term a (x) O placed by `tensor`; this is
    the decisive test of the graded sign bookkeeping against the printed
    matrix.
    """
    u, w = t.to_weight()
    rep = fundamental_rep(kind)
    g = build_generators(1, w)
    return sum((tensor(rep[aux], coef * g[q]) for coef, aux, q in _TENSOR_TERMS),
               tensor(I3, Scalar(u)))


def build_lax_factorized(t: SpectralTriple) -> SuperMatrixOperator:
    """The one-site Lax matrix as a lower-triangular x upper-triangular x
    lower-triangular product."""
    u1, u2, u3 = t.as_tuple()
    th = SuperPolynomial.odd_var(theta(1))
    thb = SuperPolynomial.odd_var(theta_bar(1))
    zp = SuperPolynomial.z_var(1)
    tt2 = Q(1, 2) * (th * thb)
    one, zero = Scalar(1), Scalar(0)
    d_minus, d_plus = covariant_derivatives(1)
    left = SuperMatrixOperator([
        [one, zero, zero],
        [MulPoly(-thb), one, zero],
        [MulPoly(zp + tt2), MulPoly(-th), one],
    ])
    mid = SuperMatrixOperator([
        [Scalar(u1), d_minus, -1 * EvenDeriv(1)],
        [zero, Scalar(u2 - 1), -1 * d_plus],
        [zero, zero, Scalar(u3)],
    ])
    right = SuperMatrixOperator([
        [one, zero, zero],
        [MulPoly(thb), one, zero],
        [MulPoly(-zp + tt2), MulPoly(th), one],
    ])
    return left @ mid @ right


def fundamental_rmatrix(u) -> list[list[Fraction]]:
    """Exact 9x9 matrix of u + P_12; index 3i+j stands for e_i (x) e_j."""
    u = Q(u)
    rows = [[Q(0)] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            rows[3 * i + j][3 * i + j] += u
            rows[3 * j + i][3 * i + j] += -1 if GRADING[i] and GRADING[j] else 1
    return rows


def check_rll(w: Weight, u, v, max_degree: int = 3,
              kind: str = "chiral") -> CheckReport:
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v) on V (x) V (x) C[Z]."""
    u, v = Q(u), Q(v)

    def lax(x, leg):
        # each entry recurs in nine entries of the products: cache it
        m = build_lax(1, SpectralTriple.from_weight(x, w), kind)
        return on_leg(SuperMatrixOperator(
            [[Cached(e) for e in row] for row in m.entries]), leg, 2)

    l1, l2 = lax(u, 0), lax(v, 1)
    r = tensor(fundamental_rmatrix(u - v), Scalar(1))
    return intertwines(
        r, l1 @ l2, l2 @ l1, max_degree, nsites=1, name=f"rll-{kind}",
        params={"ell": str(w.ell), "b": str(w.b), "u": str(u), "v": str(v)})


def check_invariance(t: SpectralTriple, lam,
                     max_degree: int = 3) -> CheckReport:
    """Even-sector invariance of the one-site Lax matrix: M L M^-1 = S^-1 L S
    with S = exp(lam S-), checked as S M L = L S M.

    The odd parameters of the printed identity are set to zero; lam is an
    arbitrary rational.  M = exp(lam s-) is the auxiliary-space exponential
    of the lowering matrix, so conjugating the auxiliary leg by M undoes
    conjugating the quantum leg by S (the total action S M, built as
    `tensor(M, S)`, commutes with L).
    """
    lam = Q(lam)
    lax = build_lax(1, t, "chiral")
    s_op = TerminatingExp(Scalar(lam) @ (-1 * EvenDeriv(1)))
    return intertwines(
        tensor([[1, 0, 0], [0, 1, 0], [lam, 0, 1]], s_op), lax, lax,
        max_degree, nsites=1, name="lax-invariance",
        params={"lam": str(lam), "u1": str(t.u1), "u2": str(t.u2),
                "u3": str(t.u3)})
