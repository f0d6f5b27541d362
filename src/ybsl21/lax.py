"""Lax operators on V (x) C[Z]: 3x3 operator-valued matrices with graded
rows/columns, their factorized form, the fundamental R-matrix, and the RLL
and invariance checks.

Matrix convention: a matrix with quantum-operator entries acts on basis
vectors e_k (x) psi as e_k (x) psi -> sum_i e_i (x) M_ik(psi); all grading
signs of abstract tensor legs are baked into the entries at construction
time via the single Koszul rule (an odd factor passes an odd object at the
cost of one sign).  With several auxiliary legs an odd entry additionally
anticommutes past every leg standing between its own leg and the quantum
space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .opalg import (EvenDeriv, MulOdd, MulPoly, MulZ, OddDeriv, Operator,
                    Scalar, TerminatingExp, compose, equal_on_degree, op_sum)
from .report import CheckReport
from .sl21 import GRADING, Weight, build_generators, fundamental_rep
from .superpoly import (SuperPolynomial, enumerate_basis, monomial_poly,
                        theta, theta_bar)

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


class SuperMatrixOperator:
    """3x3 array of quantum operators with graded row/column indices."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)

    def __matmul__(self, other: "SuperMatrixOperator") -> "SuperMatrixOperator":
        return SuperMatrixOperator([
            [op_sum(*(compose(self.entries[i][j], other.entries[j][k])
                      for j in range(3))) for k in range(3)]
            for i in range(3)])

    def __add__(self, other: "SuperMatrixOperator") -> "SuperMatrixOperator":
        return SuperMatrixOperator([
            [self.entries[i][k] + other.entries[i][k] for k in range(3)]
            for i in range(3)])

    def conjugated(self, s_inv: Operator, s: Operator) -> "SuperMatrixOperator":
        """Entry-wise sandwich s_inv . entry . s."""
        return SuperMatrixOperator([
            [compose(s_inv, self.entries[i][k], s) for k in range(3)]
            for i in range(3)])

    def wrap_left(self, op: Operator) -> "SuperMatrixOperator":
        """op . entry for every entry (op must be even on the quantum space)."""
        return SuperMatrixOperator([
            [compose(op, self.entries[i][k]) for k in range(3)]
            for i in range(3)])

    def wrap_right(self, op: Operator) -> "SuperMatrixOperator":
        return SuperMatrixOperator([
            [compose(self.entries[i][k], op) for k in range(3)]
            for i in range(3)])

    def entry(self, i: int, k: int) -> Operator:
        """1-based access matching the printed matrices."""
        return self.entries[i - 1][k - 1]


def rational_matrix(rows) -> SuperMatrixOperator:
    return SuperMatrixOperator([[Scalar(Q(x)) for x in row] for row in rows])


def matrices_equal(a: SuperMatrixOperator, b: SuperMatrixOperator,
                   max_degree: int, nsites: int = 2,
                   name: str = "matrix-equality",
                   params: dict[str, str] | None = None) -> CheckReport:
    report = CheckReport(check_name=name, params=params or {},
                         max_degree=max_degree)
    with report.timed():
        for i in range(3):
            for k in range(3):
                sub = equal_on_degree(a.entries[i][k], b.entries[i][k],
                                      max_degree, nsites=nsites,
                                      name=f"entry({i + 1},{k + 1})")
                report.merge(sub, prefix=f"entry({i + 1},{k + 1}) on ")
    return report


def build_lax(site: int, t: SpectralTriple, kind: str = "chiral",
              nsites: int = 2) -> SuperMatrixOperator:
    """The Lax matrix in the functional representation, entries as printed."""
    if kind == "chiral":
        return _lax_chiral_explicit(site, t, nsites)
    if kind == "antichiral":
        u, w = t.to_weight()
        g = build_generators(site, w, nsites=nsites)
        uS = Scalar(u)
        return SuperMatrixOperator([
            [g["S"] - g["B"] + uS, -1 * g["V-"], g["S-"]],
            [g["W+"], Q(-2) * g["B"] + uS, g["W-"]],
            [g["S+"], g["V+"], -1 * g["B"] - g["S"] + uS],
        ])
    raise ValueError(f"unknown kind {kind!r}")


def _lax_chiral_explicit(site: int, t: SpectralTriple,
                         nsites: int) -> SuperMatrixOperator:
    u1, u2, u3 = t.as_tuple()
    z = MulZ(site)
    dz = EvenDeriv(site)
    th_id, thb_id = theta(site), theta_bar(site)
    dth, dthb = OddDeriv(th_id), OddDeriv(thb_id)
    th = SuperPolynomial.odd_var(th_id, nsites)
    thb = SuperPolynomial.odd_var(thb_id, nsites)
    zp = SuperPolynomial.z_var(site, nsites)
    tt = th * thb
    mth, mthb = MulPoly(th), MulPoly(thb)

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


def build_lax_tensor(site: int, t: SpectralTriple, kind: str = "chiral",
                     nsites: int = 2) -> SuperMatrixOperator:
    """Cross-construction of the Lax matrix from representation matrices.

    Each abstract term a (x) O is realized on e_k (x) psi as
    (-1)^{|O| grading(k)} (a e_k) (x) O(psi); this is the decisive test of
    the graded sign bookkeeping against the printed matrix.
    """
    u, w = t.to_weight()
    rep = fundamental_rep(kind)
    g = build_generators(site, w, nsites=nsites)
    entries = [[Scalar(u) if i == k else Scalar(0) for k in range(3)]
               for i in range(3)]
    for coef, aux_name, q_name in _TENSOR_TERMS:
        a = rep[aux_name]
        q_op = g[q_name]
        q_par = 1 if q_name[0] in "VW" else 0
        for i in range(3):
            for k in range(3):
                if a[i][k] == 0:
                    continue
                sign = -1 if (q_par and GRADING[k]) else 1
                entries[i][k] = entries[i][k] + (coef * a[i][k] * sign) * q_op
    return SuperMatrixOperator(entries)


def build_lax_factorized(site: int, t: SpectralTriple,
                         nsites: int = 2) -> SuperMatrixOperator:
    """Lower-triangular x upper-triangular x lower-triangular product."""
    u1, u2, u3 = t.as_tuple()
    th = SuperPolynomial.odd_var(theta(site), nsites)
    thb = SuperPolynomial.odd_var(theta_bar(site), nsites)
    zp = SuperPolynomial.z_var(site, nsites)
    tt2 = Q(1, 2) * (th * thb)
    one, zero = Scalar(1), Scalar(0)
    d_minus, d_plus = covariant_derivatives(site)
    left = SuperMatrixOperator([
        [one, zero, zero],
        [MulPoly(-thb), one, zero],
        [MulPoly(zp + tt2), MulPoly(-th), one],
    ])
    mid = SuperMatrixOperator([
        [Scalar(u1), d_minus, -1 * EvenDeriv(site)],
        [zero, Scalar(u2 - 1), -1 * d_plus],
        [zero, zero, Scalar(u3)],
    ])
    right = SuperMatrixOperator([
        [one, zero, zero],
        [MulPoly(thb), one, zero],
        [MulPoly(-zp + tt2), MulPoly(th), one],
    ])
    return left @ mid @ right


# ---------------------------------------------------------------------------
# multi-leg realization (auxiliary legs + one quantum polynomial space)
# ---------------------------------------------------------------------------

LegState = dict[tuple, SuperPolynomial]


def _state_add(state: LegState, key: tuple, poly: SuperPolynomial) -> None:
    acc = state.get(key)
    s = poly if acc is None else acc + poly
    if s.is_zero():
        state.pop(key, None)
    else:
        state[key] = s


def apply_matrix_on_leg(m: SuperMatrixOperator, leg: int, nlegs: int,
                        state: LegState) -> LegState:
    """Apply a 3x3 quantum-entry matrix to one auxiliary leg.

    Odd entries anticommute past every leg to the right of `leg` on their
    way to the quantum factor.
    """
    out: LegState = {}
    for key, poly in state.items():
        k = key[leg]
        right_par = sum(GRADING[key[s]] for s in range(leg + 1, nlegs)) & 1
        for i in range(3):
            q = m.entries[i][k].apply(poly)
            if q.is_zero():
                continue
            entry_par = (GRADING[i] + GRADING[k]) & 1
            if entry_par and right_par:
                q = Q(-1) * q
            _state_add(out, key[:leg] + (i,) + key[leg + 1:], q)
    return out


def apply_fundamental_r(u, leg_a: int, leg_b: int, state: LegState) -> LegState:
    """u + P on two auxiliary legs; P e_i (x) e_k = (-1)^{grading} e_k (x) e_i."""
    u = Q(u)
    out: LegState = {}
    for key, poly in state.items():
        i, j = key[leg_a], key[leg_b]
        if u:
            _state_add(out, key, u * poly)
        sign = -1 if (GRADING[i] and GRADING[j]) else 1
        swapped = list(key)
        swapped[leg_a], swapped[leg_b] = j, i
        _state_add(out, tuple(swapped), sign * poly)
    return out


def _state_text(state: LegState) -> str:
    if not state:
        return "0"
    keys = sorted(state.keys())
    return "; ".join(
        f"e{'x'.join(str(i + 1) for i in key)}: {state[key].text()}" for key in keys)


def fundamental_rmatrix(u) -> list[tuple[tuple, tuple, Fraction]]:
    """Exact 9x9 matrix of u + P_12 as (target, source, coefficient) triples."""
    u = Q(u)
    triples = []
    for i in range(3):
        for j in range(3):
            if u:
                triples.append(((i, j), (i, j), u))
            sign = Q(-1) if (GRADING[i] and GRADING[j]) else Q(1)
            triples.append(((j, i), (i, j), sign))
    return triples


def check_rll(w: Weight, u, v, max_degree: int = 3,
              kind: str = "chiral") -> CheckReport:
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v) on V (x) V (x) C[Z]."""
    u, v = Q(u), Q(v)
    report = CheckReport(
        check_name=f"rll-{kind}",
        params={"ell": str(w.ell), "b": str(w.b), "u": str(u), "v": str(v)},
        max_degree=max_degree)
    with report.timed():
        l_u = build_lax(1, SpectralTriple.from_weight(u, w), kind, nsites=1)
        l_v = build_lax(1, SpectralTriple.from_weight(v, w), kind, nsites=1)
        for m in enumerate_basis(max_degree, nsites=1):
            pm = monomial_poly(m)
            for i in range(3):
                for j in range(3):
                    start: LegState = {(i, j): pm}
                    lhs = apply_matrix_on_leg(l_v, 1, 2, start)
                    lhs = apply_matrix_on_leg(l_u, 0, 2, lhs)
                    lhs = apply_fundamental_r(u - v, 0, 1, lhs)
                    rhs = apply_fundamental_r(u - v, 0, 1, start)
                    rhs = apply_matrix_on_leg(l_u, 0, 2, rhs)
                    rhs = apply_matrix_on_leg(l_v, 1, 2, rhs)
                    # zero components never survive _state_add, so plain
                    # equality is exact
                    if lhs != rhs:
                        report.add_failure(
                            f"e{i + 1}(x)e{j + 1}(x){m.text()}",
                            _state_text(lhs), _state_text(rhs), "-")
    return report


def check_invariance(site: int, t: SpectralTriple, lam,
                     max_degree: int = 3, nsites: int = 1) -> CheckReport:
    """Even-sector invariance: M L M^-1 = S^-1 L S with S = exp(lam S-).

    The odd parameters of the printed identity are set to zero; lam is an
    arbitrary rational.  M = exp(lam s-) is the auxiliary-space exponential
    of the lowering matrix, so conjugating the auxiliary leg by M undoes
    conjugating the quantum leg by S (the total action commutes with L).
    """
    lam = Q(lam)
    report = CheckReport(check_name="lax-invariance",
                         params={"lam": str(lam), "u1": str(t.u1),
                                 "u2": str(t.u2), "u3": str(t.u3)},
                         max_degree=max_degree)
    with report.timed():
        lax = build_lax(site, t, "chiral", nsites=nsites)
        m_inv = rational_matrix([[1, 0, 0], [0, 1, 0], [-lam, 0, 1]])
        m_mat = rational_matrix([[1, 0, 0], [0, 1, 0], [lam, 0, 1]])
        s_minus = -1 * EvenDeriv(site)
        s_op = TerminatingExp(Scalar(lam) @ s_minus)
        s_inv = TerminatingExp(Scalar(-lam) @ s_minus)
        lhs = m_mat @ lax @ m_inv
        rhs = lax.conjugated(s_inv, s_op)
        report.merge(matrices_equal(lhs, rhs, max_degree, nsites=nsites))
    return report
