"""The superalgebra sl(2|1): functional generators, 3-dim representations,
relation and Casimir checkers, and closed-form module basis vectors.

Generator names: even S, B, S+, S- and odd V+, V-, W+, W-.  The E-basis is
one table, `E_BASIS`, of generator combinations, and the grading (bar1 =
bar3 = 0, bar2 = 1) is hard-coded once; both relation checkers, on
operators and on matrices, derive every expected commutator from the
structure delta-formula (`_bracket`) rather than a hand-written table.  The
Casimirs (`casimir`) and the tensor-built Lax matrix
(`lax.build_lax_tensor`) pair E_ab with E_ba by the supertrace sign
(-1)^|b|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from .linsolve import solve_in_span
from .opalg import (EvenDeriv, MulOdd, MulPoly, MulZ, OddDeriv, Operator,
                    Scalar, compose, equal_on_degree, graded_commutator,
                    op_sum, rising_factorial)
from .report import CheckReport
from .superpoly import SuperPolynomial, theta, theta_bar

Q = Fraction

GEN_NAMES = ("S", "B", "S+", "S-", "V+", "V-", "W+", "W-")

#: grading of the 3x3 index labels 1, 2, 3 (and of the auxiliary basis
#: e1, e2, e3), indexed from 0
GRADING = (0, 1, 0)

#: E_AB as a combination {generator: coefficient}, labels in row order.  The
#: Cartan identifications E11 = S+B, E33 = B-S are forced by the
#: delta-formula together with the off-diagonal dictionary (e.g.
#: [E11, E13] = E13 needs [E11, S+] = S+), and agree with the diagonal of
#: the Lax matrix.
E_BASIS = {
    (1, 1): {"S": 1, "B": 1}, (1, 2): {"V+": 1}, (1, 3): {"S+": 1},
    (2, 1): {"W-": -1}, (2, 2): {"B": -2}, (2, 3): {"W+": 1},
    (3, 1): {"S-": 1}, (3, 2): {"V-": 1}, (3, 3): {"B": 1, "S": -1},
}


class SingularWeight(Exception):
    """Closed-form basis vectors hit a pole of the weight parameters."""


@dataclass
class Weight:
    ell: Fraction
    b: Fraction

    def __post_init__(self):
        self.ell = Q(self.ell)
        self.b = Q(self.b)

    def is_singular(self) -> bool:
        """2*ell is a nonpositive integer: a pole of the module vectors."""
        two_ell = 2 * self.ell
        return two_ell.denominator == 1 and two_ell <= 0


@dataclass
class SiteGenerators:
    weight: Weight
    gens: dict[str, Operator]
    site: int

    def __getitem__(self, name: str) -> Operator:
        return self.gens[name]


@dataclass
class FundamentalRep:
    kind: str  # chiral | antichiral
    matrices: dict[str, tuple]

    def __getitem__(self, name: str):
        return self.matrices[name]


def lowering(site: int) -> dict[str, Operator]:
    """S-, V- and W- at a site, the generators that do not depend on the
    weight."""
    dz = EvenDeriv(site)
    th, thb = theta(site), theta_bar(site)
    return {"S-": -1 * dz,
            "V-": OddDeriv(th) + Q(1, 2) * (MulOdd(thb) @ dz),
            "W-": OddDeriv(thb) + Q(1, 2) * (MulOdd(th) @ dz)}


def build_generators(site: int, w: Weight) -> SiteGenerators:
    """First-order differential operators of the lowest-weight representation.

    All nine operators act on the chosen site's variables and are the
    identity on every other site.
    """
    ell, b = Q(w.ell), Q(w.b)
    z = MulZ(site)
    dz = EvenDeriv(site)
    th, thb = theta(site), theta_bar(site)
    mth, mthb = MulOdd(th), MulOdd(thb)
    dth, dthb = OddDeriv(th), OddDeriv(thb)
    th_poly = SuperPolynomial.odd_var(th)
    thb_poly = SuperPolynomial.odd_var(thb)
    th_thb = MulPoly(th_poly * thb_poly)       # theta thetabar
    thb_th = MulPoly(thb_poly * th_poly)       # thetabar theta = -theta thetabar

    v_plus = op_sum(
        -1 * (z @ dth),
        Q(-1, 2) * (mthb @ z @ dz),
        Q(-1, 2) * (thb_th @ dth),
        Scalar(-(ell - b)) @ mthb,
    )
    w_plus = op_sum(
        -1 * (z @ dthb),
        Q(-1, 2) * (mth @ z @ dz),
        Q(-1, 2) * (th_thb @ dthb),
        Scalar(-(ell + b)) @ mth,
    )
    s_plus = op_sum(
        z @ z @ dz,
        z @ mth @ dth,
        z @ mthb @ dthb,
        Scalar(2 * ell) @ z,
        Scalar(-b) @ th_thb,
    )
    s_op = op_sum(z @ dz, Q(1, 2) * (mth @ dth), Q(1, 2) * (mthb @ dthb),
                  Scalar(ell))
    b_op = op_sum(Q(1, 2) * (mthb @ dthb), Q(-1, 2) * (mth @ dth), Scalar(b))
    gens = {"S": s_op, "B": b_op, "S+": s_plus, "V+": v_plus, "W+": w_plus,
            **lowering(site)}
    return SiteGenerators(weight=w, gens=gens, site=site)


def e_basis_ops(g: SiteGenerators) -> dict[tuple[int, int], Operator]:
    """The nine E_AB combinations generating the algebra."""
    return {ab: op_sum(*(Q(c) * g[name] for name, c in combo.items()))
            for ab, combo in E_BASIS.items()}


def _bracket(ab, cd) -> tuple[int, list[tuple[int, tuple[int, int]]]]:
    """The delta-formula [E_ab, E_cd} = d_bc E_ad - sign d_da E_cb: the
    grading sign of the bracket and its right-hand side as (coefficient,
    label) pairs."""
    p1 = (GRADING[ab[0] - 1] + GRADING[ab[1] - 1]) & 1
    p2 = (GRADING[cd[0] - 1] + GRADING[cd[1] - 1]) & 1
    sign = -1 if p1 * p2 else 1
    rhs = []
    if ab[1] == cd[0]:
        rhs.append((1, (ab[0], cd[1])))
    if cd[1] == ab[0]:
        rhs.append((-sign, (cd[0], ab[1])))
    return sign, rhs


def check_relations(g, max_degree: int = 3) -> CheckReport:
    """Verify all 81 graded commutators against the structure constants."""
    if isinstance(g, FundamentalRep):
        return _check_relations_matrix(g)
    return _check_relations_ops(g, max_degree)


def _check_relations_ops(g: SiteGenerators, max_degree: int) -> CheckReport:
    report = CheckReport(
        check_name="sl21-relations",
        params={"ell": str(g.weight.ell), "b": str(g.weight.b)},
        max_degree=max_degree)
    with report.timed():
        e = e_basis_ops(g)
        for ab in E_BASIS:
            for cd in E_BASIS:
                sign, terms = _bracket(ab, cd)
                lhs = compose(e[ab], e[cd]) - Q(sign) * compose(e[cd], e[ab])
                rhs = op_sum(*(Q(c) * e[x] for c, x in terms))
                sub = equal_on_degree(lhs, rhs, max_degree, nsites=g.site)
                report.merge(sub, prefix=f"[E{ab},E{cd}] on ")
    return report


# -- exact 3x3 matrix helpers ------------------------------------------------

def mat_combo(pairs) -> tuple:
    """sum(c * m for c, m in pairs); the zero matrix when there is none."""
    pairs = [(Q(c), m) for c, m in pairs]
    return tuple(tuple(sum((c * m[i][k] for c, m in pairs), Q(0))
                       for k in range(3)) for i in range(3))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def e_basis_matrices(rep: FundamentalRep) -> dict[tuple[int, int], tuple]:
    return {ab: mat_combo((c, rep[name]) for name, c in combo.items())
            for ab, combo in E_BASIS.items()}


def _check_relations_matrix(rep: FundamentalRep) -> CheckReport:
    report = CheckReport(check_name=f"sl21-relations-{rep.kind}",
                         params={"rep": rep.kind}, max_degree=None)
    with report.timed():
        e = e_basis_matrices(rep)
        for ab in E_BASIS:
            for cd in E_BASIS:
                sign, terms = _bracket(ab, cd)
                lhs = mat_combo([(1, mat_mul(e[ab], e[cd])),
                                 (-sign, mat_mul(e[cd], e[ab]))])
                rhs = mat_combo((c, e[x]) for c, x in terms)
                report.expect(f"[E{ab},E{cd}]", lhs, rhs)
    return report


def casimir(g: SiteGenerators, order: int) -> Operator:
    """The central element of order n = 2 or 3 as an operator, one chain
    rule for both: C_n = (1/n!) sum (-1)^(|a2|+...+|an|) E_a1a2 E_a2a3 ...
    E_ana1 over every index chain a1 ... an."""
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    e = e_basis_ops(g)
    return op_sum(*(
        Q((-1) ** sum(GRADING[a - 1] for a in chain[1:]), factorial(order))
        * compose(*(e[ab] for ab in zip(chain, chain[1:] + chain[:1])))
        for chain in product((1, 2, 3), repeat=order)))


def verma_vector(w: Weight, kind: str, k: int) -> SuperPolynomial:
    """Closed form of the one-site module basis vectors a_k, b_k, v_k, w_k."""
    ell, b = Q(w.ell), Q(w.b)
    two_ell = 2 * ell
    if w.is_singular():
        raise SingularWeight(f"2*ell = {two_ell} is a nonpositive integer")
    one = SuperPolynomial.one()
    z = SuperPolynomial.z_var(1)
    th = SuperPolynomial.odd_var(theta(1))
    thb = SuperPolynomial.odd_var(theta_bar(1))
    zk1 = z ** (k - 1) if k >= 1 else one
    if kind == "a":
        if k == 0:
            return one
        poch = rising_factorial(two_ell, k)
        return poch * ((z - Q(k, 1) * b / two_ell * (th * thb)) * zk1)
    if kind == "b":
        if k < 1:
            raise ValueError("b_k requires k >= 1")
        poch = rising_factorial(two_ell, k)
        c = (ell - b) / two_ell * poch
        return c * ((z + (b + ell + Q(k, 2)) * (th * thb)) * zk1)
    if kind == "v":
        poch = rising_factorial(two_ell + 1, k)
        return (-(ell - b) * poch) * ((z ** k) * thb)
    if kind == "w":
        poch = rising_factorial(two_ell + 1, k)
        return (-(ell + b) * poch) * ((z ** k) * th)
    raise ValueError(f"unknown kind {kind!r}")


def raised_vector(g: SiteGenerators, kind: str, k: int) -> SuperPolynomial:
    """Independent oracle: build a_k, b_k, v_k, w_k by iterated raising."""
    one = SuperPolynomial.one()
    if kind == "a":
        p = one
        for _ in range(k):
            p = g["S+"].apply(p)
        return p
    if kind == "b":
        p = g["W+"].apply(g["V+"].apply(one))
        for _ in range(k - 1):
            p = g["S+"].apply(p)
        return p
    if kind == "v":
        p = g["V+"].apply(one)
    elif kind == "w":
        p = g["W+"].apply(one)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    for _ in range(k):
        p = g["S+"].apply(p)
    return p


_CHIRAL_MATRICES = {
    "S-": ((0, 0, 0), (0, 0, 0), (1, 0, 0)),
    "W-": ((0, 0, 0), (-1, 0, 0), (0, 0, 0)),
    "V-": ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
    "S": ((Q(1, 2), 0, 0), (0, 0, 0), (0, 0, Q(-1, 2))),
    "S+": ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    "W+": ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    "V+": ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
    "B": ((Q(-1, 2), 0, 0), (0, -1, 0), (0, 0, Q(-1, 2))),
}


def fundamental_rep(kind: str) -> FundamentalRep:
    """The two 3-dim representations; matrix convention A e_k = sum_i e_i A_ik."""
    base = {name: tuple(tuple(Q(x) for x in row) for row in m)
            for name, m in _CHIRAL_MATRICES.items()}
    if kind == "chiral":
        return FundamentalRep(kind="chiral", matrices=base)
    if kind == "antichiral":
        swap = {"V+": "W+", "W+": "V+", "V-": "W-", "W-": "V-"}
        mats = {swap.get(name, name): m for name, m in base.items()}
        mats["B"] = mat_combo([(-1, mats["B"])])
        return FundamentalRep(kind="antichiral", matrices=mats)
    raise ValueError(f"unknown kind {kind!r}")


def finite_subspace_vectors(n: int, kind: str) -> list[SuperPolynomial]:
    """Spanning vectors of the (2n+1)-dim one-site invariant subspace at
    ell = -n/2."""
    z = SuperPolynomial.z_var(1)
    th = SuperPolynomial.odd_var(theta(1))
    thb = SuperPolynomial.odd_var(theta_bar(1))
    tt = th * thb
    if kind == "chiral":
        even_core = z - Q(1, 2) * tt
        odd_var = th
    else:
        even_core = z + Q(1, 2) * tt
        odd_var = thb
    vecs = [even_core ** k for k in range(n + 1)]
    vecs += [(z ** k) * odd_var for k in range(n)]
    return vecs


def check_finite_subspace(n: int, kind: str) -> CheckReport:
    """Verify the listed span is closed under all nine generators.

    The weight is (-n/2, -n/2) for chiral and (-n/2, +n/2) for antichiral.
    """
    w = Weight(Q(-n, 2), Q(-n, 2) if kind == "chiral" else Q(n, 2))
    report = CheckReport(check_name=f"finite-subspace-{kind}-n{n}",
                         params={"ell": str(w.ell), "b": str(w.b)})
    with report.timed():
        g = build_generators(1, w)
        span = finite_subspace_vectors(n, kind)
        for name in GEN_NAMES:
            for j, vec in enumerate(span):
                img = g[name].apply(vec)
                if solve_in_span(span, img) is None:
                    report.add_failure(f"{name} on span[{j}] = {vec.text()}",
                                       img.text(), "in span", img.text())
    return report


def check_casimir(g: SiteGenerators, max_degree: int = 3) -> CheckReport:
    """Centrality of both central elements plus the order-2 lowest eigenvalue."""
    report = CheckReport(check_name="casimir",
                         params={"ell": str(g.weight.ell), "b": str(g.weight.b)},
                         max_degree=max_degree)
    with report.timed():
        c2, c3 = casimir(g, 2), casimir(g, 3)
        for label, c in (("C2", c2), ("C3", c3)):
            for name in GEN_NAMES:
                sub = equal_on_degree(graded_commutator(c, g[name]), Scalar(0),
                                      max_degree, nsites=g.site)
                report.merge(sub, prefix=f"[{label},{name}] on ")
        ev = g.weight.ell ** 2 - g.weight.b ** 2
        one = SuperPolynomial.one()
        report.expect("C2 on 1", c2.apply(one), ev * one)
    return report
