"""The elementary parameter-exchange operators R1, R2, R3 acting on
C[Z1,Z2], their ordered product Rcheck, and the permutation-dressed full
R-operator, together with the defining-equation, lemma-system, recurrence,
and Yang-Baxter checks.

Every operator is normalized so that it fixes the constant polynomial 1;
all Gamma-function ratios are reduced to Pochhammer ratios relative to
z-degree zero, which keeps the whole construction inside the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lax import SpectralTriple, SuperMatrixOperator, build_lax, matrices_equal
from .opalg import (Cached, DegreeDiagonal, EvenDeriv, MulOdd, MulPoly, MulZ,
                    OddDeriv, Operator, PochhammerSpec, Scalar, SwapSites,
                    TerminatingExp, compose, equal_on_degree, op_sum)
from .report import CheckReport
from .sl21 import Weight, build_generators
from .superpoly import SuperPolynomial, theta, theta_bar

Q = Fraction


class SingularParameters(Exception):
    """The regularity guard rejected a parameter set."""


class NormalizationFailure(Exception):
    """An operator did not act on 1 by a nonzero scalar."""


@dataclass
class ParamPair:
    u: SpectralTriple
    v: SpectralTriple

    def render(self) -> dict[str, str]:
        names = ("u1", "u2", "u3", "v1", "v2", "v3")
        values = self.u.as_tuple() + self.v.as_tuple()
        return {name: str(x) for name, x in zip(names, values)}

    @staticmethod
    def from_rationals(u1, u2, u3, v1, v2, v3) -> "ParamPair":
        return ParamPair(SpectralTriple(u1, u2, u3), SpectralTriple(v1, v2, v3))

    @staticmethod
    def from_weights(w1: Weight, w2: Weight, u, v) -> "ParamPair":
        return ParamPair(SpectralTriple.from_weight(u, w1),
                         SpectralTriple.from_weight(v, w2))

    def exchanged(self, k: int) -> "ParamPair":
        """The pair with the k-th entries of u and v swapped: the outgoing
        parameters of the k-th exchange operator."""
        if k not in (1, 2, 3):
            raise ValueError(f"k must be 1, 2 or 3, got {k}")
        u, v = list(self.u.as_tuple()), list(self.v.as_tuple())
        u[k - 1], v[k - 1] = v[k - 1], u[k - 1]
        return ParamPair(SpectralTriple(*u), SpectralTriple(*v))


def _forbid_nonpositive_int(x: Fraction, bound: int, label: str,
                            include_zero: bool) -> None:
    lo = 0 if include_zero else 1
    if x.denominator == 1 and -bound <= x <= -lo:
        raise SingularParameters(f"{label} = {x} hits a Pochhammer pole "
                                 f"(bound {bound})")


def guard_factor(k: int, pp: ParamPair, max_degree: int) -> None:
    """Inequalities the k-th exchange operator needs at the given degree.

    The bound is padded because intermediate polynomials inside the
    conjugators reach a few z-degrees above the test basis.
    """
    bound = max_degree + 4
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    if k == 1:
        if u1 == v1:
            raise SingularParameters("u1 = v1")
        if v1 == v2:
            raise SingularParameters("v1 = v2 (normalization vanishes)")
        _forbid_nonpositive_int(v1 - v3, bound, "v1-v3", include_zero=False)
        _forbid_nonpositive_int(u1 - v3, bound, "u1-v3", include_zero=True)
    elif k == 2:
        if u2 == v2:
            raise SingularParameters("u2 = v2")
        if u1 == u2:
            raise SingularParameters("u1 = u2 (normalization vanishes)")
        if v2 == v3:
            raise SingularParameters("v2 = v3 (normalization vanishes)")
    elif k == 3:
        if u3 == v3:
            raise SingularParameters("u3 = v3")
        if u2 == u3:
            raise SingularParameters("u2 = u3 (normalization vanishes)")
        _forbid_nonpositive_int(u1 - u3, bound, "u1-u3", include_zero=False)
        _forbid_nonpositive_int(u1 - v3, bound, "u1-v3", include_zero=True)
    else:
        raise ValueError(f"k must be 1, 2 or 3, got {k}")


def _rhat_stages(pp: ParamPair) -> list[tuple[int, ParamPair]]:
    """Argument threading of the factorization (applied right to left):
    R3 acts at pp, R2 after the third exchange, R1 after the second."""
    after3 = pp.exchanged(3)
    return [(1, after3.exchanged(2)), (2, after3), (3, pp)]


def pair_guard(pp: ParamPair, max_degree: int) -> None:
    """Full regularity guard: every factor of Rcheck at every stage."""
    for k, stage in _rhat_stages(pp):
        guard_factor(k, stage, max_degree)


def _v_minus(site: int) -> Operator:
    return op_sum(OddDeriv(theta(site)),
                  Q(1, 2) * compose(MulOdd(theta_bar(site)), EvenDeriv(site)))


def _w_minus(site: int) -> Operator:
    return op_sum(OddDeriv(theta_bar(site)),
                  Q(1, 2) * compose(MulOdd(theta(site)), EvenDeriv(site)))


def _half_tt(site: int, nsites: int) -> SuperPolynomial:
    th = SuperPolynomial.odd_var(theta(site), nsites)
    thb = SuperPolynomial.odd_var(theta_bar(site), nsites)
    return Q(1, 2) * (th * thb)


def conjugator(k: int, sites: tuple[int, int] = (1, 2),
               nsites: int = 2) -> tuple[Operator, Operator]:
    """The similarity transformation S_k and its inverse.

    Every factor is a terminating exponential: odd-prefactor generators
    square to zero, the rest strictly lower a z-degree.
    """
    a, b = sites
    za = SuperPolynomial.z_var(a, nsites)
    zb = SuperPolynomial.z_var(b, nsites)
    if k == 1:
        gens = [
            compose(MulPoly(_half_tt(b, nsites)), EvenDeriv(b)),
            compose(MulOdd(theta(a)), _v_minus(b)),
            compose(MulOdd(theta_bar(a)), _w_minus(b)),
            compose(MulPoly(za + _half_tt(a, nsites)), EvenDeriv(b)),
        ]
    elif k == 2:
        gens = [
            compose(MulOdd(theta(a)), OddDeriv(theta(b))),
            compose(MulOdd(theta_bar(b)), OddDeriv(theta_bar(a))),
            compose(MulPoly(_half_tt(a, nsites)), EvenDeriv(a)),
            -1 * compose(MulPoly(_half_tt(b, nsites)), EvenDeriv(b)),
        ]
    elif k == 3:
        gens = [
            -1 * compose(MulPoly(_half_tt(a, nsites)), EvenDeriv(a)),
            compose(MulOdd(theta(b)), _v_minus(a)),
            compose(MulOdd(theta_bar(b)), _w_minus(a)),
            compose(MulPoly(zb + _half_tt(b, nsites)), EvenDeriv(a)),
        ]
    else:
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    s = compose(*(TerminatingExp(g) for g in gens))
    s_inv = compose(*(TerminatingExp(-1 * g) for g in reversed(gens)))
    return s, s_inv


def conjugator_r2_even(sites: tuple[int, int] = (1, 2),
                       nsites: int = 2) -> tuple[Operator, Operator]:
    """Only the even z-shift factors of the R2 conjugator."""
    a, b = sites
    gens = [
        compose(MulPoly(_half_tt(a, nsites)), EvenDeriv(a)),
        -1 * compose(MulPoly(_half_tt(b, nsites)), EvenDeriv(b)),
    ]
    s = compose(*(TerminatingExp(g) for g in gens))
    s_inv = compose(*(TerminatingExp(-1 * g) for g in reversed(gens)))
    return s, s_inv


def kernel(k: int, pp: ParamPair, sites: tuple[int, int] = (1, 2),
           nsites: int = 2) -> Operator:
    """The degree-diagonal middle factor of the k-th exchange operator.

    Gamma ratios are normalized by their value at z-degree 0, so the two
    ratios of the k = 1, 3 kernels keep their exact relative weight
    1/(z d + u1 - v3).
    """
    a, b = sites
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    if k == 1:
        x, y = u1 - v3, v1 - v3
        f1 = (v1 - v2) / (u1 - v1)
        p_main = DegreeDiagonal(b, PochhammerSpec([x + 1], [y + 1]))
        p_mix = DegreeDiagonal(b, PochhammerSpec([x], [y + 1]))
        diag = compose(p_main, op_sum(Scalar(f1),
                                      compose(MulOdd(theta_bar(b)),
                                              OddDeriv(theta_bar(b)))))
        mix = compose(Scalar(Q(1) / x), p_mix, MulZ(b),
                      OddDeriv(theta(b)), OddDeriv(theta_bar(b)))
        return diag - mix
    if k == 2:
        f2 = (u2 - u1) * (v2 - v3) / (v2 - u2)
        tha = SuperPolynomial.odd_var(theta(a), nsites)
        thb_b = SuperPolynomial.odd_var(theta_bar(b), nsites)
        thb_a = SuperPolynomial.odd_var(theta_bar(a), nsites)
        th_b = SuperPolynomial.odd_var(theta(b), nsites)
        z12 = SuperPolynomial.z_var(a, nsites) - SuperPolynomial.z_var(b, nsites)
        dd = compose(OddDeriv(theta_bar(a)), OddDeriv(theta(b)))
        return op_sum(
            Scalar(f2),
            (u1 - u2) * compose(MulOdd(theta(b)), OddDeriv(theta(b))),
            (v2 - v3) * compose(MulOdd(theta_bar(a)), OddDeriv(theta_bar(a))),
            compose(MulPoly(z12 + tha * thb_b), dd),
            (u2 - v2) * compose(MulPoly(th_b * thb_a), dd),
        )
    if k == 3:
        x, y = u1 - v3, u1 - u3
        f3 = (u2 - u3) / (u3 - v3)
        p_main = DegreeDiagonal(a, PochhammerSpec([x + 1], [y + 1]))
        p_mix = DegreeDiagonal(a, PochhammerSpec([x], [y + 1]))
        diag = compose(p_main, op_sum(Scalar(f3),
                                      compose(MulOdd(theta(a)),
                                              OddDeriv(theta(a)))))
        mix = compose(Scalar(Q(1) / x), p_mix, MulZ(a),
                      OddDeriv(theta(a)), OddDeriv(theta_bar(a)))
        return diag + mix
    raise ValueError(f"k must be 1, 2 or 3, got {k}")


def build_r(k: int, pp: ParamPair, sites: tuple[int, int] = (1, 2),
            nsites: int = 2, max_degree: int = 4) -> Operator:
    """Conjugated, normalized exchange operator; op(1) = 1 exactly.

    When the exchanged pair is already equal there is nothing to exchange
    and the normalized operator degenerates to the identity.
    """
    if pp.exchanged(k) == pp:
        return Scalar(1)
    guard_factor(k, pp, max_degree)
    s, s_inv = conjugator(k, sites, nsites)
    raw = compose(s_inv, kernel(k, pp, sites, nsites), s)
    return _normalized(raw, f"R{k}", nsites)


def _normalized(raw: Operator, name: str, nsites: int) -> Operator:
    """raw divided by its action on 1, which must be a nonzero scalar."""
    one = SuperPolynomial.one(nsites)
    image = raw.apply(one)
    c = image.coefficient(next(iter(one.terms)))
    if image != c * one or c == 0:
        raise NormalizationFailure(
            f"{name} applied to 1 gave {image.text()}, not a nonzero scalar")
    return Cached(raw if c == 1 else compose(Scalar(1 / c), raw))


def _lax_pair(pp: ParamPair,
              nsites: int) -> tuple[SuperMatrixOperator, SuperMatrixOperator]:
    """The chiral Lax matrices L1(pp.u), L2(pp.v)."""
    return (build_lax(1, pp.u, "chiral", nsites=nsites),
            build_lax(2, pp.v, "chiral", nsites=nsites))


def _intertwines(op: Operator, pp: ParamPair, out: ParamPair,
                 max_degree: int, nsites: int) -> CheckReport:
    """op L1(pp.u) L2(pp.v) = L1(out.u) L2(out.v) op, entry by entry."""
    l1, l2 = _lax_pair(pp, nsites)
    l1x, l2x = _lax_pair(out, nsites)
    return matrices_equal((l1 @ l2).wrap_left(op),
                          (l1x @ l2x).wrap_right(op), max_degree,
                          nsites=nsites)


def check_defining(k: int, pp: ParamPair, max_degree: int = 2,
                   nsites: int = 2) -> CheckReport:
    """R_k L1(u) L2(v) = L1(u') L2(v') R_k with the k-th pair exchanged."""
    report = CheckReport(check_name=f"defining-R{k}", params=pp.render(),
                         max_degree=max_degree)
    with report.timed(SingularParameters):
        r = build_r(k, pp, nsites=nsites, max_degree=max_degree)
        report.merge(_intertwines(r, pp, pp.exchanged(k), max_degree, nsites))
    return report


def check_lemma_system(k: int, pp: ParamPair, max_degree: int = 3,
                       nsites: int = 2) -> CheckReport:
    """The equivalent system: sum equation, variable commutations, and the
    extra odd relation for k = 1, 3; each sub-equation itemized."""
    report = CheckReport(check_name=f"lemma-R{k}", params=pp.render(),
                         max_degree=max_degree)
    with report.timed(SingularParameters):
        r = build_r(k, pp, nsites=nsites, max_degree=max_degree)
        l1, l2 = _lax_pair(pp, nsites)
        l1x, l2x = _lax_pair(pp.exchanged(k), nsites)
        lhs = (l1 + l2).wrap_left(r)
        rhs = (l1x + l2x).wrap_right(r)
        sub = matrices_equal(lhs, rhs, max_degree, nsites=nsites, name="sum-eq")
        report.merge(sub, prefix="sum-eq ")

        th1p = SuperPolynomial.odd_var(theta(1), nsites)
        thb1p = SuperPolynomial.odd_var(theta_bar(1), nsites)
        th2p = SuperPolynomial.odd_var(theta(2), nsites)
        thb2p = SuperPolynomial.odd_var(theta_bar(2), nsites)
        z1p = SuperPolynomial.z_var(1, nsites)
        z2p = SuperPolynomial.z_var(2, nsites)
        if k == 1:
            comm = [("z1", MulPoly(z1p)), ("th1", MulPoly(th1p)),
                    ("thb1", MulPoly(thb1p))]
        elif k == 3:
            comm = [("z2", MulPoly(z2p)), ("th2", MulPoly(th2p)),
                    ("thb2", MulPoly(thb2p))]
        else:
            comm = [("z1-th1*thb1/2", MulPoly(z1p - Q(1, 2) * (th1p * thb1p))),
                    ("th1", MulPoly(th1p)),
                    ("z2+th2*thb2/2", MulPoly(z2p + Q(1, 2) * (th2p * thb2p))),
                    ("thb2", MulPoly(thb2p))]
        for label, m in comm:
            sub = equal_on_degree(compose(r, m), compose(m, r), max_degree,
                                  nsites=nsites, name=f"[R{k},{label}]")
            report.merge(sub, prefix=f"[R{k},{label}] on ")

        if k == 1:
            extra = _v_minus(2) + compose(MulOdd(theta_bar(1)),
                                          -1 * EvenDeriv(2))
            label = "V2- + thb1 S2-"
        elif k == 3:
            extra = _w_minus(1) + compose(MulOdd(theta(2)), -1 * EvenDeriv(1))
            label = "W1- + th2 S1-"
        else:
            extra = None
        if extra is not None:
            sub = equal_on_degree(compose(r, extra), compose(extra, r),
                                  max_degree, nsites=nsites, name=label)
            report.merge(sub, prefix=f"[{label}] on ")
    return report


# ---------------------------------------------------------------------------
# recurrence and coefficient-relation suite
# ---------------------------------------------------------------------------

def r3_diagonal_functions(pp: ParamPair, nmax: int, nsites: int = 2):
    """Read a[n], b[n], c[n] off the implemented R3 kernel by probing.

    The kernel acts as a[.] + b[.] th d_th + c[.] z d_th d_thb in the
    variables of site 1; probing monomials recovers the three functions
    up to the one common normalization the construction fixes.
    """
    kern = kernel(3, pp, (1, 2), nsites)
    z1 = SuperPolynomial.z_var(1, nsites)
    th1 = SuperPolynomial.odd_var(theta(1), nsites)
    thb1 = SuperPolynomial.odd_var(theta_bar(1), nsites)
    a, bdiag, c = {}, {}, {}
    for n in range(nmax + 2):
        zn = z1 ** n
        mono_zn = next(iter(zn.terms))
        a[n] = kern.apply(zn).coefficient(mono_zn)
        img = kern.apply(th1 * zn)
        mono_tzn = next(iter((th1 * zn).terms))
        bdiag[n] = img.coefficient(mono_tzn) - a[n]
    for n in range(1, nmax + 2):
        probe = (th1 * thb1) * (z1 ** (n - 1))
        img = kern.apply(probe)
        mono_zn = next(iter((z1 ** n).terms))
        c[n] = -img.coefficient(mono_zn)
    return a, bdiag, c


def r2_constants(pp: ParamPair, nsites: int = 2) -> dict[str, Fraction]:
    """The five constants of the R2 kernel, read off by probing."""
    kern = kernel(2, pp, (1, 2), nsites)
    one = SuperPolynomial.one(nsites)
    thb1 = SuperPolynomial.odd_var(theta_bar(1), nsites)
    th2 = SuperPolynomial.odd_var(theta(2), nsites)
    z1 = SuperPolynomial.z_var(1, nsites)
    mono = lambda p: next(iter(p.terms))
    a = kern.apply(one).coefficient(mono(one))
    b = kern.apply(thb1).coefficient(mono(thb1)) - a
    c = kern.apply(th2).coefficient(mono(th2)) - a
    probe = thb1 * th2
    img = kern.apply(probe)
    d = -img.coefficient(mono(z1))
    e = img.coefficient(mono(probe)) - (a + b + c)
    return {"a": a, "b": b, "c": c, "d": d, "e": e}


def check_recurrences(pp: ParamPair, nmax: int = 4,
                      nsites: int = 2) -> CheckReport:
    """The five R3 recurrence relations and four R2 coefficient relations."""
    report = CheckReport(check_name="recurrences", params=pp.render(),
                         max_degree=nmax)
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()

    def expect(label, lhs, rhs):
        if lhs != rhs:
            report.add_failure(label, str(lhs), str(rhs), str(lhs - rhs))

    with report.timed(SingularParameters):
        guard_factor(3, pp, nmax)
        guard_factor(2, pp, nmax)
        a, b, c = r3_diagonal_functions(pp, nmax, nsites)
        for n in range(1, nmax + 1):
            expect(f"a[{n}]-a[{n - 1}]=(u2-u3)c[{n}]",
                   a[n] - a[n - 1], (u2 - u3) * c[n])
            expect(f"b[{n}]=(u3-v3)/(u2-u3)*a[{n}]",
                   b[n], (u3 - v3) / (u2 - u3) * a[n])
        for n in range(1, nmax + 1):
            expect(f"c[{n + 1}](n+u1-u3+1)=(n+u1-v3)c[{n}]",
                   c[n + 1] * (n + u1 - u3 + 1), (n + u1 - v3) * c[n])
        for n in range(nmax + 1):
            expect(f"a[{n + 1}](n+u1-u3)+(u2-u3)c[{n + 1}]=(n+u1-v3)a[{n}]",
                   a[n + 1] * (n + u1 - u3) + (u2 - u3) * c[n + 1],
                   (n + u1 - v3) * a[n])
        for n in range(1, nmax + 1):
            expect(f"a[{n}]+b[{n}](n+u1-u3)-(u2-u3)c[{n}]"
                   f"=a[{n - 1}]+(n+u1-v3)b[{n - 1}]",
                   a[n] + b[n] * (n + u1 - u3) - (u2 - u3) * c[n],
                   a[n - 1] + (n + u1 - v3) * b[n - 1])

        k2 = r2_constants(pp, nsites)
        expect("R2: a=(u2-u1)(v2-v3)/(v2-u2)*d",
               k2["a"], (u2 - u1) * (v2 - v3) / (v2 - u2) * k2["d"])
        expect("R2: b=(v2-v3)*d", k2["b"], (v2 - v3) * k2["d"])
        expect("R2: c=(u1-u2)*d", k2["c"], (u1 - u2) * k2["d"])
        expect("R2: e=(u2-v2)*d", k2["e"], (u2 - v2) * k2["d"])
    return report


# ---------------------------------------------------------------------------
# factorization and the dressed operator
# ---------------------------------------------------------------------------

def build_rhat(pp: ParamPair, sites: tuple[int, int] = (1, 2),
               nsites: int = 2, max_degree: int = 4) -> Operator:
    """Rcheck = R1 R2 R3 with the factorization's argument threading."""
    raw = compose(*(build_r(k, stage, sites, nsites, max_degree)
                    for k, stage in _rhat_stages(pp)))
    return _normalized(raw, "Rcheck", nsites)


def build_full_R(pp: ParamPair, sites: tuple[int, int] = (1, 2),
                 nsites: int = 2, max_degree: int = 4) -> Operator:
    """P12 Rcheck(u;v): the inverse R-matrix at spectral argument v - u."""
    rhat = build_rhat(pp, sites, nsites, max_degree)
    return Cached(compose(SwapSites(*sites), rhat))


def check_factorization(pp: ParamPair, max_degree: int = 2,
                        nsites: int = 2) -> CheckReport:
    """Master exchange: Rcheck L1(u-triple) L2(v-triple) swaps all three."""
    report = CheckReport(check_name="factorization", params=pp.render(),
                         max_degree=max_degree)
    with report.timed(SingularParameters):
        rhat = build_rhat(pp, nsites=nsites, max_degree=max_degree)
        report.merge(_intertwines(rhat, pp, ParamPair(pp.v, pp.u), max_degree,
                                  nsites))
    return report


def weight_shift(k: int, w1: Weight, w2: Weight,
                 pp: ParamPair) -> tuple[Weight, Weight]:
    """Representation labels after the k-th exchange operator."""
    if k == 1:
        xi = (pp.u.u1 - pp.v.u1) / 2
        return (Weight(w1.ell - xi, w1.b + xi), Weight(w2.ell + xi, w2.b - xi))
    if k == 2:
        xi = pp.u.u2 - pp.v.u2
        return (Weight(w1.ell, w1.b - xi), Weight(w2.ell, w2.b + xi))
    if k == 3:
        xi = (pp.u.u3 - pp.v.u3) / 2
        return (Weight(w1.ell + xi, w1.b + xi), Weight(w2.ell - xi, w2.b - xi))
    raise ValueError(f"k must be 1, 2 or 3, got {k}")


def total_generator(name: str, w1: Weight, w2: Weight,
                    sites: tuple[int, int] = (1, 2),
                    nsites: int = 2) -> Operator:
    """Two-site sum of one generator (used for invariance properties)."""
    g1 = build_generators(sites[0], w1, nsites=nsites)
    g2 = build_generators(sites[1], w2, nsites=nsites)
    return g1[name] + g2[name]


def ybe_pairs(w1: Weight, w2: Weight, w3: Weight,
              u, v) -> tuple[ParamPair, ParamPair, ParamPair]:
    """The (12), (13), (23) parameter pairs of the three-site relation."""
    return (ParamPair.from_weights(w1, w2, 0, u - v),
            ParamPair.from_weights(w1, w3, 0, u),
            ParamPair.from_weights(w2, w3, 0, v))


def check_ybe(w1: Weight, w2: Weight, w3: Weight, u, v,
              max_degree: int = 1) -> CheckReport:
    """Three-site Yang-Baxter relation for the permutation-dressed operators.

    Built from the inverse-side operators A_ab = P_ab Rcheck_ab, which satisfy
    the same three-term relation; equality is required up to the single
    scalar fixed by comparing both sides on the constant polynomial.
    """
    u, v = Q(u), Q(v)
    report = CheckReport(
        check_name="yang-baxter",
        params={"l1": str(w1.ell), "b1": str(w1.b), "l2": str(w2.ell),
                "b2": str(w2.b), "l3": str(w3.ell), "b3": str(w3.b),
                "u": str(u), "v": str(v)},
        max_degree=max_degree)
    with report.timed(SingularParameters):
        a12, a13, a23 = (
            build_full_R(pp, sites=sites, nsites=3, max_degree=max_degree)
            for pp, sites in zip(ybe_pairs(w1, w2, w3, u, v),
                                 ((1, 2), (1, 3), (2, 3))))
        lhs = compose(a12, a13, a23)
        rhs = compose(a23, a13, a12)
        one = SuperPolynomial.one(3)
        lhs_one, rhs_one = lhs.apply(one), rhs.apply(one)
        mono = next(iter(one.terms))
        c_l, c_r = lhs_one.coefficient(mono), rhs_one.coefficient(mono)
        if c_r == 0 or lhs_one != (c_l / c_r) * rhs_one:
            report.add_failure("1", lhs_one.text(), rhs_one.text(),
                               (lhs_one - rhs_one).text())
            return report
        scalar = c_l / c_r
        report.notes.append(f"global scalar lhs/rhs on 1: {scalar}")
        sub = equal_on_degree(lhs, compose(Scalar(scalar), rhs), max_degree,
                              nsites=3, name="ybe")
        report.merge(sub, prefix="ybe on ")
    return report
