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
from functools import cache

from .lax import SpectralTriple, SuperMatrixOperator, build_lax, intertwines
from .opalg import (BlockCached, Cached, Compose, DegreeDiagonal, EvenDeriv,
                    MulOdd, MulPoly, MulZ, OddDeriv, OnSites, Operator,
                    Scalar, SwapSites, TerminatingExp, compose,
                    equal_on_degree, op_sum)
from .report import CheckReport
from .sl21 import Weight, build_generators, lowering
from .superpoly import Monomial, SuperPolynomial, theta, theta_bar

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


def two_site_vars() -> tuple[SuperPolynomial, ...]:
    """z1, z2, th1, thb1, th2, thb2: the variables of sites 1 and 2."""
    return (SuperPolynomial.z_var(1), SuperPolynomial.z_var(2),
            *(SuperPolynomial.odd_var(v)
              for v in (theta(1), theta_bar(1), theta(2), theta_bar(2))))


def _conjugator_gens(k: int) -> list[Operator]:
    """The exponents of S_k, in product order (the last acts first)."""
    z1, z2, th1, thb1, th2, thb2 = two_site_vars()
    half1, half2 = Q(1, 2) * (th1 * thb1), Q(1, 2) * (th2 * thb2)
    if k == 1:
        low = lowering(2)
        return [compose(MulPoly(half2), EvenDeriv(2)),
                compose(MulOdd(theta(1)), low["V-"]),
                compose(MulOdd(theta_bar(1)), low["W-"]),
                compose(MulPoly(z1 + half1), EvenDeriv(2))]
    if k == 2:
        return [compose(MulOdd(theta(1)), OddDeriv(theta(2))),
                compose(MulOdd(theta_bar(2)), OddDeriv(theta_bar(1))),
                compose(MulPoly(half1), EvenDeriv(1)),
                -1 * compose(MulPoly(half2), EvenDeriv(2))]
    if k == 3:
        low = lowering(1)
        return [-1 * compose(MulPoly(half1), EvenDeriv(1)),
                compose(MulOdd(theta(2)), low["V-"]),
                compose(MulOdd(theta_bar(2)), low["W-"]),
                compose(MulPoly(z2 + half2), EvenDeriv(1))]
    raise ValueError(f"k must be 1, 2 or 3, got {k}")


@cache
def conjugator(k: int) -> tuple[Cached, Cached]:
    """The similarity transformation S_k and its inverse.

    Every factor is a terminating exponential: odd-prefactor generators
    square to zero, the rest strictly lower a z-degree.  Neither depends on
    the parameters, so each is built once per process (on first call) and
    every exchange operator shares its columns; a cache grows only with the
    z-degree reached.
    """
    return _exp_pair(_conjugator_gens(k))


@cache
def conjugator_r2_even() -> tuple[Cached, Cached]:
    """Only the even z-shift factors of the R2 conjugator; built once, like
    `conjugator`."""
    return _exp_pair(_conjugator_gens(2)[2:])


@cache
def conjugator_link(j: int, k: int) -> Cached:
    """S_j S_k^-1, the two conjugators that stand next to each other where
    R_j precedes R_k in a product; built once, like `conjugator`, with its
    columns computed from theirs (S S^-1 = 1 is never assumed)."""
    return Cached(compose(conjugator(j)[0], conjugator(k)[1]))


def _exp_pair(gens: list[Operator]) -> tuple[Cached, Cached]:
    """prod exp(g) over gens and its inverse, each with its own columns."""
    s = compose(*(TerminatingExp(g) for g in gens))
    s_inv = compose(*(TerminatingExp(-1 * g) for g in reversed(gens)))
    return Cached(s), Cached(s_inv)


def kernel(k: int, pp: ParamPair) -> Operator:
    """The degree-diagonal middle factor of the k-th exchange operator.

    Gamma ratios are normalized by their value at z-degree 0, so the two
    ratios of the k = 1, 3 kernels keep their exact relative weight
    1/(z d + u1 - v3).
    """
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    if k == 1:
        x, y = u1 - v3, v1 - v3
        f1 = (v1 - v2) / (u1 - v1)
        p_main = DegreeDiagonal(2, x + 1, y + 1)
        p_mix = DegreeDiagonal(2, x, y + 1)
        diag = compose(p_main, op_sum(Scalar(f1),
                                      compose(MulOdd(theta_bar(2)),
                                              OddDeriv(theta_bar(2)))))
        mix = compose(Scalar(Q(1) / x), p_mix, MulZ(2),
                      OddDeriv(theta(2)), OddDeriv(theta_bar(2)))
        return diag - mix
    if k == 2:
        f2 = (u2 - u1) * (v2 - v3) / (v2 - u2)
        z1, z2, th1, thb1, th2, thb2 = two_site_vars()
        dd = compose(OddDeriv(theta_bar(1)), OddDeriv(theta(2)))
        return op_sum(
            Scalar(f2),
            (u1 - u2) * compose(MulOdd(theta(2)), OddDeriv(theta(2))),
            (v2 - v3) * compose(MulOdd(theta_bar(1)), OddDeriv(theta_bar(1))),
            compose(MulPoly(z1 - z2 + th1 * thb2), dd),
            (u2 - v2) * compose(MulPoly(th2 * thb1), dd),
        )
    if k == 3:
        x, y = u1 - v3, u1 - u3
        f3 = (u2 - u3) / (u3 - v3)
        p_main = DegreeDiagonal(1, x + 1, y + 1)
        p_mix = DegreeDiagonal(1, x, y + 1)
        diag = compose(p_main, op_sum(Scalar(f3),
                                      compose(MulOdd(theta(1)),
                                              OddDeriv(theta(1)))))
        mix = compose(Scalar(Q(1) / x), p_mix, MulZ(1),
                      OddDeriv(theta(1)), OddDeriv(theta_bar(1)))
        return diag + mix
    raise ValueError(f"k must be 1, 2 or 3, got {k}")


def build_r(k: int, pp: ParamPair, max_degree: int = 4) -> Operator:
    """Conjugated, normalized exchange operator S_k^-1 (K_k / c) S_k, where
    c is the action of S_k^-1 K_k S_k on 1; op(1) = 1 exactly.

    The scale stands inside the conjugation, so the outer factors are the
    shared conjugators themselves and a product of exchange operators can
    fuse them (`build_rhat`).  When the exchanged pair is already equal
    there is nothing to exchange and the normalized operator degenerates to
    the identity.  `max_degree` sets only the degree `guard_factor` checks;
    the operator is the same at every degree.
    """
    if pp.exchanged(k) == pp:
        return Scalar(1)
    guard_factor(k, pp, max_degree)
    s, s_inv = conjugator(k)
    kern = kernel(k, pp)
    c = _normalization(compose(s_inv, kern, s), f"R{k}")
    return compose(s_inv, kern if c == 1 else compose(Scalar(1 / c), kern), s)


def _normalization(raw: Operator, name: str) -> Fraction:
    """The action of raw on 1, which must be a nonzero scalar."""
    one = SuperPolynomial.one()
    image = raw.apply(one)
    c = image.coefficient(0)
    if image != c * one or c == 0:
        raise NormalizationFailure(
            f"{name} applied to 1 gave {image.text()}, not a nonzero scalar")
    return c


def _lax_pair(pp: ParamPair) -> tuple[SuperMatrixOperator, SuperMatrixOperator]:
    """The chiral Lax matrices L1(pp.u), L2(pp.v)."""
    return build_lax(1, pp.u, "chiral"), build_lax(2, pp.v, "chiral")


def check_defining(k: int, pp: ParamPair, max_degree: int = 2) -> CheckReport:
    """R_k L1(u) L2(v) = L1(u') L2(v') R_k with the k-th pair exchanged."""
    report = CheckReport(check_name=f"defining-R{k}", params=pp.render(),
                         max_degree=max_degree)
    with report.timed(SingularParameters):
        r = Cached(build_r(k, pp, max_degree=max_degree))
        l1, l2 = _lax_pair(pp)
        l1x, l2x = _lax_pair(pp.exchanged(k))
        report.merge(intertwines(r, l1 @ l2, l1x @ l2x, max_degree))
    return report


def check_lemma_system(k: int, pp: ParamPair,
                       max_degree: int = 3) -> CheckReport:
    """The equivalent system: sum equation, variable commutations, and the
    extra odd relation for k = 1, 3; each sub-equation itemized."""
    report = CheckReport(check_name=f"lemma-R{k}", params=pp.render(),
                         max_degree=max_degree)
    with report.timed(SingularParameters):
        r = Cached(build_r(k, pp, max_degree=max_degree))
        l1, l2 = _lax_pair(pp)
        l1x, l2x = _lax_pair(pp.exchanged(k))
        z1, z2, th1, thb1, th2, thb2 = two_site_vars()
        if k == 1:
            low = lowering(2)
            comm = [("z1", z1), ("th1", th1), ("thb1", thb1)]
            extra = [("V2- + thb1 S2-",
                      low["V-"] + compose(MulPoly(thb1), low["S-"]))]
        elif k == 3:
            low = lowering(1)
            comm = [("z2", z2), ("th2", th2), ("thb2", thb2)]
            extra = [("W1- + th2 S1-",
                      low["W-"] + compose(MulPoly(th2), low["S-"]))]
        else:
            comm = [("z1-th1*thb1/2", z1 - Q(1, 2) * (th1 * thb1)),
                    ("th1", th1),
                    ("z2+th2*thb2/2", z2 + Q(1, 2) * (th2 * thb2)),
                    ("thb2", thb2)]
            extra = []
        rows = [("sum-eq ", l1 + l2, l1x + l2x)]
        for label, p in comm:
            m = MulPoly(p)
            rows.append((f"[R{k},{label}] on ", m, m))
        rows += [(f"[{label}] on ", op, op) for label, op in extra]
        for prefix, x, y in rows:
            report.merge(intertwines(r, x, y, max_degree), prefix=prefix)
    return report


# ---------------------------------------------------------------------------
# recurrence and coefficient-relation suite
# ---------------------------------------------------------------------------

def r3_diagonal_functions(pp: ParamPair, nmax: int):
    """Read a[n], b[n], c[n] off the implemented R3 kernel by probing.

    The kernel acts as a[.] + b[.] th d_th + c[.] z d_th d_thb in the
    variables of site 1; probing monomials recovers the three functions
    up to the one common normalization the construction fixes.
    """
    kern = kernel(3, pp)
    z1, _, th1, thb1, _, _ = two_site_vars()
    a, bdiag, c = {}, {}, {}
    for n in range(nmax + 2):
        zn = Monomial((n,), 0)
        a[n] = kern.apply(z1 ** n).coefficient(zn)
        th_zn = zn | 1 << theta(1)
        bdiag[n] = kern.apply(th1 * z1 ** n).coefficient(th_zn) - a[n]
    for n in range(1, nmax + 2):
        img = kern.apply((th1 * thb1) * (z1 ** (n - 1)))
        c[n] = -img.coefficient(Monomial((n,), 0))
    return a, bdiag, c


def r2_constants(pp: ParamPair) -> dict[str, Fraction]:
    """The five constants of the R2 kernel, read off by probing."""
    kern = kernel(2, pp)
    z1, _, _, thb1, th2, _ = two_site_vars()
    mono = lambda p: next(iter(p.terms))
    a = kern.apply(SuperPolynomial.one()).coefficient(0)
    b = kern.apply(thb1).coefficient(mono(thb1)) - a
    c = kern.apply(th2).coefficient(mono(th2)) - a
    probe = thb1 * th2
    img = kern.apply(probe)
    d = -img.coefficient(mono(z1))
    e = img.coefficient(mono(probe)) - (a + b + c)
    return {"a": a, "b": b, "c": c, "d": d, "e": e}


def check_recurrences(pp: ParamPair, nmax: int = 4) -> CheckReport:
    """The five R3 recurrence relations and four R2 coefficient relations."""
    report = CheckReport(check_name="recurrences", params=pp.render(),
                         max_degree=nmax)
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    with report.timed(SingularParameters):
        guard_factor(3, pp, nmax)
        guard_factor(2, pp, nmax)
        a, b, c = r3_diagonal_functions(pp, nmax)
        for n in range(1, nmax + 1):
            report.expect(f"a[{n}]-a[{n - 1}]=(u2-u3)c[{n}]",
                          a[n] - a[n - 1], (u2 - u3) * c[n])
            report.expect(f"b[{n}]=(u3-v3)/(u2-u3)*a[{n}]",
                          b[n], (u3 - v3) / (u2 - u3) * a[n])
        for n in range(1, nmax + 1):
            report.expect(f"c[{n + 1}](n+u1-u3+1)=(n+u1-v3)c[{n}]",
                          c[n + 1] * (n + u1 - u3 + 1), (n + u1 - v3) * c[n])
        for n in range(nmax + 1):
            report.expect(
                f"a[{n + 1}](n+u1-u3)+(u2-u3)c[{n + 1}]=(n+u1-v3)a[{n}]",
                a[n + 1] * (n + u1 - u3) + (u2 - u3) * c[n + 1],
                (n + u1 - v3) * a[n])
        for n in range(1, nmax + 1):
            report.expect(f"a[{n}]+b[{n}](n+u1-u3)-(u2-u3)c[{n}]"
                          f"=a[{n - 1}]+(n+u1-v3)b[{n - 1}]",
                          a[n] + b[n] * (n + u1 - u3) - (u2 - u3) * c[n],
                          a[n - 1] + (n + u1 - v3) * b[n - 1])

        k2 = r2_constants(pp)
        report.expect("R2: a=(u2-u1)(v2-v3)/(v2-u2)*d",
                      k2["a"], (u2 - u1) * (v2 - v3) / (v2 - u2) * k2["d"])
        report.expect("R2: b=(v2-v3)*d", k2["b"], (v2 - v3) * k2["d"])
        report.expect("R2: c=(u1-u2)*d", k2["c"], (u1 - u2) * k2["d"])
        report.expect("R2: e=(u2-v2)*d", k2["e"], (u2 - v2) * k2["d"])
    return report


# ---------------------------------------------------------------------------
# factorization and the dressed operator
# ---------------------------------------------------------------------------

def build_rhat(pp: ParamPair, max_degree: int = 4) -> Operator:
    """Rcheck = R1 R2 R3 with the factorization's argument threading; each
    factor fixes 1, so the product does.

    Every S_j that stands next to an S_k^-1 in the product is fused with it
    into the shared `conjugator_link(j, k)`, so each whole vector takes one
    pass through their columns instead of two.
    """
    links = {(id(conjugator(j)[0]), id(conjugator(k)[1])): (j, k)
             for j in (1, 2, 3) for k in (1, 2, 3)}
    product = compose(*(build_r(k, stage, max_degree=max_degree)
                        for k, stage in _rhat_stages(pp)))
    chain: list[Operator] = []
    for op in product.ops if isinstance(product, Compose) else (product,):
        pair = links.get((id(chain[-1]), id(op))) if chain else None
        if pair:
            chain[-1] = conjugator_link(*pair)
        else:
            chain.append(op)
    return compose(*chain)


def build_full_R(pp: ParamPair, max_degree: int = 4) -> Operator:
    """P12 Rcheck(u;v): the inverse R-matrix at spectral argument v - u.

    Uncached, like `build_rhat`, whose fused chain it reads; a sweep that
    reuses its columns wraps it (`check_ybe`).
    """
    return compose(SwapSites(1, 2), build_rhat(pp, max_degree))


def check_factorization(pp: ParamPair, max_degree: int = 2) -> CheckReport:
    """Master exchange: Rcheck L1(u-triple) L2(v-triple) swaps all three."""
    report = CheckReport(check_name="factorization", params=pp.render(),
                         max_degree=max_degree)
    with report.timed(SingularParameters):
        rhat = Cached(build_rhat(pp, max_degree=max_degree))
        l1, l2 = _lax_pair(pp)
        l1x, l2x = _lax_pair(ParamPair(pp.v, pp.u))
        report.merge(intertwines(rhat, l1 @ l2, l1x @ l2x, max_degree))
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


def total_generator(name: str, w1: Weight, w2: Weight) -> Operator:
    """Two-site sum of one generator (used for invariance properties)."""
    return build_generators(1, w1)[name] + build_generators(2, w2)[name]


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
    the same three-term relation; A12 A13 A23 and A23 A13 A12 are compared
    exactly, with no scalar freedom: every A_ab fixes 1, so a scalar fitted
    on 1 could only be 1, and 1 is itself a row of the sweep.  Each
    A_ab is cached on two sites and lifted onto sites a, b, so its columns
    are filled on two sites and shared by every shard of the sweep.  A
    lifted three-site column is read only while the charge shard of its
    own block is swept, so it is kept only until then (`BlockCached`).
    The three-site sweep may run on forked workers (see `equal_on_degree`);
    the report does not depend on their number.
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
            BlockCached(OnSites(Cached(build_full_R(pp, max_degree)), sites))
            for pp, sites in zip(ybe_pairs(w1, w2, w3, u, v),
                                 ((1, 2), (1, 3), (2, 3))))
        sub = equal_on_degree(compose(a12, a13, a23), compose(a23, a13, a12),
                              max_degree, nsites=3)
        report.merge(sub, prefix="ybe on ")
    return report
