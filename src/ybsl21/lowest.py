"""Lowest-weight vectors of the two-site module, their sector matrices under
the exchange operators, and comparison with the closed spectral formulas.

The two-site interval entering the vectors is the dressed combination

    Z12 = z1 - z2 + (th1 thb2 - th2 thb1)/2,

not the bare difference z1 - z2: only the dressed interval is annihilated
by all three total lowering operators, satisfies the site-1 covariant
derivative conditions literally, and reproduces the conjugator substitution
formulas.  All spectral comparisons are normalization-free: every closed
formula is divided by the same operator's action on the constant polynomial,
matching the op(1) = 1 convention of the constructed operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .lax import covariant_derivatives
from .linsolve import solve_in_span
from .opalg import Operator, rising_factorial
from .report import CheckReport
from .rops import (ParamPair, SingularParameters, build_r, build_rhat,
                   conjugator, conjugator_r2_even, guard_factor)
from .sl21 import Weight, build_generators
from .superpoly import SuperPolynomial, theta, theta_bar

Q = Fraction


class NotInSpan(Exception):
    def __init__(self, poly: SuperPolynomial, label: str):
        self.poly = poly
        super().__init__(f"{label}: {poly.text()} is outside the sector span")


@dataclass
class LowestVector:
    sector: str          # even | odd
    sign: str            # + | -
    n: int
    poly: SuperPolynomial


@dataclass
class SectorMatrix:
    n: int
    sector: str
    entries: tuple      # 2x2, column j = image of basis vector j


def _vars(nsites: int):
    z1 = SuperPolynomial.z_var(1, nsites)
    z2 = SuperPolynomial.z_var(2, nsites)
    th1 = SuperPolynomial.odd_var(theta(1), nsites)
    thb1 = SuperPolynomial.odd_var(theta_bar(1), nsites)
    th2 = SuperPolynomial.odd_var(theta(2), nsites)
    thb2 = SuperPolynomial.odd_var(theta_bar(2), nsites)
    return z1, z2, th1, thb1, th2, thb2


def interval(nsites: int = 2) -> SuperPolynomial:
    """The dressed two-site interval Z12."""
    z1, z2, th1, thb1, th2, thb2 = _vars(nsites)
    return z1 - z2 + Q(1, 2) * (th1 * thb2) - Q(1, 2) * (th2 * thb1)


def theta_12(nsites: int = 2) -> SuperPolynomial:
    _, _, th1, _, th2, _ = _vars(nsites)
    return th1 - th2


def theta_bar_12(nsites: int = 2) -> SuperPolynomial:
    _, _, _, thb1, _, thb2 = _vars(nsites)
    return thb1 - thb2


def lowest_vector(sector: str, sign: str, n: int,
                  nsites: int = 2) -> LowestVector:
    """Phi_n^(+/-) = (Z12 +/- th12 thb12 / 2)^n, Psi_n^- = th12 Z12^n,
    Psi_n^+ = thb12 Z12^n."""
    z12 = interval(nsites)
    t12 = theta_12(nsites)
    tb12 = theta_bar_12(nsites)
    if sector == "even":
        s = Q(1, 2) if sign == "+" else Q(-1, 2)
        poly = (z12 + s * (t12 * tb12)) ** n
    elif sector == "odd":
        head = tb12 if sign == "+" else t12
        poly = head * (z12 ** n)
    else:
        raise ValueError(f"unknown sector {sector!r}")
    return LowestVector(sector=sector, sign=sign, n=n, poly=poly)


@cache
def sector_basis(sector: str, n: int, nsites: int = 2):
    """(plus, minus) lowest vectors at level n; shared, never mutated."""
    return (lowest_vector(sector, "+", n, nsites).poly,
            lowest_vector(sector, "-", n, nsites).poly)


def verify_lowest(v: LowestVector, w1: Weight, w2: Weight,
                  nsites: int = 2) -> CheckReport:
    """Eigenvalue and annihilation conditions of one lowest-weight vector.

    Hard sub-checks: total S and B eigenvalues, annihilation by the total
    lowering operators S-, V-, W-, and the site-1 covariant derivative
    condition with the matching sign.  The site-summed covariant derivative
    interpretation is evaluated and reported in the notes only, since it
    does not annihilate the vectors.
    """
    report = CheckReport(
        check_name=f"lowest-{v.sector}{v.sign}{v.n}",
        params={"l1": str(w1.ell), "b1": str(w1.b),
                "l2": str(w2.ell), "b2": str(w2.b)})
    with report.timed():
        g1 = build_generators(1, w1, nsites=nsites)
        g2 = build_generators(2, w2, nsites=nsites)
        half = Q(1, 2)
        if v.sector == "even":
            s_ev = v.n + w1.ell + w2.ell
            b_ev = w1.b + w2.b
        else:
            s_ev = v.n + w1.ell + w2.ell + half
            b_ev = w1.b + w2.b + (half if v.sign == "+" else -half)
        for name, ev in (("S", s_ev), ("B", b_ev)):
            got = (g1[name] + g2[name]).apply(v.poly)
            want = ev * v.poly
            if got != want:
                report.add_failure(f"{name}_tot eigenvalue", got.text(),
                                   want.text(), (got - want).text())
        for name in ("S-", "V-", "W-"):
            got = (g1[name] + g2[name]).apply(v.poly)
            if not got.is_zero():
                report.add_failure(f"{name}_tot annihilation", got.text(), "0",
                                   got.text())
        if v.sector == "even":
            d1_minus, d1_plus = covariant_derivatives(1)
            d2_minus, d2_plus = covariant_derivatives(2)
            d_site1 = d1_plus if v.sign == "+" else d1_minus
            got = d_site1.apply(v.poly)
            if not got.is_zero():
                report.add_failure(f"D1{v.sign} annihilation (site 1)",
                                   got.text(), "0", got.text())
            d_tot = ((d1_plus + d2_plus) if v.sign == "+"
                     else (d1_minus + d2_minus))
            tot = d_tot.apply(v.poly)
            report.notes.append(
                f"site-summed D{v.sign}_tot gives "
                f"{'0' if tot.is_zero() else 'nonzero: ' + tot.text()} "
                "(informational; the literal site-1 condition is the hard "
                "check)")
    return report


def decompose(p: SuperPolynomial, n: int, sector: str,
              nsites: int = 2) -> tuple[Fraction, Fraction]:
    """Exact coefficients (c+, c-) of p in the sector basis at level n."""
    plus, minus = sector_basis(sector, n, nsites)
    coeffs = solve_in_span([plus, minus], p)
    if coeffs is None:
        raise NotInSpan(p, f"decompose({sector}, n={n})")
    return coeffs[0], coeffs[1]


def sector_action(op: Operator, sector: str, n: int,
                  nsites: int = 2) -> SectorMatrix:
    """Matrix of a built operator on the level-n sector basis, decomposed
    exactly; build the operator with max_degree >= n + 1."""
    plus, minus = sector_basis(sector, n, nsites)
    col_plus = decompose(op.apply(plus), n, sector, nsites)
    col_minus = decompose(op.apply(minus), n, sector, nsites)
    entries = ((col_plus[0], col_minus[0]), (col_plus[1], col_minus[1]))
    return SectorMatrix(n=n, sector=sector, entries=entries)


# ---------------------------------------------------------------------------
# closed spectral formulas, normalized by the action on 1
# ---------------------------------------------------------------------------

def expected_sector_matrix(which, pp: ParamPair, sector: str,
                           n: int) -> SectorMatrix:
    """The printed action of R1, R2, R3 or "rhat" divided by the printed
    action on the constant 1."""
    if which == "rhat":
        return expected_composite_matrix(pp, sector, n)
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    poch = rising_factorial
    zero = Q(0)
    if which == 3:
        x, y = u1 - v3, u1 - u3
        phi_plus = poch(x + 1, n) / poch(y + 1, n)
        phi_minus = (u2 - v3) / (u2 - u3) * (y / x) * poch(x, n) / poch(y, n)
        mix = (u2 - u1) * (u3 - v3) / ((u2 - u3) * x) * poch(x, n) / poch(y + 1, n)
        psi_plus = phi_plus
        psi_minus = (u2 - v3) / (u2 - u3) * poch(x + 1, n) / poch(y + 1, n)
        even = ((phi_plus, mix), (zero, phi_minus))
    elif which == 1:
        x, w = u1 - v3, v1 - v3
        phi_plus = poch(x + 1, n) / poch(w + 1, n)
        phi_minus = (u1 - v2) / (v1 - v2) * (w / x) * poch(x, n) / poch(w, n)
        mix = (v3 - v2) * (u1 - v1) / ((v1 - v2) * x) * poch(x, n) / poch(w + 1, n)
        psi_plus = (u1 - v2) / (v1 - v2) * poch(x + 1, n) / poch(w + 1, n)
        psi_minus = poch(x + 1, n) / poch(w + 1, n)
        even = ((phi_plus, mix), (zero, phi_minus))
    elif which == 2:
        denom = (u2 - u1) * (v2 - v3)
        phi_plus = (u2 - v3) * (v2 - u1) / denom
        mix_down = -(u1 - v3 + n) * (v2 - u2) / denom
        phi_minus = Q(1)
        psi_plus = (v2 - u1) / (u2 - u1)
        psi_minus = (u2 - v3) / (v2 - v3)
        even = ((phi_plus, zero), (mix_down, phi_minus))
    else:
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    if sector == "even":
        return SectorMatrix(n=n, sector="even", entries=even)
    return SectorMatrix(n=n, sector="odd",
                        entries=((psi_plus, zero), (zero, psi_minus)))


def sector_levels(nmax: int) -> list[tuple[int, str]]:
    """The (n, sector) levels compared entrywise, in order, for n <= nmax.

    At n = 0 the even basis degenerates (Phi0+ = Phi0- = 1); the anchor
    fact there is op(1) = 1, asserted via the odd n = 0 row plus
    normalization, so even comparisons start at n = 1.
    """
    return [(n, sector) for n in range(nmax + 1)
            for sector in (("even", "odd") if n else ("odd",))]


def check_sector(which: int, pp: ParamPair, nmax: int = 3,
                 nsites: int = 2) -> CheckReport:
    """Computed sector matrices equal the printed ones for n <= nmax."""
    report = CheckReport(check_name=f"spectrum-R{which}", params=pp.render(),
                         max_degree=nmax)
    with report.timed(SingularParameters, NotInSpan):
        guard_factor(which, pp, nmax)
        op = build_r(which, pp, nsites=nsites, max_degree=nmax + 1)
        one = SuperPolynomial.one(nsites)
        if op.apply(one) != one:
            report.add_failure("n=0 anchor", op.apply(one).text(), "1", "-")
        for n, sector in sector_levels(nmax):
            got = sector_action(op, sector, n, nsites)
            want = expected_sector_matrix(which, pp, sector, n)
            if got.entries != want.entries:
                report.add_failure(f"{sector} n={n}", str(got.entries),
                                   str(want.entries), "-")
    return report


def _composite_b(pp: ParamPair, n: int) -> Fraction:
    """The bracket (u2-u3)(v2-v1) + (u2-v2)(n+v1-u3) of the even diagonal."""
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    return (u2 - u3) * (v2 - v1) + (u2 - v2) * (n + v1 - u3)


def mixing_constant(pp: ParamPair) -> Fraction:
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    return ((u2 - v3) * (v2 - u3) * (u1 - v1)
            + (v2 - u1) * (v1 - u2) * (v3 - u3)
            + (u1 - v1) * (u2 - v2) * (u3 - v3))


def expected_composite_matrix(pp: ParamPair, sector: str,
                              n: int) -> SectorMatrix:
    """Printed composite action divided by its value on the constant 1.

    The printed even line for Phi_n^+ carries two different Gamma ratios on
    the "same" vector; its second term is the Phi_n^+ -> Phi_n^- mixing
    (the label is a typo, exactly like the printed Psi^- line), which is
    what makes the action on the constant at n = 0 consistent and the
    Phi^+ diagonal step equal (n+u1-v3)/(n+v1-u3).
    """
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    poch = rising_factorial
    x, s = u1 - v3, v1 - u3
    b0 = _composite_b(pp, 0)
    if sector == "even":
        phi_plus = ((u2 - u3) * (v2 - v1)
                    * poch(x + 1, n) / poch(s + 1, n) / b0)
        mix_down = (u2 - v2) * s * poch(x + 1, n) / poch(s, n) / b0
        phi_minus = ((u2 - u1) * (v2 - v3) * (s / x)
                     * poch(x, n) / poch(s, n) / b0)
        mix_up = mixing_constant(pp) * poch(x, n) / (x * poch(s + 1, n) * b0)
        return SectorMatrix(n=n, sector="even",
                            entries=((phi_plus, mix_up), (mix_down, phi_minus)))
    psi_plus = (v2 - u1) * (v2 - u3) * poch(x + 1, n) / poch(s + 1, n) / b0
    psi_minus = (u2 - v1) * (u2 - v3) * poch(x + 1, n) / poch(s + 1, n) / b0
    return SectorMatrix(n=n, sector="odd",
                        entries=((psi_plus, Q(0)), (Q(0), psi_minus)))


def check_composite(pp: ParamPair, nmax: int = 3,
                    nsites: int = 2) -> CheckReport:
    """Composite spectra vs the printed formulas, entrywise and as the
    normalization-free ratios (odd-entry ratio, mixing over diagonal with
    the constant C, and the Gamma-ratio recurrences across n)."""
    u1, u2, u3 = pp.u.as_tuple()
    v1, v2, v3 = pp.v.as_tuple()
    report = CheckReport(check_name="spectrum-composite", params=pp.render(),
                         max_degree=nmax)
    report.notes.append(
        "paper-typo-note: the printed odd line sends Psi_n^- to Psi_n^+, "
        "contradicting B-eigenvalue conservation; verified as Psi_n^- -> "
        "Psi_n^- with the printed coefficient")
    x, s = u1 - v3, v1 - u3
    with report.timed(SingularParameters, NotInSpan):
        # n = 0 anchor: the normalized operator fixes 1 (even basis is
        # degenerate there, so 2x2 comparisons start at n = 1)
        op = build_rhat(pp, nsites=nsites, max_degree=nmax + 1)
        one = SuperPolynomial.one(nsites)
        if op.apply(one) != one:
            report.add_failure("n=0 anchor", op.apply(one).text(), "1", "-")
        even_prev = odd_prev = None
        for n in range(nmax + 1):
            even = sector_action(op, "even", n, nsites) if n >= 1 else None
            odd = sector_action(op, "odd", n, nsites)
            ow = expected_composite_matrix(pp, "odd", n)
            if odd.entries != ow.entries:
                report.add_failure(f"odd n={n}", str(odd.entries),
                                   str(ow.entries), "-")
            psi_p, psi_m = odd.entries[0][0], odd.entries[1][1]
            want_ratio = ((u2 - v1) * (u2 - v3)) / ((v2 - u1) * (v2 - u3))
            if psi_m / psi_p != want_ratio:
                report.add_failure(f"odd ratio n={n}", str(psi_m / psi_p),
                                   str(want_ratio), "-")
            if n >= 1:
                ew = expected_composite_matrix(pp, "even", n)
                if even.entries != ew.entries:
                    report.add_failure(f"even n={n}", str(even.entries),
                                       str(ew.entries), "-")
                mix, phi_m = even.entries[0][1], even.entries[1][1]
                want_mix = (mixing_constant(pp)
                            / ((u2 - u1) * (v2 - v3) * (n + s)))
                if mix / phi_m != want_mix:
                    report.add_failure(f"mix/diag n={n}", str(mix / phi_m),
                                       str(want_mix), "-")
                got = odd.entries[0][0] / odd_prev.entries[0][0]
                if got != (n + x) / (n + s):
                    report.add_failure(f"Psi+ step n={n}", str(got),
                                       str((n + x) / (n + s)), "-")
            if n >= 2:
                got = even.entries[0][0] / even_prev.entries[0][0]
                want = (n + x) / (n + s)
                if got != want:
                    report.add_failure(f"Phi+ diag step n={n}", str(got),
                                       str(want), "-")
            even_prev, odd_prev = even, odd
    return report


# ---------------------------------------------------------------------------
# conjugator substitution oracles
# ---------------------------------------------------------------------------

def check_conjugator_oracles(nmax: int = 3, nsites: int = 2) -> CheckReport:
    """The exponential conjugators reproduce the substitution formulas.

    These identities validate the terminating-exponential implementation of
    S1, S2, S3 against the closed-form images of the lowest vectors.
    """
    report = CheckReport(check_name="conjugator-oracles", max_degree=nmax)

    def expect(label, got, want):
        if got != want:
            report.add_failure(label, got.text(), want.text(),
                               (got - want).text())

    with report.timed():
        z1, z2, th1, thb1, th2, thb2 = _vars(nsites)
        z12 = z1 - z2
        s3, _ = conjugator(3, (1, 2), nsites)
        s1, _ = conjugator(1, (1, 2), nsites)
        s2e, _ = conjugator_r2_even((1, 2), nsites)
        t12, tb12 = theta_12(nsites), theta_bar_12(nsites)
        w = z12 + th1 * thb2
        for n in range(nmax + 1):
            phi_p, phi_m = sector_basis("even", n, nsites)
            psi_p, psi_m = sector_basis("odd", n, nsites)
            expect(f"S3 Phi{n}+", s3.apply(phi_p), z1 ** n)
            expect(f"S3 Phi{n}-", s3.apply(phi_m), (z1 - th1 * thb1) ** n)
            expect(f"S3 Psi{n}+", s3.apply(psi_p), thb1 * z1 ** n)
            expect(f"S3 Psi{n}-", s3.apply(psi_m), th1 * z1 ** n)
            expect(f"S1 Phi{n}+", s1.apply(phi_p), (-1 * z2) ** n)
            # the printed image -z1-th2*thb2 is a typo for -z2-th2*thb2
            expect(f"S1 Phi{n}-", s1.apply(phi_m), (-1 * z2 - th2 * thb2) ** n)
            expect(f"S2even Phi{n}-", s2e.apply(phi_m), w ** n)
            expect(f"S2even Phi{n}+", s2e.apply(phi_p), (w + t12 * tb12) ** n)
            expect(f"S2even Psi{n}+", s2e.apply(psi_p), tb12 * w ** n)
            expect(f"S2even Psi{n}-", s2e.apply(psi_m), t12 * w ** n)
    return report
