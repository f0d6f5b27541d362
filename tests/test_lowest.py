import pickle
import sys
from fractions import Fraction as Q

import pytest

from ybsl21 import cli, lowest, rops
from ybsl21.linsolve import solve_in_span
from ybsl21.lowest import (NotInSpan, check_composite,
                           check_conjugator_oracles, check_sector, decompose,
                           interval, lowest_vector, mixing_constant,
                           sector_action, sector_basis, sector_levels,
                           sector_pivots, verify_lowest)
from ybsl21.opalg import Cached, Scalar, compose
from ybsl21.rops import ParamPair, build_r, build_rhat, two_site_vars
from ybsl21.sl21 import Weight
from ybsl21.superpoly import SuperPolynomial
from support import PP


def test_phi0_is_one():
    assert lowest_vector("even", "+", 0).poly == SuperPolynomial.one()


def test_phi1_plus_expansion():
    # the interval is dressed: z1 - z2 + (th1 thb2 - th2 thb1)/2
    z1, z2, th1, thb1, th2, thb2 = two_site_vars()
    want = (z1 - z2 + Q(1, 2) * (th1 * thb2) - Q(1, 2) * (th2 * thb1)
            + Q(1, 2) * ((th1 - th2) * (thb1 - thb2)))
    assert lowest_vector("even", "+", 1).poly == want


def test_psi1_minus_expansion():
    z1, z2, th1, thb1, th2, thb2 = two_site_vars()
    want = (th1 - th2) * interval()
    assert lowest_vector("odd", "-", 1).poly == want


@pytest.mark.parametrize("sector,sign,n", [
    ("even", "+", 1), ("even", "-", 2), ("even", "+", 3),
    ("odd", "+", 0), ("odd", "-", 1), ("odd", "+", 2),
])
def test_lowest_weight_conditions(sector, sign, n):
    w1, w2 = Weight(Q(1), Q(0)), Weight(Q(1, 2), Q(1, 4))
    v = lowest_vector(sector, sign, n)
    assert verify_lowest(v, w1, w2).passed


def test_total_s_eigenvalue_example():
    # S_tot Phi2+ at (1,0) x (1/2,1/4): eigenvalue 2 + 3/2 = 7/2
    from ybsl21.sl21 import build_generators
    w1, w2 = Weight(Q(1), Q(0)), Weight(Q(1, 2), Q(1, 4))
    g1 = build_generators(1, w1)
    g2 = build_generators(2, w2)
    v = lowest_vector("even", "+", 2).poly
    assert (g1["S"] + g2["S"]).apply(v) == Q(7, 2) * v
    # B_tot Psi1+ = (b1 + b2 + 1/2) Psi1+
    p = lowest_vector("odd", "+", 1).poly
    assert (g1["B"] + g2["B"]).apply(p) == Q(3, 4) * p


def test_s_minus_annihilates():
    from ybsl21.sl21 import build_generators
    g1 = build_generators(1, Weight(Q(1), Q(0)))
    g2 = build_generators(2, Weight(Q(1, 2), Q(1, 4)))
    for n in range(4):
        v = lowest_vector("even", "+", n).poly
        assert (g1["S-"] + g2["S-"]).apply(v).is_zero()


def test_decompose_examples():
    plus, minus = sector_basis("even", 1)
    c = decompose(plus + Q(2) * minus, 1, "even")
    assert c == (Q(1), Q(2))
    # Phi1+ + Phi1- = 2 Z12 (the dressed interval)
    c = decompose(Q(2) * interval(), 1, "even")
    assert c == (Q(1), Q(1))
    z1, z2, th1, _, _, _ = two_site_vars()
    with pytest.raises(NotInSpan):
        decompose(th1, 1, "odd")
    # the bare difference z1 - z2 is outside the dressed even span
    bare = z1 - z2
    with pytest.raises(NotInSpan):
        decompose(bare, 1, "even")



LEVELS = [(sector, n) for n in range(7) for sector in ("even", "odd")]
#: (c+, c-) pairs: integers, zeros, and rationals that give the target a
#: denominator other than 1
PAIRS = [(Q(1), Q(2)), (Q(-3), Q(0)), (Q(0), Q(5)), (Q(0), Q(0)),
         (Q(3, 7), Q(-5, 4)), (Q(1, 2), Q(1, 2)), (Q(-2, 9), Q(4))]


@pytest.mark.parametrize("sector,n", LEVELS)
def test_decompose_reads_off_the_solve_in_span_pair(sector, n):
    plus, minus = sector_basis(sector, n)
    assert (sector_pivots(sector, n) is None) == ((sector, n) == ("even", 0))
    for cp, cm in PAIRS:
        p = cp * plus + cm * minus
        want = tuple(solve_in_span([plus, minus], p))
        assert decompose(p, n, sector) == want
        if (sector, n) != ("even", 0):
            assert want == (cp, cm)
    # scaling every numerator and the denominator alike leaves the value
    p = Q(3, 7) * plus - Q(5, 4) * minus
    wide = SuperPolynomial({m: 6 * c for m, c in p.terms.items()}, 6 * p.den)
    assert decompose(wide, n, sector) == decompose(p, n, sector)


@pytest.mark.parametrize("sector,n", [lv for lv in LEVELS
                                      if lv != ("even", 0)])
def test_a_stray_term_off_the_pivots_is_not_in_span(sector, n):
    # p agrees with a span member on both pivot monomials, so the read-off
    # alone would accept it; the membership check must not
    plus, minus = sector_basis(sector, n)
    a, b, _ = sector_pivots(sector, n)
    member = Q(2, 3) * plus + Q(-1, 5) * minus
    support = sorted(member.terms.keys() - {a, b})
    outside = max(plus.terms.keys() | minus.terms.keys()) + 1
    for m in ([support[0]] if support else []) + [outside]:
        p = member + Q(1, 7) * SuperPolynomial({m: 1})
        assert p.coefficient(a) == member.coefficient(a)
        assert p.coefficient(b) == member.coefficient(b)
        with pytest.raises(NotInSpan, match=rf"decompose\({sector}, n={n}\)"):
            decompose(p, n, sector)


@pytest.mark.parametrize("sector,n", LEVELS)
def test_a_multiple_of_plus_decomposes_to_it_alone(sector, n):
    plus, _ = sector_basis(sector, n)
    assert decompose(Q(-7, 3) * plus, n, sector) == (Q(-7, 3), Q(0))


def test_the_degenerate_even_level_keeps_the_solve_in_span_answer():
    # Phi0+ = Phi0- = 1: the first column pivots, so c- = 0
    one = SuperPolynomial.one()
    assert sector_basis("even", 0) == (one, one)
    assert decompose(Q(5, 3) * one, 0, "even") == (Q(5, 3), Q(0))
    assert decompose(Q(5, 3) * one, 0, "even") == \
        tuple(solve_in_span([one, one], Q(5, 3) * one))
    assert decompose(SuperPolynomial.zero(), 0, "even") == (0, 0)
    with pytest.raises(NotInSpan):
        decompose(SuperPolynomial.z_var(1), 0, "even")


def test_not_in_span_pickles_and_unpickles():
    poly = Q(1, 2) * SuperPolynomial.z_var(1) - SuperPolynomial.one()
    exc = NotInSpan(poly, "decompose(odd, n=2)")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is NotInSpan
    assert str(back) == str(exc) == \
        "decompose(odd, n=2): 1/2 z1 - 1 is outside the sector span"
    assert back.poly == poly and back.label == "decompose(odd, n=2)"


@pytest.mark.parametrize("which", [1, 2, 3])
def test_sector_matrices_match_printed(which):
    assert check_sector(which, PP, nmax=3).passed


def test_sector_worked_examples():
    # R3 even diagonal at (u1,u2,u3,v3) = (3,2,1,0), n=2: 5/3
    pp = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(10), Q(30), Q(0))
    m = sector_action(build_r(3, pp), "even", 2)
    assert m[0][0] == Q(5, 3)
    # R2 odd entries at (u1,u2,v2,v3) = (0,1,3,2): (3, -1)
    pp2 = ParamPair.from_rationals(Q(0), Q(1), Q(50), Q(77), Q(3), Q(2))
    mo = sector_action(build_r(2, pp2), "odd", 1)
    assert mo[0][0] == Q(3)
    assert mo[1][1] == Q(-1)
    assert mo[0][1] == 0 and mo[1][0] == 0


@pytest.mark.parametrize("pp", [
    PP, ParamPair.from_rationals(Q(5, 2), Q(1), Q(-1, 3), Q(7, 3), Q(4),
                                 Q(1, 5))])
@pytest.mark.parametrize("which", [1, 2, 3, "rhat"])
def test_uncached_operator_gives_the_cached_sector_matrices(pp, which):
    # build_r and build_rhat return uncached operators, applied here to
    # whole vectors
    op = (build_rhat(pp, max_degree=5) if which == "rhat"
          else build_r(which, pp, max_degree=5))
    cached = Cached(op)
    for n, sector in sector_levels(4):
        assert sector_action(op, sector, n) == sector_action(cached, sector, n)


def test_triangularity():
    # R1 and R3 mix Phi- into Phi+; R2 mixes Phi+ into Phi-
    for which, lower_zero in ((1, True), (3, True), (2, False)):
        m = sector_action(build_r(which, PP), "even", 2)
        if lower_zero:
            assert m[1][0] == 0 and m[0][1] != 0
        else:
            assert m[0][1] == 0 and m[1][0] != 0


def test_composite_matches_printed():
    assert check_composite(PP, nmax=3).passed


def test_composite_odd_ratio():
    rhat = build_rhat(PP)
    even, odd = sector_action(rhat, "even", 1), sector_action(rhat, "odd", 1)
    want = ((PP.u.u2 - PP.v.u1) * (PP.u.u2 - PP.v.u3)) / \
        ((PP.v.u2 - PP.u.u1) * (PP.v.u2 - PP.u.u3))
    assert odd[1][1] / odd[0][0] == want
    # mixing over diagonal involves the printed constant C
    s = PP.v.u1 - PP.u.u3
    want_mix = mixing_constant(PP) / ((PP.u.u2 - PP.u.u1) * (PP.v.u2 - PP.v.u3)
                                      * (1 + s))
    assert even[0][1] / even[1][1] == want_mix


def test_composite_gamma_step():
    x, s = PP.u.u1 - PP.v.u3, PP.v.u1 - PP.u.u3
    rhat = build_rhat(PP)
    prev = sector_action(rhat, "odd", 1)
    cur = sector_action(rhat, "odd", 2)
    assert cur[0][0] / prev[0][0] == (2 + x) / (2 + s)
    prev_e = sector_action(rhat, "even", 2)
    cur_e = sector_action(rhat, "even", 3)
    assert cur_e[0][0] / prev_e[0][0] == (3 + x) / (3 + s)


def _matmul(m, k):
    return tuple(tuple(sum(m[i][t] * k[t][j] for t in range(2))
                       for j in range(2)) for i in range(2))


@pytest.mark.parametrize("seed", range(4))
def test_printed_composite_is_the_product_of_printed_factors(seed):
    # Rcheck = R1 R2 R3 with the factorization's argument threading, so the
    # printed composite matrix is M1 M2 M3 (column j the image of basis
    # vector j) on every level the spectra compare
    for pp in cli.sample_params(seed, 3, 4):
        stages = rops._rhat_stages(pp)
        for n, sector in sector_levels(39):
            m1, m2, m3 = (lowest.expected_sector_matrix(k, stage, sector, n)
                          for k, stage in stages)
            assert (lowest.expected_composite_matrix(pp, sector, n)
                    == _matmul(_matmul(m1, m2), m3)), (pp.render(), sector, n)


def test_span_preservation():
    rhat = build_rhat(PP)
    sector_action(rhat, "even", 3)   # raises NotInSpan if span breaks
    rhat_odd = sector_action(rhat, "odd", 3)
    assert rhat_odd[0][1] == 0 and rhat_odd[1][0] == 0


def _doubled(build):
    """`build` with its operator scaled by 2: the anchor and every sector
    entry are off by a factor 2, every ratio of entries is unchanged."""
    return lambda *args, **kwargs: compose(Scalar(2), build(*args, **kwargs))


def test_sector_check_fails_on_a_perturbed_operator(monkeypatch):
    monkeypatch.setattr(lowest, "build_r", _doubled(build_r))
    r = check_sector(3, PP, nmax=1)
    assert r.status == "fail" and not r.notes
    assert [f.input for f in r.failures] == ["n=0 anchor", "odd n=0",
                                             "even n=1", "odd n=1"]


def test_composite_check_fails_entrywise_on_a_perturbed_operator(monkeypatch):
    monkeypatch.setattr(lowest, "build_rhat", _doubled(build_rhat))
    r = check_composite(PP, nmax=2)
    # the ratio checks pass and divide by no zero: only the anchor and the
    # entrywise comparisons fail
    assert r.status == "fail" and len(r.notes) == 1
    assert [f.input for f in r.failures] == ["n=0 anchor", "odd n=0",
                                             "odd n=1", "even n=1", "odd n=2"]


@pytest.mark.parametrize("check, builds", [
    (lambda: check_sector(1, PP, nmax=3), 1),
    (lambda: check_sector(2, PP, nmax=3), 1),
    (lambda: check_sector(3, PP, nmax=3), 1),
    (lambda: check_composite(PP, nmax=3), 3),
    (lambda: cli.spectrum_table(cli.RunConfig(command="spectrum", seed=1)), 6),
], ids=["sector-R1", "sector-R2", "sector-R3", "composite", "spectrum-table"])
def test_each_operator_built_once(monkeypatch, check, builds):
    # a sector check builds its operator once and reuses it at every level;
    # Rcheck costs three builds, one per factor
    calls = []
    real = rops.build_r

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ybsl21.") and getattr(mod, "build_r", None) is real:
            monkeypatch.setattr(mod, "build_r", counting)
    check()
    assert len(calls) == builds


def test_sector_vectors_are_remembered_by_the_conjugators():
    sector_basis.cache_clear()   # whatever conjugators this process holds
    for sector, n in (("even", 2), ("odd", 0), ("odd", 3)):
        basis = sector_basis(sector, n)
        for k in (1, 2, 3):
            s = rops.conjugator(k)[0]
            for v in basis:
                kept, image = s._vectors[id(v)]
                assert kept is v
                assert image == Cached(s.op).apply(v)


def test_conjugator_oracles():
    assert check_conjugator_oracles(nmax=3).passed
