import sys
from fractions import Fraction as Q

import pytest

from ybsl21 import cli, rops
from ybsl21.lowest import (NotInSpan, check_composite,
                           check_conjugator_oracles, check_sector, decompose,
                           interval, lowest_vector, mixing_constant,
                           sector_action, sector_basis, verify_lowest)
from ybsl21.rops import ParamPair, build_r, build_rhat
from ybsl21.sl21 import Weight
from ybsl21.superpoly import SuperPolynomial, theta, theta_bar

PP = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2), Q(-3, 2))


def _vars():
    z1 = SuperPolynomial.z_var(1, 2)
    z2 = SuperPolynomial.z_var(2, 2)
    th1 = SuperPolynomial.odd_var(theta(1), 2)
    thb1 = SuperPolynomial.odd_var(theta_bar(1), 2)
    th2 = SuperPolynomial.odd_var(theta(2), 2)
    thb2 = SuperPolynomial.odd_var(theta_bar(2), 2)
    return z1, z2, th1, thb1, th2, thb2


def test_phi0_is_one():
    assert lowest_vector("even", "+", 0).poly == SuperPolynomial.one(2)


def test_phi1_plus_expansion():
    # the interval is dressed: z1 - z2 + (th1 thb2 - th2 thb1)/2
    z1, z2, th1, thb1, th2, thb2 = _vars()
    want = (z1 - z2 + Q(1, 2) * (th1 * thb2) - Q(1, 2) * (th2 * thb1)
            + Q(1, 2) * ((th1 - th2) * (thb1 - thb2)))
    assert lowest_vector("even", "+", 1).poly == want


def test_psi1_minus_expansion():
    z1, z2, th1, thb1, th2, thb2 = _vars()
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
    g1 = build_generators(1, w1, nsites=2)
    g2 = build_generators(2, w2, nsites=2)
    v = lowest_vector("even", "+", 2).poly
    assert (g1["S"] + g2["S"]).apply(v) == Q(7, 2) * v
    # B_tot Psi1+ = (b1 + b2 + 1/2) Psi1+
    p = lowest_vector("odd", "+", 1).poly
    assert (g1["B"] + g2["B"]).apply(p) == Q(3, 4) * p


def test_s_minus_annihilates():
    from ybsl21.sl21 import build_generators
    g1 = build_generators(1, Weight(Q(1), Q(0)), nsites=2)
    g2 = build_generators(2, Weight(Q(1, 2), Q(1, 4)), nsites=2)
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
    th1 = SuperPolynomial.odd_var(theta(1), 2)
    with pytest.raises(NotInSpan):
        decompose(th1, 1, "odd")
    # the bare difference z1 - z2 is outside the dressed even span
    bare = SuperPolynomial.z_var(1, 2) - SuperPolynomial.z_var(2, 2)
    with pytest.raises(NotInSpan):
        decompose(bare, 1, "even")


@pytest.mark.parametrize("which", [1, 2, 3])
def test_sector_matrices_match_printed(which):
    assert check_sector(which, PP, nmax=3).passed


def test_sector_worked_examples():
    # R3 even diagonal at (u1,u2,u3,v3) = (3,2,1,0), n=2: 5/3
    pp = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(10), Q(30), Q(0))
    m = sector_action(build_r(3, pp), "even", 2)
    assert m.entries[0][0] == Q(5, 3)
    # R2 odd entries at (u1,u2,v2,v3) = (0,1,3,2): (3, -1)
    pp2 = ParamPair.from_rationals(Q(0), Q(1), Q(50), Q(77), Q(3), Q(2))
    mo = sector_action(build_r(2, pp2), "odd", 1)
    assert mo.entries[0][0] == Q(3)
    assert mo.entries[1][1] == Q(-1)
    assert mo.entries[0][1] == 0 and mo.entries[1][0] == 0


def test_triangularity():
    # R1 and R3 mix Phi- into Phi+; R2 mixes Phi+ into Phi-
    for which, lower_zero in ((1, True), (3, True), (2, False)):
        m = sector_action(build_r(which, PP), "even", 2)
        if lower_zero:
            assert m.entries[1][0] == 0 and m.entries[0][1] != 0
        else:
            assert m.entries[0][1] == 0 and m.entries[1][0] != 0


def test_composite_matches_printed():
    assert check_composite(PP, nmax=3).passed


def test_composite_odd_ratio():
    rhat = build_rhat(PP)
    even, odd = sector_action(rhat, "even", 1), sector_action(rhat, "odd", 1)
    want = ((PP.u.u2 - PP.v.u1) * (PP.u.u2 - PP.v.u3)) / \
        ((PP.v.u2 - PP.u.u1) * (PP.v.u2 - PP.u.u3))
    assert odd.entries[1][1] / odd.entries[0][0] == want
    # mixing over diagonal involves the printed constant C
    s = PP.v.u1 - PP.u.u3
    want_mix = mixing_constant(PP) / ((PP.u.u2 - PP.u.u1) * (PP.v.u2 - PP.v.u3)
                                      * (1 + s))
    assert even.entries[0][1] / even.entries[1][1] == want_mix


def test_composite_gamma_step():
    x, s = PP.u.u1 - PP.v.u3, PP.v.u1 - PP.u.u3
    rhat = build_rhat(PP)
    prev = sector_action(rhat, "odd", 1)
    cur = sector_action(rhat, "odd", 2)
    assert cur.entries[0][0] / prev.entries[0][0] == (2 + x) / (2 + s)
    prev_e = sector_action(rhat, "even", 2)
    cur_e = sector_action(rhat, "even", 3)
    assert cur_e.entries[0][0] / prev_e.entries[0][0] == (3 + x) / (3 + s)


def test_span_preservation():
    rhat = build_rhat(PP)
    sector_action(rhat, "even", 3)   # raises NotInSpan if span breaks
    rhat_odd = sector_action(rhat, "odd", 3)
    assert rhat_odd.entries[0][1] == 0 and rhat_odd.entries[1][0] == 0


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


def test_conjugator_oracles():
    assert check_conjugator_oracles(nmax=3).passed
