from fractions import Fraction as Q
from math import gcd

import pytest

from ybsl21.lax import SpectralTriple
from ybsl21.opalg import (Cached, DegreeDiagonal, MulOdd, MulZ, OddDeriv,
                          PochhammerSpec, Scalar, SwapSites, compose,
                          equal_on_degree, op_sum)
from ybsl21.rops import (ParamPair, SingularParameters, _rhat_stages,
                         build_full_R,
                         build_r, build_rhat, check_defining,
                         check_factorization, check_lemma_system,
                         check_recurrences, check_ybe, conjugator,
                         guard_factor, pair_guard, total_generator,
                         weight_shift)
from ybsl21.sl21 import Weight
from ybsl21.superpoly import (SuperPolynomial, enumerate_basis, monomial_poly,
                              theta, theta_bar)

PP = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2), Q(-3, 2))
ONE = SuperPolynomial.one(2)


def test_guards_reject_singular_sets():
    with pytest.raises(SingularParameters):
        guard_factor(3, ParamPair.from_rationals(1, 2, 3, 4, 5, 3), 2)
    with pytest.raises(SingularParameters):
        guard_factor(2, ParamPair.from_rationals(1, 2, 3, 4, 2, 6), 2)
    with pytest.raises(SingularParameters):
        # u1 - v3 a nonpositive integer in range
        guard_factor(1, ParamPair.from_rationals(1, 2, 3, 4, 5, 2), 2)
    pair_guard(PP, 2)


def test_exchanged_swaps_one_slot():
    u1, u2, u3 = PP.u.as_tuple()
    v1, v2, v3 = PP.v.as_tuple()
    assert PP.exchanged(1) == ParamPair.from_rationals(v1, u2, u3,
                                                       u1, v2, v3)
    for k in (1, 2, 3):
        assert PP.exchanged(k) != PP
        assert PP.exchanged(k).exchanged(k) == PP
    assert _rhat_stages(PP) == [
        (1, ParamPair.from_rationals(u1, v2, v3, v1, u2, u3)),
        (2, ParamPair.from_rationals(u1, u2, v3, v1, v2, u3)),
        (3, PP),
    ]
    with pytest.raises(ValueError):
        PP.exchanged(4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_normalization_fixes_constant(k):
    r = build_r(k, PP)
    assert r.apply(ONE) == ONE


def test_r2_action_on_psi0_plus():
    # thb12 at n = 0: the printed ratio after normalization is
    # (v2-u1)/(u2-u1)
    thb12 = SuperPolynomial.odd_var(theta_bar(1), 2) - \
        SuperPolynomial.odd_var(theta_bar(2), 2)
    r2 = build_r(2, PP)
    want = (PP.v.u2 - PP.u.u1) / (PP.u.u2 - PP.u.u1)
    assert r2.apply(thb12) == want * thb12


def test_r3_eigenvalue_oracle():
    # (u1,u2,u3,v3) = (3,2,1,0): eigenvalue ratio on Phi1+ relative to
    # Phi0+ is (u1-v3+1)_1/(u1-u3+1)_1 = 4/3, via direct application
    pp = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(10), Q(30), Q(0))
    r3 = build_r(3, pp)
    from ybsl21.lowest import sector_basis
    phi1p, _ = sector_basis("even", 1)
    assert r3.apply(phi1p) == Q(4, 3) * phi1p


@pytest.mark.parametrize("k", [1, 2, 3])
def test_defining_equations(k):
    assert check_defining(k, PP, max_degree=2).passed


def test_defining_trivial_exchange():
    pp = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2), Q(1))
    # u3 = v3: R3 degenerates to the identity and both sides coincide
    assert check_defining(3, pp, max_degree=1).passed


def test_defining_detects_kernel_mutation():
    # rebuild R1 with f1 replaced by f1 + 1; the defining equation must fail
    from ybsl21.lax import build_lax
    from ybsl21.lax import matrices_equal
    pp = PP
    x, y = pp.u.u1 - pp.v.u3, pp.v.u1 - pp.v.u3
    f1_bad = (pp.v.u1 - pp.v.u2) / (pp.u.u1 - pp.v.u1) + 1
    p_main = DegreeDiagonal(2, PochhammerSpec([x + 1], [y + 1]))
    p_mix = DegreeDiagonal(2, PochhammerSpec([x], [y + 1]))
    bad_kernel = compose(p_main, op_sum(
        Scalar(f1_bad),
        compose(MulOdd(theta_bar(2)), OddDeriv(theta_bar(2))))) - \
        compose(Scalar(Q(1) / x), p_mix, MulZ(2),
                OddDeriv(theta(2)), OddDeriv(theta_bar(2)))
    s, s_inv = conjugator(1)
    bad_op = compose(s_inv, bad_kernel, s)
    l1 = build_lax(1, pp.u, "chiral", nsites=2)
    l2 = build_lax(2, pp.v, "chiral", nsites=2)
    xu, xv = (pp.v.u1, pp.u.u2, pp.u.u3), (pp.u.u1, pp.v.u2, pp.v.u3)
    l1x = build_lax(1, SpectralTriple(*xu), "chiral", nsites=2)
    l2x = build_lax(2, SpectralTriple(*xv), "chiral", nsites=2)
    lhs = (l1 @ l2).wrap_left(bad_op)
    rhs = (l1x @ l2x).wrap_right(bad_op)
    assert not matrices_equal(lhs, rhs, 1, nsites=2).passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lemma_systems(k):
    assert check_lemma_system(k, PP, max_degree=2).passed


def test_recurrences():
    assert check_recurrences(PP, nmax=4).passed


def test_recurrence_functions_match_closed_forms():
    from ybsl21.opalg import rising_factorial
    from ybsl21.rops import r3_diagonal_functions
    a, b, c = r3_diagonal_functions(PP, 3)
    x, y = PP.u.u1 - PP.v.u3, PP.u.u1 - PP.u.u3
    f3 = (PP.u.u2 - PP.u.u3) / (PP.u.u3 - PP.v.u3)
    for n in range(4):
        want_a = f3 * rising_factorial(x + 1, n) / rising_factorial(y + 1, n)
        assert a[n] == want_a
        assert b[n] == (PP.u.u3 - PP.v.u3) / (PP.u.u2 - PP.u.u3) * a[n]
    for n in range(1, 4):
        want_c = (rising_factorial(x, n)
                  / (x * rising_factorial(y + 1, n)))
        assert c[n] == want_c


def test_factorization_master_equation():
    assert check_factorization(PP, max_degree=2).passed


def test_rhat_trivial_is_identity():
    w = Weight(Q(1), Q(1, 3))
    pp = ParamPair.from_weights(w, w, Q(2), Q(2))
    rhat = build_rhat(pp)
    assert equal_on_degree(rhat, Scalar(1), 3).passed


def test_rhat_fixes_constant():
    assert build_rhat(PP).apply(ONE) == ONE


def _cached_within(op):
    if isinstance(op, Cached):
        yield op
    for sub in (getattr(op, "op", None), *getattr(op, "ops", ())):
        if sub is not None:
            yield from _cached_within(sub)


def test_cached_columns_stay_reduced():
    rhat = build_rhat(PP)
    for m in enumerate_basis(2, 2):
        rhat.apply(monomial_poly(m))
    caches = list(_cached_within(rhat))
    assert len(caches) == 4          # Rcheck and its three factors
    for cached in caches:
        assert cached._images
        for col in cached._images.values():
            assert col.den > 0
            assert all(col.terms.values())
            assert gcd(col.den, *col.terms.values()) == 1


def test_full_r_examples():
    th1th2 = SuperPolynomial.odd_var(theta(1), 2) * \
        SuperPolynomial.odd_var(theta(2), 2)
    swap = SwapSites(1, 2)
    assert swap.apply(th1th2) == -1 * th1th2
    assert equal_on_degree(compose(swap, swap), Scalar(1), 3).passed
    w = Weight(Q(1), Q(1, 3))
    pp = ParamPair.from_weights(w, w, Q(1), Q(1))
    full = build_full_R(pp)
    assert equal_on_degree(full, swap, 3).passed


def test_conjugator_inverses():
    for k in (1, 2, 3):
        s, s_inv = conjugator(k)
        assert equal_on_degree(compose(s, s_inv), Scalar(1), 4).passed
        assert equal_on_degree(compose(s_inv, s), Scalar(1), 4).passed


def test_degree_measure_preserved():
    ops = [build_r(k, PP, max_degree=4) for k in (1, 2, 3)]
    ops.append(build_rhat(PP, max_degree=4))
    for m in enumerate_basis(4, 2):
        mu = {Q(2 * m.z_degree + m.odd_count, 2)}
        pm = monomial_poly(m)
        for op in ops:
            img = op.apply(pm)
            if not img.is_zero():
                assert img.degree_measure() == mu


def test_weight_shifts():
    w1, w2 = Weight(Q(1), Q(0)), Weight(Q(1, 2), Q(1, 4))
    pp = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1), Q(1), Q(1))
    # k=2 with u2 - v2 = 1
    s1, s2 = weight_shift(2, w1, w2, pp)
    assert (s1.ell, s1.b) == (Q(1), Q(-1))
    assert (s2.ell, s2.b) == (Q(1, 2), Q(5, 4))
    # k=1 with u1 = v1: unchanged
    pp_eq = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(3), Q(5), Q(7))
    s1, s2 = weight_shift(1, w1, w2, pp_eq)
    assert (s1.ell, s1.b, s2.ell, s2.b) == (Q(1), Q(0), Q(1, 2), Q(1, 4))
    # k=3 with xi3 = 1/2
    pp3 = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(5), Q(6), Q(0))
    s1, s2 = weight_shift(3, w1, w2, pp3)
    assert (s1.ell, s1.b) == (Q(3, 2), Q(1, 2))
    assert (s2.ell, s2.b) == (Q(0), Q(-1, 4))


def test_rhat_commutes_with_totals_at_equal_weights():
    # equal exchanged weights: Rcheck is invariant under the total algebra
    w = Weight(Q(1), Q(1, 3))
    pp = ParamPair.from_weights(w, w, Q(2), Q(1, 2))
    rhat = build_rhat(pp)
    for name in ("S", "B", "S+", "S-", "V+", "V-", "W+", "W-"):
        tot = total_generator(name, w, w)
        r = equal_on_degree(compose(rhat, tot), compose(tot, rhat), 2,
                            name=f"[rhat,{name}]")
        assert r.passed, name


def test_singular_parameters_propagate():
    pp = ParamPair.from_rationals(1, 2, 3, 4, 5, 3)  # u3 == v3 is fine...
    # ...but u2 == u3 (2 vs 3 ok) -- use an actually singular set
    bad = ParamPair.from_rationals(1, 2, 2, 4, 5, 6)
    with pytest.raises(SingularParameters):
        build_r(3, bad)
    report = check_defining(3, bad, max_degree=1)
    assert report.status == "error"


def test_ybe_low_degree():
    r = check_ybe(Weight(Q(1), Q(1, 3)), Weight(Q(1, 2), Q(-2, 5)),
                  Weight(Q(3, 2), Q(2, 7)), Q(2), Q(1, 2), max_degree=1)
    assert r.passed
    assert any("scalar" in n for n in r.notes)


def test_ybe_equal_spectral_degenerates():
    r = check_ybe(Weight(Q(1), Q(1, 3)), Weight(Q(1, 2), Q(-2, 5)),
                  Weight(Q(3, 2), Q(2, 7)), Q(2), Q(2), max_degree=1)
    assert r.passed
