import hashlib
import json
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

import pytest

from ybsl21 import cli, lax, rops
from ybsl21.cli import main
from ybsl21.opalg import (Cached, Compose, DegreeDiagonal, DiffOp, MulZ,
                          OnSites, Scalar, SwapSites, compose,
                          equal_on_degree, op_sum)
from ybsl21.rops import (ParamPair, SingularParameters, _lax_pair,
                         _rhat_stages, build_full_R, build_r, build_rhat,
                         check_defining, check_factorization,
                         check_lemma_system, check_recurrences, check_ybe,
                         conjugator, conjugator_link, conjugator_r2_even,
                         guard_factor, pair_guard, total_generator,
                         weight_shift, ybe_pairs)
from ybsl21.sl21 import Weight
from ybsl21.superpoly import (ODD_MASK, SuperPolynomial, charge,
                              enumerate_basis, exponents, monomial_text)
from support import (ONE, PP, TH1, TH2, THB1, THB2, YBE, degree_measure,
                     mirror, mirrored, sp)

GOLDEN = Path(__file__).resolve().parent / "golden"


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
    thb12 = sp(THB1) - sp(THB2)
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


def test_defining_detects_kernel_mutation(monkeypatch):
    # f1 -> f1 + 1 in R1's kernel: the defining equation must fail
    real = rops.kernel

    def mutated(k, pp):
        if k != 1:
            return real(k, pp)
        x, y = pp.u.u1 - pp.v.u3, pp.v.u1 - pp.v.u3
        return op_sum(real(1, pp), DegreeDiagonal(2, x + 1, y + 1))

    assert check_defining(1, PP, max_degree=1).passed
    monkeypatch.setattr(rops, "kernel", mutated)
    assert check_defining(1, PP, max_degree=1).status == "fail"


#: sha256 of the eight failing reports of `test_failing_intertwining_reports`
FAILING_REPORTS_SHA256 = (
    "85f9e3a74086990f549e19b73a421651c4ec682009123e13aa5b0e883b53cafc")


def test_failing_intertwining_reports(monkeypatch):
    # every exchange operator gets a spurious degree-diagonal factor, then
    # entry (1,2) of every Lax matrix changes sign: the bytes of each
    # failing report, failures and their residuals included, are pinned
    build_r, build_lax = rops.build_r, lax.build_lax

    def skewed_r(k, pp, max_degree=4):
        return compose(DegreeDiagonal(2 if k == 1 else 1, Q(5, 2), Q(3, 2)),
                       build_r(k, pp, max_degree))

    def negated_lax(site, t, kind="chiral"):
        entries = [list(row) for row in build_lax(site, t, kind).entries]
        entries[0][1] = -1 * entries[0][1]
        return lax.SuperMatrixOperator(entries)

    monkeypatch.setattr(rops, "build_r", skewed_r)
    reports = []
    for k in (1, 2, 3):
        reports += [check_defining(k, PP, 2), check_lemma_system(k, PP, 2)]
    reports.append(check_factorization(PP, 2))
    monkeypatch.setattr(lax, "build_lax", negated_lax)
    reports.append(lax.check_rll(Weight(Q(1), Q(1, 3)), Q(2), Q(1, 2), 2))
    assert [r.status for r in reports] == ["fail"] * 8
    text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FAILING_REPORTS_SHA256


@pytest.mark.parametrize("op, mirror_op", [
    (lambda pp: build_r(1, pp), lambda pp: build_r(3, pp)),
    (lambda pp: build_r(3, pp), lambda pp: build_r(1, pp)),
    (lambda pp: build_r(2, pp), lambda pp: build_r(2, pp)),
    (build_rhat, build_rhat),
], ids=["R1-R3", "R3-R1", "R2-R2", "Rcheck-Rcheck"])
def test_r1_is_r3_in_a_mirror(op, mirror_op):
    # Sigma R1(pp) = R3(pp*) Sigma, and so on, on every basis monomial, for
    # the fixed pair and the three sampled pairs of each of seeds 0-2: R1 is
    # checked against R3 with no Lax matrix involved
    pairs = [PP, *(pp for seed in (0, 1, 2)
                   for pp in cli.sample_params(seed, 3, 2))]
    for pp in pairs:
        lhs, rhs = op(pp), mirror_op(mirrored(pp))
        for key in enumerate_basis(2):
            p = SuperPolynomial({key: 1})
            assert mirror(lhs.apply(p)) == rhs.apply(mirror(p)), \
                (pp.render(), monomial_text(key))


def test_conjugators_are_mirror_images():
    # S1 = Sigma S3 Sigma, also for the inverses, and S2 = Sigma S2 Sigma;
    # Sigma is an involution
    pairs = [(conjugator(1)[0], conjugator(3)[0]),
             (conjugator(1)[1], conjugator(3)[1]),
             (conjugator(2)[0], conjugator(2)[0])]
    for key in enumerate_basis(3):
        p = SuperPolynomial({key: 1})
        assert mirror(mirror(p)) == p
        for op, image in pairs:
            assert mirror(op.apply(p)) == image.apply(mirror(p)), \
                monomial_text(key)


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


def test_lax_products_are_single_normal_forms():
    # what the intertwining and lemma checks compare, entry by entry
    l1, l2 = _lax_pair(PP)
    for m in (l1 @ l2, l1 + l2):
        for row in m.entries:
            assert all(isinstance(entry, DiffOp) for entry in row)


def test_rhat_trivial_is_identity():
    w = Weight(Q(1), Q(1, 3))
    pp = ParamPair.from_weights(w, w, Q(2), Q(2))
    rhat = build_rhat(pp)
    assert equal_on_degree(rhat, Scalar(1), 3).passed


def test_rhat_fixes_constant():
    assert build_rhat(PP).apply(ONE) == ONE
    # so do the three lifted factors of the Yang-Baxter sides, which is why
    # check_ybe compares those sides with no scalar fitted
    for pp, sites in zip(ybe_pairs(*YBE), ((1, 2), (1, 3), (2, 3))):
        assert OnSites(build_full_R(pp), sites).apply(ONE) == ONE


def _cached_within(op):
    if isinstance(op, Cached):
        yield op
    for sub in (getattr(op, "op", None), *getattr(op, "ops", ())):
        if sub is not None:
            yield from _cached_within(sub)


def test_cached_columns_stay_reduced():
    full = Cached(build_full_R(PP))
    for m in enumerate_basis(2, 2):
        full.apply(SuperPolynomial({m: 1}))
    caches = list(_cached_within(full))
    # the dressed product, as check_ybe caches it, plus the two links and
    # S_k and S_k^-1, shared per process
    assert len(caches) == len({id(c) for c in caches}) == 1 + 2 + 6
    shared = [c for k in (1, 2, 3) for c in conjugator(k)]
    assert all(any(c is s for c in caches) for s in shared)
    for cached in caches:
        assert cached._images
        for col in cached._images.values():
            assert col.den > 0
            assert all(col.terms.values())
            assert gcd(col.den, *col.terms.values()) == 1


def test_exchange_operators_hold_only_the_shared_conjugator_caches():
    for k in (1, 2, 3):
        assert {id(c) for c in _cached_within(build_r(k, PP))} == \
            {id(c) for c in conjugator(k)}
    # Rcheck reaches the six conjugators through the two links built on them
    shared = {id(c) for k in (1, 2, 3) for c in conjugator(k)}
    shared |= {id(conjugator_link(1, 2)), id(conjugator_link(2, 3))}
    caches = list(_cached_within(build_rhat(PP)))
    assert len(caches) == 8 and {id(c) for c in caches} == shared


@pytest.mark.parametrize("check", [
    lambda: check_defining(1, PP, max_degree=1),
    lambda: check_lemma_system(3, PP, max_degree=1),
    lambda: check_factorization(PP, max_degree=1),
])
def test_basis_sweeps_cache_one_operator(check, monkeypatch):
    for k in (1, 2, 3):
        conjugator(k)            # the shared caches are not the sweep's
    conjugator_link(1, 2)
    conjugator_link(2, 3)
    created = []
    init = Cached.__init__

    def counting_init(self, op):
        created.append(op)
        init(self, op)

    monkeypatch.setattr(Cached, "__init__", counting_init)
    assert check().passed
    assert len(created) == 1


def test_conjugators_built_once():
    for k in (1, 2, 3):
        assert conjugator(k) is conjugator(k)
    assert conjugator_r2_even() is conjugator_r2_even()
    assert conjugator_link(1, 2) is conjugator_link(1, 2)


#: u2 = v2, so R2 is the identity and the product has no S2 to fuse
TRIVIAL_R2 = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(2),
                                      Q(-3, 2))


def _chain(op):
    return op.ops if isinstance(op, Compose) else (op,)


def _unfused_rhat(pp):
    """R1 R2 R3 at their threaded stages, with no conjugators fused."""
    return compose(*(build_r(k, stage) for k, stage in _rhat_stages(pp)))


@pytest.mark.parametrize("pp", [
    *(pp for seed in range(3) for pp in cli.sample_params(seed, 3, 4)),
    TRIVIAL_R2])
def test_fused_rhat_is_the_product_of_its_factors(pp):
    unfused = _unfused_rhat(pp)
    dressed = compose(SwapSites(1, 2), unfused)
    fused, full = build_rhat(pp), build_full_R(pp)
    for m in enumerate_basis(3):
        p = SuperPolynomial({m: 1})
        assert fused.apply(p) == unfused.apply(p), monomial_text(m)
        assert full.apply(p) == dressed.apply(p), monomial_text(m)


def test_rhat_chain_holds_the_links_and_no_adjacent_conjugators():
    chain = _chain(build_rhat(PP))
    assert conjugator_link(1, 2) in chain and conjugator_link(2, 3) in chain
    for left, right in zip(chain, chain[1:]):
        assert not any(left is conjugator(j)[0] and right is conjugator(k)[1]
                       for j in (1, 2, 3) for k in (1, 2, 3))
    # the outer conjugators stay: S1^-1 acts last, S3 first
    assert chain[0] is conjugator(1)[1] and chain[-1] is conjugator(3)[0]
    assert len(chain) == len(_chain(_unfused_rhat(PP))) - 2


def test_exchange_operators_share_conjugator_columns():
    other = ParamPair.from_rationals(Q(5, 2), Q(1), Q(-1, 3), Q(7, 3), Q(4),
                                     Q(1, 5))
    conjugator.cache_clear()     # so the first build fills the columns
    conjugator_link.cache_clear()
    first, second = build_r(1, PP), build_r(1, other)
    basis = [SuperPolynomial({m: 1}) for m in enumerate_basis(2, 2)]
    for p in basis:
        first.apply(p)
    s, s_inv = conjugator(1)
    filled = len(s._images), len(s_inv._images)
    for p in basis:
        second.apply(p)
    assert (len(s._images), len(s_inv._images)) == filled
    assert any(c is s for c in _cached_within(second))


def test_cold_and_warm_conjugators_give_golden_bytes(capsys):
    name = "check-defining-d1-seed0"
    case = next(c for c in json.loads((GOLDEN / "cases.json").read_text())
                if c["name"] == name)
    want = (GOLDEN / f"{name}.txt").read_bytes()
    conjugator.cache_clear()
    conjugator_link.cache_clear()
    conjugator_r2_even.cache_clear()
    for _ in range(2):           # cold, then warm
        assert main(case["argv"]) == case["exit"]
        assert capsys.readouterr().out.encode() == want


def _leaving_their_block(op, basis):
    """The basis monomials that `op` maps out of their (S, B) block."""
    return [monomial_text(m) for m in basis
            if {charge(k) for k in op.apply(SuperPolynomial({m: 1})).terms}
            - {charge(m)}]


def test_operators_conserve_the_charges():
    # the forked Yang-Baxter sweep shards the basis by these charges
    basis = enumerate_basis(3, 2)
    two_site = {f"R{k}": build_r(k, PP) for k in (1, 2, 3)}
    two_site |= {"Rcheck": build_rhat(PP), "P12 Rcheck": build_full_R(PP)}
    for k in (1, 2, 3):
        two_site[f"S{k}"], two_site[f"S{k}^-1"] = conjugator(k)
    two_site["S2 even"], two_site["S2 even^-1"] = conjugator_r2_even()
    for name, op in two_site.items():
        assert _leaving_their_block(op, basis) == [], name
    lifted = [OnSites(Cached(build_full_R(pp, 2)), sites)
              for pp, sites in zip(ybe_pairs(*YBE),
                                   ((1, 2), (1, 3), (2, 3)))]
    for op in lifted:
        assert _leaving_their_block(op, enumerate_basis(2, 3)) == []
    # the property is not vacuous: z1 raises S by 2
    assert _leaving_their_block(MulZ(1), basis)


def test_full_r_examples():
    th1th2 = sp(TH1) * sp(TH2)
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
        mu = {Q(2 * sum(exponents(m)) + (m & ODD_MASK).bit_count(), 2)}
        pm = SuperPolynomial({m: 1})
        for op in ops:
            img = op.apply(pm)
            if not img.is_zero():
                assert degree_measure(img) == mu


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
        r = equal_on_degree(compose(rhat, tot), compose(tot, rhat), 2)
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
    r = check_ybe(*YBE, max_degree=1)
    assert r.passed
    assert r.notes == []


def test_ybe_equal_spectral_degenerates():
    r = check_ybe(*YBE[:3], Q(2), Q(2), max_degree=1)
    assert r.passed
