"""Acceptance suite: every criterion at its stated degree and sample count.

All comparisons are exact rational equality (tolerance zero).  Each test
prints one pass/fail line; run with `pytest -v tests/test_acceptance.py`,
which includes the long three-site run at degree 2 (marked extended; leave
it out with `-m "not extended"`).
"""

import io
import time
from fractions import Fraction as Q

import pytest

from ybsl21.cli import RunConfig, run, sample_params, sample_weight_spectral, \
    sample_weights
from ybsl21.lax import (SpectralTriple, build_lax, build_lax_factorized,
                        build_lax_tensor, check_invariance, check_rll,
                        matrices_equal)
from ybsl21.lowest import check_composite, check_conjugator_oracles, \
    check_sector
from ybsl21.opalg import Scalar, equal_on_degree
from ybsl21.rops import (ParamPair, build_rhat, check_defining,
                         check_factorization, check_lemma_system,
                         check_recurrences, check_ybe)
from ybsl21.sl21 import (Weight, build_generators, check_casimir,
                         check_finite_subspace, check_relations,
                         fundamental_rep, raised_vector, verma_vector)

SEED = 2024


def _record(label: str, ok: bool, t0: float) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} "
          f"({time.perf_counter() - t0:.2f}s)")
    assert ok, label


def test_criterion_01_algebra_relations():
    t0 = time.perf_counter()
    ok = True
    for w in sample_weights(SEED, 3):
        g = build_generators(1, w, nsites=1)
        ok &= check_relations(g, max_degree=3).passed
    for kind in ("chiral", "antichiral"):
        ok &= check_relations(fundamental_rep(kind)).passed
    _record("criterion-1 algebra relations (81 commutators, D=3, "
            "3 weights + both 3-dim reps)", ok, t0)


def test_criterion_02_casimirs():
    t0 = time.perf_counter()
    ok = True
    for w in sample_weights(SEED, 3):
        g = build_generators(1, w, nsites=1)
        rep = check_casimir(g, max_degree=3)
        ok &= rep.passed
    _record("criterion-2 Casimir centrality and lowest eigenvalue (D=3)",
            ok, t0)


def test_criterion_03_verma_oracle():
    t0 = time.perf_counter()
    ok = True
    for w in sample_weights(SEED, 3):
        g = build_generators(1, w, nsites=1)
        for kind in ("a", "b", "v", "w"):
            start = 1 if kind == "b" else 0
            for k in range(start, 5):
                ok &= verma_vector(w, kind, k) == raised_vector(g, kind, k)
    _record("criterion-3 closed module vectors equal iterated raising "
            "(k<=4, 3 weights)", ok, t0)


def test_criterion_04_finite_subspaces():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2):
        for kind in ("chiral", "antichiral"):
            ok &= check_finite_subspace(n, kind).passed
    mutated = check_finite_subspace(1, "chiral",
                                    weight_override=Weight(Q(-1, 2), Q(1, 2)))
    ok &= not mutated.passed
    _record("criterion-4 invariant subspaces closed, mutation fails "
            "(n=1,2 both kinds)", ok, t0)


def test_criterion_05_lax_suite():
    t0 = time.perf_counter()
    ok = True
    import random
    rng = random.Random(SEED)
    triples = [SpectralTriple(Q(rng.randint(-20, 20), rng.randint(1, 8)),
                              Q(rng.randint(-20, 20), rng.randint(1, 8)),
                              Q(rng.randint(-20, 20), rng.randint(1, 8)))
               for _ in range(3)]
    for t in triples:
        lp = build_lax(1, t, "chiral", nsites=1)
        ok &= matrices_equal(lp, build_lax_factorized(1, t, nsites=1), 4,
                             nsites=1).passed
        ok &= matrices_equal(lp, build_lax_tensor(1, t, "chiral", nsites=1),
                             3, nsites=1).passed
        ok &= check_invariance(1, t, Q(rng.randint(-20, 20), rng.randint(1, 8)),
                               max_degree=3, nsites=1).passed
    _record("criterion-5 Lax: factorized=explicit (D=4), tensor=printed, "
            "even-sector invariance (D=3)", ok, t0)


def test_criterion_06_rll():
    t0 = time.perf_counter()
    ok = True
    for w, u, v in sample_weight_spectral(SEED, 3):
        for kind in ("chiral", "antichiral"):
            ok &= check_rll(w, u, v, max_degree=3, kind=kind).passed
    _record("criterion-6 RLL at D=3, chiral and antichiral, 3 configs",
            ok, t0)


def test_criterion_07_defining_and_lemmas():
    t0 = time.perf_counter()
    ok = True
    for pp in sample_params(SEED, 3, 3):
        for k in (1, 2, 3):
            ok &= check_defining(k, pp, max_degree=2).passed
            ok &= check_lemma_system(k, pp, max_degree=3).passed
    _record("criterion-7 defining equations (D=2) and lemma systems (D=3), "
            "3 parameter pairs", ok, t0)


def test_criterion_08_recurrences():
    t0 = time.perf_counter()
    ok = True
    for pp in sample_params(SEED, 3, 4):
        ok &= check_recurrences(pp, nmax=4).passed
    _record("criterion-8 five recurrence relations and four coefficient "
            "relations (n<=4, 3 pairs)", ok, t0)


def test_criterion_09_factorization():
    t0 = time.perf_counter()
    ok = True
    for pp in sample_params(SEED, 3, 2):
        ok &= check_factorization(pp, max_degree=2).passed
    w = sample_weights(SEED, 1)[0]
    pp_eq = ParamPair.from_weights(w, w, Q(1), Q(1))
    ok &= equal_on_degree(build_rhat(pp_eq), Scalar(1), 3).passed
    _record("criterion-9 factorized operator satisfies the master exchange "
            "(D=2, 3 pairs) and is the identity at equal parameters (D=3)",
            ok, t0)


def test_criterion_10_appendix_spectra():
    t0 = time.perf_counter()
    ok = check_conjugator_oracles(nmax=3).passed
    for pp in sample_params(SEED, 3, 4):
        for which in (1, 2, 3):
            ok &= check_sector(which, pp, nmax=3).passed
        ok &= check_composite(pp, nmax=3).passed
    _record("criterion-10 sector spectra match the closed formulas as "
            "exact ratios (n<=3) incl. mixing constant and conjugator "
            "oracles", ok, t0)


def _ybe_configs(count: int):
    import random
    from ybsl21.rops import SingularParameters, pair_guard
    rng = random.Random(SEED)
    out = []
    while len(out) < count:
        ws = [Weight(Q(rng.randint(-20, 20), rng.randint(1, 8)),
                     Q(rng.randint(-20, 20), rng.randint(1, 8)))
              for _ in range(3)]
        u = Q(rng.randint(-20, 20), rng.randint(1, 8))
        v = Q(rng.randint(-20, 20), rng.randint(1, 8))
        try:
            pair_guard(ParamPair.from_weights(ws[0], ws[1], 0, u - v), 2)
            pair_guard(ParamPair.from_weights(ws[0], ws[2], 0, u), 2)
            pair_guard(ParamPair.from_weights(ws[1], ws[2], 0, v), 2)
        except SingularParameters:
            continue
        out.append((ws, u, v))
    return out


def test_criterion_11_yang_baxter_required():
    t0 = time.perf_counter()
    ok = True
    for ws, u, v in _ybe_configs(2):
        ok &= check_ybe(ws[0], ws[1], ws[2], u, v, max_degree=1).passed
    _record("criterion-11 three-site Yang-Baxter relation (D=1, 2 configs)",
            ok, t0)


@pytest.mark.extended
def test_criterion_11_yang_baxter_extended():
    t0 = time.perf_counter()
    ok = True
    for ws, u, v in _ybe_configs(2):
        ok &= check_ybe(ws[0], ws[1], ws[2], u, v, max_degree=2).passed
    _record("criterion-11-extended three-site Yang-Baxter relation (D=2)",
            ok, t0)


def test_criterion_12_byte_determinism():
    t0 = time.perf_counter()
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        cfg = RunConfig(command="all", max_degree=2, samples=2, seed=SEED)
        code = run(cfg, stream=buf)
        outs.append((code, buf.getvalue().encode()))
    ok = outs[0] == outs[1] and outs[0][0] == 0
    # skipped checks are reported, never silent
    ok &= b'"status": "skip"' in outs[0][1]
    _record("criterion-12 full suite twice with one seed: byte-identical "
            "JSON, exit 0, skips reported", ok, t0)
