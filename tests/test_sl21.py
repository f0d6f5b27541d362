from fractions import Fraction as Q

import pytest

from ybsl21.sl21 import (SingularWeight, Weight, build_generators, casimir,
                         check_casimir, check_finite_subspace, check_relations,
                         e_basis_matrices, fundamental_rep, mat_combo, mat_mul,
                         raised_vector, verma_vector)
from ybsl21.superpoly import SuperPolynomial, theta, theta_bar

ONE1 = SuperPolynomial.one()


def test_lowest_weight_action():
    w = Weight(Q(2, 3), Q(1, 5))
    g = build_generators(1, w)
    assert g["S"].apply(ONE1) == Q(2, 3) * ONE1
    th = SuperPolynomial.odd_var(theta(1))
    thb = SuperPolynomial.odd_var(theta_bar(1))
    z = SuperPolynomial.z_var(1)
    # S+ . 1 = 2 l z - b th thb
    assert g["S+"].apply(ONE1) == Q(4, 3) * z - Q(1, 5) * (th * thb)
    assert g["V-"].apply(th) == ONE1
    for low in ("S-", "V-", "W-"):
        assert g[low].apply(ONE1).is_zero()
    assert g["B"].apply(ONE1) == Q(1, 5) * ONE1


@pytest.mark.parametrize("ell,b", [(Q(2, 3), Q(1, 5)), (Q(1), Q(0)),
                                   (Q(-3, 7), Q(5, 2))])
def test_relations_functional(ell, b):
    g = build_generators(1, Weight(ell, b))
    assert check_relations(g, max_degree=3).passed


def test_relations_two_site_basis():
    g = build_generators(2, Weight(Q(1, 2), Q(2, 7)))
    assert check_relations(g, max_degree=2).passed


def test_relations_matrix_reps():
    for kind in ("chiral", "antichiral"):
        assert check_relations(fundamental_rep(kind)).passed


def test_relations_matrix_detect_one_flipped_sign():
    rep = fundamental_rep("chiral")
    rep.matrices["V+"] = mat_combo([(-1, rep["V+"])])
    r = check_relations(rep)
    assert r.status == "fail"
    assert [f.input for f in r.failures] == [
        "[E(1, 2),E(2, 1)]", "[E(1, 2),E(2, 3)]", "[E(1, 2),E(3, 1)]",
        "[E(1, 3),E(3, 2)]", "[E(2, 1),E(1, 2)]"]


def test_relations_detect_corruption():
    w = Weight(Q(1), Q(1, 2))
    g = build_generators(1, w)
    th = SuperPolynomial.odd_var(theta(1))
    thb = SuperPolynomial.odd_var(theta_bar(1))
    # drop the -b th thb term of S+ (only visible when b != 0)
    from ybsl21.opalg import MulPoly
    g.gens["S+"] = g.gens["S+"] + Q(w.b) * MulPoly(th * thb)
    assert not check_relations(g, max_degree=2).passed


def test_casimir_eigenvalue_and_centrality():
    w = Weight(Q(1), Q(1, 2))
    g = build_generators(1, w)
    assert casimir(g, 2).apply(ONE1) == Q(3, 4) * ONE1
    assert check_casimir(g, max_degree=3).passed


def test_casimir_rejects_bad_order():
    g = build_generators(1, Weight(Q(1), Q(0)))
    with pytest.raises(ValueError):
        casimir(g, 4)


def test_verma_closed_forms():
    w = Weight(Q(1), Q(1, 2))
    z = SuperPolynomial.z_var(1)
    th = SuperPolynomial.odd_var(theta(1))
    thb = SuperPolynomial.odd_var(theta_bar(1))
    assert verma_vector(w, "a", 1) == Q(2) * z - Q(1, 2) * (th * thb)
    # v_k = -(l-b)(2l+1)_k z^k thb
    for k in range(3):
        from ybsl21.opalg import rising_factorial
        want = (-(w.ell - w.b) * rising_factorial(2 * w.ell + 1, k)) * \
            ((z ** k) * thb)
        assert verma_vector(w, "v", k) == want


@pytest.mark.parametrize("ell,b", [(Q(1), Q(1, 2)), (Q(2, 3), Q(-1, 5)),
                                   (Q(5, 4), Q(3))])
def test_verma_vs_iterated_raising(ell, b):
    w = Weight(ell, b)
    g = build_generators(1, w)
    for kind in ("a", "b", "v", "w"):
        start = 1 if kind == "b" else 0
        for k in range(start, 5):
            assert verma_vector(w, kind, k) == raised_vector(g, kind, k), \
                (kind, k)


def test_casimir_scalar_on_all_module_vectors():
    # C2 acts by l^2 - b^2 on every a_k, b_k, v_k, w_k (centrality plus the
    # lowest-weight eigenvalue)
    w = Weight(Q(5, 4), Q(2, 3))
    g = build_generators(1, w)
    c2 = casimir(g, 2)
    ev = w.ell ** 2 - w.b ** 2
    for kind in ("a", "b", "v", "w"):
        start = 1 if kind == "b" else 0
        for k in range(start, 4):
            vec = verma_vector(w, kind, k)
            assert c2.apply(vec) == ev * vec, (kind, k)


def test_verma_singular_weight():
    # 2*ell = 0 and -1 are poles; 2*ell = 1/2 is not
    for ell in (Q(0), Q(-1, 2)):
        assert Weight(ell, Q(1)).is_singular()
        with pytest.raises(SingularWeight):
            verma_vector(Weight(ell, Q(1)), "a", 1)
    assert not Weight(Q(1, 4), Q(1)).is_singular()
    verma_vector(Weight(Q(1, 4), Q(1)), "a", 1)   # must not raise
    with pytest.raises(SingularWeight):
        verma_vector(Weight(Q(-1), Q(0)), "v", 2)


def test_fundamental_rep_golden_entries():
    rep = fundamental_rep("chiral")
    assert rep["S"] == ((Q(1, 2), 0, 0), (0, 0, 0), (0, 0, Q(-1, 2)))
    assert rep["B"] == ((Q(-1, 2), 0, 0), (0, Q(-1), 0), (0, 0, Q(-1, 2)))
    assert rep["V+"] == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert rep["W-"] == ((0, 0, 0), (-1, 0, 0), (0, 0, 0))
    anti = fundamental_rep("antichiral")
    assert anti["B"] == ((Q(1, 2), 0, 0), (0, Q(1), 0), (0, 0, Q(1, 2)))
    assert anti["V+"] == rep["W+"]
    assert anti["W-"] == rep["V-"]


def test_matrix_convention_column_action():
    # A e_k = sum_i e_i A_ik: v+ sends e2 to e1
    rep = fundamental_rep("chiral")
    col = [rep["V+"][i][1] for i in range(3)]
    assert col == [1, 0, 0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["chiral", "antichiral"])
def test_finite_subspace_closed(n, kind):
    assert check_finite_subspace(n, kind).passed


def test_finite_subspace_mutation_fails():
    r = check_finite_subspace(1, "chiral",
                              weight_override=Weight(Q(-1, 2), Q(1, 2)))
    assert not r.passed


def test_c3_is_central_in_matrix_rep():
    # sanity on the matrix side: the E-combinations close (already covered
    # by relations) and C2 acts as a scalar on the chiral module
    rep = fundamental_rep("chiral")
    e = e_basis_matrices(rep)
    m = rep.matrices
    c2 = [[sum(x) for x in zip(*rows)] for rows in zip(
        mat_mul(m["S"], m["S"]),
        [[-v for v in row] for row in mat_mul(m["B"], m["B"])],
        mat_mul(m["S+"], m["S-"]),
        mat_mul(m["V+"], m["W-"]),
        mat_mul(m["W+"], m["V-"]))]
    # chiral weight is (-1/2, -1/2): l^2 - b^2 = 0
    assert all(c2[i][k] == 0 for i in range(3) for k in range(3))
