from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from ybsl21.linsolve import solve_in_span
from ybsl21.superpoly import ODD_MASK, Monomial, SuperPolynomial, exponents
from support import from_terms

coeffs = st.fractions(min_value=-4, max_value=4)
monomials = st.builds(
    Monomial, st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 15))


@st.composite
def polys(draw):
    pairs = [(draw(monomials), draw(coeffs)) for _ in range(draw(st.integers(1, 4)))]
    return from_terms(pairs)


def test_solve_simple():
    z1 = SuperPolynomial.z_var(1)
    z2 = SuperPolynomial.z_var(2)
    sol = solve_in_span([z1 + z2, z1 - z2], Q(3) * z1 + z2)
    assert sol == [Q(2), Q(1)]
    assert solve_in_span([z1], z2) is None
    assert solve_in_span([z1, z2], SuperPolynomial.zero()) == [0, 0]


@settings(max_examples=40, deadline=None)
@given(st.lists(polys(), min_size=1, max_size=3), st.lists(coeffs, min_size=3,
                                                           max_size=3))
def test_combinations_are_recovered(span, weights):
    target = SuperPolynomial.zero()
    for c, p in zip(weights, span):
        target = target + c * p
    sol = solve_in_span(span, target)
    assert sol is not None
    rebuilt = SuperPolynomial.zero()
    for c, p in zip(sol, span):
        rebuilt = rebuilt + c * p
    assert rebuilt == target


@settings(max_examples=40, deadline=None)
@given(polys())
def test_outside_vector_detected(p):
    z1 = SuperPolynomial.z_var(1)
    # the fifth power of z1 never appears in the generated polynomials
    alien = z1 ** 5
    sol = solve_in_span([p], alien + p)
    if sol is not None:
        rebuilt = sol[0] * p
        assert rebuilt == alien + p


def _reference_solve(span, target):
    """Fraction Gauss-Jordan with the same pivot rule: columns in order,
    each pivoting on the first row with a nonzero entry; free variables 0."""
    monos = sorted({m for p in span for m in p.terms} | set(target.terms),
                   key=lambda m: (*exponents(m), m & ODD_MASK))
    rows = [[p.coefficient(m) for p in span] + [target.coefficient(m)]
            for m in monos]
    ncols = len(span)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(rows[i][ncols] for i in range(r, len(rows))):
        return None
    x = [Q(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return x


def _combination(weights, polys_):
    out = SuperPolynomial.zero()
    for c, p in zip(weights, polys_):
        out = out + c * p
    return out


# few monomials, so the columns overlap and elimination has work to do
dense_monomials = st.builds(
    Monomial, st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.integers(0, 3))


@st.composite
def dense_polys(draw):
    pairs = [(draw(dense_monomials), draw(coeffs))
             for _ in range(draw(st.integers(1, 6)))]
    return from_terms(pairs)


@st.composite
def spans_and_targets(draw):
    """Spans with zero columns and dependent columns, and targets inside
    the span, outside it, or arbitrary."""
    base = draw(st.lists(dense_polys(), min_size=1, max_size=3))
    span = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("base", "zero", "dependent")))
        if kind == "zero":
            span.append(SuperPolynomial.zero())
        elif kind == "base":
            span.append(draw(st.sampled_from(base)))
        else:
            weights = draw(st.lists(coeffs, min_size=len(base),
                                    max_size=len(base)))
            span.append(_combination(weights, base))
    kind = draw(st.sampled_from(("inside", "outside", "arbitrary")))
    if kind == "arbitrary":
        return span, draw(dense_polys())
    weights = draw(st.lists(coeffs, min_size=len(span), max_size=len(span)))
    target = _combination(weights, span)
    if kind == "outside":
        target = target + SuperPolynomial.z_var(1) ** 5
    return span, target


@settings(max_examples=150, deadline=None)
@given(spans_and_targets())
def test_fraction_free_solve_matches_gauss_jordan(case):
    span, target = case
    got = solve_in_span(span, target)
    assert got == _reference_solve(span, target)
    if got is not None:
        assert all(type(c) is Q for c in got)
        assert _combination(got, span) == target
