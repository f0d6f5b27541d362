"""Small exact linear solves over the rationals, for
`sl21.check_finite_subspace` and the dependent level of `lowest.decompose`.

Each column is scaled to integers and eliminated fraction-free (Bareiss,
Math. Comp. 22, 1968): every division in the forward pass is exact, so the
entries stay integers whose size is bounded by minors of the scaled matrix.
Only back-substitution divides.
"""

from __future__ import annotations

from fractions import Fraction

from .superpoly import SuperPolynomial

Q = Fraction


def _int_column(p: SuperPolynomial, row_of: dict[int, int],
                nrows: int) -> tuple[list[int], int]:
    """(entries, d): p's numerators in the rows `row_of` assigns, and its
    denominator d."""
    col = [0] * nrows
    for m, n in p.terms.items():
        col[row_of[m]] = n
    return col, p.den


def solve_in_span(span: list[SuperPolynomial],
                  target: SuperPolynomial) -> list[Fraction] | None:
    """Coefficients x with sum(x_i * span_i) == target, or None if outside.

    Columns are taken in order and each pivots on the first row with a
    nonzero entry, so the pivots are exactly the columns outside the span
    of the columns before them; every other x_i is 0, which makes x unique.
    """
    monos = sorted({m for p in span for m in p.terms} | set(target.terms))
    row_of = {m: i for i, m in enumerate(monos)}
    cols = [_int_column(p, row_of, len(monos)) for p in (*span, target)]
    scales = [d for _, d in cols]
    rows = [list(r) for r in zip(*(col for col, _ in cols))]
    ncols = len(span)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        # Bareiss step: each entry becomes a minor of the scaled matrix,
        # so the division by the previous pivot is exact
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
        prev = p
        pivots.append(c)
        r += 1
    # inconsistent rows mean the target leaves the span
    if any(rows[i][ncols] for i in range(r, len(rows))):
        return None
    # back-substitution on the pivot columns, free variables 0; column c
    # holds scales[c] * span_c and the last one scales[-1] * target
    x = [Q(0)] * ncols
    for i in reversed(range(r)):
        row = rows[i]
        rest = row[ncols] - sum(row[c] * x[c] for c in pivots[i + 1:])
        x[pivots[i]] = Q(rest, row[pivots[i]])
    return [xc * d / scales[-1] for xc, d in zip(x, scales)]
