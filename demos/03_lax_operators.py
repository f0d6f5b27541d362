"""Lax matrices three ways, and the RLL relation with the fundamental
R-matrix u + P on the pair of 3-dimensional auxiliary spaces.
"""

from fractions import Fraction as Q

from ybsl21 import SpectralTriple, Weight, build_lax, build_lax_factorized
from ybsl21.cli import format_text
from ybsl21.lax import build_lax_tensor, check_invariance, check_rll, \
    matrices_equal

t = SpectralTriple.from_weight(Q(2), Weight(Q(1), Q(1, 3)))
print("spectral triple (u1,u2,u3) =", tuple(str(x) for x in t.as_tuple()))

explicit = build_lax(1, t, "chiral")
factored = build_lax_factorized(t)
tensored = build_lax_tensor(t, "chiral")

print(format_text(matrices_equal(explicit, factored, 4, nsites=1,
                                 name="triangular factorization = explicit")))
print(format_text(matrices_equal(explicit, tensored, 3, nsites=1,
                                 name="graded tensor build = explicit")))

print("\nRLL on V x V x C[Z] (u + P conjugates the Lax pair):")
for kind in ("chiral", "antichiral"):
    print(format_text(check_rll(Weight(Q(1), Q(1, 3)), Q(2), Q(1, 2),
                                max_degree=2, kind=kind)))

print("\neven-sector invariance under the lowering flow:")
print(format_text(check_invariance(t, Q(2, 3), max_degree=3)))
