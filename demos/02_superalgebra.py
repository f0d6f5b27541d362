"""The superalgebra in action: differential-operator generators, the 81
graded commutation relations, central elements, and module basis vectors.
"""

from fractions import Fraction as Q

from ybsl21 import Weight, build_generators, casimir, check_relations
from ybsl21.cli import format_text
from ybsl21.sl21 import fundamental_rep, raised_vector, verma_vector
from ybsl21.superpoly import SuperPolynomial

w = Weight(Q(2, 3), Q(1, 5))
g = build_generators(1, w)
one = SuperPolynomial.one()

print("lowest-weight vector a0 = 1 at (ell, b) =", (str(w.ell), str(w.b)))
for name in ("S", "B", "S-", "V-", "W-", "S+"):
    print(f"  {name:3s} . 1 =", g[name].apply(one).text())

print("\nall 81 graded commutators vs the structure constants:")
print(format_text(check_relations(g, max_degree=3)))
print(format_text(check_relations(fundamental_rep("chiral"))))

c2 = casimir(g, 2)
print("\nquadratic central element on 1:", c2.apply(one).text(),
      " (= ell^2 - b^2 =", str(w.ell ** 2 - w.b ** 2) + ")")

print("\nclosed forms vs iterated raising (a_k family):")
for k in range(4):
    closed = verma_vector(w, "a", k)
    assert closed == raised_vector(g, "a", k)
    print(f"  a_{k} =", closed.text())
