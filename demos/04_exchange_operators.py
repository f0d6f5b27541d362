"""The heart of the package: the three elementary exchange operators, the
factorization of the full intertwiner, and the closed sector spectra.
"""

from fractions import Fraction as Q

from ybsl21 import ParamPair, build_r, build_rhat
from ybsl21.cli import format_text
from ybsl21.lowest import (check_composite, check_sector, lowest_vector,
                           sector_action)
from ybsl21.rops import check_defining, check_factorization, weight_shift
from ybsl21.sl21 import Weight
from ybsl21.superpoly import SuperPolynomial

pp = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2), Q(-3, 2))
one = SuperPolynomial.one()

print("each exchange operator is normalized to fix the constant 1:")
for k in (1, 2, 3):
    rk = build_r(k, pp)
    print(f"  R{k}(1) =", rk.apply(one).text())
    print(format_text(check_defining(k, pp, max_degree=1)))

print("\nordered product exchanges the whole parameter triples:")
print(format_text(check_factorization(pp, max_degree=1)))

w1, w2 = Weight(Q(1), Q(0)), Weight(Q(1, 2), Q(1, 4))
print("\nweight relabeling by each factor:")
for k in (1, 2, 3):
    s1, s2 = weight_shift(k, w1, w2, pp)
    print(f"  R{k}: ({w1.ell},{w1.b})x({w2.ell},{w2.b}) -> "
          f"({s1.ell},{s1.b})x({s2.ell},{s2.b})")

print("\nlowest-weight sector at n = 1 (even):",
      lowest_vector("even", "+", 1).poly.text())
m = sector_action(build_rhat(pp), "even", 1)
print("full operator on (Phi1+, Phi1-):")
for row in m:
    print("   [", ", ".join(str(x) for x in row), "]")
print(format_text(check_sector(3, pp, nmax=3)))
print(format_text(check_composite(pp, nmax=2)))
