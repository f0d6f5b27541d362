"""Tour of the exact graded polynomial layer.

Two even variables z1, z2 and four anticommuting variables th1, thb1,
th2, thb2 over the rationals; every coefficient is an exact Fraction.
"""

from fractions import Fraction as Q

from ybsl21 import SuperPolynomial
from ybsl21.opalg import EvenDeriv, OddDeriv
from ybsl21.superpoly import enumerate_basis, monomial_text, theta, theta_bar

z1 = SuperPolynomial.z_var(1)
z2 = SuperPolynomial.z_var(2)
th1 = SuperPolynomial.odd_var(theta(1))
thb1 = SuperPolynomial.odd_var(theta_bar(1))
th2 = SuperPolynomial.odd_var(theta(2))

print("anticommutativity:  th1*thb1 =", (th1 * thb1).text())
print("                    thb1*th1 =", (thb1 * th1).text())
print("nilpotency:         th1*th1  =", (th1 * th1).text())

p = (z1 + th1 * thb1) * (z1 - Q(1, 2) * (th1 * th2))
print("\na product:", p.text())
print("d/dz1:    ", EvenDeriv(1).apply(p).text())
print("d/dth1:   ", OddDeriv(theta(1)).apply(p).text(), "   (left derivative)")

basis = enumerate_basis(1)
print(f"\nbasis up to z-degree 1: {len(basis)} monomials "
      f"(16 odd masks x 3 degree patterns)")
print("first five:", ", ".join(monomial_text(m) for m in basis[:5]))
