"""Values that several test modules share."""

from fractions import Fraction as Q

from ybsl21.rops import ParamPair
from ybsl21.sl21 import Weight
from ybsl21.superpoly import SuperPolynomial, theta, theta_bar

#: a regular parameter pair, for tests that need one fixed pair
PP = ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2), Q(-3, 2))
#: a regular Yang-Baxter configuration (w1, w2, w3, u, v)
YBE = (Weight(Q(1), Q(1, 3)), Weight(Q(1, 2), Q(-2, 5)),
       Weight(Q(3, 2), Q(2, 7)), Q(2), Q(1, 2))
ONE = SuperPolynomial.one()
TH1, THB1, TH2, THB2 = theta(1), theta_bar(1), theta(2), theta_bar(2)


def z(site):
    return SuperPolynomial.z_var(site)


def sp(var):
    return SuperPolynomial.odd_var(var)
