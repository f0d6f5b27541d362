"""End to end: the three-site Yang-Baxter relation, verified exactly on
every basis monomial of total degree <= 1 (pass --degree N for a deeper run).
"""

import argparse
from fractions import Fraction as Q

from ybsl21 import Weight, check_ybe
from ybsl21.cli import format_text

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--degree", type=int, default=1,
                    help="largest total z-degree of the basis (default 1)")
degree = parser.parse_args().degree
report = check_ybe(Weight(Q(1), Q(1, 3)), Weight(Q(1, 2), Q(-2, 5)),
                   Weight(Q(3, 2), Q(2, 7)), Q(2), Q(1, 2),
                   max_degree=degree)
print(format_text(report))
