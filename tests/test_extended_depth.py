"""Higher-degree runs of the main identities, beyond the standard bounds.

Everything here is exact as well; the tests are marked extended purely for
runtime: plain `pytest` runs them, `pytest -m extended` runs only them, and
`pytest -m "not extended"` leaves them out.
"""

from fractions import Fraction as Q

import pytest

from ybsl21.cli import RunConfig, run_ybe
from ybsl21.lax import check_rll
from ybsl21.lowest import check_composite, check_conjugator_oracles, \
    check_sector
from ybsl21.rops import (ParamPair, check_defining, check_factorization,
                         check_lemma_system, check_recurrences)
from ybsl21.sl21 import Weight
from support import PP

pytestmark = pytest.mark.extended


@pytest.mark.parametrize("k", [1, 2, 3])
def test_defining_degree_three(k):
    assert check_defining(k, PP, max_degree=3).passed


def test_factorization_degree_three():
    assert check_factorization(PP, max_degree=3).passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lemmas_degree_four(k):
    assert check_lemma_system(k, PP, max_degree=4).passed


def test_rll_degree_four():
    assert check_rll(Weight(Q(1), Q(1, 3)), Q(2), Q(1, 2), max_degree=4,
                     kind="chiral").passed


def test_spectra_to_level_five():
    pp = ParamPair.from_rationals(Q(7, 3), Q(-1), Q(1, 3), Q(-2), Q(5),
                                  Q(1, 5))
    for which in (1, 2, 3):
        assert check_sector(which, pp, nmax=5).passed
    assert check_composite(pp, nmax=5).passed


def test_conjugator_oracles_to_level_five():
    assert check_conjugator_oracles(nmax=5).passed


def test_recurrences_to_level_eight():
    assert check_recurrences(PP, nmax=8).passed


def test_ybe_degree_three():
    report, = run_ybe(RunConfig("check-ybe", samples=1, ybe_degree=3,
                                seed=2024))
    assert report.passed
