"""Acceptance suite: the paper's identities as the command line checks them.

Criteria 1-10 and 12 read one `ybsl21 --command all --max-degree 3
--samples 3 --seed 2024` run.  Each of them owns some of its reports, by
name, and asserts their count and `max_degree` exactly and that each
passed.  A report that no criterion owns fails
`test_every_report_has_a_criterion`, so a new report in `all` needs a
criterion.  Criterion 11 reads `check-ybe` at D=1, and at D=2 under the
`extended` marker.  All comparisons are exact rational equality; run with
`pytest -v tests/test_acceptance.py` for one line per criterion.
"""

import io
import json
from collections import defaultdict
from fractions import Fraction as Q

import pytest

from ybsl21.cli import RunConfig, run
from ybsl21.sl21 import Weight, check_finite_subspace

SEED = 2024
ALL = RunConfig("all", max_degree=3, samples=3, seed=SEED)


def _run(cfg: RunConfig) -> tuple[int, str]:
    """The exit code and the stdout of one in-process run."""
    buf = io.StringIO()
    return run(cfg, stream=buf), buf.getvalue()


def _by_name(out: str) -> dict[str, list[dict]]:
    reports = defaultdict(list)
    for line in out.splitlines():
        record = json.loads(line)
        reports[record["check_name"]].append(record)
    return reports


@pytest.fixture(scope="module")
def all_run() -> tuple[int, str]:
    return _run(ALL)


#: report name -> (count, max_degree): what the criteria own of the `all` run
OWNED: dict[str, tuple[int, int | None]] = {}


def _criterion(owns: dict, status: str = "pass"):
    """A test that the `all` run holds exactly `owns`, each with `status`."""
    OWNED.update(owns)

    def test(all_run):
        reports = _by_name(all_run[1])
        got = {name: (len(reports[name]),
                      {r["max_degree"] for r in reports[name]},
                      {r["status"] for r in reports[name]})
               for name in owns}
        assert got == {name: (count, {degree}, {status})
                       for name, (count, degree) in owns.items()}
    return test


test_criterion_01_algebra_relations = _criterion({
    "sl21-relations": (3, 3), "sl21-relations-chiral": (1, None),
    "sl21-relations-antichiral": (1, None)})
test_criterion_02_casimirs = _criterion({"casimir": (3, 3)})
# closed module vectors equal iterated raising, k <= 4
test_criterion_03_verma_oracle = _criterion({"verma-oracle": (1, 4)})
test_criterion_04_finite_subspaces = _criterion({
    f"finite-subspace-{kind}-n{n}": (1, None)
    for n in (1, 2) for kind in ("chiral", "antichiral")})
test_criterion_05_lax_suite = _criterion({
    "lax-factorized-vs-explicit": (3, 4), "lax-tensor-vs-printed": (3, 3),
    "lax-invariance": (3, 3)})
test_criterion_06_rll = _criterion({
    "rll-chiral": (3, 3), "rll-antichiral": (3, 3)})
test_criterion_07_defining_and_lemmas = _criterion({
    **{f"defining-R{k}": (3, 2) for k in (1, 2, 3)},
    **{f"lemma-R{k}": (3, 3) for k in (1, 2, 3)}})
test_criterion_08_recurrences = _criterion({"recurrences": (3, 4)})
test_criterion_09_factorization = _criterion({
    "factorization": (3, 2), "rhat-trivial-identity": (1, 3)})
test_criterion_10_appendix_spectra = _criterion({
    "conjugator-oracles": (1, 3),
    **{f"spectrum-R{k}": (3, 3) for k in (1, 2, 3)},
    "spectrum-composite": (3, 3)})
# the three-site relation is skipped in `all`, and the skip is reported
test_criterion_12_skips_reported = _criterion({"check-ybe": (1, None)},
                                              status="skip")


def test_every_report_has_a_criterion(all_run):
    assert sorted(set(_by_name(all_run[1])) - set(OWNED)) == []


def test_criterion_04_off_weight_mutation_fails():
    # no command runs it: a subspace at the wrong weight is not invariant
    assert not check_finite_subspace(
        1, "chiral", weight_override=Weight(Q(-1, 2), Q(1, 2))).passed


def _yang_baxter_holds(degree: int) -> None:
    code, out = _run(RunConfig("check-ybe", ybe_degree=degree, seed=SEED))
    got = [(r["check_name"], r["max_degree"], r["status"])
           for r in map(json.loads, out.splitlines())]
    assert (code, got) == (0, [("yang-baxter", degree, "pass")] * 2)


def test_criterion_11_yang_baxter_required():
    _yang_baxter_holds(1)


@pytest.mark.extended
def test_criterion_11_yang_baxter_extended():
    _yang_baxter_holds(2)


def test_criterion_12_byte_determinism(all_run):
    assert all_run[0] == 0
    assert _run(ALL) == all_run
