import json
import time
from fractions import Fraction as Q

import pytest

from ybsl21.report import CheckReport
from ybsl21.superpoly import SuperPolynomial


def test_pass_iff_no_failures():
    r = CheckReport(check_name="x")
    assert r.passed
    r.add_failure("m", "1", "0", "1")
    assert r.status == "fail" and not r.passed


def test_failure_cap_keeps_status():
    r = CheckReport(check_name="x")
    for i in range(9):
        r.add_failure(f"m{i}", "1", "0", "1")
    assert len(r.failures) == 5
    assert r.status == "fail"


def test_expect_renders_by_kind_of_value():
    r = CheckReport(check_name="x")
    one, z1 = SuperPolynomial.one(), SuperPolynomial.z_var(1)
    r.expect("poly", one, one)
    r.expect("matrix", ((Q(1), Q(0)),), ((Q(1), Q(0)),))
    r.expect("ratio", Q(1, 2), Q(1, 2))
    assert r.status == "pass" and not r.failures
    r.expect("poly", z1, one)
    r.expect("matrix", ((Q(1), Q(0)),), ((Q(1), Q(2)),))
    r.expect("ratio", Q(1, 2), Q(1, 3))
    assert r.status == "fail"
    assert r.to_dict()["failures"] == [
        {"input": "poly", "lhs": "1 z1", "rhs": "1", "residual": "1 z1 - 1"},
        {"input": "matrix", "lhs": "((Fraction(1, 1), Fraction(0, 1)),)",
         "rhs": "((Fraction(1, 1), Fraction(2, 1)),)", "residual": "-"},
        {"input": "ratio", "lhs": "1/2", "rhs": "1/3", "residual": "1/6"},
    ]
    for i in range(9):
        r.expect(f"m{i}", Q(i + 1), Q(0))
    assert len(r.failures) == 5 and r.status == "fail"


def test_merge_propagates_worst_status():
    outer = CheckReport(check_name="outer")
    sub_fail = CheckReport(check_name="a")
    sub_fail.add_failure("m", "1", "0", "1")
    outer.merge(sub_fail, prefix="a: ")
    assert outer.status == "fail"
    assert outer.failures[0].input == "a: m"
    sub_err = CheckReport(check_name="b", status="error", notes=["boom"])
    outer.merge(sub_err)
    assert outer.status == "error"
    assert "boom" in outer.notes


def test_json_dict_excludes_timings_by_default():
    r = CheckReport(check_name="x", elapsed_ms=12.5)
    d = r.to_dict()
    assert "elapsed_ms" not in d
    assert "elapsed_ms" in r.to_dict(include_timings=True)
    json.dumps(d)  # serializable


def test_timed_records_elapsed_ms():
    r = CheckReport(check_name="x")
    with r.timed():
        time.sleep(0.001)
    assert r.elapsed_ms > 0
    assert r.status == "pass" and not r.notes


def test_timed_listed_exception_becomes_error_keeping_failures():
    r = CheckReport(check_name="x")
    with r.timed(KeyError, ZeroDivisionError):
        r.add_failure("m", "1", "0", "1")
        r.notes.append("before")
        1 / 0
    assert r.status == "error"
    assert [f.input for f in r.failures] == ["m"]
    assert r.notes == ["before", "ZeroDivisionError: division by zero"]
    assert r.elapsed_ms > 0


def test_timed_unlisted_exception_propagates():
    r = CheckReport(check_name="x")
    with pytest.raises(ZeroDivisionError):
        with r.timed(KeyError):
            1 / 0
    assert r.status == "pass" and not r.notes
