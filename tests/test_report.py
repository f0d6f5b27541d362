import json
import time

import pytest

from ybsl21.report import CheckReport


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
