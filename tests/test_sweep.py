"""A forked basis sweep gives the one-process report, a forked run of `all`
the one-process bytes, and neither leaves a child.

A three-site sweep, or a run of several commands, forks one child when the
process may run on two CPUs or more.  Every case patches
`os.sched_getaffinity` to report one CPU, then two, whatever the host has,
and compares the reports, or the type and message of what they raised, or
the printed bytes and the exit code.  After each call no child may be left.
"""

import contextlib
import errno
import io
import os
import threading
from fractions import Fraction as Q

import pytest

from ybsl21 import cli, opalg, rops
from ybsl21.lowest import NotInSpan
from ybsl21.opalg import (DegreeDiagonal, Operator, OperatorError,
                          PochhammerPole, Scalar, compose, equal_on_degree)
from ybsl21.report import CheckReport
from ybsl21.rops import SingularParameters, build_r, check_ybe
from ybsl21.superpoly import (SuperPolynomial, charge, enumerate_basis,
                              exponents, monomial_text)
from support import PP, YBE

BASIS = enumerate_basis(2, 3)
#: the tasks a sweep of BASIS runs: its (S, B) shards, highest charge first
TASKS = opalg._shards(list(enumerate(BASIS)))


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made during the test."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of CPUs this process may run on."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return use


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(run):
    """run()'s report as a dict, or the type and message of what it raised;
    no child process outlives the call."""
    try:
        out = run().to_dict()
    except Exception as exc:
        out = (type(exc), str(exc))
    assert_no_child()
    return out


def sweep(a, b):
    return equal_on_degree(a, b, 2, nsites=3)


def both(a, b, forks, cpus):
    """The one-CPU and the two-CPU outcome of comparing a with b on BASIS;
    the second forks once."""
    cpus(1)
    serial = outcome(lambda: sweep(a, b))
    assert forks == []
    cpus(2)
    forked = outcome(lambda: sweep(a, b))
    assert forks == [1]
    return serial, forked


def mismatches(a, b):
    return [m for m in BASIS
            if a.apply(SuperPolynomial({m: 1}))
            != b.apply(SuperPolynomial({m: 1}))]


def test_passing_ybe_sweep(forks, cpus):
    cpus(1)
    serial = outcome(lambda: check_ybe(*YBE, max_degree=1))
    assert forks == []
    cpus(2)
    forked = outcome(lambda: check_ybe(*YBE, max_degree=1))
    assert forks == [1]
    assert serial["status"] == "pass"
    assert forked == serial


def perturbed_r1():
    a = build_r(1, PP)
    return a, compose(DegreeDiagonal(2, 2, 1), a)


def test_stored_failures_are_the_first_in_basis_order(forks, cpus):
    a, b = perturbed_r1()
    bad = mismatches(a, b)
    assert len(bad) > 5
    # the first five mismatches come from at least two tasks
    assert len({k for k, task in enumerate(TASKS) for _, m in task
                if m in bad[:5]}) >= 2
    serial, forked = both(a, b, forks, cpus)
    assert [f["input"] for f in serial["failures"]] == \
        [monomial_text(m) for m in bad[:5]]
    assert forked == serial


def test_a_shard_sends_back_no_more_mismatches_than_a_report_stores():
    a, b = perturbed_r1()
    bad = set(mismatches(a, b))
    capped = 0
    for task in TASKS:
        in_task = [i for i, m in task if m in bad]
        capped += len(in_task) > 5
        assert [e[0] for e in opalg._sweep(a, b, task)] == in_task[:5]
    assert capped >= 2


def test_operator_error_after_mismatches_in_an_earlier_shard(forks, cpus):
    # (2)_n / (-1)_n is -2 at z2-degree 1 and has its pole at z2-degree 2
    b = DegreeDiagonal(2, 2, -1)
    first_bad = next(m for m in BASIS if exponents(m)[1] == 1)
    pole = next(m for m in BASIS if exponents(m)[1] == 2)
    assert first_bad < pole and charge(first_bad) != charge(pole)
    serial, forked = both(Scalar(1), b, forks, cpus)
    assert serial["status"] == "error"
    assert serial["failures"][0]["input"] == monomial_text(first_bad)
    assert len(serial["failures"]) == 5
    assert serial["notes"][0].startswith("PochhammerPole: ")
    assert forked == serial


class Raising(Operator):
    """The identity, except that `fault()` is called on a monomial of one
    (S, B) block."""

    def __init__(self, block, fault):
        self.block = block
        self.fault = fault

    def _apply(self, p):
        if any(charge(m) == self.block for m in p.terms):
            self.fault()
        return p

    def parity(self):
        return 0


class NeedsTwo(OperatorError):
    """Pickles, but does not unpickle: its args hold one joined string."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def zero_division():
    return Q(1) / 0


def operator_error():
    raise PochhammerPole("a pole")


def unpicklable():
    class Local(OperatorError):
        pass
    raise Local("a class pickle cannot find")


def not_unpicklable():
    raise NeedsTwo("one", "two")


# worker j starts with task j, so task 0 is swept here and task 1 in the
# child
@pytest.mark.parametrize("task", [0, 1], ids=["in-process", "in-child"])
@pytest.mark.parametrize("fault", [zero_division, operator_error,
                                   unpicklable, not_unpicklable])
def test_exception_stops_the_sweep_where_the_serial_one_stops(forks, cpus,
                                                              fault, task):
    # the fault comes after mismatches on z3-degree 1, in both tasks
    a = Raising(charge(TASKS[task][0][1]), fault)
    serial, forked = both(a, DegreeDiagonal(3, 2, 1), forks, cpus)
    if fault is zero_division:
        assert serial[0] is ZeroDivisionError
    else:
        assert serial["status"] == "error"
        assert serial["failures"]
    assert forked == serial


@pytest.mark.parametrize("status", ["pass", "fail"])
def test_a_failed_fork_sweeps_its_slot_in_process(monkeypatch, cpus, status):
    calls = []

    def failing():
        calls.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    a, b = perturbed_r1()
    if status == "pass":
        b = a
    cpus(1)
    serial = outcome(lambda: sweep(a, b))
    monkeypatch.setattr(os, "fork", failing)
    cpus(2)
    assert outcome(lambda: sweep(a, b)) == serial
    assert calls == [1]
    assert serial["status"] == status


def test_many_cpus_fork_one_child(forks, cpus):
    cpus(64)
    assert sweep(Scalar(1), Scalar(1)).passed
    assert forks == [1]
    assert_no_child()


def test_the_tasks_are_the_charge_shards_highest_charge_first(monkeypatch):
    tasks = []
    run = opalg.run_tasks

    def recording(task, given):
        tasks.append(given)
        return run(task, given)

    monkeypatch.setattr(opalg, "run_tasks", recording)
    assert sweep(Scalar(1), Scalar(1)).passed
    assert equal_on_degree(Scalar(1), Scalar(1), 2).passed
    three_site, two_site = tasks
    assert two_site == [list(enumerate(enumerate_basis(2, 2)))]
    assert three_site == TASKS
    blocks = []
    for task in three_site:
        (block,) = {charge(m) for _, m in task}
        blocks.append(block)
        assert task == sorted(task)
    assert blocks == sorted(blocks, reverse=True)
    assert len(set(blocks)) == len(blocks)
    assert sorted(pair for task in three_site for pair in task) == \
        list(enumerate(BASIS))


def test_a_ybe_sweep_drops_each_shards_lifted_columns(monkeypatch, cpus):
    """On one CPU: once a shard is swept, the lifted three-site columns of
    its block are gone by the end of the next, and every column of the
    two-site cache `check_ybe` puts on `build_full_R` is filled once in the
    whole run."""
    lifted, full, two_site, fills, held = [], [], [], [], []

    class Lifted(opalg.BlockCached):
        __slots__ = ()

        def __init__(self, op):
            super().__init__(op)
            lifted.append(self)

    class TwoSite(opalg.Cached):
        __slots__ = ()

        def __init__(self, op):
            super().__init__(op)
            if any(op is f for f in full):
                two_site.append(self)

    build = rops.build_full_R

    def build_full_R(*args):
        full.append(build(*args))
        return full[-1]

    fill = opalg.Cached._fill

    def counting(cache, m):
        fills.append((id(cache), m))
        return fill(cache, m)

    shard_sweep = opalg._sweep

    def holding(a, b, shard):
        events = shard_sweep(a, b, shard)
        held.append((charge(shard[0][1]),
                     {charge(m) for cache in lifted for m in cache._images}))
        return events

    monkeypatch.setattr(rops, "BlockCached", Lifted)
    monkeypatch.setattr(rops, "Cached", TwoSite)
    monkeypatch.setattr(rops, "build_full_R", build_full_R)
    monkeypatch.setattr(opalg.Cached, "_fill", counting)
    monkeypatch.setattr(opalg, "_sweep", holding)
    cpus(1)
    assert check_ybe(*YBE, max_degree=2).passed
    assert len(lifted) == len(full) == len(two_site) == 3
    # each lift holds its pair's two-site cache, which holds the product
    assert [c.op.op for c in lifted] == two_site
    assert [block for block, _ in held] == \
        [charge(task[0][1]) for task in TASKS]
    for block, blocks in held:
        assert blocks == {block}
    ids = {id(cache) for cache in two_site}
    columns = [key for key in fills if key[0] in ids]
    assert columns and len(set(columns)) == len(columns)


def test_two_sites_one_cpu_other_threads_or_no_fork_never_fork(monkeypatch,
                                                                cpus):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(4)
    assert equal_on_degree(Scalar(1), Scalar(1), 2).passed
    cpus(1)
    assert check_ybe(*YBE, max_degree=1).passed
    cpus(4)
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        assert check_ybe(*YBE, max_degree=1).passed
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert check_ybe(*YBE, max_degree=1).passed
    assert_no_child()


# ---------------------------------------------------------------------------
# the commands of `all`, shared between this process and one child
# ---------------------------------------------------------------------------

ALL = ["--command", "all", "--max-degree", "1", "--samples", "1"]


def cli_run(argv):
    """The bytes `ybsl21 argv` prints and its exit code; no child process
    outlives the call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert_no_child()
    return out.getvalue(), code


def both_runs(argv, forks, cpus):
    """The one-CPU and the two-CPU run of `ybsl21 argv`; the second forks
    once."""
    cpus(1)
    serial = cli_run(argv)
    assert forks == []
    cpus(2)
    forked = cli_run(argv)
    assert forks == [1]
    return serial, forked


def test_all_forks_once_and_prints_the_serial_bytes(forks, cpus):
    serial, forked = both_runs(ALL, forks, cpus)
    assert serial[1] == 0
    assert forked == serial


def singular():
    raise SingularParameters("a guard fault")


@pytest.mark.parametrize("fault,code", [(zero_division, 3), (singular, 2),
                                        (not_unpicklable, 3)])
def test_a_fault_in_the_childs_command_is_replayed_in_order(
        monkeypatch, tmp_path, forks, cpus, fault, code):
    # check-lax is command 1, the child's first task
    assert list(cli.DRIVERS).index("check-lax") == 1
    pids = tmp_path / "pids"

    def faulting(cfg, done):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        done.append(CheckReport(check_name="finished", status="pass"))
        fault()

    monkeypatch.setitem(cli.DRIVERS, "check-lax", faulting)
    serial, forked = both_runs(ALL, forks, cpus)
    assert serial[1] == code
    assert forked == serial
    ran = pids.read_text().split()
    assert ran[0] == str(os.getpid()) and ran[1] != ran[0]
    # a fault that does not unpickle sends the child's commands back here
    assert ran[2:] == ([ran[0]] if fault is not_unpicklable else [])



def test_a_not_in_span_result_comes_back_from_the_child(tmp_path, forks,
                                                        cpus):
    # NotInSpan unpickles, so the child's result is kept and its task is
    # not run again here
    pids = tmp_path / "pids"

    def task(t):
        with open(pids, "a") as f:
            f.write(f"{t} {os.getpid()}\n")
        return t, NotInSpan(Q(t, 2) * SuperPolynomial.one(), f"task {t}")

    cpus(2)
    results = list(opalg.run_tasks(task, [1, 2]))
    assert_no_child()
    assert forks == [1]
    assert [(t, type(e), str(e), e.poly, e.label) for t, e in results] == [
        (t, NotInSpan, f"task {t}: {Q(t, 2)} is outside the sector span",
         Q(t, 2) * SuperPolynomial.one(), f"task {t}") for t in (1, 2)]
    ran = dict(line.split() for line in pids.read_text().splitlines())
    assert len(pids.read_text().splitlines()) == 2
    assert ran["1"] == str(os.getpid()) and ran["2"] != ran["1"]


@pytest.mark.parametrize("n", [300, 2 + opalg.QUEUE_TASKS + 50])
def test_more_tasks_than_one_index_byte_holds(forks, cpus, n):
    # the tasks past the queue's QUEUE_TASKS run here after the workers
    cpus(2)
    assert opalg.run_tasks(lambda t: t * t, list(range(n))) == \
        [t * t for t in range(n)]
    assert forks == [1]
    assert_no_child()


def test_one_worker_runs_no_task_after_the_caller_stops(cpus):
    cpus(1)
    ran = []
    for _ in opalg.run_tasks(ran.append, [1, 2, 3]):
        break
    assert ran == [1]


def test_a_failed_fork_runs_every_command_in_process(monkeypatch, cpus):
    calls = []

    def failing():
        calls.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    cpus(1)
    serial = cli_run(ALL)
    monkeypatch.setattr(os, "fork", failing)
    cpus(2)
    assert cli_run(ALL) == serial
    assert calls == [1]


def test_one_command_the_table_or_other_threads_never_fork(monkeypatch,
                                                           cpus):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(2)
    assert cli_run(["--command", "check-recurrences", "--samples", "1"])[1] \
        == 0
    assert cli_run(["--spectrum-table", "--seed", "1"])[1] == 0
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        assert cli_run(ALL)[1] == 0
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
