"""Tests of the benchmark itself: tracer counts, failure counting, gates.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from ybsl21 import cli, lax, linsolve, lowest, opalg, rops, sl21  # noqa: E402

PP = rops.ParamPair.from_rationals(Q(3), Q(2), Q(1), Q(1, 2), Q(9, 2),
                                   Q(-3, 2))

#: every module that imports each wrapped name by name
REBOUND = {
    "equal_on_degree": (opalg, rops, lax, sl21, cli),
    "build_r": (rops, lowest),
    "solve_in_span": (linsolve, lowest, sl21),
}


def run_bench(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_tracer_counts_one_defining_check():
    plain = rops.check_defining(1, PP, max_degree=1)
    tracer = Tracer().install()
    try:
        for name, modules in REBOUND.items():
            for mod in modules:
                assert hasattr(getattr(mod, name), "__wrapped__"), \
                    f"{mod.__name__}.{name} not rebound"
        traced = rops.check_defining(1, PP, max_degree=1)
    finally:
        tracer.uninstall()
    for name, modules in REBOUND.items():
        for mod in modules:
            assert not hasattr(getattr(mod, name), "__wrapped__")
    assert not hasattr(opalg.Operator.apply, "__wrapped__")

    assert plain.status == traced.status == "pass"
    assert plain.to_dict() == traced.to_dict()
    m = {k: v for k, (v, _) in tracer.metrics(1.0).items()}
    assert m["rops.build.calls"] == 1
    assert m["lax.matrices_equal.calls"] == 1
    assert m["opalg.equal_on_degree.calls"] == 9
    assert m["opalg.basis_monomials"] == 432
    assert m["opalg.apply.calls"] == 865
    assert m["opalg.cached.created"] == 1
    assert m["superpoly.mul.calls"] > 0


def test_ybe_inputs_are_the_cli_draws(monkeypatch):
    drawn = []

    def record(*args, **kwargs):
        drawn.append(args)
        return cli.CheckReport(check_name="yang-baxter")

    monkeypatch.setattr(cli, "check_ybe", record)
    cli.run_ybe(cli.RunConfig(command="check-ybe", seed=5, samples=2,
                              ybe_degree=workloads.YBE_DEGREE))
    wl = workloads.Workload("ybe-d2", 5)
    assert len(wl.items) == workloads.YBE_CONFIGS
    assert drawn == wl.items[:2]


def test_escaping_exception_is_one_tagged_failure():
    # seed 7 draws v1 = v2 = 3, the ZeroDivisionError behind
    # `ybsl21 --command spectrum --seed 7`
    wl = workloads.Workload("spectrum-n5", 7)
    verdicts = wl.run(wl.items[0])
    assert {"check_name": "spectrum-composite", "status": "raised",
            "error": "ZeroDivisionError"} in verdicts
    assert len(verdicts) == 4


def test_failing_seed_reports_complete_and_deterministic():
    results, digests = [], []
    for _ in range(2):
        proc = run_bench("--workload", "spectrum-n5", "--seed", "7",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        results.append(json.loads(lines[-1]))
        digests += [ln for ln in lines if ln.startswith("report sha256")]
    res = results[0]
    assert res["correct"] is True
    assert res["attempted"] == 4 * workloads.SPECTRUM_PAIRS
    assert res["failed"] > 0
    assert set(res["metrics"]) == {"setup_s", "latency_s", "peak_rss_mb",
                                   "ok_frac"}
    assert res["metrics"]["ok_frac"]["value"] < 1
    assert (res["attempted"], res["failed"]) == (results[1]["attempted"],
                                                 results[1]["failed"])
    assert len(digests) == 2 and digests[0] == digests[1]
    assert "(deterministic)" in digests[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "ybe-d2", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    a = workloads.Workload(name, 3).items
    assert a == workloads.Workload(name, 3).items
    if name != "suite-d3":
        assert a != workloads.Workload(name, 4).items
