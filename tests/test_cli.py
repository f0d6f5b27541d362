import hashlib
import io
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from ybsl21.cli import (MAX_DEGREE, GuardExhausted, RunConfig, build_parser,
                        config_from_args, main, parse_rational, run,
                        sample_params, sample_weights, spectrum_table)
from ybsl21.report import CheckReport
from ybsl21.rops import SingularParameters, pair_guard
from ybsl21.superpoly import Z_MAX, Monomial


def test_parse_rational():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-5") == Q(-5)
    assert parse_rational(" -7/2 ") == Q(-7, 2)
    with pytest.raises(ValueError):
        parse_rational("0.5")      # decimals are rejected, not converted
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_out_path_writes_file(tmp_path):
    out = tmp_path / "reports.jsonl"
    code = main(["--command", "check-recurrences", "--samples", "1",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["status"] == "pass"


def test_sample_params_deterministic():
    a = sample_params(seed=7, samples=3, max_degree=3)
    b = sample_params(seed=7, samples=3, max_degree=3)
    assert [p.render() for p in a] == [p.render() for p in b]
    c = sample_params(seed=8, samples=3, max_degree=3)
    assert [p.render() for p in a] != [p.render() for p in c]


def test_sample_params_guarded():
    for pp in sample_params(seed=3, samples=5, max_degree=3):
        pair_guard(pp, 3)          # must not raise
        assert pp.u.u2 != pp.u.u3


def test_sample_params_empty():
    assert sample_params(seed=1, samples=0, max_degree=3) == []


def test_sample_params_exhaustion_states_its_draw_count(monkeypatch):
    from ybsl21 import cli

    def reject(pp, max_degree):
        raise SingularParameters("rejected")

    monkeypatch.setattr(cli, "pair_guard", reject)
    with pytest.raises(GuardExhausted, match="after 2000 resamples"):
        sample_params(0, 2, 1)


def test_sample_weights_regular():
    for w in sample_weights(seed=5, samples=6):
        two_ell = 2 * w.ell
        assert not (two_ell.denominator == 1 and two_ell <= 0)


def test_run_exit_codes_and_stream():
    buf = io.StringIO()
    cfg = RunConfig(command="check-recurrences", max_degree=2, samples=1,
                    seed=1)
    assert run(cfg, stream=buf) == 0
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert all(obj["status"] == "pass" for obj in lines)
    assert all("elapsed_ms" not in obj for obj in lines)


def test_run_failing_check_exits_1(monkeypatch):
    from ybsl21 import cli
    from ybsl21.report import CheckReport

    def failing_driver(cfg, done):
        rep = CheckReport(check_name="synthetic")
        rep.add_failure("1", "1", "0", "1")
        done.append(rep)

    monkeypatch.setitem(cli.DRIVERS, "check-recurrences", failing_driver)
    buf = io.StringIO()
    cfg = RunConfig(command="check-recurrences", seed=1)
    assert run(cfg, stream=buf) == 1
    assert json.loads(buf.getvalue())["status"] == "fail"


def test_run_guard_violation_exits_2():
    buf = io.StringIO()
    cfg = RunConfig(command="check-defining", max_degree=1, samples=1, seed=1,
                    explicit_params=[Q(1), Q(2), Q(2), Q(4), Q(5), Q(6)])
    assert run(cfg, stream=buf) == 2
    assert "error" in buf.getvalue()


def test_run_internal_error_exits_3(monkeypatch):
    from ybsl21 import cli
    from ybsl21.opalg import NonTerminatingExp

    def exploding_driver(cfg, done):
        raise NonTerminatingExp("series did not vanish")

    monkeypatch.setitem(cli.DRIVERS, "check-recurrences", exploding_driver)
    buf = io.StringIO()
    cfg = RunConfig(command="check-recurrences", seed=1)
    assert run(cfg, stream=buf) == 3
    assert "NonTerminatingExp" in buf.getvalue()


def _raise(exc):
    raise exc


@pytest.mark.parametrize("fault", [
    lambda: Monomial((Z_MAX + 1,), 0),
    lambda: _raise(ValueError("plain")),
    lambda: _raise(TypeError("plain")),
], ids=["key-overflow", "value-error", "type-error"])
def test_program_fault_exits_3_after_finished_reports(monkeypatch, fault):
    """Any fault met mid-run but SingularParameters is an internal error,
    a ValueError or a TypeError too: the finished reports are kept and the
    run exits 3."""
    from ybsl21 import cli

    def faulting_driver(cfg, done):
        done.append(CheckReport(check_name="finished", status="pass"))
        fault()

    monkeypatch.setitem(cli.DRIVERS, "check-recurrences", faulting_driver)
    buf = io.StringIO()
    assert run(RunConfig(command="check-recurrences"), stream=buf) == 3
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [r["check_name"] for r in records] == ["finished", "internal-error"]


def test_json_byte_determinism():
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        cfg = RunConfig(command="check-recurrences", max_degree=2, samples=2,
                        seed=11)
        assert run(cfg, stream=buf) == 0
        outs.append(buf.getvalue().encode())
    assert outs[0] == outs[1]


def test_cli_main_text_format(capsys):
    code = main(["--command", "check-recurrences", "--samples", "1",
                 "--seed", "2", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")


def test_cli_explicit_weights():
    code = main(["--command", "check-recurrences", "--samples", "1",
                 "--weights", "1,1/3,1/2,-2/5,2,1/2", "--format", "text"])
    assert code == 0


def test_cli_bad_params_message(capsys):
    code = main(["--command", "check-defining", "--params", "1,2,3"])
    assert code == 2


@pytest.mark.parametrize("option,value,code", [
    ("--params", "-3,2,1,1/2,9/2,-3/2", 2),
    ("--weights", "-7/3,1/3,1/2,-2/5,2,1/2", 0),
], ids=["params", "weights"])
def test_leading_negative_rational_in_either_form(capsys, option, value,
                                                  code):
    argv = ["--command", "check-recurrences", "--format", "text"]
    outputs = []
    # argparse also accepts any prefix that names one option
    for spelling in (option, option[:-1], option[:3]):
        for form in ([spelling, value], [f"{spelling}={value}"]):
            assert main(argv + form) == code
            outputs.append(capsys.readouterr())
    assert all(out == outputs[0] for out in outputs)
    assert (outputs[0].out + outputs[0].err).startswith(
        "CONFIG ERROR" if code else "PASS")


def test_spectrum_table_rows():
    cfg = RunConfig(command="spectrum", seed=1, samples=1)
    rows = spectrum_table(cfg)
    assert all(row["match"] for row in rows)
    assert any(row["operator"] == "Rcheck" and "paper-typo-note" in row["note"]
               for row in rows if row["sector"] == "odd")


def test_env_seed(monkeypatch):
    monkeypatch.setenv("YBSL21_SEED", "42")
    args = build_parser().parse_args(["--command", "check-recurrences"])
    assert config_from_args(args).seed == 42


def test_bad_env_seed_is_usage_error(monkeypatch, capsys):
    _forbid_computation(monkeypatch)
    monkeypatch.setenv("YBSL21_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--command", "check-algebra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid int value: 'abc'" in err and "Traceback" not in err
    args = build_parser().parse_args(["--command", "check-algebra",
                                      "--seed", "5"])
    assert config_from_args(args).seed == 5


def _forbid_computation(monkeypatch):
    from ybsl21 import cli

    def boom(*args, **kwargs):
        raise AssertionError("computation started")

    for command in cli.DRIVERS:
        monkeypatch.setitem(cli.DRIVERS, command, boom)
    monkeypatch.setattr(cli, "spectrum_table", boom)


@pytest.mark.parametrize("argv", [
    ["--command", "check-recurrences", "--max-degree", "-3"],
    ["--command", "check-ybe", "--ybe-degree", "-1"],
    ["--command", "check-algebra", "--max-degree", str(MAX_DEGREE + 1)],
    ["--command", "check-ybe", "--ybe-degree", str(MAX_DEGREE + 1)],
    ["--command", "check-recurrences", "--samples", "0"],
    ["--spectrum-table", "--samples", "0"],
    ["--command", "check-recurrences", "--params", "3,2,1,1/2,9/2,-3/2",
     "--weights", "1,1/3,1/2,-2/5,2,1/2"],
    ["--spectrum-table", "--format", "text"],
    ["--command", "check-ybe", "--spectrum-table", "--seed", "1"],
], ids=["negative-degree", "negative-ybe-degree", "degree-past-key-limit",
        "ybe-degree-past-key-limit", "zero-samples", "table-zero-samples",
        "params-and-weights", "table-text-format", "table-other-command"])
def test_out_of_range_input_rejected_before_computation(monkeypatch, capsys,
                                                         argv):
    _forbid_computation(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("CONFIG ERROR")


@pytest.mark.parametrize("option", ["--params=3,2,1,1/2,9/2,-3/2",
                                    "--weights=1,1/3,1/2,-2/5,2,1/2"],
                         ids=["params", "weights"])
@pytest.mark.parametrize("command", ["check-algebra", "check-lax",
                                     "check-rll", "check-ybe"])
def test_sampling_command_rejects_explicit_inputs(monkeypatch, capsys,
                                                  command, option):
    """These commands draw all their inputs, so explicit ones are a
    configuration error; `all` passes them on to the commands that take
    them."""
    _forbid_computation(monkeypatch)
    assert main(["--command", command, option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("CONFIG ERROR")
    args = build_parser().parse_args(["--command", "all", option])
    assert len(config_from_args(args).explicit_params) == 6


@pytest.mark.parametrize("table", [False, True], ids=["run", "table"])
def test_unwritable_out_is_config_error(monkeypatch, capsys, tmp_path, table):
    _forbid_computation(monkeypatch)
    argv = ["--command", "spectrum" if table else "check-recurrences",
            "--out", str(tmp_path / "missing" / "x.jsonl")]
    assert main(argv + ["--spectrum-table"] * table) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("CONFIG ERROR")


def test_arithmetic_fault_exits_3_with_record(capsys):
    # seed 7 samples v1 = v2 = 3, which zeroes a composite denominator
    assert main(["--command", "spectrum", "--seed", "7"]) == 3
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert records[-1]["check_name"] == "internal-error"
    assert records[-1]["status"] == "error"
    assert records[-1]["notes"] == ["ZeroDivisionError: Fraction(0, 0)"]
    # the reports the spectrum driver finished before the fault are kept
    names = [r["check_name"] for r in records]
    assert names.index("conjugator-oracles") < names.index("internal-error")


def _internal_error(captured) -> dict:
    """The run's last record, which must be the internal-error record."""
    assert "Traceback" not in captured.out + captured.err
    record = json.loads(captured.out.splitlines()[-1])
    assert record["check_name"] == "internal-error"
    assert record["status"] == "error"
    return record


def test_normalization_failure_exits_3_with_record(monkeypatch, capsys):
    from ybsl21 import rops
    from ybsl21.opalg import MulZ
    # a kernel that maps 1 to z1, which no scalar normalizes
    monkeypatch.setattr(rops, "kernel", lambda k, pp: MulZ(1))
    assert main(["--command", "check-defining", "--max-degree", "1",
                 "--samples", "1"]) == 3
    record = _internal_error(capsys.readouterr())
    assert record["notes"] == ["NormalizationFailure: R1 applied to 1 gave "
                               "1 z1, not a nonzero scalar"]


def test_not_in_span_exits_3_with_record(monkeypatch, capsys):
    from ybsl21 import cli
    from ybsl21.opalg import MulZ
    # z1 times a sector vector leaves the sector span
    monkeypatch.setattr(cli, "build_r", lambda k, pp: MulZ(1))
    assert main(["--spectrum-table", "--seed", "1"]) == 3
    record = _internal_error(capsys.readouterr())
    assert record["notes"][0].startswith("NotInSpan: decompose(odd, n=0): ")


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
#: runs whose stdout and exit code are pinned byte for byte, the stdout as
#: golden/<name>.txt or, where the case gives one, as its sha256; a case
#: with "seeds" runs once per seed (see `_sweep_output`); a difference is a
#: change of the CLI's output
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def _sweep_output(capsys, case) -> bytes:
    """Every seed's run of a sweep case, in seed order, as the lines
    'seed S exit C' each followed by that run's stdout; each exit code must
    be one of the case's "exit" list."""
    first, last = case["seeds"]
    out = []
    for seed in range(first, last + 1):
        code = main(case["argv"] + ["--seed", str(seed)])
        captured = capsys.readouterr()
        assert code in case["exit"], f"seed {seed}: exit {code}"
        assert "Traceback" not in captured.err, f"seed {seed}: traceback"
        out.append(f"seed {seed} exit {code}\n{captured.out}")
    return "".join(out).encode()


@pytest.mark.parametrize("case", [
    pytest.param(case, id=case["name"],
                 marks=[pytest.mark.extended] * case.get("extended", False))
    for case in GOLDEN_CASES])
def test_golden_output(capsys, case):
    if "seeds" in case:
        out = _sweep_output(capsys, case)
    else:
        assert main(case["argv"]) == case["exit"]
        out = capsys.readouterr().out.encode()
    if "sha256" in case:
        assert hashlib.sha256(out).hexdigest() == case["sha256"]
    else:
        assert out == (GOLDEN / f"{case['name']}.txt").read_bytes()


def test_package_stays_stdlib_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert deps == [], f"runtime dependencies: {deps}"
