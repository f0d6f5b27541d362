"""Command-line front end: parameter parsing, check orchestration, and
deterministic JSON/text reporting.

Rationals on the command line are written "p/q" or "p"; no decimals.
JSON output is one object per line, with keys sorted and wall-clock times
omitted so identical (config, seed) runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

from .lax import SpectralTriple, check_invariance, check_rll, matrices_equal
from .lax import build_lax, build_lax_factorized, build_lax_tensor
from .lowest import (check_composite, check_conjugator_oracles, check_sector,
                     expected_sector_matrix, sector_action, sector_levels)
from .opalg import OperatorError, Scalar, equal_on_degree
from .report import CheckReport
from .rops import (ParamPair, SingularParameters, build_r, build_rhat,
                   check_defining, check_factorization, check_lemma_system,
                   check_recurrences, check_ybe, pair_guard, ybe_pairs)
from .sl21 import (SingularWeight, Weight, build_generators, check_casimir,
                   check_finite_subspace, check_relations, fundamental_rep,
                   raised_vector, verma_vector)
from .superpoly import SuperPolynomial

Q = Fraction

COMMANDS = ("check-algebra", "check-lax", "check-rll", "check-defining",
            "check-lemmas", "check-recurrences", "check-factorization",
            "check-ybe", "spectrum", "all")


class GuardExhausted(Exception):
    """Parameter sampling failed to satisfy the regularity guard."""


#: faults that end a run with exit 2: the configuration is unusable
CONFIG_FAULTS = (SingularParameters, SingularWeight, ValueError)
#: faults that end a run with exit 3, after the reports finished so far
INTERNAL_FAULTS = (OperatorError, GuardExhausted, ArithmeticError)


@dataclass
class RunConfig:
    command: str
    max_degree: int = 3
    seed: int = 0
    samples: int = 3
    explicit_params: list[Fraction] | None = None
    output: str | None = None
    format: str = "json"
    include_timings: bool = False
    ybe_degree: int = 1


def parse_rational(text: str) -> Fraction:
    """Strict 'p' or 'p/q' form; decimals are rejected, not reinterpreted."""
    text = text.strip()
    num, _, den = text.partition("/")
    try:
        if den:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational 'p/q': {text!r}") from exc


def _rand_rational(rng: random.Random) -> Fraction:
    return Q(rng.randint(-20, 20), rng.randint(1, 8))


def sample_params(seed: int, samples: int, max_degree: int) -> list[ParamPair]:
    """Deterministic regular parameter pairs; identical for identical seed."""
    rng = random.Random(seed)
    out: list[ParamPair] = []
    attempts = 0
    while len(out) < samples:
        attempts += 1
        if attempts > 1000 * max(samples, 1):
            raise GuardExhausted("no regular parameters after 1000 resamples")
        pp = ParamPair.from_rationals(*(_rand_rational(rng) for _ in range(6)))
        try:
            pair_guard(pp, max_degree)
        except SingularParameters:
            continue
        out.append(pp)
    return out


def sample_weights(seed: int, samples: int) -> list[Weight]:
    """Deterministic weights with 2*ell away from the nonpositive integers."""
    rng = random.Random(seed ^ 0x5EED)
    out: list[Weight] = []
    while len(out) < samples:
        w = Weight(_rand_rational(rng), _rand_rational(rng))
        two_ell = 2 * w.ell
        if two_ell.denominator == 1 and two_ell <= 0:
            continue
        out.append(w)
    return out


def sample_weight_spectral(seed: int, samples: int):
    """(weight, u, v) configurations for the RLL checks."""
    rng = random.Random(seed ^ 0xA11CE)
    ws = sample_weights(seed ^ 0xA11CE, samples)
    return [(w, _rand_rational(rng), _rand_rational(rng)) for w in ws]


# ---------------------------------------------------------------------------
# check drivers, one per command
# ---------------------------------------------------------------------------

def _pairs_for(cfg: RunConfig, max_degree: int) -> list[ParamPair]:
    if cfg.explicit_params is not None:
        pp = ParamPair.from_rationals(*cfg.explicit_params)
        pair_guard(pp, max_degree)   # aborts the run before computation
        return [pp]
    return sample_params(cfg.seed, cfg.samples, max_degree)


def run_algebra(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    for w in sample_weights(cfg.seed, cfg.samples):
        g = build_generators(1, w, nsites=1)
        reports.append(check_relations(g, cfg.max_degree))
        reports.append(check_casimir(g, cfg.max_degree))
    for kind in ("chiral", "antichiral"):
        reports.append(check_relations(fundamental_rep(kind)))
    # closed-form module vectors vs iterated raising
    verma = CheckReport(check_name="verma-oracle", max_degree=4)
    with verma.timed():
        for w in sample_weights(cfg.seed, cfg.samples):
            g = build_generators(1, w, nsites=1)
            try:
                for kind in ("a", "b", "v", "w"):
                    for k in range(0 if kind in ("a", "v", "w") else 1, 5):
                        closed = verma_vector(w, kind, k)
                        raised = raised_vector(g, kind, k)
                        if closed != raised:
                            verma.add_failure(
                                f"{kind}_{k} at (ell,b)=({w.ell},{w.b})",
                                closed.text(), raised.text(),
                                (closed - raised).text())
            except SingularWeight as exc:
                verma.notes.append(f"skipped (ell,b)=({w.ell},{w.b}): {exc}")
    reports.append(verma)
    for n in (1, 2):
        for kind in ("chiral", "antichiral"):
            reports.append(check_finite_subspace(n, kind))
    return reports


def run_lax(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    rng = random.Random(cfg.seed ^ 0x1A5)
    for _ in range(cfg.samples):
        t = SpectralTriple(*(_rand_rational(rng) for _ in range(3)))
        params = {"u1": str(t.u1), "u2": str(t.u2), "u3": str(t.u3)}
        lp = build_lax(1, t, "chiral", nsites=1)
        rep = matrices_equal(lp, build_lax_factorized(1, t, nsites=1),
                             max_degree=max(cfg.max_degree, 4), nsites=1,
                             name="lax-factorized-vs-explicit", params=params)
        reports.append(rep)
        rep = matrices_equal(lp, build_lax_tensor(1, t, "chiral", nsites=1),
                             max_degree=min(cfg.max_degree, 3), nsites=1,
                             name="lax-tensor-vs-printed", params=params)
        reports.append(rep)
        reports.append(check_invariance(1, t, _rand_rational(rng),
                                        max_degree=cfg.max_degree, nsites=1))
    return reports


def run_rll(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    for w, u, v in sample_weight_spectral(cfg.seed, cfg.samples):
        for kind in ("chiral", "antichiral"):
            reports.append(check_rll(w, u, v, cfg.max_degree, kind))
    return reports


def run_defining(cfg: RunConfig) -> list[CheckReport]:
    degree = min(cfg.max_degree, 2)
    return [check_defining(k, pp, degree)
            for pp in _pairs_for(cfg, degree) for k in (1, 2, 3)]


def run_lemmas(cfg: RunConfig) -> list[CheckReport]:
    return [check_lemma_system(k, pp, cfg.max_degree)
            for pp in _pairs_for(cfg, cfg.max_degree) for k in (1, 2, 3)]


def run_recurrences(cfg: RunConfig) -> list[CheckReport]:
    return [check_recurrences(pp, nmax=4) for pp in _pairs_for(cfg, 4)]


def run_factorization(cfg: RunConfig) -> list[CheckReport]:
    degree = min(cfg.max_degree, 2)
    reports = [check_factorization(pp, degree)
               for pp in _pairs_for(cfg, degree)]
    # trivial exchange: equal parameter sets give the identity operator
    w = sample_weights(cfg.seed, 1)[0]
    pp = ParamPair.from_weights(w, w, Q(1), Q(1))
    degree = max(cfg.max_degree, 3)
    rep = CheckReport(check_name="rhat-trivial-identity", params=pp.render(),
                      max_degree=degree)
    with rep.timed():
        rep.merge(equal_on_degree(build_rhat(pp), Scalar(1), degree, nsites=2))
    reports.append(rep)
    return reports


def run_spectrum(cfg: RunConfig) -> list[CheckReport]:
    reports = [check_conjugator_oracles(nmax=3)]
    for pp in _pairs_for(cfg, 4):
        for which in (1, 2, 3):
            reports.append(check_sector(which, pp, nmax=3))
        reports.append(check_composite(pp, nmax=3))
    return reports


def run_ybe(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    rng = random.Random(cfg.seed ^ 0x1BE)
    count = 0
    attempts = 0
    while count < min(cfg.samples, 2):
        attempts += 1
        if attempts > 2000:
            raise GuardExhausted("no regular YBE configuration found")
        ws = sample_weights(rng.randint(0, 2 ** 31), 3)
        u, v = _rand_rational(rng), _rand_rational(rng)
        try:
            for pp in ybe_pairs(*ws, u, v):
                pair_guard(pp, cfg.ybe_degree)
        except SingularParameters:
            continue
        count += 1
        reports.append(check_ybe(ws[0], ws[1], ws[2], u, v,
                                 max_degree=cfg.ybe_degree))
    return reports


DRIVERS = {
    "check-algebra": run_algebra,
    "check-lax": run_lax,
    "check-rll": run_rll,
    "check-defining": run_defining,
    "check-lemmas": run_lemmas,
    "check-recurrences": run_recurrences,
    "check-factorization": run_factorization,
    "spectrum": run_spectrum,
    "check-ybe": run_ybe,
}

SUITE_ORDER = ("check-algebra", "check-lax", "check-rll", "check-defining",
               "check-lemmas", "check-recurrences", "check-factorization",
               "spectrum")


def run(cfg: RunConfig, stream=None) -> int:
    """Dispatch checks, stream reports, and return the exit code.

    Exit codes: 0 all passed, 1 check failures, 2 configuration errors,
    3 internal errors (non-terminating series, guard exhaustion, arithmetic
    faults, ...).
    """
    stream = stream if stream is not None else sys.stdout
    reports: list[CheckReport] = []
    commands = list(SUITE_ORDER) if cfg.command == "all" else [cfg.command]
    if cfg.command == "all":
        reports.append(CheckReport(
            check_name="check-ybe", status="skip",
            notes=["skipped: run 'check-ybe' explicitly "
                   "(three-site extension)"]))
    code = _collect(cfg, stream, reports,
                    [DRIVERS[command] for command in commands],
                    lambda done: _emit(cfg, done, stream))
    if code is not None:
        return code
    if any(r.status == "error" for r in reports):
        return 3
    return 0 if all(r.status in ("pass", "skip") for r in reports) else 1


def _collect(cfg: RunConfig, stream, done: list, steps, emit) -> int | None:
    """Extend `done` with each step's results, then pass it to `emit`.

    The one place a fault becomes an exit code: a configuration fault is
    reported alone with exit 2; an internal fault is reported after the
    results finished so far, with exit 3.  Returns None when no step fails.
    """
    try:
        for step in steps:
            done.extend(step(cfg))
    except CONFIG_FAULTS as exc:
        _emit_config_error(cfg, stream, f"{type(exc).__name__}: {exc}")
        return 2
    except INTERNAL_FAULTS as exc:
        emit(done)
        _emit(cfg, [CheckReport(check_name="internal-error", status="error",
                                notes=[f"{type(exc).__name__}: {exc}"])],
              stream)
        return 3
    emit(done)
    return None


def _emit_config_error(cfg: RunConfig, stream, message: str) -> None:
    if cfg.format == "json":
        stream.write(json.dumps({"check_name": "config", "status": "error",
                                 "notes": [message]}, sort_keys=True) + "\n")
    else:
        stream.write(f"CONFIG ERROR {message}\n")


def _emit(cfg: RunConfig, reports: list[CheckReport], stream) -> None:
    for r in reports:
        if cfg.format == "json":
            stream.write(json.dumps(r.to_dict(cfg.include_timings),
                                    sort_keys=True) + "\n")
        else:
            stream.write(format_text(r, cfg.include_timings) + "\n")


def format_text(r: CheckReport, include_timings: bool = True) -> str:
    head = f"{r.status.upper():5s} {r.check_name}"
    if r.params:
        head += " [" + ", ".join(f"{k}={v}" for k, v in sorted(r.params.items())) + "]"
    if r.max_degree is not None:
        head += f" D={r.max_degree}"
    if include_timings:
        head += f" ({r.elapsed_ms:.0f} ms)"
    lines = [head]
    for f in r.failures[:5]:
        lines.append(f"    on {f.input}: lhs={f.lhs} rhs={f.rhs} "
                     f"residual={f.residual}")
    for n in r.notes:
        lines.append(f"    note: {n}")
    return "\n".join(lines)


def spectrum_table(cfg: RunConfig) -> list[dict]:
    """Computed vs closed-formula sector entries for every operator, n <= 3."""
    pp = _pairs_for(cfg, 4)[0]
    ops = [(1, "R1", build_r(1, pp)), (2, "R2", build_r(2, pp)),
           (3, "R3", build_r(3, pp)), ("rhat", "Rcheck", build_rhat(pp))]
    rows = []
    one = SuperPolynomial.one(2)
    for _, name, op in ops:
        image = op.apply(one)
        fixed = image == one
        rows.append({
            "operator": name, "sector": "anchor", "n": 0,
            "computed": "1" if fixed else image.text(),
            "formula": "1", "match": fixed,
            "note": "normalization anchor: every ratio is 1 at n=0",
        })
    for n, sector in sector_levels(3):
        for which, name, op in ops:
            got = sector_action(op, sector, n)
            want = expected_sector_matrix(which, pp, sector, n)
            rows.append({
                "operator": name, "sector": sector, "n": n,
                "computed": [[str(x) for x in row] for row in got.entries],
                "formula": [[str(x) for x in row] for row in want.entries],
                "match": got.entries == want.entries,
                "note": ("paper-typo-note: printed composite odd line "
                         "labels the Psi- image as Psi+"
                         if which == "rhat" and sector == "odd" else ""),
            })
    return rows


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ybsl21",
        description="Exact verification suite for the rational sl(2|1) "
                    "R-operator factorization")
    p.add_argument("--command", choices=COMMANDS, default="all")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get("YBSL21_SEED", "0")))
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--params",
                   help="explicit u1,u2,u3,v1,v2,v3 as rationals p/q")
    p.add_argument("--weights",
                   help="explicit l1,b1,l2,b2,u,v as rationals p/q")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", dest="output", default=None,
                   help="output path (default stdout)")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed_ms (breaks byte-determinism)")
    p.add_argument("--ybe-degree", type=int, default=1)
    p.add_argument("--spectrum-table", action="store_true",
                   help="emit the spectrum comparison table and exit")
    return p


def config_from_args(args) -> RunConfig:
    """Validate the arguments; any ValueError aborts before computation."""
    if args.max_degree < 0 or args.ybe_degree < 0:
        raise ValueError("--max-degree and --ybe-degree must be >= 0")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.params and args.weights:
        raise ValueError("--params and --weights are mutually exclusive")
    explicit_params = None
    if args.params:
        vals = [parse_rational(x) for x in args.params.split(",")]
        if len(vals) != 6:
            raise ValueError("--params needs six rationals u1,u2,u3,v1,v2,v3")
        explicit_params = vals
    if args.weights:
        vals = [parse_rational(x) for x in args.weights.split(",")]
        if len(vals) != 6:
            raise ValueError("--weights needs six rationals l1,b1,l2,b2,u,v")
        l1, b1, l2, b2, u, v = vals
        pp = ParamPair.from_weights(Weight(l1, b1), Weight(l2, b2), u, v)
        explicit_params = list(pp.u.as_tuple() + pp.v.as_tuple())
    return RunConfig(command=args.command, max_degree=args.max_degree,
                     seed=args.seed, samples=args.samples,
                     explicit_params=explicit_params,
                     output=args.output, format=args.format,
                     include_timings=args.timings,
                     ybe_degree=args.ybe_degree)


def _emit_rows(rows: list[dict], stream) -> None:
    for row in rows:
        stream.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        out = (open(cfg.output, "w", encoding="utf-8")
               if cfg.output and cfg.output != "-" else nullcontext(sys.stdout))
    except (ValueError, OSError) as exc:
        print(f"CONFIG ERROR {exc}", file=sys.stderr)
        return 2
    with out as stream:
        if args.spectrum_table:
            return _collect(cfg, stream, [], [spectrum_table],
                            lambda rows: _emit_rows(rows, stream)) or 0
        return run(cfg, stream)


if __name__ == "__main__":
    sys.exit(main())
