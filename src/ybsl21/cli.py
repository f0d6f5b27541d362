"""Command-line front end: parameter parsing, check orchestration, and
deterministic JSON/text reporting.

Rationals on the command line are written "p/q" or "p"; no decimals.
JSON output is one object per line, with keys sorted and wall-clock times
omitted so identical (config, seed) runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction

from .lax import SpectralTriple, check_invariance, check_rll, matrices_equal
from .lax import build_lax, build_lax_factorized, build_lax_tensor
from .lowest import (check_composite, check_conjugator_oracles,
                     check_sector, expected_sector_matrix, sector_action,
                     sector_levels)
from .opalg import Scalar, equal_on_degree, run_tasks
from .report import CheckReport
from .rops import (ParamPair, SingularParameters, build_r, build_rhat,
                   check_defining, check_factorization, check_lemma_system,
                   check_recurrences, check_ybe, pair_guard, ybe_pairs)
from .sl21 import (Weight, build_generators, check_casimir,
                   check_finite_subspace, check_relations, fundamental_rep,
                   raised_vector, verma_vector)
from .superpoly import Z_MAX, SuperPolynomial

Q = Fraction


class GuardExhausted(Exception):
    """Parameter sampling failed to satisfy the regularity guard."""


#: images rise at most 4 z-degrees above --max-degree or --ybe-degree, so
#: twice that margin below Z_MAX keeps every z-degree within its key field
MAX_DEGREE = Z_MAX - 8


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
    attempts, limit = 0, 1000 * samples
    while len(out) < samples:
        attempts += 1
        if attempts > limit:
            raise GuardExhausted(f"no regular parameters after {limit} "
                                 f"resamples")
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
        if not w.is_singular():
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

def _driver(results: Callable[[RunConfig], Iterable]):
    """A driver built from `results(cfg)`, which yields what it finishes.

    `driver(cfg, done)` appends each result to `done` as it is yielded and
    returns `done` (a new list when none is given), so a fault in the middle
    keeps everything finished before it.
    """
    @functools.wraps(results)
    def driver(cfg: RunConfig, done: list | None = None) -> list:
        done = [] if done is None else done
        done.extend(results(cfg))
        return done
    return driver


def _pairs_for(cfg: RunConfig, max_degree: int) -> list[ParamPair]:
    if cfg.explicit_params is not None:
        pp = ParamPair.from_rationals(*cfg.explicit_params)
        pair_guard(pp, max_degree)   # aborts the run before computation
        return [pp]
    return sample_params(cfg.seed, cfg.samples, max_degree)


@_driver
def run_algebra(cfg: RunConfig) -> Iterator[CheckReport]:
    weights = sample_weights(cfg.seed, cfg.samples)
    for w in weights:
        g = build_generators(1, w)
        yield check_relations(g, cfg.max_degree)
        yield check_casimir(g, cfg.max_degree)
    for kind in ("chiral", "antichiral"):
        yield check_relations(fundamental_rep(kind))
    # closed-form module vectors vs iterated raising
    verma = CheckReport(check_name="verma-oracle", max_degree=4)
    with verma.timed():
        for w in weights:
            g = build_generators(1, w)
            for kind in ("a", "b", "v", "w"):
                for k in range(0 if kind in ("a", "v", "w") else 1, 5):
                    verma.expect(f"{kind}_{k} at (ell,b)=({w.ell},{w.b})",
                                 verma_vector(w, kind, k),
                                 raised_vector(g, kind, k))
    yield verma
    for n in (1, 2):
        for kind in ("chiral", "antichiral"):
            yield check_finite_subspace(n, kind)


@_driver
def run_lax(cfg: RunConfig) -> Iterator[CheckReport]:
    rng = random.Random(cfg.seed ^ 0x1A5)
    for _ in range(cfg.samples):
        t = SpectralTriple(*(_rand_rational(rng) for _ in range(3)))
        params = {"u1": str(t.u1), "u2": str(t.u2), "u3": str(t.u3)}
        lp = build_lax(1, t, "chiral")
        yield matrices_equal(lp, build_lax_factorized(t),
                             max_degree=max(cfg.max_degree, 4), nsites=1,
                             name="lax-factorized-vs-explicit", params=params)
        yield matrices_equal(lp, build_lax_tensor(t, "chiral"),
                             max_degree=min(cfg.max_degree, 3), nsites=1,
                             name="lax-tensor-vs-printed", params=params)
        yield check_invariance(t, _rand_rational(rng),
                               max_degree=cfg.max_degree)


@_driver
def run_rll(cfg: RunConfig) -> Iterator[CheckReport]:
    for w, u, v in sample_weight_spectral(cfg.seed, cfg.samples):
        for kind in ("chiral", "antichiral"):
            yield check_rll(w, u, v, cfg.max_degree, kind)


@_driver
def run_defining(cfg: RunConfig) -> Iterator[CheckReport]:
    degree = min(cfg.max_degree, 2)
    for pp in _pairs_for(cfg, degree):
        for k in (1, 2, 3):
            yield check_defining(k, pp, degree)


@_driver
def run_lemmas(cfg: RunConfig) -> Iterator[CheckReport]:
    for pp in _pairs_for(cfg, cfg.max_degree):
        for k in (1, 2, 3):
            yield check_lemma_system(k, pp, cfg.max_degree)


@_driver
def run_recurrences(cfg: RunConfig) -> Iterator[CheckReport]:
    for pp in _pairs_for(cfg, 4):
        yield check_recurrences(pp, nmax=4)


@_driver
def run_factorization(cfg: RunConfig) -> Iterator[CheckReport]:
    degree = min(cfg.max_degree, 2)
    for pp in _pairs_for(cfg, degree):
        yield check_factorization(pp, degree)
    # trivial exchange: equal parameter sets give the identity operator
    w = sample_weights(cfg.seed, 1)[0]
    pp = ParamPair.from_weights(w, w, Q(1), Q(1))
    degree = max(cfg.max_degree, 3)
    yield replace(equal_on_degree(build_rhat(pp), Scalar(1), degree),
                  check_name="rhat-trivial-identity", params=pp.render())


@_driver
def run_spectrum(cfg: RunConfig) -> Iterator[CheckReport]:
    yield check_conjugator_oracles(nmax=3)
    for pp in _pairs_for(cfg, 4):
        for which in (1, 2, 3):
            yield check_sector(which, pp, nmax=3)
        yield check_composite(pp, nmax=3)


@_driver
def run_ybe(cfg: RunConfig) -> Iterator[CheckReport]:
    rng = random.Random(cfg.seed ^ 0x1BE)
    count = 0
    attempts, limit = 0, 2000
    while count < min(cfg.samples, 2):
        attempts += 1
        if attempts > limit:
            raise GuardExhausted(f"no regular YBE configuration after "
                                 f"{limit} draws")
        ws = sample_weights(rng.randint(0, 2 ** 31), 3)
        u, v = _rand_rational(rng), _rand_rational(rng)
        try:
            for pp in ybe_pairs(*ws, u, v):
                pair_guard(pp, cfg.ybe_degree)
        except SingularParameters:
            continue
        count += 1
        yield check_ybe(ws[0], ws[1], ws[2], u, v, max_degree=cfg.ybe_degree)


#: the commands in their listed order; "all" runs every one but check-ybe
DRIVERS = {
    "check-algebra": run_algebra,
    "check-lax": run_lax,
    "check-rll": run_rll,
    "check-defining": run_defining,
    "check-lemmas": run_lemmas,
    "check-recurrences": run_recurrences,
    "check-factorization": run_factorization,
    "check-ybe": run_ybe,
    "spectrum": run_spectrum,
}
#: the commands that draw all their inputs: they take no --params or --weights
SAMPLED_ONLY = ("check-algebra", "check-lax", "check-rll", "check-ybe")


def run(cfg: RunConfig, stream=None) -> int:
    """Dispatch checks, stream reports, and return the exit code.

    Exit codes: 0 all passed, 1 check failures, 2 configuration errors,
    3 internal errors (a check reports `error`, or a run stops on a fault;
    see `_collect`).
    """
    stream = stream if stream is not None else sys.stdout
    reports: list[CheckReport] = []
    commands = [cfg.command]
    if cfg.command == "all":
        commands = [c for c in DRIVERS if c != "check-ybe"]
        reports.append(CheckReport(
            check_name="check-ybe", status="skip",
            notes=["skipped: run 'check-ybe' explicitly "
                   "(three-site extension)"]))
    code = _collect(cfg, stream, reports, [DRIVERS[c] for c in commands])
    if code is not None:
        return code
    if any(r.status == "error" for r in reports):
        return 3
    return 0 if all(r.status in ("pass", "skip") for r in reports) else 1


def _collect(cfg: RunConfig, stream, done: list, steps) -> int | None:
    """Run each step as `step(cfg, results)`, add its results to `done` in
    step order, then `_emit` them.

    The steps are independent, so `run_tasks` shares them among its
    workers; each returns what it finished and what stopped it, and these
    are replayed here up to the first exception, as if the steps had run
    one after another.  The one place a fault becomes an exit code:
    `SingularParameters` is a configuration fault, reported alone with
    exit 2; any other exception is an internal fault, reported after the
    results finished so far, with exit 3.  Returns None when no step fails.
    """
    def task(step) -> tuple[list, Exception | None]:
        finished: list = []
        try:
            step(cfg, finished)
        except Exception as exc:
            return finished, exc
        return finished, None

    try:
        for finished, exc in run_tasks(task, steps):
            done.extend(finished)
            if exc is not None:
                raise exc
    except SingularParameters as exc:
        _emit_config_error(cfg, stream, f"{type(exc).__name__}: {exc}")
        return 2
    except Exception as exc:
        _emit(cfg, done, stream)
        _emit(cfg, [CheckReport(check_name="internal-error", status="error",
                                notes=[f"{type(exc).__name__}: {exc}"])],
              stream)
        return 3
    _emit(cfg, done, stream)
    return None


def _emit_config_error(cfg: RunConfig, stream, message: str) -> None:
    if cfg.format == "json":
        stream.write(json.dumps({"check_name": "config", "status": "error",
                                 "notes": [message]}, sort_keys=True) + "\n")
    else:
        stream.write(f"CONFIG ERROR {message}\n")


def _emit(cfg: RunConfig, results: list, stream) -> None:
    """Write each `CheckReport` in `cfg.format`, and each `--spectrum-table`
    row dict as JSON (that mode is JSON-only)."""
    for r in results:
        if cfg.format == "json":
            row = r if isinstance(r, dict) else r.to_dict(cfg.include_timings)
            stream.write(json.dumps(row, sort_keys=True) + "\n")
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


@_driver
def spectrum_table(cfg: RunConfig) -> list[dict]:
    """Computed vs closed-formula sector entries for every operator, n <= 3."""
    pp = _pairs_for(cfg, 4)[0]
    ops = [(1, "R1", build_r(1, pp)), (2, "R2", build_r(2, pp)),
           (3, "R3", build_r(3, pp)), ("rhat", "Rcheck", build_rhat(pp))]
    rows = []
    one = SuperPolynomial.one()
    for _, name, op in ops:
        image = op.apply(one)
        rows.append({
            "operator": name, "sector": "anchor", "n": 0,
            "computed": image.text(), "formula": "1", "match": image == one,
            "note": "normalization anchor: every ratio is 1 at n=0",
        })
    for n, sector in sector_levels(3):
        for which, name, op in ops:
            got = sector_action(op, sector, n)
            want = expected_sector_matrix(which, pp, sector, n)
            rows.append({
                "operator": name, "sector": sector, "n": n,
                "computed": [[str(x) for x in row] for row in got],
                "formula": [[str(x) for x in row] for row in want],
                "match": got == want,
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
    # an argument that starts with "-" and a digit, or "-." and a digit, is a
    # value, so "--params -3,2,..." reads a negative rational (argparse's own
    # rule takes only plain negative numbers)
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--command", choices=[*DRIVERS, "all"], default="all")
    p.add_argument("--max-degree", type=int, default=3)
    # a string default goes through type=int, so a bad YBSL21_SEED is a
    # usage error (exit 2) unless --seed overrides it
    p.add_argument("--seed", type=int,
                   default=os.environ.get("YBSL21_SEED", "0"))
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
    if not (0 <= args.max_degree <= MAX_DEGREE
            and 0 <= args.ybe_degree <= MAX_DEGREE):
        raise ValueError(f"--max-degree and --ybe-degree must be in "
                         f"0..{MAX_DEGREE}")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.params and args.weights:
        raise ValueError("--params and --weights are mutually exclusive")
    if (args.params or args.weights) and args.command in SAMPLED_ONLY:
        raise ValueError(f"{args.command} samples its own inputs and takes "
                         f"no --params or --weights")
    if args.spectrum_table and args.command not in ("all", "spectrum"):
        raise ValueError(f"--spectrum-table is a spectrum run; it takes no "
                         f"--command {args.command}")
    if args.spectrum_table and args.format != "json":
        raise ValueError("--spectrum-table writes JSON rows only")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        out = (open(cfg.output, "w", encoding="utf-8")
               if cfg.output and cfg.output != "-" else nullcontext(sys.stdout))
    except (ValueError, OSError) as exc:
        print(f"CONFIG ERROR {exc}", file=sys.stderr)
        return 2
    with out as stream:
        if args.spectrum_table:
            return _collect(cfg, stream, [], [spectrum_table]) or 0
        return run(cfg, stream)


if __name__ == "__main__":
    sys.exit(main())
