"""The benchmark's workloads: inputs drawn from a seed, and the checks run.

A workload is a list of items drawn from the seed and a function that runs
one item and returns its verdicts.  Each verdict is the report dictionary
the package itself serializes (`CheckReport.to_dict`, which leaves out wall
times), so two runs of the same item must give byte-identical JSON.  An
exception that escapes a check becomes a verdict tagged with its type.

`ybsl21` is imported when a `Workload` is made, not at module level, so that set-up can
be timed from a fresh import.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys

#: a verdict with one of these statuses counts as a failed operation;
#: "raised" marks an exception that escaped the check
FAILED = ("fail", "error", "raised")

YBE_DEGREE = 2
YBE_CONFIGS = 2
SPECTRUM_NMAX = 5
SPECTRUM_PAIRS = 16
#: `ybsl21 --command all --max-degree 3` at the CLI's default seed
SUITE_ARGV = ("--command", "all", "--max-degree", "3", "--seed", "0")

WORKLOADS = ("ybe-d2", "suite-d3", "spectrum-n5")


def purge() -> None:
    """Forget every imported ybsl21 module, so the next import is fresh."""
    for name in [n for n in sys.modules
                 if n == "ybsl21" or n.startswith("ybsl21.")]:
        del sys.modules[name]


def raised(check: str, exc: BaseException) -> dict:
    return {"check_name": check, "status": "raised",
            "error": type(exc).__name__}


class Workload:
    """Items drawn from a seed, and `run(item)` -> list of verdicts."""

    def __init__(self, name: str, seed: int):
        importlib.import_module("ybsl21")
        self.cli = importlib.import_module("ybsl21.cli")
        self.rops = importlib.import_module("ybsl21.rops")
        self.lowest = importlib.import_module("ybsl21.lowest")
        self.name = name
        self.seed = seed
        self.items = self.generate()

    def generate(self) -> list:
        if self.name == "ybe-d2":
            return self._ybe_configs()
        if self.name == "spectrum-n5":
            return self.cli.sample_params(self.seed, SPECTRUM_PAIRS,
                                          SPECTRUM_NMAX + 1)
        return [SUITE_ARGV]

    def _ybe_configs(self) -> list:
        """Configurations drawn the way `ybsl21 --command check-ybe` draws
        them: three sampled weights and two spectral points, accepted when
        all three exchanged pairs pass the regularity guard."""
        cli, rops = self.cli, self.rops
        rng = random.Random(self.seed ^ 0x1BE)
        out = []
        for _ in range(2000):
            ws = cli.sample_weights(rng.randint(0, 2 ** 31), 3)
            u, v = cli._rand_rational(rng), cli._rand_rational(rng)
            try:
                for a, b, x in ((0, 1, u - v), (0, 2, u), (1, 2, v)):
                    rops.pair_guard(rops.ParamPair.from_weights(
                        ws[a], ws[b], 0, x), YBE_DEGREE)
            except rops.SingularParameters:
                continue
            out.append((ws[0], ws[1], ws[2], u, v))
            if len(out) == YBE_CONFIGS:
                return out
        raise RuntimeError("no regular YBE configuration in 2000 draws")

    def run(self, item) -> list[dict]:
        if self.name == "ybe-d2":
            return [self._call("yang-baxter", self.rops.check_ybe, *item,
                               max_degree=YBE_DEGREE)]
        if self.name == "spectrum-n5":
            lowest = self.lowest
            out = [self._call(f"spectrum-R{k}", lowest.check_sector, k, item,
                              nmax=SPECTRUM_NMAX) for k in (1, 2, 3)]
            out.append(self._call("spectrum-composite",
                                  lowest.check_composite, item,
                                  nmax=SPECTRUM_NMAX))
            return out
        return self._suite(item)

    @staticmethod
    def _call(check: str, fn, *args, **kwargs) -> dict:
        try:
            return fn(*args, **kwargs).to_dict()
        except Exception as exc:     # counted as a failed operation
            return raised(check, exc)

    def _suite(self, argv) -> list[dict]:
        """One in-process CLI run; one verdict per emitted report."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(argv))
        except Exception as exc:
            return [raised("cli", exc)]
        verdicts = [json.loads(line) for line in out.getvalue().splitlines()]
        statuses = {v["status"] for v in verdicts}
        # the CLI's documented exit codes: 3 on an error, 1 on a failure
        want = 3 if "error" in statuses else (1 if "fail" in statuses else 0)
        if code != want:
            verdicts.append({"check_name": "cli-exit-code", "status": "fail",
                             "notes": [f"exit {code}, expected {want}"]})
        return verdicts
