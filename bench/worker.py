"""One benchmark run in a fresh interpreter; started by `run.py`.

Prints informational lines, then one JSON line with the verdict counts, the
report digest and the metrics of this run.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: set-up (import plus input generation) is repeated and the median kept
SETUP_REPEATS = 15


def setup(name: str, seed: int) -> tuple[workloads.Workload, float]:
    times = []
    for _ in range(SETUP_REPEATS):
        workloads.purge()
        t0 = time.perf_counter()
        wl = workloads.Workload(name, seed)
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def encode(verdicts: list[dict]) -> str:
    return "\n".join(json.dumps(v, sort_keys=True) for v in verdicts)


class ItemRuns:
    """Runs items, keeps each item's first verdicts and all its times."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.first: list[str | None] = [None] * len(wl.items)
        self.verdicts: list[list[dict]] = [[] for _ in wl.items]
        self.times: list[list[float]] = [[] for _ in wl.items]
        self.mismatches = 0

    def run(self, k: int) -> float:
        t0 = time.perf_counter()
        verdicts = self.wl.run(self.wl.items[k])
        dt = time.perf_counter() - t0
        self.times[k].append(dt)
        text = encode(verdicts)
        if self.first[k] is None:
            self.first[k] = text
            self.verdicts[k] = verdicts
        elif text != self.first[k]:
            self.mismatches += 1
        return dt

    def run_all(self) -> float:
        return sum(self.run(k) for k in range(len(self.wl.items)))

    def run_for(self, seconds: float) -> None:
        """Every item once, then round-robin repeats while they fit."""
        t_start = time.perf_counter()
        self.run_all()
        n = len(self.wl.items)
        k = 0
        while (time.perf_counter() - t_start + self.times[k][-1]
               <= seconds):
            self.run(k)
            k = (k + 1) % n

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.first).encode()).hexdigest()

    def item_medians(self) -> list[float]:
        return [statistics.median(t) for t in self.times]

    def outcome(self) -> tuple[bool, int, int, dict[str, int]]:
        """(correct, attempted, failed, failure tags) over distinct items."""
        flat = [v for vs in self.verdicts for v in vs]
        tags: dict[str, int] = {}
        for v in flat:
            if v["status"] in workloads.FAILED:
                tag = v.get("error", v["status"])
                tags[tag] = tags.get(tag, 0) + 1
        # a "fail" verdict is a wrong answer: every identity checked holds
        # on regular parameters.  "error"/"raised" are failed operations.
        correct = (self.mismatches == 0
                   and all(v["status"] != "fail" for v in flat))
        return correct, len(flat), sum(tags.values()), tags


def traced_metrics(run: ItemRuns, name: str, seed: int) -> dict:
    """One untraced and one traced pass; per-layer metrics of the latter."""
    wl = run.wl
    untraced_s = run.run_all()
    tracer = Tracer().install()
    try:
        items = wl.generate()
        traced = ItemRuns(wl)
        traced.first = list(run.first)
        traced.run_all()
    finally:
        tracer.uninstall()
    if items != wl.items:
        print("tracing changed the generated inputs", file=sys.stderr)
        traced.mismatches += 1
    run.mismatches += traced.mismatches
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    print(f"spans: {len(tracer.spans)} written to "
          f"{spans.relative_to(BENCH.parent)}")
    return tracer.metrics(sum(traced.item_medians()) / untraced_s)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ybsl21").is_dir():
        print(f"no ybsl21 package under {SRC}", file=sys.stderr)
        return 1

    wl, setup_s = setup(args.workload, args.seed)
    run = ItemRuns(wl)
    if args.trace:
        metrics = traced_metrics(run, args.workload, args.seed)
    else:
        run.run_for(args.seconds)
    correct, attempted, failed, tags = run.outcome()
    medians = run.item_medians()
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"),
                   "latency_s": (statistics.median(medians), "s"),
                   "ok_frac": ((attempted - failed) / attempted, "frac")}
    reps = sum(len(t) for t in run.times)
    print(f"workload {args.workload} seed {args.seed}: {len(wl.items)} items, "
          f"{reps} item runs, one pass {sum(medians):.3f} s, "
          f"{attempted} operations, {failed} failed {tags}")
    print(f"report sha256 {run.digest()} "
          f"({'deterministic' if run.mismatches == 0 else 'MISMATCH'})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
