"""Alternating parent/change pairs of `bench/run.py`, summarized as JSON.

    python3 tools/bench_pairs.py --parent <rev> --change <rev> \\
        --workload spectrum-n5 --seed 1 --seed 61 --pairs 10 --seconds 35 \\
        --out BENCH_<n>.json

Each revision is unpacked from `git archive` into its own directory, so both
sides run their committed files and nothing else.  Pair i runs the parent
first when i is even and the change first when i is odd.  For every
end-to-end metric the output lists the values per side in pair order, each
side's median and quartiles (`statistics.quantiles(n=4,
method='inclusive')`), the pairs the change won, ties, the median change in
percent and whether the gap between the medians exceeds the distance
between the parent's quartiles.  Each workload also lists, per side, every
distinct report sha256 and (failed, attempted) count the runs printed, and
`same_reports`: whether both sides printed the same set of digests.  Every
`--workload` runs at every `--seed`; the results are keyed by workload and
then by seed.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
DIGEST = re.compile(r"^report sha256 ([0-9a-f]{64}) \((\w+)\)$", re.M)


def summarize(parent: list[float], change: list[float],
              better: str = "lower") -> dict:
    """The pairwise comparison of one metric; parent[i] and change[i] come
    from pair i, and `better` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)

    def quartiles(values):
        if len(values) < 2:
            return [values[0], values[0]]
        q = statistics.quantiles(values, n=4, method="inclusive")
        return [round(q[0], 6), round(q[2], 6)]

    pq = quartiles(parent)
    return {"parent": [round(v, 6) for v in parent],
            "change": [round(v, 6) for v in change],
            "parent_median": round(pm, 6), "change_median": round(cm, 6),
            "parent_quartiles": pq, "change_quartiles": quartiles(change),
            "change_wins": wins, "ties": ties, "pairs": len(parent),
            "median_change_pct": (round(100 * (cm - pm) / pm, 1) if pm
                                  else 0.0),
            "gap_exceeds_parent_iqr": abs(cm - pm) > pq[1] - pq[0]}


def unpack(rev: str, dest: Path) -> Path:
    """The files of `rev` under `dest`, from `git archive`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    # the "data" filter, where this Python has it, refuses links and paths
    # that leave `dest`
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, **safe)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `bench/run.py` run in `tree`: its metric values, digest and
    counts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: no result "
                           f"(exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = DIGEST.search(proc.stdout)
    return {"values": {k: m["value"] for k, m in result["metrics"].items()},
            "correct": result["correct"],
            "deterministic": bool(digest) and digest[2] == "deterministic",
            "sha256": digest[1] if digest else None,
            "counts": [result["failed"], result["attempted"]]}


def compare(trees: dict, workload: str, seed: int, pairs: int, seconds: int,
            better: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            r = runs[side][-1]
            print(f"pair {i} {side:6s} {workload} "
                  + " ".join(f"{k}={v:.6g}" for k, v in r["values"].items()),
                  file=sys.stderr)
    names = list(runs["parent"][0]["values"])
    digests = {side: sorted({r["sha256"] for r in runs[side]})
               for side in SIDES}
    return {
        "metrics": {name: summarize(
            [r["values"][name] for r in runs["parent"]],
            [r["values"][name] for r in runs["change"]],
            better.get(name, "lower")) for name in names},
        "all_correct": all(r["correct"] for side in SIDES
                           for r in runs[side]),
        "all_deterministic": all(r["deterministic"] for side in SIDES
                                 for r in runs[side]),
        "failed_attempted": {side: sorted({tuple(r["counts"])
                                           for r in runs[side]})
                             for side in SIDES},
        "report_sha256": digests,
        "same_reports": digests["parent"] == digests["change"],
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision")
    p.add_argument("--change", default="HEAD", help="git revision")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, action="append", required=True,
                   help="repeat to run every workload at each seed")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--what", default="", help="the change, in one line")
    args = p.parse_args(argv)
    args.seed = list(dict.fromkeys(args.seed))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    revs = {side: subprocess.run(["git", "rev-parse", getattr(args, side)],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: unpack(revs[side], Path(tmp) / side) for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        results = {w: {str(seed): compare(trees, w, seed, args.pairs,
                                          args.seconds, better)
                       for seed in args.seed} for w in args.workload}
    out = {
        "what": args.what, "parent": revs["parent"], "change": revs["change"],
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "command": ("python3 bench/run.py --workload <name> --seed <seed> "
                    f"--seconds {args.seconds}"),
        "method": (f"{args.pairs} pairs per workload and seed, the parent "
                   "first in even-numbered pairs and the change first in odd "
                   "ones; each side runs from its own git-archive copy of "
                   "its revision. Values are listed in pair order; quartiles "
                   "are statistics.quantiles(n=4, method='inclusive')."),
        "seeds": args.seed, "results": results,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
