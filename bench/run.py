"""Benchmark entry point: one run of one workload in a child interpreter.

    python3 bench/run.py --workload ybe-d2 --seed 1 --seconds 40 --trace 0

The child (`worker.py`) imports `ybsl21` from `src/` of this checkout, runs
single-threaded and prints one JSON line last; this process adds the
child's peak resident set size and prints that line as its own last line.
With `--trace 1` the metrics are the per-layer ones instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
#: the child is stopped after this long, so a run always ends in 180 s
TIMEOUT_S = 170


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # -B: never write bytecode, so every run imports from source alike
    cmd = [sys.executable, "-B", str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"benchmark run failed with exit code {child.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": rss_kb / 1024,
                                            "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
