"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload low_order --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``. For every metric of the result
line it prints the median, the quartiles (``statistics.quantiles`` with
``n=4``), the spread (quartile distance over the median) and, for
end-to-end metrics, the spread as a share of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        line = (f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {spread:.4f}")
        if name in bounds:
            line += f"  of bound {spread / bounds[name]:.2f}"
        print(line)
        print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
