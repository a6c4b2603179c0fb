"""Benchmark of the brownian_unicycle package in this checkout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {moments,low_order,mc_oracle} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout, never from an
installed copy. Earlier stdout lines give every metric by name with its
unit, the machine facts and the drawn inputs; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Failed operations are described on stderr. See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
SETUP_CODE = ("import sys, brownian_unicycle\n"
              "from brownian_unicycle.config import load_config\n"
              "load_config(sys.argv[1])\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("moments", "low_order", "mc_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(config_path: Path, env: dict) -> float:
    """Fastest of ``SETUP_REPS`` fresh interpreters importing and loading a config.

    The fastest, like every other timing here: other tenants of a small
    host only ever add time.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                       cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return min(times)


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0, as the kernel describes them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(nproc: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc, "cpu_model": cpu_model(), "caches": cache_sizes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brownian_unicycle" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'brownian_unicycle'}; run from the "
              "root of a brownian-unicycle checkout", file=sys.stderr)
        return 2
    user_env = dict(os.environ)
    child_env = dict(user_env, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [user_env.get("PYTHONPATH")] if p]))
    # Keep numpy's BLAS pool out of the measured process: workloads use at
    # most nproc threads of their own and no BLAS-heavy calls.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import brownian_unicycle
    if Path(brownian_unicycle.__file__).resolve().parent != SRC / "brownian_unicycle":
        print(f"imported {brownian_unicycle.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2
    import workloads

    nproc = len(os.sched_getaffinity(0))
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmpdir = Path(tmp)
        configs = workloads.write_cli_configs(tmpdir)
        setup_s = measure_setup(configs["ramp"], child_env)
        outcome = workloads.WORKLOADS[args.workload](
            rng, args.seconds, bool(args.trace), tmpdir=tmpdir, seed=args.seed,
            nproc=nproc)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    facts = machine_facts(nproc)
    facts.update(outcome.facts)
    if args.trace:
        facts["trace_missing"] = sorted(outcome.missing)
    print(json.dumps({"machine_and_inputs": facts}))
    e2e = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    e2e.update(outcome.end_to_end())
    named = dict(e2e, op_p50_ms=(outcome.op_p50_ms(), "ms"))
    named.update(outcome.report)
    print(f"[{args.workload}] ops={outcome.ops} ops_failed={outcome.failed} "
          f"untraced_passes={len(outcome.pass_s)} "
          f"traced_passes={len(outcome.traced_pass_s)} "
          f"ops_per_pass={len(outcome.pass_op_ms[0])}")
    for name, (value, unit) in named.items():
        print(f"[{args.workload}] {name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"benchmark check failed: {problem}", file=sys.stderr)
    for name in sorted(outcome.missing):
        print(f"not traced, its metrics read 0: {name} is missing", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": workloads.layer_unit(name)}
                   for name, value in outcome.layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": not outcome.problems and outcome.ops > 0,
                      "attempted": outcome.ops, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
