"""Replay benchmark for stacache: one workload per invocation.

    python3 perfbench/run.py --workload stac-revisit --seed 1 --seconds 16 --trace 0

Prints a report line (provenance, environment, sample counts, every metric
with its unit and workload), then as the last line one JSON object with
exactly the keys correct, attempted, failed and metrics. `--trace 0` gives
the end-to-end metrics, `--trace 1` the per-layer ones. Exits 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"


def _pin_blas_threads() -> None:
    # Runs before numpy is imported, here and (through the environment) in
    # the worker. One BLAS thread: on a 2-vCPU machine a second OpenBLAS
    # thread spin-waits between the small per-chunk GEMMs and slowed the
    # Python-bound replay by about 8% (window-revisit passes of 4.1-4.2 s
    # against 3.7-4.0 s), while full's large GEMMs gained little.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "stacache" / "__init__.py").is_file():
        print(f"run.py: no stacache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bench import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report, result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORKDIR)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
