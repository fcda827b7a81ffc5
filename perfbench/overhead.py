"""Tracing overhead: the same workload and seed untraced and traced, in pairs.

Usage, from the root of a checkout::

    python3 perfbench/overhead.py --workload arrivals --seed 0 --seconds 30

Runs ``perfbench/run.py`` in :data:`PAIRS` pairs, alternating which side
goes first, and prints for each end-to-end metric the median untraced value, the
median value measured while the probes were installed (the
``under-trace`` line of each traced run), their difference, and the
range of the untraced runs -- a difference inside that range is noise,
not overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Untraced/traced pairs per workload.
PAIRS = 3


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict[str, float]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    lines = subprocess.run(
        command, capture_output=True, text=True, timeout=600, check=True
    ).stdout.splitlines()
    if not trace:
        return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    under = next(line for line in lines if line.startswith("under-trace "))
    return json.loads(under[len("under-trace "):])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    runs: dict[int, list[dict[str, float]]] = {0: [], 1: []}
    for pair in range(PAIRS):
        for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
            runs[trace].append(_run(args.workload, args.seed, args.seconds, trace))
    print(
        f"tracing overhead, workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, {PAIRS} alternating pairs (medians)"
    )
    print(
        f"{'metric':<18} {'untraced':>12} {'traced':>12} {'traced-untraced':>16} "
        f"{'change':>8}  untraced range"
    )
    for name in runs[0][0]:
        base_values = [r[name] for r in runs[0]]
        base = statistics.median(base_values)
        traced = statistics.median(r[name] for r in runs[1])
        change = (traced - base) / base if base else 0.0
        print(
            f"{name:<18} {base:>12.4g} {traced:>12.4g} {traced - base:>16.4g} "
            f"{100 * change:>7.1f}%  {min(base_values):.4g}..{max(base_values):.4g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
