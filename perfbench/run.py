"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload arrivals --seed 0 --seconds 30 --trace 0

Workloads: ``arrivals``, ``batch-solve``, ``restart`` (see
``perfbench/NOTES.md``). ``--trace 0`` measures the end-to-end metrics
with no instrumentation; ``--trace 1`` installs the probes, reports the
per-layer metrics and writes every span to
``.perfbench-out/trace-<workload>-seed<seed>.jsonl``. The output checks
run after the timed phase in both modes.

Every line but the last is for people. The last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("arrivals", "batch-solve", "restart")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from geaccbench import arrivals, batchsolve, restart
    from geaccbench.common import END_TO_END, Context
    from geaccbench.layers import PER_LAYER
    from geaccbench.stats import served_fraction
    from geaccbench.tracing import NULL_TRACER, Tracer

    workload = {"arrivals": arrivals, "batch-solve": batchsolve, "restart": restart}[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else NULL_TRACER
    ctx = Context(seed=args.seed, seconds=args.seconds, workdir=workdir, tracer=tracer)
    try:
        result = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if result.attempted >= 1:
        result.e2e["served_frac"] = served_fraction(result.attempted, result.failed)
    for name, ok in result.checks.items():
        print(f"check  {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in result.detail.items():
        print(f"detail {name} = {value}")
    if args.trace:
        trace_path = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        print(f"trace  {len(tracer.spans)} spans -> {trace_path.relative_to(ROOT)}")
        print("under-trace " + json.dumps({k: result.e2e.get(k) for k, _ in END_TO_END}))
        names = PER_LAYER
        values = result.layers
    else:
        names = END_TO_END
        values = result.e2e
    missing = [name for name, _ in names if name not in values]
    correct = result.correct and not missing
    if missing:
        print(f"check  FAIL metrics measured: missing {', '.join(missing)}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in names if name in values
    }
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
