"""``batch-solve``: the paper's own offline measurement.

Greedy-GEACC runs matrix-free through index streams on a 200 x 20000
instance (``cv_high=200``, as in the xl streaming tier of ``geacc
bench``), and MinCostFlow-GEACC runs on the materialised Table III
default instance. One round is one solve of each, on instances of its
own drawn from the seed; rounds repeat until the run's time is up. No
service layer is loaded.
"""

from __future__ import annotations

import gc
import time

from repro.core.algorithms.greedy import GreedyGEACC
from repro.core.algorithms.mincostflow import MinCostFlowGEACC
from repro.core.algorithms.neighbors import IndexNeighborOrders
from repro.core.validation import validate_arrangement
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.exceptions import ReproError
from repro.robustness.budget import Budget

from geaccbench import probes
from geaccbench.common import Context, Result, peak_rss_mb, timed_setups
from geaccbench.layers import layer_metrics
from geaccbench.stats import median, tail_percentile

GREEDY_CONFIG = SyntheticConfig(n_events=200, n_users=20_000, cv_high=200)
MCF_CONFIG = SyntheticConfig()
#: More rounds than fit in a run on current hardware; the clock stops them.
MAX_ROUNDS = 6

#: Counters that are per-solve work, reported per round.
PER_ROUND = (
    "greedy.nodes",
    "neighbors.streams_opened",
    "neighbors.items_pulled",
    "pairheap.pushes",
    "pairheap.pops",
    "flow.augmentations",
    "flow.run_ms",
)


def run(ctx: Context) -> Result:
    result = Result()
    tracer = ctx.tracer
    # Each round solves its own pair of instances drawn from the seed, so a
    # run's median averages over instances as well as over time.
    greedy_instances = [generate_instance(GREEDY_CONFIG, [ctx.seed, r]) for r in range(MAX_ROUNDS)]
    mcf_instances = [generate_instance(MCF_CONFIG, [ctx.seed, r]) for r in range(MAX_ROUNDS)]

    def setup(r: int):
        # The set-up a solve needs: the matrix-free candidate provider for
        # Greedy and the similarity matrix for MinCostFlow.
        with tracer.span("index.build"):
            orders = IndexNeighborOrders(greedy_instances[r], "chunked")
        mcf_instances[r].sims  # materialise the matrix
        return probes.CountingOrders(orders, tracer) if ctx.traced else orders

    setup_times, orders = timed_setups(setup, repeats=MAX_ROUNDS)

    patches = probes.Patches()
    if ctx.traced:
        probes.patch_greedy(patches, tracer)
        probes.patch_flow(patches, tracer)
    greedy_s: list[float] = []
    mcf_s: list[float] = []
    rounds: list[float] = []
    solved = []
    failed = 0
    deadline = time.perf_counter() + ctx.seconds
    try:
        for r in range(MAX_ROUNDS):
            if rounds and time.perf_counter() >= deadline:
                break
            gc.collect()
            try:
                start = time.perf_counter()
                with tracer.span("greedy.solve", request=r):
                    budget = Budget().start()
                    greedy = GreedyGEACC().solve_with_orders(greedy_instances[r], orders[r], budget)
                middle = time.perf_counter()
                with tracer.span("mincostflow.solve", request=r):
                    mcf = MinCostFlowGEACC().solve(mcf_instances[r])
                end = time.perf_counter()
            except ReproError:
                failed += 1
                break
            greedy_s.append(middle - start)
            mcf_s.append(end - middle)
            rounds.append(end - start)
            solved.append((greedy, mcf))
            tracer.count("greedy.nodes", budget.nodes)
            tracer.count("greedy.pairs", len(greedy))
    finally:
        patches.restore()
    result.e2e["peak_rss_mb"] = peak_rss_mb()
    result.attempted = 2 * (len(rounds) + failed)
    result.failed = 2 * failed
    result.check("at least one round solved", bool(rounds))
    if not rounds:
        return result

    for r, (greedy, mcf) in enumerate(solved):
        for name, arrangement, instance in (
            ("greedy", greedy, greedy_instances[r]),
            ("mincostflow", mcf, mcf_instances[r]),
        ):
            try:
                validate_arrangement(arrangement, instance)
                valid = True
            except ReproError:
                valid = False
            result.check(f"round {r} {name} arrangement passes repro.core.validation", valid)

    # Quality is read from the first round, whose instances every run solves.
    greedy, mcf = solved[0]
    rounds_ms = [1000.0 * x for x in rounds]
    pairs = sum(len(g) + len(m) for g, m in solved)
    result.e2e.update(
        setup_s=median(setup_times),
        op_p50_ms=median(rounds_ms),
        op_tail_ms=tail_percentile(rounds_ms)[1],
        throughput_per_s=pairs / sum(rounds),
        maxsum=greedy.max_sum() + mcf.max_sum(),
    )
    result.detail.update(
        rounds=len(rounds),
        greedy_s=median(greedy_s),
        mincostflow_s=median(mcf_s),
        greedy_maxsum=greedy.max_sum(),
        mincostflow_maxsum=mcf.max_sum(),
        greedy_pairs=len(greedy),
        mincostflow_pairs=len(mcf),
    )
    if ctx.traced:
        layers = layer_metrics(tracer, {})
        n = len(rounds)
        for name in PER_ROUND:
            layers[name] /= n
        result.layers = layers
    return result
