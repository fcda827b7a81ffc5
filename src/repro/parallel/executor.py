"""The process-pool sweep executor.

:func:`run_cell_groups` fans (grid point, seed, solver) cells out to a
pool of worker processes while keeping every guarantee of the serial
sweep path (:mod:`repro.experiments.runner`):

* **the parent is the sole checkpoint writer** -- workers return
  finished :class:`~repro.experiments.runner.CellResult`\\ s over the
  pool's result channel and the parent appends them (via ``on_cell``)
  to the fsynced JSONL checkpoint, so kill+``--resume`` semantics are
  identical to a serial run;
* **determinism regardless of completion order** -- cells carry stable
  :func:`~repro.experiments.runner.cell_key` identities and the caller
  merges the returned ``{key: CellResult}`` mapping in grid order, so
  only the *file line order* of the checkpoint varies with scheduling
  (canonical sort makes jobs=1 and jobs=N byte-identical);
* **one instance per (grid point, seed) group** -- the parent
  materialises the instance (and its similarity matrix) once, publishes
  it through :mod:`repro.parallel.sharedmem`, and workers rehydrate
  zero-copy views; where shared memory is unavailable each worker falls
  back to regenerating the instance from the factory;
* **global budget** -- a :class:`~repro.robustness.budget.Budget`
  deadline is threaded into workers as a shrinking per-cell timeout,
  and once it expires the parent stops submitting and terminates the
  pool, cancelling every outstanding cell.

Workers inherit the instance factory through a fork-context pool
initializer, so the lambdas the figure drivers use never need to
pickle; only small :class:`_CellTask` descriptors cross the process
boundary. On platforms without ``fork`` a spawn pool is used instead,
which *does* require a picklable factory -- checked up front, raising
:class:`ParallelUnavailableError` so callers can fall back to serial.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Any

from repro.core.model import Instance
from repro.experiments.runner import CellResult, run_cell, want_shared_sims
from repro.parallel.sharedmem import SharedInstanceArchive, SharedInstanceHandle
from repro.robustness.budget import Budget
from repro.robustness.outcome import FailureRecord, Outcome, is_transient

#: One (grid point, seed) group of cells: all solvers share one instance.
CellGroup = tuple[object, int, tuple[str, ...]]


class ParallelUnavailableError(RuntimeError):
    """Process-level parallelism cannot run in this configuration.

    Raised up front (before any work starts) so callers can degrade to
    the serial sweep path instead of failing halfway through a grid.
    """


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` ("all cores")."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-worker state installed by the pool initializer. A fork-context
#: pool inherits the factory (closures and all) through the initializer
#: arguments at fork time; nothing here crosses a pickle boundary except
#: under a spawn context, where the factory's picklability was verified
#: before the pool was built.
_WORKER_STATE: dict[str, Any] | None = None


@dataclass(frozen=True)
class _CellTask:
    """What one cell needs beyond the worker's initializer state."""

    group_id: int
    x: object
    seed: int
    solver: str
    handle: SharedInstanceHandle | None
    timeout: float | None


def _init_worker(
    factory: Callable[[object, int], Instance],
    memory: bool,
    solver_kwargs: dict[str, dict],
    node_limit: int | None,
    max_attempts: int,
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = {
        "factory": factory,
        "memory": memory,
        "solver_kwargs": solver_kwargs,
        "node_limit": node_limit,
        "max_attempts": max_attempts,
    }


def _run_task(task: _CellTask) -> tuple[int, CellResult]:
    """Run one cell in a worker; returns (group id, finished cell)."""
    state = _WORKER_STATE
    assert state is not None, "worker used before _init_worker ran"
    lease = None
    shared: Instance | None = None
    if task.handle is not None:
        try:
            lease = task.handle.attach()
            shared = lease.instance
        except Exception:
            # Segment vanished or mapping failed: regenerate locally.
            lease = None
            shared = None
    if shared is None:
        # No shared memory: materialise locally under the same policy,
        # so results cannot depend on whether sharing worked. A factory
        # failure is left for run_cell, which classifies and retries it.
        try:
            shared = state["factory"](task.x, task.seed)
            if want_shared_sims(shared):
                shared.sims
        except Exception:
            shared = None
    try:
        cell = run_cell(
            state["factory"],
            task.x,
            task.seed,
            task.solver,
            memory=state["memory"],
            solver_kwargs=state["solver_kwargs"].get(task.solver),
            timeout=task.timeout,
            node_limit=state["node_limit"],
            max_attempts=state["max_attempts"],
            instance=shared,
        )
    finally:
        if lease is not None:
            lease.close()
    return task.group_id, cell


def _crash_cell(task: _CellTask, exc: BaseException) -> CellResult:
    """A synthetic failed cell for a worker that died mid-cell."""
    return CellResult(
        x=task.x,
        seed=task.seed,
        solver=task.solver,
        status="failed",
        outcome=Outcome.FAILED.value,
        max_sum=0.0,
        seconds=0.0,
        peak_mb=0.0,
        n_pairs=0.0,
        attempts=1,
        failures=(
            FailureRecord(
                solver=task.solver,
                error_type=type(exc).__name__,
                message=f"worker failed: {exc}",
                transient=is_transient(exc),
                attempt=0,
            ),
        ),
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _make_context(worker_callable: Callable[..., object]):  # type: ignore[no-untyped-def]
    """A fork context, else spawn once ``worker_callable`` pickles."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    # Spawn re-imports and unpickles what workers run in each worker, so
    # the callable must survive a pickle round-trip. Verify now: failing
    # before any work ran lets the caller go serial.
    try:
        pickle.dumps(worker_callable)
    except Exception as exc:
        raise ParallelUnavailableError(
            "no fork start method and the worker callable is not "
            f"picklable for spawn workers: {exc}"
        ) from exc
    return multiprocessing.get_context("spawn")


def run_cell_groups(
    instance_factory: Callable[[object, int], Instance],
    groups: Sequence[CellGroup],
    *,
    jobs: int,
    memory: bool = True,
    solver_kwargs: dict[str, dict] | None = None,
    timeout: float | None = None,
    node_limit: int | None = None,
    max_attempts: int = 2,
    budget: Budget | None = None,
    on_cell: Callable[[CellResult], None] | None = None,
) -> dict[str, CellResult]:
    """Run every cell of ``groups`` on a worker pool.

    Args:
        groups: ``(x, seed, solvers)`` triples; the solvers of one group
            share a single parent-materialised instance (published via
            shared memory when possible).
        jobs: Worker process count; ``0`` means :func:`default_jobs`.
        budget: Optional sweep-wide budget. Its remaining deadline caps
            every cell's timeout at submission time, and on exhaustion
            the parent cancels all outstanding cells -- those cells are
            simply absent from the returned mapping.
        on_cell: Called in the parent for each finished cell, in
            completion order -- the checkpoint-append hook. The parent
            stays the sole writer.

    Returns:
        Finished cells keyed by :func:`~repro.experiments.runner.
        cell_key`. Completion order does not affect the mapping.

    Raises:
        ParallelUnavailableError: This platform cannot run the pool
            (no fork, and the factory cannot be pickled for spawn).
    """
    if jobs == 0:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0 for all cores), got {jobs}")
    solver_kwargs = solver_kwargs or {}
    groups = list(groups)
    total = sum(len(solvers) for _, _, solvers in groups)
    results: dict[str, CellResult] = {}
    if total == 0:
        return results
    if budget is not None:
        budget.start()

    ctx = _make_context(instance_factory)
    done: SimpleQueue = SimpleQueue()
    #: group id -> [archive, cells still outstanding]
    archives: dict[int, list[Any]] = {}

    def _effective_timeout() -> float | None:
        if budget is None or budget.deadline is None:
            return timeout
        remaining = budget.remaining_seconds() or 0.0
        return remaining if timeout is None else min(timeout, remaining)

    def _expired() -> bool:
        return budget is not None and budget.expired()

    def _retire_archive(group_id: int) -> None:
        entry = archives.get(group_id)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            archive = entry[0]
            if archive is not None:
                archive.destroy()
            del archives[group_id]

    pool = ctx.Pool(
        processes=jobs,
        initializer=_init_worker,
        initargs=(instance_factory, memory, solver_kwargs, node_limit, max_attempts),
    )
    completed = 0
    submitted = 0
    next_group = 0
    # Keep roughly two cells per worker in flight: enough to hide the
    # result-drain latency, small enough that at most a handful of
    # shared-memory segments exist at once.
    window = max(2 * jobs, 2)
    try:
        while completed < total:
            while (
                next_group < len(groups)
                and submitted - completed < window
                and not _expired()
            ):
                group_id = next_group
                next_group += 1
                x, seed, solvers = groups[group_id]
                handle = None
                archive = None
                try:
                    instance = instance_factory(x, seed)
                except Exception:
                    # Workers re-run the factory per cell and give the
                    # failure its full classify/retry treatment there.
                    instance = None
                if instance is not None:
                    archive = SharedInstanceArchive.from_instance(
                        instance, include_sims=want_shared_sims(instance)
                    )
                    if archive is not None:
                        handle = archive.handle
                archives[group_id] = [archive, len(solvers)]
                for solver in solvers:
                    task = _CellTask(
                        group_id=group_id,
                        x=x,
                        seed=seed,
                        solver=solver,
                        handle=handle,
                        timeout=_effective_timeout(),
                    )
                    pool.apply_async(
                        _run_task,
                        (task,),
                        callback=lambda payload: done.put(("ok", payload)),
                        error_callback=lambda exc, task=task: done.put(
                            ("error", (task, exc))
                        ),
                    )
                    submitted += 1
            if _expired():
                # Deadline gone: cancel everything still outstanding.
                # Finished-but-undrained results are lost with them --
                # their cells re-run on resume, which is correct.
                assert budget is not None
                budget.mark_exhausted("sweep deadline exhausted")
                pool.terminate()
                break
            try:
                kind, payload = done.get(timeout=0.05)
            except Empty:
                continue
            if kind == "ok":
                group_id, cell = payload
            else:
                task, exc = payload
                group_id, cell = task.group_id, _crash_cell(task, exc)
            completed += 1
            results[cell.key()] = cell
            if on_cell is not None:
                on_cell(cell)
            _retire_archive(group_id)
        else:
            pool.close()
        pool.join()
    finally:
        pool.terminate()
        for entry in archives.values():
            if entry[0] is not None:
                entry[0].destroy()
        archives.clear()
    return results
