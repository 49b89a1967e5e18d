"""Persistent worker pool driving :func:`vote_stays` over shared memory.

The execution model (see ``docs/PARALLELISM.md``):

1. the parent exports the CSD arrays and the projected stay
   coordinates into shared memory (:mod:`repro.parallel.shm`),
2. each worker receives only the pickle-cheap handles plus a
   ``[start, stop)`` chunk, attaches the segments lazily (once per
   process, cached), and runs the pure-numpy
   :func:`repro.core.recognition.vote_stays` kernel over its slice,
3. the parent concatenates the per-chunk numeric results — shifting
   ``win_stay`` by each chunk's base offset — and assembles the
   Python-object semantics once.

Because votes for different stay points never interact and the kernel
accumulates per stay in hit order, the concatenation is bit-identical
to one big serial batch.

Pools are persistent: ``ProcessPoolExecutor`` instances are kept per
worker count and reused across calls, so repeated ``recognize(...,
n_jobs=N)`` calls pay process start-up once.  A worker dying mid-task
(simulated via the ``FAULT_POINTS`` hooks, same style as
``repro.runner``) surfaces as :class:`WorkerCrash`; the broken pool is
disposed so the next call starts clean, and the exporting context
managers still unlink every segment.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

# The watchdog needs a raw monotonic deadline clock; this is control
# flow (when to declare a stall), not a measurement, so it does not
# route through the repro.obs timing layer.
from time import monotonic  # reprolint: allow-direct-timing
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import sanitize_enabled
from repro.core.recognition import CSDRecognizer, vote_stays
from repro.data.trajectory import SemanticProperty, StayPoint
from repro.parallel.shm import (
    CSDHandle,
    PackHandle,
    SharedArrayPack,
    SharedCSD,
    attach_csd,
    attach_pack,
    detach_all,
    verify_attached,
)
from repro.types import IndexArray

__all__ = [
    "FAULT_POINTS",
    "PoolStall",
    "WorkerCrash",
    "get_pool",
    "shutdown_pools",
    "recognize_parallel",
]

#: Default submit watchdog, seconds.  Overridable per-process via
#: ``REPRO_POOL_TIMEOUT_S``; ``0`` disables the watchdog entirely.
#: Generous on purpose: the largest benched workload (1M POIs, serial
#: fallback chunk) finishes in seconds, so ten minutes only ever fires
#: on a genuine stall (fork deadlock, wedged worker, dead executor).
_DEFAULT_POOL_TIMEOUT_S = 600.0


def _pool_timeout_s() -> float:
    """The configured watchdog budget (0 disables)."""
    raw = os.environ.get("REPRO_POOL_TIMEOUT_S", "").strip()
    if not raw:
        return _DEFAULT_POOL_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        return _DEFAULT_POOL_TIMEOUT_S
    return max(value, 0.0)

#: Named points inside the worker where tests may inject a hard death
#: (``os._exit``), in execution order — same announcement style as
#: :data:`repro.runner.runner.FAULT_POINTS`.
FAULT_POINTS = (
    "worker-start",
    "worker-attach",
    "worker-vote",
)


class WorkerCrash(RuntimeError):
    """A pool worker died before returning its chunk.

    Raised in place of ``concurrent.futures.process.BrokenProcessPool``
    so callers get a repro-namespaced, documented failure mode.  The
    shared-memory segments for the call are already unlinked when this
    propagates (the exporting context managers run on the exception
    path), and the broken pool has been disposed.
    """


class PoolStall(RuntimeError):
    """The submit watchdog expired before every chunk returned.

    Where :class:`WorkerCrash` is a worker *dying* (the executor
    notices and breaks the pool), a stall is a worker — or the whole
    pool — silently wedging: a lock copied locked across ``fork``, a
    worker stuck in an import, an executor whose queue-management
    thread is gone.  Without a watchdog that is an infinite hang in
    ``future.result()``.  The exception message carries the per-chunk
    state (done/pending counts, the configured budget) so the stall is
    diagnosable from a CI log; the stalled pool is disposed before this
    raises, so the next call starts clean.  Budget:
    ``REPRO_POOL_TIMEOUT_S`` seconds (default 600; ``0`` disables the
    watchdog).
    """


#: Live executors keyed by worker count; reused across recognition
#: calls so fork/start-up cost is paid once per process count.
_EXECUTORS: Dict[int, ProcessPoolExecutor] = {}


def _worker_init() -> None:
    """Run in every freshly forked worker before its first task.

    A fork snapshots the parent's ``repro.parallel.shm`` attachment
    cache; those inherited entries alias the *parent's* mappings and
    must not be trusted (or double-closed) in the child.  Dropping them
    here means each worker's first task performs a genuinely fresh
    attach, which is also what makes recycled segment names safe after
    a pool is disposed and replaced.
    """
    detach_all()


def get_pool(n_workers: int) -> ProcessPoolExecutor:
    """The persistent executor for ``n_workers`` (created on first use)."""
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    pool = _EXECUTORS.get(n_workers)
    if pool is None:
        # fork, explicitly: children share the parent's resource
        # tracker, which makes register-on-attach (bpo-39959) a
        # harmless duplicate instead of a second owner — see
        # repro.parallel.shm.  Also the cheapest start method here.
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
        )
        _EXECUTORS[n_workers] = pool
    return pool


def _dispose_pool(n_workers: int) -> None:
    pool = _EXECUTORS.pop(n_workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)
        # The disposing process's own attachment cache may hold views
        # over segments that are about to be unlinked and whose names
        # a later export may recycle; drop it so the next attach for
        # any logical handle is fresh (see the WorkerCrash regression
        # test in tests/test_parallel.py).
        detach_all()


def shutdown_pools() -> None:
    """Shut down every persistent executor (idempotent; atexit hook)."""
    for n_workers in list(_EXECUTORS):
        _dispose_pool(n_workers)


atexit.register(shutdown_pools)


def _fault(fault: Optional[str], point: str) -> None:
    """Die the hard way — ``os._exit`` skips all cleanup, exactly like
    an OOM kill — when the injected fault names this point."""
    if fault == point:
        os._exit(17)


def _vote_worker(
    csd_handle: CSDHandle,
    stays_handle: PackHandle,
    start: int,
    stop: int,
    r3sigma_m: float,
    use_float32: bool,
    fault: Optional[str],
) -> Tuple[IndexArray, IndexArray, IndexArray]:
    """One chunk of :func:`vote_stays` inside a worker process.

    Attaches both packs (cached after the first task per process), runs
    the kernel over ``stay_xy[start:stop]``, and returns the three small
    int64 arrays — chunk-local ``win_stay``; the parent rebases them.
    """
    _fault(fault, "worker-start")
    source = attach_csd(csd_handle)
    stay_xy = attach_pack(stays_handle)["stay_xy"]
    _fault(fault, "worker-attach")
    result = vote_stays(source, stay_xy[start:stop], r3sigma_m, use_float32)
    _fault(fault, "worker-vote")
    if sanitize_enabled():
        # Canary pass: re-verify the export-time checksums after the
        # chunk so a torn write into shared memory fails here, in the
        # worker that would otherwise propagate corrupted votes.
        verify_attached(csd_handle.pack)
        verify_attached(stays_handle)
    return result


def recognize_parallel(
    recognizer: CSDRecognizer,
    stay_points: Sequence[StayPoint],
    bounds: IndexArray,
    fault: Optional[str] = None,
) -> List[SemanticProperty]:
    """Fan the voting kernel out over the persistent worker pool.

    ``bounds`` are the ``k + 1`` chunk boundaries from
    :func:`repro.core.recognition.chunk_bounds` (``k >= 2`` chunks; the
    caller stays serial otherwise).  The CSD export and the projected
    stay coordinates live in shared memory only for the duration of the
    call — both ``with`` blocks unlink on every exit path, including
    :class:`WorkerCrash`.
    """
    n_chunks = len(bounds) - 1
    if n_chunks < 2:
        raise ValueError("recognize_parallel needs at least 2 chunks")
    xy = recognizer.project_stays(stay_points)
    use_float32 = recognizer.query_dtype == "float32"
    pool = get_pool(n_chunks)
    with SharedCSD.export(recognizer.csd) as shared_csd, SharedArrayPack(
        {"stay_xy": xy}, label="stays"
    ) as shared_stays:
        csd_handle = shared_csd.handle()
        stays_handle = shared_stays.handle()
        budget = _pool_timeout_s()
        chunks = []
        try:
            # Submitting inside the guard matters: a worker that dies
            # while later chunks are still being submitted can break
            # the executor mid-loop, making submit itself raise
            # BrokenProcessPool.
            futures = [
                pool.submit(
                    _vote_worker,
                    csd_handle,
                    stays_handle,
                    int(bounds[i]),
                    int(bounds[i + 1]),
                    recognizer.r3sigma_m,
                    use_float32,
                    fault,
                )
                for i in range(n_chunks)
            ]
            deadline = monotonic() + budget if budget else None
            for i, future in enumerate(futures):
                if deadline is None:
                    chunks.append(future.result())
                    continue
                remaining = deadline - monotonic()
                try:
                    chunks.append(future.result(timeout=max(remaining, 0.0)))
                except FutureTimeout:
                    done = sum(f.done() for f in futures)
                    _dispose_pool(n_chunks)
                    raise PoolStall(
                        f"recognition pool stalled: chunk {i} of "
                        f"{n_chunks} not done {budget:.0f}s after "
                        f"submit ({done}/{n_chunks} futures completed); "
                        "segments unlinked, pool disposed — raise "
                        "REPRO_POOL_TIMEOUT_S if the workload is "
                        "legitimately slower"
                    ) from None
        except BrokenProcessPool as exc:
            _dispose_pool(n_chunks)
            raise WorkerCrash(
                f"a recognition worker died mid-chunk ({n_chunks} chunks "
                f"in flight); segments unlinked, pool disposed"
            ) from exc
    winner_of = np.concatenate([c[0] for c in chunks])
    win_stay = np.concatenate(
        [c[1] + int(bounds[i]) for i, c in enumerate(chunks)]
    )
    win_poi = np.concatenate([c[2] for c in chunks])
    return recognizer.assemble_semantics(winner_of, win_stay, win_poi)
