"""Shared-memory export/attach for the recognition kernel's arrays.

``multiprocessing.Pool``-style parallelism used to *lose* to the serial
batched kernel (BENCH_kernel.json recorded ``n_jobs=2`` at 0.18x
serial) because every chunk pickled the whole CSD — POI coordinates,
popularity, the CSR grid index — into each worker.  This module removes
the copy: :class:`SharedCSD` exports those arrays once into
``multiprocessing.shared_memory`` blocks, and workers attach zero-copy
``np.ndarray`` views.  The only thing that crosses the process
boundary per task is a :class:`CSDHandle` — segment names, dtypes,
shapes, and a few grid scalars.

Lifecycle guarantees
--------------------
Segments are owned by the exporting (parent) process and are
unlinked:

* on normal exit from the ``with`` block (context-manager ``__exit__``),
* on an exception inside the block (same ``__exit__``),
* at interpreter exit for anything still live (``atexit`` sweep) —
  which also covers the worker-crash path, where the parent survives
  and its cleanup still runs.

Attaching never *creates* responsibility: workers are forked (the pool
pins the ``fork`` start method), so they share the parent's
``resource_tracker`` and CPython's register-on-attach (bpo-39959) is a
harmless duplicate set-add — a worker's exit can neither unlink a live
segment under the parent nor spam "leaked shared_memory" warnings.
``live_segment_names`` exposes the owned set so tests can assert
nothing leaks.
"""

from __future__ import annotations

import atexit
import os
import secrets
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro.contracts import CanaryViolation, ContractViolation, sanitize_enabled
from repro.core.csd import CitySemanticDiagram
from repro.geo.index import GridCSRState, GridIndex
from repro.types import CSRQuery, Float64Array, IndexArray, MetersArray

__all__ = [
    "ArrayBlock",
    "PackHandle",
    "CSDHandle",
    "SharedArrayPack",
    "SharedCSD",
    "CSDArrayView",
    "attach_pack",
    "attach_csd",
    "attached_tokens",
    "detach_all",
    "live_segment_names",
    "verify_attached",
]


@dataclass(frozen=True)
class ArrayBlock:
    """Pickle-cheap descriptor of one exported array.

    ``checksum`` is the export-time CRC of the array bytes, present
    only under ``REPRO_SANITIZE=1`` — the canary
    :func:`verify_attached` re-verifies after every worker chunk.
    (crc32 over a few hundred KB costs tens of microseconds; an
    xxhash-class stdlib hash with the same torn-write sensitivity.)
    """

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str
    checksum: Optional[int] = None


def _block_checksum(arr: np.ndarray) -> int:
    """CRC of an array's raw bytes (the canary value)."""
    # reprolint: allow-dtype -- hashes the array's own bytes; a dtype
    # coercion here would change the canary, not stabilise it.
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


@dataclass(frozen=True)
class PackHandle:
    """Everything a worker needs to attach a :class:`SharedArrayPack`.

    ``token`` uniquely identifies the export; workers key their
    per-process attachment cache on it, so re-dispatching tasks for the
    same pack attaches exactly once per process (lazy attach).
    """

    token: str
    blocks: Tuple[Tuple[str, ArrayBlock], ...]


@dataclass(frozen=True)
class CSDHandle:
    """A :class:`PackHandle` plus the CSD's non-array scalars."""

    pack: PackHandle
    cell: float
    gx_lo: int
    gx_hi: int
    gy_lo: int
    gy_hi: int
    ny: int
    n_cells: int
    n_units: int


#: Packs owned (created) by this process, keyed by token — the atexit
#: sweep unlinks whatever is still here.
_OWNED: Dict[str, "SharedArrayPack"] = {}

#: Per-process attachments, keyed by token.  Bounded: stale tokens are
#: detached once the cache exceeds ``_ATTACH_CACHE_MAX`` (two packs —
#: CSD + stay coordinates — are live per recognition call).  Each entry
#: also records the handle's block descriptors: a cache hit whose
#: blocks differ from the incoming handle's is *stale* (a recycled
#: token now naming different segments) and is detached and re-attached
#: fresh rather than served.
_ATTACH_CACHE_MAX = 4
_ATTACHED: Dict[
    str,
    Tuple[
        Dict[str, np.ndarray],
        List[shared_memory.SharedMemory],
        Tuple[Tuple[str, "ArrayBlock"], ...],
    ],
] = {}


def _cleanup_owned() -> None:
    """atexit sweep: unlink every segment still owned by *this* process.

    The pid guard matters under the ``fork`` start method: a worker
    inherits the parent's ``_OWNED`` dict, and must never unlink the
    parent's live segments even if its interpreter somehow runs atexit
    handlers (multiprocessing children normally exit via ``os._exit``,
    which skips them — this is defence in depth).
    """
    pid = os.getpid()
    for pack in list(_OWNED.values()):
        if pack.owner_pid == pid:
            pack.unlink()


atexit.register(_cleanup_owned)


def live_segment_names() -> List[str]:
    """Segment names currently owned by this process (tests assert
    this is empty after every lifecycle path)."""
    return sorted(
        block.shm_name
        for pack in _OWNED.values()
        for _, block in pack.handle().blocks
    )


class SharedArrayPack:
    """Owns one shared-memory segment per exported array.

    The constructor copies each array into a fresh segment (one
    ``memcpy``; the last copy these bytes will ever see).  Use as a
    context manager — ``__exit__`` unlinks — or call :meth:`unlink`
    explicitly; either way the atexit sweep is the backstop.
    """

    def __init__(
        self, arrays: Mapping[str, np.ndarray], label: str = "pack"
    ) -> None:
        self.owner_pid = os.getpid()
        self.token = f"repro-{label}-{self.owner_pid}-{secrets.token_hex(4)}"
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._blocks: Dict[str, ArrayBlock] = {}
        canary = sanitize_enabled()
        try:
            for key, value in arrays.items():
                # reprolint: allow-dtype -- exports preserve each
                # array's own dtype; the handle records it explicitly.
                arr = np.ascontiguousarray(value)
                # Segments carry the token-derived name (not the
                # anonymous psm_* default) so the leak gate in
                # tests/conftest.py can recognise repro-owned segments
                # in /dev/shm by prefix.
                seg = shared_memory.SharedMemory(
                    name=f"{self.token}-{key}",
                    create=True,
                    size=max(arr.nbytes, 1),
                )
                if arr.nbytes:
                    view = np.ndarray(
                        arr.shape, dtype=arr.dtype, buffer=seg.buf
                    )
                    view[...] = arr
                self._segments[key] = seg
                self._blocks[key] = ArrayBlock(
                    shm_name=seg.name,
                    shape=tuple(arr.shape),
                    dtype=arr.dtype.name,
                    checksum=_block_checksum(arr) if canary else None,
                )
        except BaseException:
            self._unlink_segments()
            raise
        _OWNED[self.token] = self

    def handle(self) -> PackHandle:
        return PackHandle(
            token=self.token, blocks=tuple(sorted(self._blocks.items()))
        )

    def _unlink_segments(self) -> None:
        for seg in self._segments.values():
            try:
                seg.close()
            except OSError:
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def unlink(self) -> None:
        """Destroy the segments (idempotent).  Attached views in worker
        processes stay valid until those workers detach — POSIX keeps
        the memory until the last map goes away — but no new attach can
        succeed afterwards."""
        self._unlink_segments()
        _OWNED.pop(self.token, None)

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: object,
    ) -> None:
        self.unlink()


def _detach(token: str) -> None:
    cached = _ATTACHED.pop(token, None)
    if cached is None:
        return
    _, segments, _ = cached
    for seg in segments:
        try:
            seg.close()
        except (OSError, BufferError):
            pass


def detach_all() -> None:
    """Close every cached attachment in this process (worker atexit)."""
    for token in list(_ATTACHED):
        _detach(token)


atexit.register(detach_all)


def attach_pack(handle: PackHandle) -> Mapping[str, np.ndarray]:
    """Zero-copy views of an exported pack, cached per process.

    The first call for a given ``token`` maps every segment; subsequent
    calls return the cached views — this is the "lazy per-process
    attach" that lets a persistent worker pool serve many tasks for one
    export with a single mapping.  Stale attachments (tokens evicted
    from the bounded cache) are closed, releasing the parent-unlinked
    memory.

    A cache hit is served only when the cached entry's block
    descriptors match the handle's: a token that outlived its segments
    (pool disposed after a :class:`~repro.parallel.pool.WorkerCrash`,
    then a new export recycled the name) is detached and re-attached
    fresh instead of serving views over dead — or worse, someone
    else's — memory.
    """
    cached = _ATTACHED.get(handle.token)
    if cached is not None:
        if cached[2] == handle.blocks:
            return cached[0]
        _detach(handle.token)
    while len(_ATTACHED) >= _ATTACH_CACHE_MAX:
        _detach(next(iter(_ATTACHED)))
    sanitize = sanitize_enabled()
    arrays: Dict[str, np.ndarray] = {}
    segments: List[shared_memory.SharedMemory] = []
    try:
        for key, block in handle.blocks:
            # CPython registers attached segments with the resource
            # tracker as if this process owned them (bpo-39959).  Our
            # workers are *forked* (repro.parallel.pool pins the fork
            # context), so they share the parent's tracker and the
            # duplicate registration is a set-add no-op — unregistering
            # here would instead erase the parent's own registration.
            seg = shared_memory.SharedMemory(name=block.shm_name)
            segments.append(seg)
            view = np.ndarray(
                block.shape, dtype=np.dtype(block.dtype), buffer=seg.buf
            )
            view.flags.writeable = False
            if sanitize and view.flags.writeable:
                raise ContractViolation(
                    f"attach_pack: view {key!r} of {handle.token} is "
                    "writeable after attach; shared views must be "
                    "read-only"
                )
            arrays[key] = view
    except BaseException:
        for seg in segments:
            try:
                seg.close()
            except (OSError, BufferError):
                pass
        raise
    _ATTACHED[handle.token] = (arrays, segments, handle.blocks)
    return arrays


def attached_tokens() -> List[str]:
    """Tokens currently held in this process's attachment cache."""
    return sorted(_ATTACHED)


def verify_attached(handle: PackHandle) -> None:
    """Re-verify the checksum canary over an attached pack.

    Under ``REPRO_SANITIZE=1`` every exported block carries its
    export-time CRC; workers call this after each chunk so a torn write
    into shared memory — from any process, through any aperture the
    static pass cannot see — fails the *next* chunk boundary instead of
    silently corrupting every sibling's reads.  No-op when the handle
    carries no checksums (sanitizer off at export time) or the pack is
    not currently attached.
    """
    cached = _ATTACHED.get(handle.token)
    if cached is None:
        return
    arrays = cached[0]
    for key, block in handle.blocks:
        if block.checksum is None or key not in arrays:
            continue
        actual = _block_checksum(arrays[key])
        if actual != block.checksum:
            raise CanaryViolation(
                f"shared-memory canary mismatch on block {key!r} of "
                f"{handle.token}: export-time crc32 {block.checksum:#010x} "
                f"!= current {actual:#010x} — a process wrote into the "
                "shared segment after export (torn write)"
            )


class CSDArrayView:
    """Worker-side stand-in for a :class:`CitySemanticDiagram`.

    Exposes exactly the :class:`repro.core.recognition.VoteSource`
    surface — the POI arrays plus batched range queries over a
    :meth:`GridIndex.from_csr_state` rebuild — all zero-copy over the
    attached shared memory.
    """

    def __init__(
        self,
        poi_xy: MetersArray,
        popularity: Float64Array,
        unit_of: IndexArray,
        index: GridIndex,
        n_units: int,
    ) -> None:
        self.poi_xy = poi_xy
        self.popularity = popularity
        self.unit_of = unit_of
        self._index = index
        self._n_units = n_units

    @property
    def n_units(self) -> int:
        return self._n_units

    def range_query_many(self, xy: MetersArray, radius: float) -> CSRQuery:
        return self._index.query_radius_many(xy, radius)


class SharedCSD:
    """Shared-memory export of a CSD's recognition-kernel arrays.

    Exports the POI coordinates, popularity, unit labels, and the grid
    index's CSR internals (sorted order, cell codes, per-axis
    coordinate gathers).  The grid's point array *is* ``poi_xy``, so it
    is exported once and shared by both consumers.

    Use as a context manager::

        with SharedCSD.export(csd) as shared:
            handle = shared.handle()   # ships to workers, ~200 bytes

    Unit *semantics* (tag strings, distributions) are deliberately not
    exported: workers return numeric vote results and the parent — who
    owns the real CSD — assembles the frozensets.
    """

    def __init__(self, pack: SharedArrayPack, handle: CSDHandle) -> None:
        self._pack = pack
        self._handle = handle

    @classmethod
    def export(cls, csd: CitySemanticDiagram) -> "SharedCSD":
        state = csd.grid_index.csr_state()
        pack = SharedArrayPack(
            {
                "poi_xy": csd.poi_xy,
                "popularity": csd.popularity,
                "unit_of": csd.unit_of,
                "grid_order": state.order,
                "grid_codes": state.codes,
                "grid_xs": state.xs,
                "grid_ys": state.ys,
            },
            label="csd",
        )
        handle = CSDHandle(
            pack=pack.handle(),
            cell=state.cell,
            gx_lo=state.gx_lo,
            gx_hi=state.gx_hi,
            gy_lo=state.gy_lo,
            gy_hi=state.gy_hi,
            ny=state.ny,
            n_cells=state.n_cells,
            n_units=csd.n_units,
        )
        return cls(pack, handle)

    def handle(self) -> CSDHandle:
        return self._handle

    def unlink(self) -> None:
        self._pack.unlink()

    def __enter__(self) -> "SharedCSD":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: object,
    ) -> None:
        self.unlink()


def attach_csd(handle: CSDHandle) -> CSDArrayView:
    """Build (or fetch the cached) worker-side view of an exported CSD."""
    arrays = attach_pack(handle.pack)
    index = GridIndex.from_csr_state(
        GridCSRState(
            xy=arrays["poi_xy"],
            order=arrays["grid_order"],
            codes=arrays["grid_codes"],
            xs=arrays["grid_xs"],
            ys=arrays["grid_ys"],
            cell=handle.cell,
            gx_lo=handle.gx_lo,
            gx_hi=handle.gx_hi,
            gy_lo=handle.gy_lo,
            gy_hi=handle.gy_hi,
            ny=handle.ny,
            n_cells=handle.n_cells,
        )
    )
    return CSDArrayView(
        poi_xy=arrays["poi_xy"],
        popularity=arrays["popularity"],
        unit_of=arrays["unit_of"],
        index=index,
        n_units=handle.n_units,
    )
