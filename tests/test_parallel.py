"""repro.parallel: shared-memory lifecycle, chunking, and equivalence.

Three invariant families:

1. **No leaked segments** — every exit path (normal ``with`` exit,
   exception inside the block, a worker hard-killed mid-task) leaves
   ``live_segment_names()`` empty and the segments unattachable.
2. **Chunking** — ``chunk_bounds`` never produces an empty chunk and
   respects the per-job minimum *after* rounding (the regression that
   motivated it).
3. **Equivalence** — ``recognize(..., n_jobs=N)`` and the opt-in
   float32 voting path produce results identical to the serial float64
   oracle on the standard workload.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.recognition as recognition_mod
from repro.contracts import CanaryViolation
from repro.core.recognition import CSDRecognizer, chunk_bounds, vote_stays
from repro.parallel import (
    SharedArrayPack,
    SharedCSD,
    WorkerCrash,
    attach_csd,
    attach_pack,
    live_segment_names,
    recognize_parallel,
)
from repro.parallel.pool import PoolStall, _dispose_pool
from repro.parallel.shm import attached_tokens, detach_all, verify_attached


@pytest.fixture
def flat_stays(small_trajectories):
    return [sp for st in small_trajectories for sp in st.stay_points]


def _first_segment_name(pack):
    return pack.handle().blocks[0][1].shm_name


class TestChunkBounds:
    def test_single_chunk_when_too_small(self):
        bounds = chunk_bounds(100, n_jobs=4, min_per_job=512)
        assert bounds.tolist() == [0, 100]

    def test_no_empty_chunks_after_rounding(self):
        # The regression: just above the threshold, linspace rounding
        # used to shave a chunk below min_per_job (or to zero).
        for n_items in (513, 1023, 1025, 4096, 4097):
            for n_jobs in (2, 3, 4, 7):
                bounds = chunk_bounds(n_items, n_jobs, min_per_job=512)
                sizes = np.diff(bounds)
                assert (sizes > 0).all(), (n_items, n_jobs, bounds)
                if len(sizes) > 1:
                    assert (sizes >= 512).all(), (n_items, n_jobs, bounds)

    def test_covers_exactly_once(self):
        bounds = chunk_bounds(10_000, 4, min_per_job=512)
        assert bounds[0] == 0 and bounds[-1] == 10_000
        assert (np.diff(bounds) > 0).all()
        assert len(bounds) == 5

    def test_fewer_items_than_jobs(self):
        bounds = chunk_bounds(3, n_jobs=8, min_per_job=1)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == 3
        assert (sizes > 0).all()

    def test_zero_items(self):
        assert chunk_bounds(0, 4).tolist() == [0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)
        with pytest.raises(ValueError):
            chunk_bounds(10, 2, min_per_job=0)


class TestSharedMemoryLifecycle:
    def test_roundtrip_is_exact_and_readonly(self):
        rng = np.random.default_rng(0)
        arrays = {
            "a": rng.normal(size=(50, 2)),
            "b": np.arange(7, dtype=np.int64),
            "empty": np.empty(0, dtype=np.float64),
        }
        with SharedArrayPack(arrays, label="t") as pack:
            views = attach_pack(pack.handle())
            for key, arr in arrays.items():
                np.testing.assert_array_equal(views[key], arr)
                assert views[key].dtype == arr.dtype
                assert not views[key].flags.writeable

    def test_unlink_on_normal_exit(self):
        with SharedArrayPack({"a": np.ones(4)}, label="t") as pack:
            name = _first_segment_name(pack)
            assert name in live_segment_names()
        assert live_segment_names() == []
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_unlink_on_exception_in_context(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedArrayPack({"a": np.ones(4)}, label="t") as pack:
                name = _first_segment_name(pack)
                raise RuntimeError("boom")
        assert live_segment_names() == []
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_unlink_is_idempotent(self):
        pack = SharedArrayPack({"a": np.ones(4)}, label="t")
        pack.unlink()
        pack.unlink()
        assert live_segment_names() == []

    def test_csd_export_roundtrip_votes_identically(
        self, small_csd, small_csd_config, flat_stays
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        xy = recognizer.project_stays(flat_stays)
        expected = vote_stays(small_csd, xy, recognizer.r3sigma_m)
        with SharedCSD.export(small_csd) as shared:
            view = attach_csd(shared.handle())
            got = vote_stays(view, xy, recognizer.r3sigma_m)
            for e, g in zip(expected, got):
                np.testing.assert_array_equal(e, g)
        assert live_segment_names() == []

    def test_unlink_on_worker_death(
        self, small_csd, small_csd_config, flat_stays
    ):
        """A worker dying mid-vote must not leak segments or hang."""
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        bounds = np.array([0, len(flat_stays) // 2, len(flat_stays)])
        with pytest.raises(WorkerCrash):
            recognize_parallel(
                recognizer, flat_stays, bounds, fault="worker-vote"
            )
        assert live_segment_names() == []

    def test_pool_recovers_after_worker_death(
        self, small_csd, small_csd_config, flat_stays, small_recognized
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        bounds = np.array([0, len(flat_stays) // 2, len(flat_stays)])
        with pytest.raises(WorkerCrash):
            recognize_parallel(
                recognizer, flat_stays, bounds, fault="worker-start"
            )
        props = recognize_parallel(recognizer, flat_stays, bounds)
        expected = [
            sp.semantics for st in small_recognized for sp in st.stay_points
        ]
        assert props == expected
        assert live_segment_names() == []

    def test_unlink_and_recovery_after_attach_death(
        self, small_csd, small_csd_config, flat_stays, small_recognized
    ):
        """A worker dying *between* attach and vote — segments mapped
        but no result produced — must leak nothing and leave the next
        call fully functional."""
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        bounds = np.array([0, len(flat_stays) // 2, len(flat_stays)])
        with pytest.raises(WorkerCrash):
            recognize_parallel(
                recognizer, flat_stays, bounds, fault="worker-attach"
            )
        assert live_segment_names() == []
        props = recognize_parallel(recognizer, flat_stays, bounds)
        expected = [
            sp.semantics for st in small_recognized for sp in st.stay_points
        ]
        assert props == expected
        assert live_segment_names() == []


class TestAttachCacheStaleness:
    """The per-process token cache must never serve views over segments
    the token no longer names (the WorkerCrash-recycle regression)."""

    def test_recycled_token_gets_fresh_attach(self):
        from repro.parallel.shm import PackHandle

        with SharedArrayPack(
            {"a": np.ones(4, dtype=np.float64)}, label="t"
        ) as pack1:
            h1 = pack1.handle()
            v1 = attach_pack(h1)
            assert v1["a"][0] == 1.0
            with SharedArrayPack(
                {"a": np.full(4, 2.0, dtype=np.float64)}, label="t"
            ) as pack2:
                # Same logical token, different segments underneath —
                # what a recycled name looks like to a cached worker.
                forged = PackHandle(
                    token=h1.token, blocks=pack2.handle().blocks
                )
                v2 = attach_pack(forged)
                assert v2["a"][0] == 2.0, "stale cached view served"
        detach_all()

    def test_cache_hit_for_unchanged_handle(self):
        with SharedArrayPack(
            {"a": np.ones(4, dtype=np.float64)}, label="t"
        ) as pack:
            first = attach_pack(pack.handle())
            again = attach_pack(pack.handle())
            assert again["a"] is first["a"]
        detach_all()

    def test_pool_disposal_invalidates_parent_cache(
        self, small_csd, small_csd_config, flat_stays
    ):
        """After a WorkerCrash disposes the pool, the disposing
        process's own attachment cache is dropped, so a re-export under
        any recycled name attaches fresh."""
        with SharedArrayPack(
            {"a": np.ones(4, dtype=np.float64)}, label="t"
        ) as pack:
            attach_pack(pack.handle())
            assert pack.token in attached_tokens()
            recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
            bounds = np.array([0, len(flat_stays) // 2, len(flat_stays)])
            with pytest.raises(WorkerCrash):
                recognize_parallel(
                    recognizer, flat_stays, bounds, fault="worker-vote"
                )
            assert attached_tokens() == []

    def test_worker_init_drops_inherited_attachments(self):
        from repro.parallel.pool import _worker_init

        with SharedArrayPack(
            {"a": np.ones(4, dtype=np.float64)}, label="t"
        ) as pack:
            attach_pack(pack.handle())
            assert attached_tokens() != []
            _worker_init()
            assert attached_tokens() == []


class TestParSanitize:
    def test_no_checksums_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with SharedArrayPack(
            {"a": np.arange(8, dtype=np.float64)}, label="t"
        ) as pack:
            for _, block in pack.handle().blocks:
                assert block.checksum is None
            verify_attached(pack.handle())  # no-op, must not raise
        detach_all()

    def test_canary_passes_on_intact_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with SharedArrayPack(
            {"a": np.arange(8, dtype=np.float64)}, label="t"
        ) as pack:
            handle = pack.handle()
            assert all(b.checksum is not None for _, b in handle.blocks)
            attach_pack(handle)
            verify_attached(handle)
        detach_all()

    def test_canary_detects_torn_write(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from multiprocessing import shared_memory

        with SharedArrayPack(
            {"a": np.arange(8, dtype=np.float64)}, label="t"
        ) as pack:
            handle = pack.handle()
            attach_pack(handle)
            # A torn write through an aperture the attached (read-only)
            # views cannot provide: a second raw mapping.
            seg = shared_memory.SharedMemory(
                name=handle.blocks[0][1].shm_name
            )
            try:
                raw = np.ndarray((8,), dtype=np.float64, buffer=seg.buf)
                raw[3] = 999.0
                with pytest.raises(CanaryViolation, match="canary mismatch"):
                    verify_attached(handle)
            finally:
                del raw
                seg.close()
        detach_all()

    def test_parallel_recognition_bit_identical_under_sanitizer(
        self, small_csd, small_csd_config, flat_stays, monkeypatch
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        serial = recognizer.recognize_points(flat_stays)
        bounds = chunk_bounds(len(flat_stays), 2, min_per_job=1)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # Fresh pool so the forked workers inherit the armed sanitizer.
        _dispose_pool(2)
        assert recognize_parallel(recognizer, flat_stays, bounds) == serial
        assert live_segment_names() == []


def _sleepy_worker(*args):
    import time as _time  # reprolint: allow-direct-timing

    _time.sleep(2.0)
    raise AssertionError("the watchdog should have fired first")


class TestPoolWatchdog:
    def test_stall_raises_pool_stall(
        self, small_csd, small_csd_config, flat_stays, monkeypatch
    ):
        import repro.parallel.pool as pool_mod

        monkeypatch.setenv("REPRO_POOL_TIMEOUT_S", "0.2")
        monkeypatch.setattr(pool_mod, "_vote_worker", _sleepy_worker)
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        bounds = np.array([0, len(flat_stays) // 2, len(flat_stays)])
        _dispose_pool(2)  # fresh pool forks with the patched worker
        with pytest.raises(PoolStall, match="stalled"):
            recognize_parallel(recognizer, flat_stays, bounds)
        assert live_segment_names() == []
        _dispose_pool(2)

    def test_recovery_after_stall(
        self, small_csd, small_csd_config, flat_stays
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        serial = recognizer.recognize_points(flat_stays)
        bounds = chunk_bounds(len(flat_stays), 2, min_per_job=1)
        assert recognize_parallel(recognizer, flat_stays, bounds) == serial

    def test_timeout_parsing(self, monkeypatch):
        from repro.parallel.pool import _DEFAULT_POOL_TIMEOUT_S, _pool_timeout_s

        monkeypatch.delenv("REPRO_POOL_TIMEOUT_S", raising=False)
        assert _pool_timeout_s() == _DEFAULT_POOL_TIMEOUT_S
        monkeypatch.setenv("REPRO_POOL_TIMEOUT_S", "42.5")
        assert _pool_timeout_s() == 42.5
        monkeypatch.setenv("REPRO_POOL_TIMEOUT_S", "0")
        assert _pool_timeout_s() == 0.0
        monkeypatch.setenv("REPRO_POOL_TIMEOUT_S", "not-a-number")
        assert _pool_timeout_s() == _DEFAULT_POOL_TIMEOUT_S


class TestParallelEquivalence:
    def test_recognize_parallel_matches_serial(
        self, small_csd, small_csd_config, flat_stays
    ):
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        serial = recognizer.recognize_points(flat_stays)
        for n_chunks in (2, 3):
            bounds = chunk_bounds(
                len(flat_stays), n_chunks, min_per_job=1
            )
            assert len(bounds) == n_chunks + 1
            parallel = recognize_parallel(recognizer, flat_stays, bounds)
            assert parallel == serial
        assert live_segment_names() == []

    def test_recognize_n_jobs_bit_identical(
        self, small_csd, small_csd_config, small_trajectories, monkeypatch
    ):
        monkeypatch.setattr(recognition_mod, "_MIN_STAYS_PER_JOB", 1)
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        serial = recognizer.recognize(small_trajectories, n_jobs=1)
        fanned = recognizer.recognize(small_trajectories, n_jobs=2)
        assert len(serial) == len(fanned)
        for a, b in zip(serial, fanned):
            assert a.traj_id == b.traj_id
            assert [sp.semantics for sp in a.stay_points] == [
                sp.semantics for sp in b.stay_points
            ]
        assert live_segment_names() == []


class TestFloat32Voting:
    def test_float32_identical_unit_assignments(
        self, small_csd, small_csd_config, flat_stays
    ):
        """The standard workload's vote margins dwarf float32 noise, so
        the fast path must pick the same winning unit for every stay."""
        recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        xy = recognizer.project_stays(flat_stays)
        w64, _, _ = vote_stays(small_csd, xy, recognizer.r3sigma_m)
        w32, _, _ = vote_stays(
            small_csd, xy, recognizer.r3sigma_m, use_float32=True
        )
        np.testing.assert_array_equal(w32, w64)

    def test_float32_recognizer_matches_float64(
        self, small_csd, small_csd_config, flat_stays
    ):
        base = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        fast = CSDRecognizer(
            small_csd, small_csd_config.r3sigma_m, query_dtype="float32"
        )
        assert fast.recognize_points(flat_stays) == base.recognize_points(
            flat_stays
        )

    def test_rejects_unknown_query_dtype(self, small_csd):
        with pytest.raises(ValueError, match="query_dtype"):
            CSDRecognizer(small_csd, 100.0, query_dtype="float16")
