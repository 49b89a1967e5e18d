"""Checkpoint filesystem boundary, retries, and stage fault points.

The runner never touches the filesystem directly: every checkpoint
mutation flows through a :class:`FileSystem` so that

- **atomicity** is uniform — artifacts are written to a ``*.tmp``
  sibling and :func:`os.replace`-d into place (via
  :func:`repro.ioutil.atomic_write`, the repo-wide implementation), so
  a crash mid-write can never leave a half-written checkpoint that a
  resume would trust;
- **transient failures** (NFS hiccups, antivirus locks) are retried
  with exponential backoff in exactly one place
  (:func:`retry_with_backoff`);
- **stage boundaries are fault points**: the runners call
  :meth:`FileSystem.fault` at named pipeline points, which announces
  them to the :mod:`repro.ioutil` fault hook with ``target=None``.  The
  one hook therefore sees every stage boundary and every write
  boundary in execution order, so a test (or ``tools/crash_sweep.py``)
  can kill a run at any of them and prove crash/resume holds
  (``docs/RUNNER.md``).
"""

from __future__ import annotations

from pathlib import Path
from time import sleep
from typing import Callable, TypeVar

from repro import ioutil
from repro.obs import get_registry

T = TypeVar("T")

#: Retries after the first failed attempt of a checkpoint write.
RETRIES = 3
#: Sleep before the first retry; doubled before each later one.
BACKOFF_S = 0.05


class SimulatedCrash(RuntimeError):
    """Raised by a fault-injection hook to emulate the process dying.

    Deliberately **not** an ``OSError``: the retry machinery must let
    it propagate (a killed process does not get retried).
    """


class FileSystem:
    """Real local-disk checkpoint I/O (the default)."""

    def write_artifact(
        self, path: Path, writer: Callable[[Path], None]
    ) -> None:
        """Atomically produce ``path`` via ``writer(tmp_path)``.

        ``writer`` receives a temporary sibling path; only after it
        returns is the file renamed into place, so readers never see a
        partial artifact.  Delegates to :func:`repro.ioutil.atomic_write`,
        which also unlinks the tmp sibling on any failure and announces
        the per-write fault points (``tools/crash_sweep.py``).
        """
        ioutil.atomic_write(path, writer)

    def write_text(self, path: Path, text: str) -> None:
        """Atomic UTF-8 text write (used for the manifest)."""
        ioutil.atomic_write_text(path, text)

    def read_text(self, path: Path) -> str:
        return path.read_text(encoding="utf-8")

    def exists(self, path: Path) -> bool:
        return path.exists()

    def mkdir(self, path: Path) -> None:
        path.mkdir(parents=True, exist_ok=True)

    def remove(self, path: Path) -> None:
        """Best-effort delete (retired artifacts); missing files are
        fine — a crash may have interrupted an earlier cleanup."""
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def fault(self, point: str) -> None:
        """Announce the stage fault point ``point`` (e.g.
        ``after-constructor-checkpoint``) to the :mod:`repro.ioutil`
        fault hook; a no-op when no hook is installed."""
        ioutil.announce(point, None)


def retry_with_backoff(operation: Callable[[], T]) -> T:
    """Run ``operation``, retrying ``OSError`` with exponential backoff.

    Attempts ``RETRIES + 1`` times total, sleeping ``BACKOFF_S *
    2**attempt`` between attempts; the last failure propagates.  Only
    ``OSError`` (transient I/O) is retried — :class:`SimulatedCrash`
    and everything else escape immediately; tests replace the module's
    ``sleep`` to run instantly.  Each retry increments the
    ``pipeline.runner.checkpoint.retries`` counter on the
    :mod:`repro.obs` registry.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except OSError:
            if attempt >= RETRIES:
                raise
            get_registry().counter("pipeline.runner.checkpoint.retries").inc()
            sleep(BACKOFF_S * (2.0 ** attempt))
            attempt += 1
