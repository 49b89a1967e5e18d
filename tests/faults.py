"""Fault-injection hooks shared by the crash/resume and retry tests.

Installed with :func:`repro.ioutil.fault_hook`, a hook sees every stage
point the runners announce (``target`` is ``None``) and every
atomic-write point (``target`` is the artifact path), in execution
order.
"""

from repro.runner.fs import SimulatedCrash


class CrashAt:
    """Raise :class:`SimulatedCrash` the ``nth`` time ``point`` is
    announced — the process dying at that exact pipeline location."""

    def __init__(self, point, nth=1):
        self.point = point
        self.nth = nth
        self.hits = 0

    def __call__(self, point, target):
        if point == self.point:
            self.hits += 1
            if self.hits == self.nth:
                raise SimulatedCrash(
                    f"injected crash #{self.nth} at {point!r}"
                )


class FailWrites:
    """Fail the first ``n`` atomic writes with ``OSError`` at
    ``tmp-open`` — the transient failures the runners retry."""

    def __init__(self, n):
        self.remaining = n
        self.attempts = 0

    def __call__(self, point, target):
        if point != "tmp-open":
            return
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise OSError(
                f"injected transient failure writing {target.name} "
                f"({self.remaining} more to come)"
            )
