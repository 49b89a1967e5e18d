"""The serving bench's open-loop latency bookkeeping (benchmarks/bench_serve.py).

``open_loop`` gathers samples from many client threads, each owning a
stride of the schedule; the steady-phase percentiles must come from
the steady requests only, whatever order the threads finish in and
however many requests were shed.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_serve import latency_summary, open_loop  # noqa: E402
from repro.serve import ServerOverloaded  # noqa: E402

N_STEADY, N_BURST = 24, 6
SLOW_S = 0.2


def test_steady_percentiles_select_steady_requests():
    requests = [(float(i), 0.0) for i in range(N_STEADY + N_BURST)]
    shed = {3, 8, 13}  # steady requests the server refuses

    def call(lon, lat):
        i = int(lon)
        if i in shed:
            raise ServerOverloaded("queue full")
        if i >= N_STEADY:
            time.sleep(SLOW_S)  # burst requests are slow

    samples, rejected = open_loop(
        3, requests, [0.0] * len(requests), call
    )
    assert rejected == len(shed)
    assert [i for i, _ in samples] == [
        i for i in range(len(requests)) if i not in shed
    ]
    summary = latency_summary(samples, N_STEADY)
    # Every steady request is fast and every burst request slow, so a
    # steady summary that mixed in a burst sample would show it.
    assert summary["steady"]["max_ms"] < SLOW_S * 1e3
    assert summary["overall"]["max_ms"] >= SLOW_S * 1e3
