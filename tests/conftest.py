"""Shared fixtures: one small deterministic workload for the whole suite.

Building a city + POIs + taxi corpus + CSD takes seconds; session scope
keeps the integration-flavoured tests fast while unit tests construct
their own tiny inputs.

The autouse session fixture at the bottom is the shared-memory **leak
gate**: after the last test it fails the suite if this process still
owns segments (``live_segment_names()``) or ``/dev/shm`` still holds
``repro-*-<pid>-*`` files created by this run.  Set
``REPRO_LEAK_REPORT=<path>`` to also write the findings as JSON (CI
uploads it as the ``sanitize`` job's artifact).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import CSDConfig, MiningConfig
from repro.data.city import CityModel
from repro.data.poi import POIGenerator
from repro.data.taxi import ShanghaiTaxiSimulator


@pytest.fixture(scope="session", autouse=True)
def _shared_memory_leak_gate():
    """Fail the suite if any repro-owned shared-memory segment outlives
    the tests that created it.

    Runs unconditionally (the check is a dict read plus one directory
    scan) so a leak fails every CI job, not just the sanitize one.  The
    ``/dev/shm`` scan is pid-scoped: segment names are
    ``repro-<label>-<pid>-<hex>-<key>`` (see ``SharedArrayPack``), so
    parallel CI shards can never fail each other's gates.
    """
    yield
    from repro.parallel import pool as pool_mod
    from repro.parallel.shm import live_segment_names

    # Tear down the persistent executors first: their atexit hook has
    # not run yet, and live workers pin attached segments.
    pool_mod.shutdown_pools()
    owned = live_segment_names()
    pid = os.getpid()
    shm_dir = Path("/dev/shm")
    on_disk = (
        sorted(p.name for p in shm_dir.glob(f"repro-*-{pid}-*"))
        if shm_dir.is_dir()
        else []
    )
    report = {"owned": owned, "dev_shm": on_disk, "pid": pid}
    report_path = os.environ.get("REPRO_LEAK_REPORT", "").strip()
    if report_path:
        Path(report_path).write_text(
            json.dumps(report, indent=2), encoding="utf-8"
        )
    if owned or on_disk:
        pytest.fail(
            "shared-memory segments leaked past session teardown: "
            f"live_segment_names()={owned}, /dev/shm={on_disk} — every "
            "export must unlink via its context manager or pack.unlink()",
            pytrace=False,
        )


@pytest.fixture(scope="session")
def small_city():
    return CityModel.generate(extent_m=3_000.0, block_size_m=400.0, seed=3)


@pytest.fixture(scope="session")
def small_pois(small_city):
    return POIGenerator(small_city, seed=5).generate(3_000)


@pytest.fixture(scope="session")
def small_taxi(small_city):
    sim = ShanghaiTaxiSimulator(small_city, seed=9)
    return sim.simulate(n_passengers=80, days=5)


@pytest.fixture(scope="session")
def small_trajectories(small_taxi):
    return small_taxi.mining_trajectories()


@pytest.fixture(scope="session")
def small_csd_config():
    return CSDConfig(alpha=0.7)


@pytest.fixture(scope="session")
def small_mining_config():
    return MiningConfig(support=10, rho=0.001)


@pytest.fixture(scope="session")
def small_csd(small_pois, small_trajectories, small_csd_config, small_city):
    from repro.core.constructor import build_csd

    stays = [sp for st in small_trajectories for sp in st.stay_points]
    return build_csd(
        small_pois, stays, small_csd_config, small_city.projection
    )


@pytest.fixture(scope="session")
def small_recognized(small_csd, small_trajectories, small_csd_config):
    from repro.core.recognition import CSDRecognizer

    recognizer = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
    return recognizer.recognize(small_trajectories)
