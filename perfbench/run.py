#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads, one command.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-std --seed 5 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 5          # every workload
    python3 perfbench/run.py --workload serve-ladder --smoke  # tiny inputs

Workloads (``perfbench/README.md`` says why each exists):

* ``batch-std``     -- one ``PipelineRunner.run`` on the 12k-POI corpus;
* ``batch-city``    -- the same on 120k POIs over a 19 km extent;
* ``stream-commit`` -- ``StreamRunner`` epochs with online POIs;
* ``serve-ladder``  -- ``repro serve`` over loopback HTTP, open loop.

Inputs are generated from ``--seed`` with the program's own generators
(``CityModel``, ``POIGenerator``, ``ShanghaiTaxiSimulator``) and cached
under ``.perfbench_work/``; generating them is not timed.  Each
workload's system work runs in a fresh process.  With ``--trace 0`` the
run reports end-to-end metrics, with ``--trace 1`` a traced run reports
per-layer self times.  Every run checks the program's answers against
an oracle; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is
1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hostspeed import HostClock, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("batch-std", "batch-city", "stream-commit", "serve-ladder")

#: Every process this benchmark starts must end within this budget.
DEADLINE_S = 170.0

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5

#: ``repro run`` / ``repro stream`` defaults (sigma=20, 60 min, rho=0.001,
#: alpha=0.7 as the CLI passes it).
MINING = {"alpha": 0.7, "support": 20, "delta_t_s": 3600.0, "rho": 0.001}
MINING_SMOKE = dict(MINING, support=4)

#: Every seed's corpus is drawn from one base corpus, ``repro simulate
#: --seed 5`` (the ROADMAP's standard corpus): the seed drops a seeded
#: share of its riders.  Re-simulating the whole city per seed instead
#: changes how many patterns pass sigma, and with them the run time, by
#: a factor of two between seeds, which would drown any regression.
BASE_SEED = 5
DROP_SHARE = 0.05

#: The modules under ``src/repro`` that generate and write the CSV
#: corpora; the corpus cache is keyed on them.
GENERATOR_MODULES = (
    "data/categories.py", "data/city.py", "data/poi.py", "data/taxi.py",
    "data/trajectory.py", "data/io.py", "geo/projection.py", "types.py",
    "ioutil.py",
)

#: Corpus shapes: ``repro simulate`` arguments.
CORPORA = {
    "std": {"pois": 12_000, "passengers": 300, "days": 5, "extent_m": 6_000.0},
    "city": {"pois": 120_000, "passengers": 300, "days": 5,
             "extent_m": 19_000.0},
}
CORPORA_SMOKE = {
    "std": {"pois": 1_500, "passengers": 40, "days": 2, "extent_m": 4_000.0},
    "city": {"pois": 6_000, "passengers": 40, "days": 2, "extent_m": 6_000.0},
}

STREAM = {"epoch_trips": 512, "window_epochs": 4,
          "staleness_threshold": 0.01, "new_poi_share": 0.1}
STREAM_SMOKE = dict(STREAM, epoch_trips=64)

#: Serve ladder: the first rung's rate, doubling up to the last.
SERVE_RATES = (12.5, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
SERVE_CONNS = 2
SERVE_SLO_MS = 100.0
#: A rung whose generator ran this late (p90) is generator-bound.
GEN_LATE_LIMIT_MS = 5.0
#: The ladder stops once a rung's backlog grew and the server completed
#: less than this share of the offered rate: it is saturated, higher
#: rungs add nothing.
SATURATED_SHARE = 0.8
#: Chance that a request repeats an earlier request's exact location
#: (the cell cache's hit path) instead of taking a new stay point.
REPEAT_SHARE = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("io.ingest_s", "s"), ("io.rows", "count"),
    ("constructor.popularity_s", "s"), ("constructor.clustering_s", "s"),
    ("constructor.purification_s", "s"), ("constructor.merging_s", "s"),
    ("constructor.assemble_s", "s"), ("constructor.units_final", "count"),
    ("recognition.vote_s", "s"), ("recognition.assemble_s", "s"),
    ("recognition.votes", "count"), ("recognition.match_ratio", "ratio"),
    ("geo.index.hit_ratio", "ratio"),
    ("extraction.prefixspan_s", "s"), ("prefixspan.nodes", "count"),
    ("extraction.optics_s", "s"), ("extraction.optics_calls", "count"),
    ("extraction.optics_points", "count"),
    ("extraction.counterpart_s", "s"), ("extraction.yield_ratio", "ratio"),
    ("extraction.temporal_drop_ratio", "ratio"),
    ("runner.checkpoint_s", "s"), ("runner.checkpoint_bytes", "bytes"),
    ("runner.digest_s", "s"),
    ("stream.absorb_s", "s"), ("stream.repair_s", "s"),
    ("stream.diagram_s", "s"), ("stream.repairs", "count"),
    ("stream.repair_units", "count"),
    ("incremental.cache_hit_ratio", "ratio"),
    ("stream.recognize_s", "s"), ("stream.window_s", "s"),
    ("stream.commit_s", "s"), ("stream.commit_bytes", "bytes"),
    ("serve.server_ms", "ms"), ("serve.transport_ms", "ms"),
    ("serve.batch_wait_ms", "ms"), ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"), ("serve.rejected", "count"),
    ("serve.gen_late_ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("other_s", "s"), ("wall_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run the workload."""


# -- environment ----------------------------------------------------------


def check_tree() -> None:
    """Refuse to run without the program's sources next to us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC}: run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(seed: int, src_digest: str) -> Dict[str, Any]:
    import numpy

    return {
        "seed": seed,
        "n_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest,
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# -- inputs -----------------------------------------------------------------


def read_corpus(corpus: Path) -> Tuple[int, List[Any]]:
    """A corpus's trip count and every stay point of its trips, in
    trajectory order."""
    from repro.data.io import read_trips
    from repro.data.taxi import trips_to_mining_trajectories

    trips = read_trips(corpus / "trips.csv")
    trajs = trips_to_mining_trajectories(trips)
    return len(trips), [sp for st in trajs for sp in st.stay_points]


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Inputs:
    """Seeded inputs, cached under ``WORK/cache``.

    The CSV corpora depend only on the program's generators and CSV
    writers (``GENERATOR_MODULES``) and on the recipe here, so they are
    keyed on those: a change elsewhere in ``src/`` reuses them, and a
    parent and a child commit that agree on the generators measure the
    very same files.  The diagrams the stream and serve workloads start
    from are built by the program's constructor, so they are keyed on
    the whole of ``src/`` as well.  Entries for other keys are kept.
    Each entry records the SHA-256 of its files (``sha256.json``); the
    run's stamp carries them, so two results can be checked to have
    measured the same inputs.
    """

    def __init__(self, seed: int, smoke: bool, src_digest: str) -> None:
        self.seed = seed
        self.smoke = smoke
        recipe = json.dumps([CORPORA, CORPORA_SMOKE, BASE_SEED, DROP_SHARE,
                             STREAM, MINING["alpha"]])
        code = inspect.getsource(Inputs) + inspect.getsource(read_corpus)
        gen = hashlib.sha256((recipe + code).encode())
        for name in GENERATOR_MODULES:
            gen.update(name.encode())
            gen.update((SRC / "repro" / name).read_bytes())
        corpus_key = gen.hexdigest()
        derived_key = hashlib.sha256(
            (corpus_key + src_digest).encode()
        ).hexdigest()
        size = "smoke" if smoke else "full"
        self.corpus_cache = WORK / "cache" / f"corpus-{corpus_key[:16]}" / size
        self.derived_cache = WORK / "cache" / f"csd-{derived_key[:16]}" / size

    def _entry(self, root: Path, name: str, build: Any) -> Path:
        path = root / name
        if not (path / "done").is_file():
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            build(tmp)
            sums = {f.name: file_sha256(f) for f in sorted(tmp.iterdir())}
            (tmp / "sha256.json").write_text(json.dumps(sums, indent=1),
                                             encoding="utf-8")
            (tmp / "done").write_text("ok\n", encoding="utf-8")
            shutil.rmtree(path, ignore_errors=True)
            tmp.rename(path)
        return path

    @staticmethod
    def digests(*entries: Path) -> Dict[str, str]:
        """File name -> SHA-256 of the files in cache ``entries``."""
        out: Dict[str, str] = {}
        for entry in entries:
            out.update(json.loads(
                (entry / "sha256.json").read_text(encoding="utf-8")
            ))
        return out

    def base(self, kind: str) -> Path:
        """The whole corpus, ``repro simulate --seed BASE_SEED``."""
        shape = (CORPORA_SMOKE if self.smoke else CORPORA)[kind]

        def build(out: Path) -> None:
            from repro.data.city import CityModel
            from repro.data.io import write_pois, write_trips
            from repro.data.poi import POIGenerator
            from repro.data.taxi import ShanghaiTaxiSimulator

            city = CityModel.generate(extent_m=shape["extent_m"],
                                      seed=BASE_SEED)
            pois = POIGenerator(city, seed=BASE_SEED + 4).generate(
                shape["pois"]
            )
            taxi = ShanghaiTaxiSimulator(city, seed=BASE_SEED + 16).simulate(
                n_passengers=shape["passengers"], days=shape["days"]
            )
            write_pois(out / "pois.csv", pois)
            write_trips(out / "trips.csv", taxi.trips)

        return self._entry(self.corpus_cache, f"base-{kind}", build)

    def corpus(self, kind: str) -> Path:
        """The seed's corpus: the base corpus without a seeded
        ``DROP_SHARE`` of its card-linked riders and of its anonymous
        trips."""
        base = self.base(kind)

        def build(out: Path) -> None:
            import numpy as np
            from repro.data.io import read_trips, write_trips

            trips = read_trips(base / "trips.csv")
            riders = sorted({t.passenger_id for t in trips
                             if t.passenger_id is not None})
            rng = np.random.default_rng(self.seed)
            dropped = set(
                rng.choice(riders, size=round(len(riders) * DROP_SHARE),
                           replace=False).tolist()
            )
            coin = rng.random(len(trips))
            kept = [
                t for t, c in zip(trips, coin)
                if (t.passenger_id not in dropped
                    if t.passenger_id is not None else c >= DROP_SHARE)
            ]
            shutil.copyfile(base / "pois.csv", out / "pois.csv")
            write_trips(out / "trips.csv", kept)

        return self._entry(self.corpus_cache, f"{kind}-{self.seed}", build)

    def stream(self) -> Path:
        """Base diagram from 90% of the POIs; the rest arrive online."""
        corpus = self.corpus("std")
        share = STREAM["new_poi_share"]

        def split(out: Path) -> None:
            import numpy as np
            from repro.data.io import read_pois, write_pois

            pois = read_pois(corpus / "pois.csv")
            rng = np.random.default_rng(self.seed + 1000)
            online = set(
                rng.choice(len(pois), size=int(len(pois) * share),
                           replace=False).tolist()
            )
            write_pois(out / "base_pois.csv",
                       [p for i, p in enumerate(pois) if i not in online])
            write_pois(out / "new_pois.csv",
                       [p for i, p in enumerate(pois) if i in online])
            shutil.copyfile(corpus / "trips.csv", out / "trips.csv")

        pois = self._entry(self.corpus_cache, f"stream-{self.seed}", split)

        def build(out: Path) -> None:
            from repro.core.config import CSDConfig
            from repro.core.constructor import build_csd
            from repro.data.io import read_pois
            from repro.data.persistence import save_csd

            csd = build_csd(read_pois(pois / "base_pois.csv"),
                            read_corpus(pois)[1],
                            CSDConfig(alpha=MINING["alpha"]))
            save_csd(out / "base_csd.json", csd)
            for name in ("new_pois.csv", "trips.csv"):
                shutil.copyfile(pois / name, out / name)

        return self._entry(self.derived_cache, f"stream-{self.seed}", build)

    def serve(self) -> Path:
        """The standard diagram the daemon serves."""
        corpus = self.corpus("std")

        def build(out: Path) -> None:
            from repro.core.config import CSDConfig
            from repro.core.constructor import build_csd
            from repro.data.io import read_pois
            from repro.data.persistence import save_csd

            csd = build_csd(read_pois(corpus / "pois.csv"),
                            read_corpus(corpus)[1],
                            CSDConfig(alpha=MINING["alpha"]))
            save_csd(out / "csd.json", csd)

        return self._entry(self.derived_cache, f"serve-{self.seed}", build)


# -- child processes --------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        left = self.end - time.perf_counter()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def stop(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Interrupt ``proc`` and wait until it has ended."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_worker(mode: str, cfg: Dict[str, Any], deadline: Deadline
               ) -> Tuple[float, float, Optional[Dict[str, Any]]]:
    """Start ``worker.py``; returns (launch-to-ready s, the same in
    reference seconds, result)."""
    WORK.mkdir(parents=True, exist_ok=True)
    cfg_path = WORK / f"worker-{os.getpid()}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    host = HostClock()
    host.start()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, str(cfg_path)],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
    )
    ready: Optional[float] = None
    ready_ref = 0.0
    result: Optional[Dict[str, Any]] = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(deadline.left()):
                    continue
                line = proc.stdout.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("@@ ready"):
                    ready_at = time.perf_counter()
                    host.stop()
                    ready = ready_at - start
                    ready_ref = host.reference_s(start, ready_at)
                elif text.startswith("@@ result "):
                    result = json.loads(text[len("@@ result "):])
                else:
                    print(text, file=sys.stderr)
        proc.wait(timeout=deadline.left())
    finally:
        host.stop()
        stop(proc)
        proc.stdout.close()
        cfg_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    if ready is None:
        raise BenchError(f"{mode} worker never became ready")
    return ready, ready_ref, result


def measure_worker(mode: str, cfg: Dict[str, Any], deadline: Deadline
                   ) -> Tuple[List[float], List[float], Dict[str, Any]]:
    """``SETUP_REPEATS`` launches; the last one does the measured work.
    Returns the set-up times in wall and in reference seconds, and the
    last launch's result."""
    setups: List[float] = []
    ref_setups: List[float] = []
    result = None
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        ready, ready_ref, result = run_worker(
            mode, dict(cfg, setup_only=not last), deadline
        )
        setups.append(ready)
        ref_setups.append(ready_ref)
    if result is None:
        raise BenchError(f"{mode} worker reported no result")
    return setups, ref_setups, result


# -- statistics -----------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile of ``values``
    with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return percentile(values, pct), pct, n
    return max(values), 100.0, n


# -- workloads --------------------------------------------------------------


def scratch_dir(name: str) -> Path:
    path = WORK / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def spans_path(args: argparse.Namespace, name: str) -> Path:
    return WORK / "results" / f"{name}-seed{args.seed}-spans.jsonl"


def base_cfg(args: argparse.Namespace, name: str) -> Dict[str, Any]:
    return dict(
        MINING_SMOKE if args.smoke else MINING,
        seconds=args.seconds,
        trace=bool(args.trace),
        perturb=bool(args.perturb),
        scratch=str(scratch_dir(name)),
        spans=str(spans_path(args, name)),
    )


def run_batch(args: argparse.Namespace, inputs: Inputs, name: str,
              deadline: Deadline) -> Dict[str, Any]:
    data = inputs.corpus("std" if name == "batch-std" else "city")
    cfg = dict(base_cfg(args, name), data=str(data), min_runs=2)
    try:
        setups, ref_setups, res = measure_worker("batch", cfg, deadline)
    finally:
        shutil.rmtree(cfg["scratch"], ignore_errors=True)
    walls = res["walls"]
    run_s = statistics.median(walls)
    # A traced run has no host clock; it reports no gated metric.
    ref_s = statistics.median(res["ref_walls"] or walls)
    named = {
        "setup_s": statistics.median(ref_setups),
        "setup_wall_s": statistics.median(setups),
        "run_s": run_s,
        "runs": len(walls),
        "host_speed": res["host_speed"],
        "peak_rss_mb": res["peak_rss_mb"],
        "latency_ms": ref_s * 1000.0,
        "throughput_per_s": res["sizes"]["n_trips"] / ref_s,
    }
    return {"named": named, "sizes": res["sizes"], "layers": res["layers"],
            "inputs": Inputs.digests(data), "fingerprint": res["fingerprint"],
            "attempted": res["attempted"], "failed": res["failed"],
            "samples": {"setup_s": setups, "ref_setup_s": ref_setups,
                        "run_s": walls,
                        "ref_run_s": res["ref_walls"]}}


def run_stream(args: argparse.Namespace, inputs: Inputs, name: str,
               deadline: Deadline) -> Dict[str, Any]:
    data = inputs.stream()
    params = STREAM_SMOKE if args.smoke else STREAM
    from repro.data.io import read_pois

    n_trips, stays = read_corpus(data)
    n_new = len(read_pois(data / "new_pois.csv"))
    epochs = -(-n_trips // params["epoch_trips"])
    cfg = dict(
        base_cfg(args, name),
        data=str(data), min_runs=3,
        epoch_trips=params["epoch_trips"],
        window_epochs=params["window_epochs"],
        staleness_threshold=params["staleness_threshold"],
        poi_batch=max(1, -(-n_new // max(1, epochs // 2))),
    )
    try:
        setups, ref_setups, res = measure_worker("stream", cfg, deadline)
    finally:
        shutil.rmtree(cfg["scratch"], ignore_errors=True)
    intervals_ms = [1000.0 * dt for dts in res["intervals"] for dt in dts]
    tail_ms, tail_pct, tail_n = tail(intervals_ms)
    trips_per_s = res["steady_trips"] / sum(res["steady_s"])
    ref_ms = [1000.0 * dt for dts in res["ref_intervals"] for dt in dts]
    ref_ms = ref_ms or intervals_ms
    named = {
        "setup_s": statistics.median(ref_setups),
        "setup_wall_s": statistics.median(setups),
        "trips_per_s": trips_per_s,
        "epoch_p50_ms": statistics.median(intervals_ms),
        "epoch_tail_ms": tail_ms,
        "epoch_tail_pct": tail_pct,
        "epoch_samples": tail_n,
        "repairs_per_pass": res["repairs_per_pass"],
        "passes": res["passes"],
        "host_speed": res["host_speed"],
        "peak_rss_mb": res["peak_rss_mb"],
        "latency_ms": statistics.median(ref_ms),
        "throughput_per_s": res["steady_trips"] / sum(res["ref_steady_s"]),
    }
    from repro.data.persistence import load_csd

    base = load_csd(data / "base_csd.json")
    sizes = {"n_pois": base.n_pois + n_new, "n_new_pois": n_new,
             "n_trips": n_trips, "n_stays": len(stays),
             "n_units": base.n_units}
    if res["repairs_per_pass"] <= 0:
        print("warning: no partial repair fired in stream-commit",
              file=sys.stderr)
    return {"named": named, "sizes": sizes, "layers": res["layers"],
            "inputs": Inputs.digests(data), "fingerprint": res["fingerprint"],
            "attempted": res["attempted"], "failed": res["failed"],
            "samples": {"setup_s": setups, "ref_setup_s": ref_setups,
                        "pass_steady_s": res["steady_s"],
                        "pass_ref_steady_s": res["ref_steady_s"]}}


class ServeOracle:
    """Seeded request locations and their in-process answers."""

    def __init__(self, seed: int, corpus: Path, csd_path: Path,
                 n_requests: int) -> None:
        import numpy as np
        from repro.core.recognition import CSDRecognizer
        from repro.data.persistence import load_csd
        from repro.data.trajectory import StayPoint
        from repro.serve import ServeConfig

        self.n_trips, stays = read_corpus(corpus)
        rng = np.random.default_rng(seed + 2000)
        fresh = rng.permutation(len(stays))
        locations: List[Tuple[float, float]] = []
        k = 0
        for i in range(n_requests):
            if i and (rng.random() < REPEAT_SHARE or k >= len(fresh)):
                locations.append(locations[int(rng.integers(i))])
            else:
                sp = stays[int(fresh[k])]
                k += 1
                locations.append((sp.lon, sp.lat))
        self.locations = locations
        distinct = sorted(set(locations))
        csd = load_csd(csd_path)
        config = ServeConfig()
        recognizer = CSDRecognizer(
            csd, r3sigma_m=config.r3sigma_m,
            min_tag_share=config.min_tag_share,
            query_dtype=config.query_dtype,
        )
        props = recognizer.recognize_points(
            [StayPoint(lon=lon, lat=lat, t=0.0) for lon, lat in distinct]
        )
        self.expected = {
            loc: {"recognized": len(p) > 0, "semantics": sorted(p)}
            for loc, p in zip(distinct, props)
        }
        self.n_stays = len(stays)
        self.n_units = csd.n_units
        self.n_pois = csd.n_pois
        self.perturb_index: Optional[int] = None

    def fingerprint(self, n: int = 256) -> str:
        """Digest of the answers to the first ``n`` requests; the
        sequence's prefix does not depend on its length."""
        answers = [(loc, self.expected[loc]) for loc in self.locations[:n]]
        return hashlib.sha256(repr(answers).encode("utf-8")).hexdigest()

    def payload(self, i: int) -> bytes:
        lon, lat = self.locations[i]
        return json.dumps({"lon": lon, "lat": lat}).encode("utf-8")

    def check(self, i: int, body: bytes) -> bool:
        try:
            answer = json.loads(body)
        except ValueError:
            return False
        if i == self.perturb_index:
            answer = dict(answer, semantics=["perturbed"])
        return answer == self.expected[self.locations[i]]


def spawn_server(csd_path: Path, deadline: Deadline
                 ) -> Tuple[float, float, subprocess.Popen, str, int]:
    """Start ``repro serve``; returns (spawn-to-first-200 s, the same in
    reference seconds, proc, host, port)."""
    clock = HostClock()
    clock.start()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--csd", str(csd_path),
         "--port", "0"],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(deadline.left()):
                raise BenchError("serve printed nothing")
            line = proc.stdout.readline().decode("utf-8")
        if " on http://" not in line:
            raise BenchError(f"unexpected serve banner {line!r}")
        hostport = line.rsplit("http://", 1)[1].strip()
        host, port_text = hostport.rsplit(":", 1)
        port = int(port_text)
        url = f"http://{host}:{port}/healthz"
        while True:
            deadline.left()
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status == 200:
                        response.read()
                        break
            except (urllib.error.URLError, OSError):
                time.sleep(0.002)
        ready_at = time.perf_counter()
        clock.stop()
        return (ready_at - start, clock.reference_s(start, ready_at), proc,
                host, port)
    except BaseException:
        stop(proc)
        proc.stdout.close()
        raise
    finally:
        clock.stop()


def arrivals(rng: Any, rate: float, duration: float = 0.0,
             count: int = 0) -> List[float]:
    """Poisson arrival offsets: ``count`` of them, or as many as fall
    within ``duration`` seconds."""
    out: List[float] = []
    t = float(rng.exponential(1.0 / rate))
    while (len(out) < count) if count else (t < duration):
        out.append(t)
        t += float(rng.exponential(1.0 / rate))
    return out


def hist_delta(before: Dict[str, Any], after: Dict[str, Any],
               name: str) -> Tuple[float, float]:
    """(count, total) added to histogram ``name`` between snapshots."""
    a = after.get("histograms", {}).get(name, {})
    b = before.get("histograms", {}).get(name, {})
    return (a.get("count", 0) - b.get("count", 0),
            a.get("total", 0.0) - b.get("total", 0.0))


def counter_delta(before: Dict[str, Any], after: Dict[str, Any],
                  name: str) -> float:
    return float(after.get("counters", {}).get(name, 0)
                 - before.get("counters", {}).get(name, 0))


def rung_summary(result: Any) -> Dict[str, Any]:
    outs = result.outcomes
    lat_ms = [(o.done - o.due) * 1000.0 for o in outs]
    late_ms = [o.late * 1000.0 for o in outs if o.sent]
    failed = sum(1 for o in outs if not o.ok)
    p90 = percentile(lat_ms, 90.0) if lat_ms else 0.0
    gen_p90 = percentile(late_ms, 90.0) if late_ms else 0.0
    grew = result.backlog_last > result.backlog_first + 2
    gen_bound = gen_p90 > GEN_LATE_LIMIT_MS
    return {
        "rate": result.rate,
        "requests": len(outs),
        "failed": failed,
        "p50_ms": percentile(lat_ms, 50.0) if lat_ms else 0.0,
        "p90_ms": p90,
        "gen_late_p90_ms": gen_p90,
        "completed_per_s": result.completion_rate(),
        "backlog_grew": grew,
        "generator_bound": gen_bound,
        "passed": (p90 <= SERVE_SLO_MS and failed == 0 and not grew
                   and not gen_bound),
    }


def run_serve(args: argparse.Namespace, inputs: Inputs, name: str,
              deadline: Deadline) -> Dict[str, Any]:
    import numpy as np
    from loadgen import LoadGenerator
    from worker import peak_rss_mb

    corpus = inputs.corpus("std")
    served = inputs.serve()
    csd_path = served / "csd.json"
    seconds = float(args.seconds)
    # The first rung is a request count, not a duration, so that its
    # tail percentile always has samples beyond it.
    first_n = max(10, round(SERVE_RATES[0] * 0.6 * seconds))
    upper_s = max(0.5, seconds * 0.4 / 3.0)
    budget = first_n + sum(r * upper_s for r in SERVE_RATES[1:])
    oracle = ServeOracle(args.seed, corpus, csd_path, int(budget * 1.5) + 64)
    rng = np.random.default_rng(args.seed + 3000)

    setups: List[float] = []
    ref_setups: List[float] = []
    server: Optional[subprocess.Popen] = None
    gen: Optional[LoadGenerator] = None
    try:
        for i in range(SETUP_REPEATS):
            ready, ready_ref, proc, host, port = spawn_server(csd_path,
                                                              deadline)
            setups.append(ready)
            ref_setups.append(ready_ref)
            if i < SETUP_REPEATS - 1:
                stop(proc)
                proc.stdout.close()
            else:
                server = proc
        gen = LoadGenerator(host, port, SERVE_CONNS)
        offset = 0

        def next_rung(rate: float, duration: float = 0.0,
                      count: int = 0) -> Any:
            nonlocal offset
            times = arrivals(rng, rate, duration, count)
            if count:
                duration = times[-1] + 1.0 / rate
            if offset + len(times) > len(oracle.locations):
                raise BenchError("serve ladder ran out of request locations")
            base = offset
            offset += len(times)
            if args.perturb and base == 0 and times:
                oracle.perturb_index = 0
            return gen.rung(
                rate, times, duration,
                lambda i: oracle.payload(base + i),
                lambda i, body: oracle.check(base + i, body),
            )

        rungs: List[Dict[str, Any]] = []
        layers: Optional[Dict[str, float]] = None
        outcomes = []
        if not args.trace:
            first = next_rung(SERVE_RATES[0], count=first_n)
            outcomes.extend(first.outcomes)
            rungs.append(rung_summary(first))
            first_outcomes = first.outcomes
            for rate in SERVE_RATES[1:]:
                last = rungs[-1]
                saturated = (last["backlog_grew"] and last["completed_per_s"]
                             < SATURATED_SHARE * last["rate"])
                if saturated or last["generator_bound"]:
                    break
                result = next_rung(rate, upper_s)
                outcomes.extend(result.outcomes)
                rungs.append(rung_summary(result))
        else:
            plain = next_rung(SERVE_RATES[0], count=first_n)
            outcomes.extend(plain.outcomes)
            before = gen.get_json("/metrics")
            traced = next_rung(SERVE_RATES[0], count=first_n)
            after = gen.get_json("/metrics")
            outcomes.extend(traced.outcomes)
            rungs.append(rung_summary(traced))
            first_outcomes = traced.outcomes
            layers = serve_layers(plain, traced, before, after)
            dump_request_spans(traced, spans_path(args, name))
        rss = peak_rss_mb(str(server.pid))
    finally:
        if gen is not None:
            gen.close()
        if server is not None:
            stop(server)
            server.stdout.close()

    first = rungs[0]
    first_lat = [(o.done - o.due) * 1000.0 for o in first_outcomes]
    tail_ms, tail_pct, tail_n = tail(first_lat)
    passed = [r["rate"] for r in rungs if r["passed"]]
    named = {
        "setup_s": statistics.median(ref_setups),
        "setup_wall_s": statistics.median(setups),
        # A traced run climbs no ladder.
        "serve_max_rps": max(passed, default=0.0) if not args.trace else None,
        "lat_p50_ms": first["p50_ms"],
        "lat_tail_ms": tail_ms,
        "lat_tail_pct": tail_pct,
        "lat_samples": tail_n,
        "peak_rss_mb": rss,
        "lat_p90_ms": first["p90_ms"],
        "latency_ms": first["p90_ms"],
        "throughput_per_s": max(r["completed_per_s"] for r in rungs),
    }
    sizes = {"n_pois": oracle.n_pois, "n_trips": oracle.n_trips,
             "n_stays": oracle.n_stays, "n_units": oracle.n_units}
    return {"named": named, "sizes": sizes, "layers": layers,
            "inputs": Inputs.digests(corpus, served),
            "fingerprint": oracle.fingerprint(),
            "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if not o.ok),
            "rungs": rungs,
            "samples": {"setup_s": setups, "ref_setup_s": ref_setups}}


def serve_layers(plain: Any, traced: Any, before: Dict[str, Any],
                 after: Dict[str, Any]) -> Dict[str, float]:
    """Per-request breakdown of the traced 12.5 req/s rung.

    Due-to-response latency = generator lateness + server time (the
    daemon's own ``serve.request_latency_s``) + transport (the rest).
    """
    outs = traced.outcomes
    n = max(1, len(outs))
    lat = [o.done - o.due for o in outs]
    late = [o.late for o in outs]
    srv_n, srv_total = hist_delta(before, after, "serve.request_latency_s")
    wait_n, wait_total = hist_delta(before, after, "serve.batch_wait_s")
    size_n, size_total = hist_delta(before, after, "serve.batch_size")
    hits = counter_delta(before, after, "serve.cache.hits")
    misses = counter_delta(before, after, "serve.cache.misses")
    server_ms = 1000.0 * srv_total / srv_n if srv_n else 0.0
    gen_late_ms = 1000.0 * sum(late) / n
    mean_lat_ms = 1000.0 * sum(lat) / n
    # Latency is bimodal (see README), so the overhead compares the
    # rungs' p90s: a mean moves with the share of stalled requests.
    plain_p90 = percentile([o.done - o.due for o in plain.outcomes], 90.0)
    wall = sum(lat)
    out = {metric: 0.0 for metric, _unit in PER_LAYER}
    out.update({
        "serve.server_ms": server_ms,
        "serve.gen_late_ms": gen_late_ms,
        "serve.transport_ms": mean_lat_ms - gen_late_ms - server_ms,
        "serve.batch_wait_ms": 1000.0 * wait_total / wait_n if wait_n else 0.0,
        "serve.batch_size_mean": size_total / size_n if size_n else 0.0,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejected": counter_delta(before, after, "serve.rejected"),
        "trace.overhead_ratio": percentile(lat, 90.0) / plain_p90 - 1.0,
        "wall_s": wall,
    })
    named = (out["serve.gen_late_ms"] + out["serve.server_ms"]
             + out["serve.transport_ms"]) * n / 1000.0
    out["other_s"] = wall - named
    return out


def dump_request_spans(result: Any, path: Path) -> None:
    """Client-side spans of each traced request, keyed by index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for o in result.outcomes:
            for name, start, end in (("serve.gen_wait", o.due, o.sent),
                                     ("serve.request", o.sent, o.done)):
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "run": o.index,
                                      "ok": o.ok, "error": o.error}) + "\n")


RUNNERS = {
    "batch-std": run_batch,
    "batch-city": run_batch,
    "stream-commit": run_stream,
    "serve-ladder": run_serve,
}

#: The named metrics each workload prints beside the gated ones, with units.
NAMED_UNITS = {
    "setup_s": "s", "setup_wall_s": "s", "run_s": "s", "runs": "count",
    "peak_rss_mb": "MB",
    "trips_per_s": "trips/s", "epoch_p50_ms": "ms", "epoch_tail_ms": "ms",
    "epoch_tail_pct": "pct", "epoch_samples": "count",
    "repairs_per_pass": "count", "passes": "count",
    "serve_max_rps": "req/s", "lat_p50_ms": "ms", "lat_tail_ms": "ms",
    "lat_tail_pct": "pct", "lat_samples": "count",
    "lat_p90_ms": "ms", "latency_ms": "ms", "throughput_per_s": "1/s",
    "host_speed": "ratio",
}


def check_golden(args: argparse.Namespace, name: str,
                 out: Dict[str, Any]) -> Tuple[int, int]:
    """(attempted, failed) of the comparison with ``golden.json``.

    The gates compare the program with itself (runner with miner,
    incremental window with a from-scratch PrefixSpan, daemon with the
    in-process recognizer).  ``golden.json`` holds a digest of the
    oracle's answers recorded for a few seeds, so a change that alters
    the answers of every path alike is still caught on those seeds.
    It is compared only when the CSV inputs are the recorded ones.
    """
    key = f"{name}{'-smoke' if args.smoke else ''}/{args.seed}"
    csv_inputs = hashlib.sha256(json.dumps(sorted(
        (f, sha) for f, sha in out["inputs"].items() if f.endswith(".csv")
    )).encode()).hexdigest()
    golden = (json.loads(GOLDEN.read_text(encoding="utf-8"))
              if GOLDEN.is_file() else {})
    if args.record_golden:
        golden[key] = {"inputs": csv_inputs, "answers": out["fingerprint"]}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        return 0, 0
    entry = golden.get(key)
    if entry is None:
        return 0, 0
    if entry["inputs"] != csv_inputs:
        print(f"warning: {key} inputs differ from the recorded ones; "
              "golden answers not compared", file=sys.stderr)
        return 0, 0
    return 1, int(entry["answers"] != out["fingerprint"])


def run_workload(args: argparse.Namespace, name: str,
                 inputs: Inputs, env: Dict[str, Any]) -> Dict[str, Any]:
    deadline = Deadline(DEADLINE_S)
    before_ms = probe()
    out = RUNNERS[name](args, inputs, name, deadline)
    env = dict(env, host_probe_ms=[before_ms, probe()])
    gold_attempted, gold_failed = check_golden(args, name, out)
    attempted = int(out["attempted"]) + gold_attempted
    failed = int(out["failed"]) + gold_failed
    correct = failed == 0 and attempted > 0
    print(f"# {name} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("stamp " + json.dumps(dict(env, **out["sizes"])))
    print("inputs " + json.dumps(out["inputs"], sort_keys=True))
    if gold_attempted:
        print(f"{'golden':<22} {'failed' if gold_failed else 'matched'}")
    for key, value in out["named"].items():
        if value is not None:
            print(f"{key:<22} {value:.6g} {NAMED_UNITS[key]}")
    print(f"{'ops':<22} {attempted} count")
    print(f"{'failed':<22} {failed} count")
    print(f"{'fail_ratio':<22} {failed / attempted if attempted else 1.0:.6g}"
          " ratio")
    for rung in out.get("rungs", []):
        print("rung " + json.dumps(rung))
    if args.trace:
        layers = out["layers"] or {}
        metrics = {m: {"value": float(layers.get(m, 0.0)), "unit": u}
                   for m, u in PER_LAYER}
    else:
        metrics = {m: {"value": float(out["named"][m]), "unit": u}
                   for m, u in END_TO_END}
    record = {"workload": name, "stamp": env, "sizes": out["sizes"],
              "inputs": out["inputs"],
              "named": out["named"], "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "rungs": out.get("rungs"), "samples": out.get("samples")}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the benchmark, not speed")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one answer (self-test of the gates)")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's answers in golden.json")
    args = parser.parse_args(argv)
    try:
        check_tree()
        src_digest = source_digest()
        env = stamp(args.seed, src_digest)
        inputs = Inputs(args.seed, args.smoke, src_digest)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(args, name, inputs, env)
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
