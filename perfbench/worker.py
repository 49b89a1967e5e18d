"""The system-side half of the batch and stream workloads.

``run.py`` starts this file as a fresh process per measurement, so
that the process's peak RSS (``VmHWM``) belongs to the system under
test alone, and its launch-to-ready time is the workload's set-up
time.  The process talks to its parent through stdout lines of the
form ``@@ <kind> <json>``:

* ``ready`` -- the system can take its first unit of work;
* ``result`` -- timings, gate outcomes and (traced) layer metrics.

A ``setup_only`` process exits right after ``ready``.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/worker.py <batch|stream> <config.json>
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from hostspeed import HostClock
from spans import Tracer

#: Span name -> per-layer metric its self time counts towards.  Spans
#: missing here (the structural ones: a whole run, a stream epoch) put
#: their self time into ``other_s``.
SPAN_METRIC = {
    "io.ingest": "io.ingest_s",
    "constructor": "constructor.assemble_s",
    "constructor.popularity": "constructor.popularity_s",
    "constructor.clustering": "constructor.clustering_s",
    "constructor.purification": "constructor.purification_s",
    "constructor.merging": "constructor.merging_s",
    "recognition": "recognition.assemble_s",
    "recognition.assemble": "recognition.assemble_s",
    "recognition.points": "recognition.vote_s",
    "recognition.vote": "recognition.vote_s",
    "extraction": "extraction.prefixspan_s",
    "extraction.prefixspan": "extraction.prefixspan_s",
    "extraction.counterpart": "extraction.counterpart_s",
    "extraction.optics": "extraction.optics_s",
    "runner.checkpoint": "runner.checkpoint_s",
    "runner.digest": "runner.digest_s",
    "stream.absorb": "stream.absorb_s",
    "stream.repair": "stream.repair_s",
    "stream.diagram": "stream.diagram_s",
    "stream.recognize": "stream.recognize_s",
    "stream.window": "stream.window_s",
    "stream.commit": "stream.commit_s",
}


class _SetupDone(Exception):
    """Ends a ``setup_only`` process once the system is ready."""


def emit(kind: str, payload: Dict[str, Any]) -> None:
    print(f"@@ {kind} {json.dumps(payload)}", flush=True)


def peak_rss_mb(pid: str = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def stay_key(sp: Any) -> tuple:
    return (sp.lon, sp.lat, sp.t, tuple(sorted(sp.semantics)))


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def configs(cfg: Dict[str, Any]) -> tuple:
    from repro.core.config import CSDConfig, MiningConfig

    return (
        CSDConfig(alpha=cfg["alpha"]),
        MiningConfig(
            support=cfg["support"],
            delta_t_s=cfg["delta_t_s"],
            rho=cfg["rho"],
        ),
    )


def layer_metrics(tracer: Tracer, root: str) -> Dict[str, float]:
    """Self time per named layer, ``other_s`` and ``wall_s`` of the
    spans named ``root``."""
    out: Dict[str, float] = {}
    wall = tracer.total(root)
    named = 0.0
    for name, seconds in tracer.self_times().items():
        metric = SPAN_METRIC.get(name)
        if metric is None:
            continue
        out[metric] = out.get(metric, 0.0) + seconds
        named += seconds
    out["wall_s"] = wall
    out["other_s"] = wall - named
    return out


def file_bytes(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


# -- tracing of the program's layers ------------------------------------


def install_common(tracer: Tracer) -> None:
    """Spans shared by every in-process path: recognition, geo index
    (through obs counts), constructor, extraction."""
    import repro.core.constructor as constructor
    import repro.core.extraction as extraction
    import repro.core.miner as miner
    import repro.core.recognition as recognition

    tracer.wrap(miner, "build_csd", "constructor")
    tracer.wrap(constructor, "compute_popularity", "constructor.popularity")
    tracer.wrap(
        constructor, "popularity_based_clustering", "constructor.clustering"
    )
    tracer.wrap(constructor, "purify", "constructor.purification")
    tracer.wrap(constructor, "merge_units", "constructor.merging")

    cls = recognition.CSDRecognizer
    tracer.wrap(cls, "recognize", "recognition")
    tracer.wrap(cls, "recognize_points", "recognition.points")
    tracer.wrap(cls, "assemble_semantics", "recognition.assemble")
    tracer.wrap(recognition, "vote_stays", "recognition.vote")

    def count_supporters(result: Any, coarse: Sequence[Any], *a: Any,
                         **k: Any) -> None:
        tracer.count(
            "supporters", sum(len(p.occurrences) for p in coarse)
        )

    def count_optics(result: Any, xy: Any, *a: Any, **k: Any) -> None:
        tracer.count("optics_calls")
        tracer.count("optics_points", len(xy))

    tracer.wrap(miner, "counterpart_cluster", "extraction")
    tracer.wrap(extraction, "prefixspan", "extraction.prefixspan")
    tracer.wrap(
        extraction, "refine_patterns", "extraction.counterpart",
        after=count_supporters,
    )
    tracer.wrap(
        extraction, "optics_auto_clusters", "extraction.optics",
        after=count_optics,
    )


def finish_layers(tracer: Tracer, snapshot: Dict[str, Any], root: str,
                  untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    """Every per-layer metric this process can see: self times from the
    spans, counts from the wrappers and the ``repro.obs`` snapshot."""
    out = layer_metrics(tracer, root)
    c = snapshot.get("counters", {})
    t = tracer.counts
    recognized = c.get("recognition.stays.recognized", 0)
    unmatched = c.get("recognition.stays.unmatched", 0)
    hits = c.get("incremental.distribution.cache_hits", 0)
    computed = c.get("incremental.distribution.computations", 0)
    out.update({
        "recognition.votes": float(c.get("recognition.votes.cast", 0)),
        "recognition.match_ratio": ratio(recognized, recognized + unmatched),
        "geo.index.hit_ratio": ratio(
            c.get("geo.index.hits", 0), c.get("geo.index.candidates", 0)
        ),
        "prefixspan.nodes": float(c.get("prefixspan.nodes.expanded", 0)),
        "extraction.yield_ratio": ratio(
            c.get("extraction.patterns.emitted", 0),
            c.get("extraction.patterns.coarse", 0),
        ),
        "extraction.temporal_drop_ratio": ratio(
            c.get("extraction.supporters.dropped_temporal", 0),
            t.get("supporters", 0.0),
        ),
        "extraction.optics_calls": t.get("optics_calls", 0.0),
        "extraction.optics_points": t.get("optics_points", 0.0),
        "constructor.units_final": float(c.get("constructor.units.final", 0)),
        "incremental.cache_hit_ratio": ratio(hits, hits + computed),
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall) - 1.0,
    })
    for name in ("runner.checkpoint_bytes", "stream.commit_bytes",
                 "stream.repairs", "stream.repair_units", "io.rows"):
        out[name] = t.get(name, 0.0)
    return out


# -- batch: construct -> recognize -> extract ---------------------------


def batch(cfg: Dict[str, Any]) -> None:
    from repro import obs
    from repro.data.io import iter_trips, read_pois
    from repro.data.taxi import trips_to_mining_trajectories
    from repro.core.miner import PervasiveMiner
    from repro.runner import PipelineRunner
    import repro.runner.runner as runner_mod

    data = Path(cfg["data"])

    def ingest() -> tuple:
        pois = read_pois(data / "pois.csv")
        trips = list(iter_trips(data / "trips.csv"))
        return pois, trips, trips_to_mining_trajectories(trips)

    pois, trips, trajs = ingest()
    emit("ready", {})
    if cfg["setup_only"]:
        return
    csd_config, mining_config = configs(cfg)
    scratch = Path(cfg["scratch"])

    def fingerprint(result: Any) -> str:
        return digest((
            [
                (p.items, list(p.member_ids),
                 [stay_key(sp) for sp in p.representatives])
                for p in result.patterns
            ],
            [
                (st.traj_id, [stay_key(sp) for sp in st.stay_points])
                for st in result.recognized
            ],
        ))

    rss = 0.0

    def one_run(k: int) -> tuple:
        nonlocal rss
        run_dir = scratch / f"run-{k}"
        runner = PipelineRunner(run_dir, csd_config, mining_config)
        start = time.perf_counter()
        result = runner.run(pois, trajs)
        end = time.perf_counter()
        if k == 0:
            # A user's process runs the pipeline once.
            rss = peak_rss_mb()
        shutil.rmtree(run_dir, ignore_errors=True)
        return (start, end), result

    walls: List[float] = []
    ref_walls: List[float] = []
    host_speed: Optional[float] = None
    prints: List[str] = []
    n_units = 0
    layers: Optional[Dict[str, float]] = None
    if not cfg["trace"]:
        budget = float(cfg["seconds"])
        runs: List[tuple] = []
        with HostClock() as host:
            began = time.perf_counter()
            while True:
                (start, end), result = one_run(len(runs))
                runs.append((start, end))
                prints.append(fingerprint(result))
                n_units = result.csd.n_units
                del result
                elapsed = time.perf_counter() - began
                mean = elapsed / len(runs)
                if len(runs) >= cfg["min_runs"] and elapsed + mean > budget:
                    break
        walls = [end - start for start, end in runs]
        ref_walls = [host.reference_s(start, end) for start, end in runs]
        host_speed = host.median_speed()
    else:
        (start, end), result = one_run(0)
        walls.append(end - start)
        prints.append(fingerprint(result))
        del result
        tracer = Tracer()
        install_common(tracer)
        cls = runner_mod.PipelineRunner

        def count_checkpoint(result: Any, runner: Any, name: str,
                             *a: Any) -> None:
            tracer.count("runner.checkpoint_bytes",
                         file_bytes(runner.run_dir / name))

        def count_manifest(result: Any, runner: Any, *a: Any) -> None:
            tracer.count("runner.checkpoint_bytes",
                         file_bytes(runner.run_dir / runner_mod.MANIFEST_NAME))

        tracer.wrap(cls, "run", "runner.run")
        tracer.wrap(cls, "_recognize_chunked", "recognition")
        tracer.wrap(cls, "_checkpoint", "runner.checkpoint",
                    after=count_checkpoint)
        tracer.wrap(cls, "_save_manifest", "runner.checkpoint",
                    after=count_manifest)
        tracer.wrap(runner_mod, "input_digest", "runner.digest")
        obs.get_registry().reset()
        obs.enable()
        with tracer.span("workload"):
            with tracer.span("io.ingest"):
                pois, trips, trajs = ingest()
            tracer.count("io.rows", len(pois) + len(trips))
            _span, result = one_run(1)
        obs.disable()
        tracer.restore()
        prints.append(fingerprint(result))
        n_units = result.csd.n_units
        del result
        layers = finish_layers(
            tracer, obs.report(), "workload", walls[0],
            tracer.total("runner.run"),
        )
        tracer.dump(Path(cfg["spans"]))

    # Correctness gate (untimed): every run must equal the miner.
    oracle = fingerprint(
        PervasiveMiner(csd_config, mining_config).mine(pois, trajs)
    )
    if cfg["perturb"]:
        prints[0] = digest(("perturbed", prints[0]))
    failed = sum(1 for fp in prints if fp != oracle)
    emit("result", {
        "fingerprint": oracle,
        "walls": walls,
        "ref_walls": ref_walls,
        "host_speed": host_speed,
        "peak_rss_mb": rss,
        "attempted": len(prints),
        "failed": failed,
        "sizes": {
            "n_pois": len(pois),
            "n_trips": len(trips),
            "n_stays": sum(len(st.stay_points) for st in trajs),
            "n_units": n_units,
        },
        "layers": layers,
    })


# -- stream: durable epochs over an append-only trips file ---------------


def window_key(patterns: Sequence[Any]) -> frozenset:
    return frozenset(
        (p.items, p.support, tuple(sorted(p.occurrences))) for p in patterns
    )


def stream(cfg: Dict[str, Any]) -> None:
    from repro import obs
    from repro.core.incremental import IncrementalCSD
    from repro.data.trajectory import as_tag_sequence
    from repro.mining.prefixspan import WindowedPrefixSpan, prefixspan
    from repro.runner import StreamRunner
    from repro.runner.fs import FileSystem
    import repro.runner.stream as stream_mod
    from repro.stream.engine import StreamEngine

    data = Path(cfg["data"])
    scratch = Path(cfg["scratch"])
    csd_config, mining_config = configs(cfg)

    class Clock:
        """Epoch boundaries as the runner announces them."""

        def __init__(self) -> None:
            self.marks: List[float] = []
            self.records: List[tuple] = []

        @property
        def intervals(self) -> List[float]:
            return [b - a for a, b in zip(self.marks, self.marks[1:])]

    class ProbeFS(FileSystem):
        def __init__(self, clock: Clock, setup_only: bool) -> None:
            super().__init__()
            self.clock = clock
            self.setup_only = setup_only

        def fault(self, point: str) -> None:
            if point == "before-epoch" and not self.clock.marks:
                if self.setup_only:
                    emit("ready", {})
                    raise _SetupDone()
                self.clock.marks.append(time.perf_counter())

    def make_runner(k: int, clock: Clock,
                    setup_only: bool = False) -> StreamRunner:
        def record(result: Any) -> None:
            clock.marks.append(time.perf_counter())
            clock.records.append(
                (result.epoch_index, result.n_trips, result.patterns,
                 result.repair is not None)
            )

        return StreamRunner(
            scratch / f"run-{k}",
            data / "trips.csv",
            base_csd_path=data / "base_csd.json",
            pois_path=data / "new_pois.csv",
            csd_config=csd_config,
            mining_config=mining_config,
            epoch_trips=cfg["epoch_trips"],
            poi_batch=cfg["poi_batch"],
            window_epochs=cfg["window_epochs"],
            staleness_threshold=cfg["staleness_threshold"],
            fs=ProbeFS(clock, setup_only),
            on_epoch=record,
        )

    if cfg["setup_only"]:
        try:
            make_runner(0, Clock(), setup_only=True).run()
        except _SetupDone:
            return
        raise RuntimeError("stream ended before its first epoch")
    emit("ready", {})

    rss = 0.0

    def one_pass(k: int, clock: Clock) -> float:
        nonlocal rss
        runner = make_runner(k, clock)
        start = time.perf_counter()
        runner.run()
        wall = time.perf_counter() - start
        if k == 0:
            # A user's process streams the input once; later passes
            # only add the benchmark's own records.
            rss = peak_rss_mb()
        shutil.rmtree(scratch / f"run-{k}", ignore_errors=True)
        return wall

    clocks: List[Clock] = []
    ref_intervals: List[List[float]] = []
    host_speed: Optional[float] = None
    layers: Optional[Dict[str, float]] = None
    if not cfg["trace"]:
        budget = float(cfg["seconds"])
        with HostClock() as host:
            began = time.perf_counter()
            while True:
                clock = Clock()
                one_pass(len(clocks), clock)
                clocks.append(clock)
                elapsed = time.perf_counter() - began
                mean = elapsed / len(clocks)
                if len(clocks) >= cfg["min_runs"] and elapsed + mean > budget:
                    break
        ref_intervals = [
            [host.reference_s(a, b) for a, b in zip(c.marks, c.marks[1:])]
            for c in clocks
        ]
        host_speed = host.median_speed()
    else:
        clock = Clock()
        untraced_wall = one_pass(0, clock)
        clocks.append(clock)
        tracer = Tracer()
        install_common(tracer)
        runner_cls = stream_mod.StreamRunner

        def count_checkpoint(result: Any, runner: Any, name: str,
                             *a: Any) -> None:
            tracer.count("stream.commit_bytes",
                         file_bytes(runner.run_dir / name))

        def count_manifest(result: Any, runner: Any, *a: Any) -> None:
            tracer.count(
                "stream.commit_bytes",
                file_bytes(runner.run_dir / stream_mod.STREAM_MANIFEST_NAME),
            )

        def count_repair(report: Any, *a: Any, **k: Any) -> None:
            if report.repaired:
                tracer.count("stream.repairs")
                tracer.count("stream.repair_units", len(report.scope_units))

        def count_rows(result: Any, *a: Any, **k: Any) -> None:
            tracer.count("io.rows", len(result))

        tracer.wrap(runner_cls, "run", "stream.run")
        tracer.wrap(runner_cls, "_checkpoint", "stream.commit",
                    after=count_checkpoint)
        tracer.wrap(runner_cls, "_save_manifest", "stream.commit",
                    after=count_manifest)
        tracer.wrap(runner_cls, "_publish_latest", "stream.commit")
        tracer.wrap(FileSystem, "remove", "stream.commit")
        tracer.wrap(stream_mod, "load_csd", "io.ingest")
        tracer.wrap(stream_mod, "read_pois", "io.ingest", after=count_rows)
        tracer.wrap_iter(stream_mod, "iter_trips", "io.ingest")
        tracer.wrap(StreamEngine, "process_epoch", "stream.epoch")
        tracer.wrap(StreamEngine, "_epoch_trajectories", "stream.recognize")
        tracer.wrap(IncrementalCSD, "add_pois", "stream.absorb")
        tracer.wrap(IncrementalCSD, "repair", "stream.repair",
                    after=count_repair)
        tracer.wrap(IncrementalCSD, "diagram", "stream.diagram")
        for method in ("add_many", "retire_many", "frequent"):
            tracer.wrap(WindowedPrefixSpan, method, "stream.window")
        obs.get_registry().reset()
        obs.enable()
        clock = Clock()
        with tracer.span("workload"):
            one_pass(1, clock)
        obs.disable()
        tracer.restore()
        tracer.count("io.rows", sum(r[1] for r in clock.records))
        # Gated like the others, but not timed.
        traced_clock = clock
        layers = finish_layers(
            tracer, obs.report(), "workload", untraced_wall,
            tracer.total("stream.run"),
        )
        tracer.dump(Path(cfg["spans"]))

    # Correctness gate (untimed): after every epoch of one more pass,
    # the live window's patterns must equal a from-scratch PrefixSpan
    # of the live window's sequences; every measured epoch must then
    # match the gated pass epoch for epoch.
    oracle: Dict[int, frozenset] = {}
    gate_failed = 0
    gate_runner = make_runner(len(clocks), Clock())

    def check(result: Any) -> None:
        nonlocal gate_failed
        engine = gate_runner.engine
        ids = sorted(i for seq in engine.window_epoch_ids().values()
                     for i in seq)
        mined = prefixspan(
            [as_tag_sequence(engine.recognized_sequence(i)) for i in ids],
            mining_config.support,
            min_length=mining_config.min_length,
            max_length=mining_config.max_length,
        )
        scratch_key = frozenset(
            (p.items, p.support,
             tuple(sorted((ids[k], pos) for k, pos in p.occurrences)))
            for p in mined
        )
        oracle[result.epoch_index] = scratch_key
        if window_key(result.patterns) != scratch_key:
            gate_failed += 1

    gate_runner.on_epoch = check
    gate_runner.run()
    shutil.rmtree(scratch / f"run-{len(clocks)}", ignore_errors=True)

    attempted = 0
    failed = gate_failed
    gated = clocks + ([traced_clock] if cfg["trace"] else [])
    for c, clock in enumerate(gated):
        for e, (index, _n, patterns, _rep) in enumerate(clock.records):
            attempted += 1
            key = window_key(patterns)
            if cfg["perturb"] and c == 0 and e == 0:
                key = frozenset(list(key)[1:]) if key else frozenset({()})
            if oracle.get(index) != key:
                failed += 1

    window = cfg["window_epochs"]
    steady_trips = 0
    steady = [0.0 for _ in clocks]
    ref_steady = [0.0 for _ in clocks]
    intervals: List[List[float]] = []
    repairs = 0
    for k, clock in enumerate(clocks):
        intervals.append(clock.intervals)
        refs = ref_intervals[k] if ref_intervals else clock.intervals
        for (index, n_trips, _p, repaired), dt, ref in zip(
            clock.records, clock.intervals, refs
        ):
            repairs += int(repaired)
            if index >= window:
                steady_trips += n_trips
                steady[k] += dt
                ref_steady[k] += ref
    emit("result", {
        "fingerprint": digest(sorted(
            (index, sorted(key)) for index, key in oracle.items()
        )),
        "intervals": intervals,
        "ref_intervals": ref_intervals,
        "host_speed": host_speed,
        "steady_trips": steady_trips,
        "steady_s": steady,
        "ref_steady_s": ref_steady,
        "repairs_per_pass": repairs / len(clocks),
        "passes": len(clocks),
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "gate_epochs": len(oracle),
        "layers": layers,
    })


def main(argv: List[str]) -> int:
    mode, config_path = argv
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    if mode == "batch":
        batch(cfg)
    elif mode == "stream":
        stream(cfg)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
