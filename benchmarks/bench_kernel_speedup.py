#!/usr/bin/env python
"""Kernel speedup bench: seed per-point loops vs. the batched CSR paths.

Times the three hottest pipeline stages on the standard bench workload
(12k POIs, 250 passengers x 7 days — DESIGN.md section 3):

* popularity (Eq. 3): per-POI ``query_radius`` loop vs. the vectorised
  ``compute_popularity`` (one CSR batch query + ``np.bincount``);
* recognition (Algorithm 3): per-stay-point dict voting vs.
  ``CSDRecognizer.recognize_points`` (one CSR batch query +
  ``np.bincount`` over ``(stay, unit)`` pairs), plus the ``n_jobs=2``
  chunked multiprocessing mode;
* OPTICS (Algorithm 4 line 6): the per-point loop with two scalar
  range queries and a seed heap vs. the batched ``optics`` (blocked
  core distances, one masked step per expanded point), over the exact
  inputs ``counterpart_cluster`` hands it on the recognised workload.

Every comparison also verifies the results are identical, then writes
the measurements to ``BENCH_kernel.json`` at the repo root.  Run with
``--fast`` for a small-workload smoke check (CI); timings in fast mode
are not meaningful.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_speedup.py [--fast] [--out PATH]
"""

from __future__ import annotations

import argparse
import heapq
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.cluster.optics import optics
from repro.core.config import MiningConfig
from repro.core.extraction import counterpart_cluster
from repro.core.popularity import compute_popularity
from repro.core.recognition import CSDRecognizer
from repro.data.trajectory import NO_SEMANTICS
from repro.eval.experiments import make_workload
from repro.eval.reporting import write_report_json
from repro.geo.distance import gaussian_coefficients
from repro.geo.index import GridIndex


def popularity_loop(poi_xy, stay_xy, r3sigma):
    """Seed implementation: one scalar range query per POI."""
    pois = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
    stays = np.asarray(stay_xy, dtype=float).reshape(-1, 2)
    index = GridIndex(stays, cell_size=r3sigma)
    pop = np.zeros(len(pois))
    for i, (x, y) in enumerate(pois):
        hits = index.query_radius(x, y, r3sigma)
        if len(hits) == 0:
            continue
        d = np.sqrt(((stays[hits] - (x, y)) ** 2).sum(axis=1))
        pop[i] = float(gaussian_coefficients(d, r3sigma).sum())
    return pop


def recognize_loop(recognizer, stay_points):
    """Seed implementation: per-stay-point projection + dict voting."""
    csd = recognizer.csd
    out = []
    for sp in stay_points:
        x, y = csd.projection.to_meters(sp.lon, sp.lat)
        hits = csd.range_query(x, y, recognizer.r3sigma_m)
        if len(hits) == 0:
            out.append(NO_SEMANTICS)
            continue
        d = np.sqrt(((csd.poi_xy[hits] - (x, y)) ** 2).sum(axis=1))
        weights = gaussian_coefficients(d, recognizer.r3sigma_m)
        votes = {}
        in_range_tags = {}
        for poi_idx, w in zip(hits, weights):
            unit_id = csd.find_semantic_unit(int(poi_idx))
            if unit_id < 0:
                continue
            score = float(csd.popularity[poi_idx]) * float(w)
            votes[unit_id] = votes.get(unit_id, 0.0) + score
            in_range_tags.setdefault(unit_id, set()).add(
                csd.poi_tag(int(poi_idx))
            )
        if not votes:
            out.append(NO_SEMANTICS)
            continue
        winner = min(votes, key=lambda uid: (-votes[uid], uid))
        unit = csd.unit(winner)
        distribution = unit.semantic_distribution
        tags = {
            tag
            for tag in in_range_tags[winner]
            if distribution.get(tag, 0.0) >= recognizer.min_tag_share
        }
        tags.add(unit.dominant_tag())
        out.append(frozenset(tags))
    return out


def optics_loop(xy, min_pts, max_eps):
    """Seed implementation: two scalar range queries per expanded point
    and a Python neighbour loop feeding a ``(reach, index)`` heap."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    reach = np.full(n, np.inf)
    core = np.full(n, np.inf)
    ordering = np.empty(n, dtype=np.int64)
    if n == 0:
        return ordering, reach, core
    diagonal = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))) + 1.0
    eps = min(max_eps, diagonal)
    index = GridIndex(pts, cell_size=max(min(eps, 250.0), 1e-9))
    processed = np.zeros(n, dtype=bool)

    def expand(i, seeds):
        hits = index.query_radius(pts[i, 0], pts[i, 1], eps)
        if len(hits) >= min_pts:
            d = np.sqrt(((pts[hits] - pts[i]) ** 2).sum(axis=1))
            d.sort()
            core[i] = d[min_pts - 1]
        if not np.isfinite(core[i]):
            return
        hits = index.query_radius(pts[i, 0], pts[i, 1], eps)
        d = np.sqrt(((pts[hits] - pts[i]) ** 2).sum(axis=1))
        for j, dist in zip(hits, d):
            if processed[j]:
                continue
            new_reach = max(core[i], dist)
            if new_reach < reach[j]:
                reach[j] = new_reach
                heapq.heappush(seeds, (new_reach, int(j)))

    pos = 0
    for start in range(n):
        if processed[start]:
            continue
        seeds = [(np.inf, start)]
        while seeds:
            _r, j = heapq.heappop(seeds)
            if processed[j]:
                continue
            processed[j] = True
            ordering[pos] = j
            pos += 1
            expand(j, seeds)
    return ordering, reach, core


def optics_inputs(database, config):
    """Every ``(xy, min_pts, max_eps)`` that Algorithm 4 passes to
    ``optics`` while mining ``database``."""
    optics_mod = sys.modules["repro.cluster.optics"]
    inputs = []

    def capture(xy, min_pts, max_eps=np.inf, index=None):
        inputs.append((np.array(xy, dtype=float), min_pts, max_eps))
        return optics(xy, min_pts, max_eps, index)

    optics_mod.optics = capture
    try:
        counterpart_cluster(database, config)
    finally:
        optics_mod.optics = optics
    return inputs


def run_all(fn, inputs):
    return [fn(xy, min_pts, max_eps) for xy, min_pts, max_eps in inputs]


def timed(fn, *args, repeat=3, **kwargs):
    """Best-of-``repeat`` wall time; returns (last result, seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return result, best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true",
        help="small workload smoke run (CI); timings not meaningful",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_kernel.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--metrics-json", type=Path, default=None,
        help="also write the repro.obs metrics snapshot to this path "
        "(stage-level attribution; docs/OBSERVABILITY.md)",
    )
    args = parser.parse_args(argv)

    if args.fast:
        workload = make_workload(n_pois=2_000, n_passengers=50, days=2)
    else:
        workload = make_workload(n_pois=12_000, n_passengers=250, days=7)
    config = workload.csd_config
    stays = [sp for st in workload.trajectories for sp in st.stay_points]
    stay_lonlat = np.array([[sp.lon, sp.lat] for sp in stays])
    stay_xy = workload.projection.to_meters_array(stay_lonlat)
    poi_lonlat = np.array([[p.lon, p.lat] for p in workload.pois])
    poi_xy = workload.projection.to_meters_array(poi_lonlat)
    print(
        f"workload: {len(workload.pois)} POIs, "
        f"{len(workload.trajectories)} trajectories, {len(stays)} stay points"
    )

    pop_loop, t_pop_loop = timed(
        popularity_loop, poi_xy, stay_xy, config.r3sigma_m
    )
    pop_batch, t_pop_batch = timed(
        compute_popularity, poi_xy, stay_xy, config.r3sigma_m
    )
    # The seed loop summed each POI's hits with np.sum (pairwise); the
    # batched path accumulates sequentially via bincount, so the two
    # may differ in the last ulp on dense POIs.  Bit-identity against
    # the sequential-order oracle is enforced by the equivalence tests.
    denom = np.maximum(np.abs(pop_loop), 1e-300)
    pop_max_rel = float(np.max(np.abs(pop_loop - pop_batch) / denom))
    pop_ok = bool(np.allclose(pop_loop, pop_batch, rtol=1e-12, atol=0.0))
    pop_speedup = t_pop_loop / t_pop_batch
    print(
        f"popularity:  loop {t_pop_loop:.3f}s  batched {t_pop_batch:.3f}s  "
        f"speedup x{pop_speedup:.1f}  max_rel_diff={pop_max_rel:.2e}"
    )

    csd, t_build = timed(workload.build_csd, repeat=1)
    print(f"csd build: {t_build:.3f}s ({csd.n_units} units)")
    recognizer = CSDRecognizer(csd, config.r3sigma_m)
    rec_loop, t_rec_loop = timed(recognize_loop, recognizer, stays)
    rec_batch, t_rec_batch = timed(recognizer.recognize_points, stays)
    rec_equal = rec_loop == rec_batch
    rec_speedup = t_rec_loop / t_rec_batch
    print(
        f"recognition: loop {t_rec_loop:.3f}s  batched {t_rec_batch:.3f}s  "
        f"speedup x{rec_speedup:.1f}  identical={rec_equal}"
    )
    rec_mp, t_rec_mp = timed(
        recognizer.recognize, workload.trajectories, repeat=1, n_jobs=2
    )
    mp_flat = [sp.semantics for st in rec_mp for sp in st.stay_points]
    print(
        f"recognition: n_jobs=2 {t_rec_mp:.3f}s (whole trajectories, "
        f"identical={mp_flat == rec_batch})"
    )

    # OPTICS over the inputs Algorithm 4 really produces on this
    # workload (``repro run`` defaults; smaller support in fast mode so
    # the small corpus still yields coarse patterns).
    mining = MiningConfig(
        support=4 if args.fast else 20, delta_t_s=3600.0, rho=0.001
    )
    inputs = optics_inputs(
        recognizer.recognize(workload.trajectories), mining
    )
    opt_loop, t_opt_loop = timed(run_all, optics_loop, inputs, repeat=1)
    opt_batch, t_opt_batch = timed(run_all, optics, inputs)
    opt_equal = all(
        np.array_equal(res.ordering, ordering)
        and res.reachability.tobytes() == reach.tobytes()
        and res.core_distance.tobytes() == core.tobytes()
        for res, (ordering, reach, core) in zip(opt_batch, opt_loop)
    )
    opt_speedup = t_opt_loop / t_opt_batch
    print(
        f"optics:      loop {t_opt_loop:.3f}s  batched {t_opt_batch:.3f}s  "
        f"speedup x{opt_speedup:.1f}  ({len(inputs)} calls, "
        f"{sum(len(i[0]) for i in inputs)} points)  "
        f"bit_identical={opt_equal}"
    )

    # Observability: time the registry-disabled and registry-enabled
    # paths as one freshly-warmed back-to-back pair.  Comparing against
    # the *earlier* t_rec_batch measurement used to report a negative
    # overhead (-4%): the interpreter, allocator, and CPU state had
    # drifted across the intervening n_jobs run, which is exactly the
    # kind of cross-measurement noise a relative overhead must exclude.
    registry = obs.get_registry()
    registry.reset()
    recognizer.recognize_points(stays)  # warm the disabled path
    obs.enable()
    recognizer.recognize_points(stays)  # warm the enabled path
    obs.disable()
    rec_plain, t_rec_disabled = timed(recognizer.recognize_points, stays)
    registry.reset()
    obs.enable()
    rec_obs, t_rec_enabled = timed(recognizer.recognize_points, stays)
    metrics = obs.report()
    obs.disable()
    # Clamp at zero: the true no-op-wrapper overhead cannot be negative,
    # so any residual negative reading is measurement noise.
    enabled_overhead = max(0.0, t_rec_enabled / t_rec_disabled - 1.0)
    print(
        f"observability: recognition disabled {t_rec_disabled:.3f}s  "
        f"enabled {t_rec_enabled:.3f}s  "
        f"enabled_overhead {enabled_overhead * 100:+.1f}%  "
        f"identical={rec_obs == rec_batch}"
    )

    report = {
        "mode": "fast" if args.fast else "full",
        "workload": {
            "n_pois": len(workload.pois),
            "n_trajectories": len(workload.trajectories),
            "n_stay_points": len(stays),
        },
        "popularity": {
            "loop_s": round(t_pop_loop, 4),
            "batched_s": round(t_pop_batch, 4),
            "speedup": round(pop_speedup, 2),
            "max_rel_diff": pop_max_rel,
            "allclose": pop_ok,
        },
        "recognition": {
            "loop_s": round(t_rec_loop, 4),
            "batched_s": round(t_rec_batch, 4),
            "speedup": round(rec_speedup, 2),
            "n_jobs2_s": round(t_rec_mp, 4),
            "identical": bool(rec_equal and mp_flat == rec_batch),
        },
        "optics": {
            "calls": len(inputs),
            "points": int(sum(len(i[0]) for i in inputs)),
            "max_points": int(max((len(i[0]) for i in inputs), default=0)),
            "loop_s": round(t_opt_loop, 4),
            "batched_s": round(t_opt_batch, 4),
            "speedup": round(opt_speedup, 2),
            "bit_identical": bool(opt_equal),
        },
        "n_cpus": os.cpu_count() or 1,
        "csd_build_s": round(t_build, 4),
        "observability": {
            "recognition_disabled_s": round(t_rec_disabled, 4),
            "recognition_enabled_s": round(t_rec_enabled, 4),
            "enabled_overhead": round(enabled_overhead, 4),
            "identical": bool(
                rec_obs == rec_batch and rec_plain == rec_batch
            ),
        },
        "metrics": metrics,
    }
    write_report_json(args.out, report)
    print(f"wrote {args.out}")
    if args.metrics_json is not None:
        write_report_json(args.metrics_json, metrics)
        print(f"wrote metrics snapshot {args.metrics_json}")
    if not (pop_ok and rec_equal and rec_obs == rec_batch and opt_equal):
        raise SystemExit("batched results diverged from the loop reference")
    return report


if __name__ == "__main__":
    main()
