"""OPTICS (Ankerst et al., 1999) with automatic cluster extraction.

Algorithm 4 uses OPTICS "to finish clustering tasks without the
configuration of distance threshold": it starts from a default maximum
distance and the support threshold as the minimum cluster size, computes
the reachability ordering, and then picks a distance cut with
sufficiently high density.  We implement the classic ordering pass plus
two extraction strategies:

- :func:`extract_dbscan_clustering` — the standard DBSCAN-equivalent cut
  at a caller-supplied ``eps'``;
- :func:`auto_threshold` — the self-tuning cut used by the miner: a
  robust multiple of the median finite reachability, which lands inside
  the valley between intra-cluster distances (tens of metres here) and
  inter-cluster jumps (hundreds of metres).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geo.index import GridIndex
from repro.types import Float64Array, IndexArray, MetersArray

_INF = np.inf

#: Cap on centre-by-neighbour distance entries materialised per block of
#: the core-distance pass.  Together with the O(n) expansion state it
#: bounds the working memory of :func:`optics`, however many neighbour
#: pairs the input has.
_CHUNK_BUDGET = 16_384


@dataclass
class OpticsResult:
    """Reachability plot: visit order plus per-point distances."""

    ordering: IndexArray       # point indices in visit order
    reachability: Float64Array # reachability distance per point (inf = never reached)
    core_distance: Float64Array  # core distance per point (inf = never core)

    def __len__(self) -> int:
        return len(self.ordering)


def optics(
    xy: MetersArray,
    min_pts: int,
    max_eps: float = _INF,
    index: Optional[GridIndex] = None,
) -> OpticsResult:
    """Compute the OPTICS ordering of ``(n, 2)`` metre coordinates.

    ``max_eps`` bounds the neighbourhood search; pass a generous default
    (e.g. 1 km) for speed — anything beyond it is treated as unreachable,
    exactly like the original algorithm.

    The work is batched in two passes.  Core distances come first, for
    blocks of centres at a time: one ``query_radius_many`` per block and
    a row-wise ``np.partition``.  The ordering pass then expands one
    point at a time with a single masked numpy step over all points.
    The seed list is an array holding the reachability of every
    unprocessed point reached so far (inf elsewhere), and its
    ``argmin`` is the next point: the lowest index among equal minima,
    which is the ``(reachability, index)`` order of the classic seed
    heap.  Working memory is ``O(n + _CHUNK_BUDGET)``; no neighbour
    pair outlives the step that computed it.  Neighbour tests and
    distances use the index's own arithmetic, so the result is
    bit-identical to the textbook per-point loop.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    reach = np.full(n, _INF, dtype=np.float64)
    ordering = np.empty(n, dtype=np.int64)
    if n == 0:
        return OpticsResult(ordering, reach, np.full(0, _INF, dtype=np.float64))

    # A radius beyond the data diagonal reaches everything anyway; the
    # clamp keeps the grid scan bounded when max_eps is infinite.
    diagonal = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))) + 1.0
    search_eps = min(max_eps, diagonal)
    if index is None:
        cell = min(search_eps, 250.0)
        index = GridIndex(pts, cell_size=max(cell, 1e-9))
    if len(index) != n:
        raise ValueError("index must cover exactly the points being clustered")
    core = _core_distances(pts, index, min_pts, search_eps)

    xs = np.ascontiguousarray(pts[:, 0], dtype=np.float64)
    ys = np.ascontiguousarray(pts[:, 1], dtype=np.float64)
    r2 = search_eps * search_eps
    unprocessed = np.ones(n, dtype=bool)
    seeds = np.full(n, _INF, dtype=np.float64)
    pos = 0
    for start in range(n):
        if not unprocessed[start]:
            continue
        # Expand one density-connected component from `start`.
        i = start
        while True:
            unprocessed[i] = False
            seeds[i] = _INF
            ordering[pos] = i
            pos += 1
            core_i = core[i]
            if core_i < _INF:
                # The index's predicate, point minus centre, over all points.
                dx = xs - xs[i]
                dy = ys - ys[i]
                d2 = dx * dx + dy * dy
                nb = np.flatnonzero((d2 <= r2) & unprocessed)
                new_reach = np.maximum(np.sqrt(d2[nb]), core_i)
                better = new_reach < reach[nb]
                improved = nb[better]
                reach[improved] = seeds[improved] = new_reach[better]
            i = int(seeds.argmin())
            if seeds[i] == _INF:
                break
    return OpticsResult(ordering, reach, core)


def _core_distances(
    pts: MetersArray, index: GridIndex, min_pts: int, eps: float
) -> Float64Array:
    """Distance to each point's ``min_pts``-th neighbour within ``eps``
    (itself included), inf where it has fewer.

    ``sqrt`` is monotone, so the ``k``-th smallest squared distance's
    root is the ``k``-th smallest distance, bit for bit.
    """
    n = len(pts)
    kth = min_pts - 1
    core = np.full(n, _INF, dtype=np.float64)
    block = max(1, _CHUNK_BUDGET // n)
    for s in range(0, n, block):
        centres = pts[s : s + block]
        indices, offsets = index.query_radius_many(centres, eps)
        counts = np.diff(offsets)
        width = int(counts.max())
        if width <= kth:
            continue  # no centre in this block is core
        m = len(centres)
        rows = np.repeat(np.arange(m, dtype=np.int64), counts)
        cols = np.arange(len(indices), dtype=np.int64) - np.repeat(
            offsets[:-1], counts
        )
        dx = pts[indices, 0] - centres[rows, 0]
        dy = pts[indices, 1] - centres[rows, 1]
        padded = np.full((m, width), _INF, dtype=np.float64)
        padded[rows, cols] = dx * dx + dy * dy
        kth_d2 = np.partition(padded, kth, axis=1)[:, kth]
        core[s : s + m] = np.where(counts > kth, np.sqrt(kth_d2), _INF)
    return core


def extract_dbscan_clustering(
    result: OpticsResult, eps_prime: float, min_pts: int
) -> IndexArray:
    """DBSCAN-equivalent labels from an OPTICS ordering at ``eps_prime``.

    Walks the ordering: a reachability jump above ``eps_prime`` either
    starts a new cluster (if the point is core at ``eps_prime``) or marks
    noise.  ``min_pts`` only matters through the recorded core distances.
    """
    del min_pts  # core distances already encode it; kept for API clarity
    n = len(result)
    labels = np.full(n, -1, dtype=np.int64)
    cluster_id = -1
    for idx in result.ordering:
        if result.reachability[idx] > eps_prime:
            if result.core_distance[idx] <= eps_prime:
                cluster_id += 1
                labels[idx] = cluster_id
            else:
                labels[idx] = -1
        else:
            labels[idx] = cluster_id
    return labels


def auto_threshold(result: OpticsResult, factor: float = 3.0) -> float:
    """Self-tuning ``eps'``: ``factor`` times the median finite reachability.

    Intra-cluster reachabilities dominate the finite part of the plot for
    dense data, so a small multiple of their median sits in the valley
    below the inter-cluster jumps.  Falls back to 1.0 m when nothing is
    reachable (all-noise input).
    """
    finite = result.reachability[np.isfinite(result.reachability)]
    if len(finite) == 0:
        return 1.0
    return float(np.median(finite) * factor)


def extract_valley_clusters(
    result: OpticsResult, min_pts: int, split_ratio: float = 3.0
) -> IndexArray:
    """Per-cluster adaptive extraction from the reachability plot.

    The paper's Algorithm 4 description says OPTICS "chooses an optimal
    distance threshold with sufficiently high density *for each
    cluster*" — a single global cut cannot do that when venue footprints
    range from a shop door to an airport kerb.  This extraction treats
    the reachability plot as valleys separated by peaks: a segment of
    the ordering is recursively split at its dominant interior peak
    whenever that peak exceeds ``split_ratio`` times the segment's
    median reachability, and a segment is accepted as one cluster once
    no dominant peak remains.  Segments smaller than ``min_pts`` are
    noise.
    """
    if split_ratio <= 1.0:
        raise ValueError("split_ratio must exceed 1")
    n = len(result)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    order = result.ordering
    reach = result.reachability[order]  # reach in visit order

    segments = [(0, n)]  # half-open [start, stop) over the ordering
    accepted = []
    while segments:
        start, stop = segments.pop()
        if stop - start < min_pts:
            continue
        interior = reach[start + 1 : stop]
        if len(interior) == 0:
            accepted.append((start, stop))
            continue
        peak_offset = int(np.argmax(interior))
        peak_value = float(interior[peak_offset])
        finite = interior[np.isfinite(interior)]
        median = float(np.median(finite)) if len(finite) else 0.0
        threshold = max(median * split_ratio, 1e-9)
        if not np.isfinite(peak_value) or peak_value > threshold:
            split_at = start + 1 + peak_offset
            segments.append((start, split_at))
            segments.append((split_at, stop))
        else:
            accepted.append((start, stop))

    for cluster_id, (start, stop) in enumerate(sorted(accepted)):
        labels[order[start:stop]] = cluster_id
    return labels


def optics_auto_clusters(
    xy: MetersArray,
    min_pts: int,
    max_eps: float = 1_000.0,
    threshold_factor: float = 3.0,
) -> IndexArray:
    """One-call OPTICS clustering with per-cluster adaptive extraction.

    This is the exact routine Algorithm 4 line 6 invokes;
    ``threshold_factor`` is the valley split ratio.
    """
    result = optics(xy, min_pts=min_pts, max_eps=max_eps)
    return extract_valley_clusters(result, min_pts, threshold_factor)
