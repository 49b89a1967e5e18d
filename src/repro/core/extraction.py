"""Pattern extraction (Section 4.3): PrefixSpan + CounterpartCluster (Alg. 4).

PrefixSpan mines coarse semantic patterns — frequent tag sequences with
the matched stay-point positions of every supporting trajectory.  For
each coarse pattern, CounterpartCluster:

1. clusters the k-th matched stay points of all supporters with OPTICS
   (self-tuning distance threshold, ``sigma`` as minimum cluster size);
2. sweeps per seed trajectory, keeping supporters that share the seed's
   cluster at every position, respecting the temporal constraint
   ``delta_t`` and the group-density bound ``rho``;
3. emits a fine-grained pattern per surviving counterpart set of at
   least ``sigma`` members: representative points are the group medoids
   with averaged timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.optics import optics_auto_clusters
from repro.core.config import MiningConfig
from repro.data.trajectory import (
    SemanticTrajectory,
    StayPoint,
    as_tag_sequence,
)
from repro.geo.projection import LocalProjection
from repro.geo.stats import spatial_density
from repro.mining.prefixspan import FrequentSequence, prefixspan
from repro.obs import get_registry
from repro.types import MetersArray


@dataclass
class FineGrainedPattern:
    """One mined fine-grained pattern (Definition 11).

    ``groups[k]`` is ``Group(sp_k)`` of Definition 10 restricted to the
    counterpart set this pattern was extracted from; every evaluation
    metric (spatial sparsity, semantic consistency) is computed on these
    groups.
    """

    items: Tuple[str, ...]
    representatives: List[StayPoint]
    member_ids: List[int]
    groups: List[List[StayPoint]] = field(repr=False, default_factory=list)

    @property
    def support(self) -> int:
        """Number of trajectories whose counterpart formed this pattern."""
        return len(self.member_ids)

    def __len__(self) -> int:
        return len(self.items)


def counterpart_cluster(
    database: Sequence[SemanticTrajectory],
    config: Optional[MiningConfig] = None,
    projection: Optional[LocalProjection] = None,
) -> List[FineGrainedPattern]:
    """Algorithm 4 end to end over a recognised trajectory database."""
    config = config or MiningConfig()
    reg = get_registry()
    if projection is None:
        projection = _projection_for(database)
    with reg.timer("extraction.prefixspan"):
        coarse = prefixspan(
            [as_tag_sequence(st) for st in database],
            min_support=config.support,
            min_length=config.min_length,
            max_length=config.max_length,
        )
    out = refine_patterns(coarse, database, config, projection)
    if reg.enabled:
        reg.counter("extraction.sequences.mined").inc(len(database))
        reg.counter("extraction.patterns.coarse").inc(len(coarse))
        reg.counter("extraction.patterns.emitted").inc(len(out))
    return out


def refine_patterns(
    coarse: Sequence[FrequentSequence],
    database: Sequence[SemanticTrajectory],
    config: Optional[MiningConfig] = None,
    projection: Optional[LocalProjection] = None,
) -> List[FineGrainedPattern]:
    """Algorithm 4 refinement (lines 4-20) of pre-mined coarse patterns.

    The coarse patterns' occurrences must be keyed by positional index
    into ``database`` (as :func:`repro.mining.prefixspan.prefixspan`
    produces).  Callers that mine coarse patterns elsewhere — e.g. the
    streaming pipeline's windowed miner, whose occurrences are keyed by
    stable sequence id — remap to positions first.
    """
    config = config or MiningConfig()
    if projection is None:
        projection = _projection_for(database)
    out: List[FineGrainedPattern] = []
    # One tag/time view per supporting trajectory, shared by every
    # coarse pattern it supports.
    sequences: Dict[int, TagTimes] = {}
    with get_registry().timer("extraction.refinement"):
        for pattern in coarse:
            out.extend(
                _refine_coarse_pattern(
                    pattern, database, config, projection, sequences
                )
            )
    return out


def _projection_for(
    database: Sequence[SemanticTrajectory],
) -> LocalProjection:
    lonlat = [
        (sp.lon, sp.lat) for st in database for sp in st.stay_points
    ]
    if not lonlat:
        raise ValueError("cannot mine an empty trajectory database")
    return LocalProjection.for_points(lonlat)


#: A trajectory's dominant-tag sequence and its stay-point timestamps.
TagTimes = Tuple[List[Optional[str]], List[float]]


def _tag_times(
    sequences: Dict[int, TagTimes],
    database: Sequence[SemanticTrajectory],
    seq_idx: int,
) -> TagTimes:
    """``database[seq_idx]``'s tags and times, built once per trajectory
    and kept in ``sequences``."""
    seq = sequences.get(seq_idx)
    if seq is None:
        st = database[seq_idx]
        seq = sequences[seq_idx] = (
            as_tag_sequence(st),
            [sp.t for sp in st.stay_points],
        )
    return seq


def _temporal_occurrence(
    tags: Sequence[Optional[str]],
    times: Sequence[float],
    items: Tuple[str, ...],
    delta_t_s: float,
) -> Optional[Tuple[int, ...]]:
    """Leftmost occurrence of ``items`` in ``tags`` whose consecutive
    matched stay points are within ``delta_t_s`` of each other.

    PrefixSpan's leftmost match ignores time and can straddle the long
    midday gap of a linked day trajectory; Definition 7 condition ii
    applies the temporal constraint to the *matched subsequence*, so we
    re-match here with the constraint enforced.  ``tags`` and ``times``
    are one trajectory's :func:`_tag_times`.
    """
    n, m = len(tags), len(items)

    def search(j: int, start: int, chosen: List[int]) -> Optional[Tuple[int, ...]]:
        if j == m:
            return tuple(chosen)
        for i in range(start, n - (m - j) + 1):
            if tags[i] != items[j]:
                continue
            if chosen and times[i] - times[chosen[-1]] > delta_t_s:
                break  # times are sorted: later i only grows the gap
            result = search(j + 1, i + 1, chosen + [i])
            if result is not None:
                return result
        return None

    return search(0, 0, [])


def _refine_coarse_pattern(
    coarse: FrequentSequence,
    database: Sequence[SemanticTrajectory],
    config: MiningConfig,
    projection: LocalProjection,
    sequences: Dict[int, TagTimes],
) -> List[FineGrainedPattern]:
    """The per-pattern body of Algorithm 4 (lines 4-20)."""
    m = len(coarse.items)
    reg = get_registry()
    # Re-match every supporter under the temporal constraint; supporters
    # with no time-feasible occurrence drop out of the coarse pattern.
    occurrences = []
    for seq_idx, _positions in coarse.occurrences:
        tags, stay_times = _tag_times(sequences, database, seq_idx)
        matched = _temporal_occurrence(
            tags, stay_times, coarse.items, config.delta_t_s
        )
        if matched is not None:
            occurrences.append((seq_idx, matched))
    n_occ = len(occurrences)
    if reg.enabled:
        reg.counter("extraction.supporters.dropped_temporal").inc(
            len(coarse.occurrences) - n_occ
        )
    if n_occ < config.support:
        if reg.enabled:
            reg.counter("extraction.patterns.pruned").inc(1)
        return []

    # Matched stay points and their metre coordinates, per position k.
    stays: List[List[StayPoint]] = []
    xy: List[MetersArray] = []
    times = np.empty((n_occ, m), dtype=np.float64)
    for k in range(m):
        column = [
            database[seq_idx][positions[k]]
            for seq_idx, positions in occurrences
        ]
        stays.append(column)
        xy.append(
            projection.to_meters_array([(sp.lon, sp.lat) for sp in column])
        )
        times[:, k] = [sp.t for sp in column]

    # Line 6: OPTICS clusters of the k-th points, min size = sigma.
    with reg.timer("extraction.optics"):
        labels = [
            optics_auto_clusters(
                xy[k],
                min_pts=config.support,
                max_eps=config.optics_max_eps_m,
                threshold_factor=config.optics_threshold_factor,
            )
            for k in range(m)
        ]

    alive = set(range(n_occ))
    out: List[FineGrainedPattern] = []
    for seed in range(n_occ):
        if seed not in alive:
            continue
        candidates = set(alive)
        valid = True
        for k in range(m):
            seed_label = labels[k][seed]
            if seed_label == -1:
                candidates = set()
            else:
                candidates = {
                    j for j in candidates if labels[k][j] == seed_label
                }
            if k > 0:
                candidates = {
                    j
                    for j in candidates
                    if times[j, k] - times[j, k - 1] <= config.delta_t_s
                }
            group_xy = xy[k][sorted(candidates)]
            if spatial_density(group_xy) < config.rho:
                alive -= candidates  # line 14: drop the failed candidates
                valid = False
                break
        alive -= candidates  # line 15
        if not valid or len(candidates) < config.support:
            continue
        members = sorted(candidates)
        groups = [[stays[k][j] for j in members] for k in range(m)]
        representatives = [
            representative_stay_point(groups[k], xy[k][members]) for k in range(m)
        ]
        out.append(
            FineGrainedPattern(
                items=coarse.items,
                representatives=representatives,
                member_ids=[occurrences[j][0] for j in members],
                groups=groups,
            )
        )
    return out


def representative_stay_point(
    group: List[StayPoint], group_xy: MetersArray
) -> StayPoint:
    """Line 19: medoid location, average timestamp, medoid semantics."""
    centre = group_xy.mean(axis=0)
    medoid = int(np.argmin(((group_xy - centre) ** 2).sum(axis=1)))
    avg_t = float(np.mean([sp.t for sp in group]))
    best = group[medoid]
    return StayPoint(best.lon, best.lat, avg_t, best.semantics)
