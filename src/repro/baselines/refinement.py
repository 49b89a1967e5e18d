"""Shared coarse-pattern refinement scaffolding for Splitter and SDBSCAN.

Both baselines follow the same recipe — PrefixSpan coarse patterns, an
exchangeable per-position clustering step, and a combination sweep —
and differ only in the clustering strategy (``labeler``).  Per the
paper, the support threshold ``sigma``, temporal constraint ``delta_t``
and density threshold ``rho`` are universal across all six approaches;
here ``rho`` acts as a post-filter on the mean group density.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MiningConfig
from repro.core.extraction import (
    FineGrainedPattern,
    TagTimes,
    _projection_for,
    _tag_times,
    _temporal_occurrence,
    representative_stay_point,
)
from repro.data.trajectory import SemanticTrajectory, StayPoint, as_tag_sequence
from repro.geo.projection import LocalProjection
from repro.geo.stats import spatial_density
from repro.mining.prefixspan import prefixspan
from repro.types import IndexArray, MetersArray

#: A labeler maps the k-th matched points (metres) to cluster labels;
#: ``-1`` marks noise (clusterers without a noise concept never emit it).
Labeler = Callable[[MetersArray, MiningConfig], IndexArray]


def refine_with_labeler(
    database: Sequence[SemanticTrajectory],
    config: MiningConfig,
    labeler: Labeler,
    projection: Optional[LocalProjection] = None,
) -> List[FineGrainedPattern]:
    """PrefixSpan + per-position clustering + combination counting.

    A fine-grained pattern is a maximal set of supporters that share the
    same cluster label at *every* position; combinations with at least
    ``sigma`` members and mean group density at least ``rho`` survive.
    """
    if projection is None:
        projection = _projection_for(database)
    coarse = prefixspan(
        [as_tag_sequence(st) for st in database],
        min_support=config.support,
        min_length=config.min_length,
        max_length=config.max_length,
    )
    out: List[FineGrainedPattern] = []
    sequences: Dict[int, TagTimes] = {}
    for pattern in coarse:
        occurrences: List[Tuple[int, Tuple[int, ...]]] = []
        for seq_idx, _positions in pattern.occurrences:
            tags, times = _tag_times(sequences, database, seq_idx)
            matched = _temporal_occurrence(
                tags, times, pattern.items, config.delta_t_s
            )
            if matched is not None:
                occurrences.append((seq_idx, matched))
        if len(occurrences) < config.support:
            continue

        m = len(pattern.items)
        stays: List[List[StayPoint]] = []
        xy: List[MetersArray] = []
        for k in range(m):
            column = [
                database[seq_idx][positions[k]]
                for seq_idx, positions in occurrences
            ]
            stays.append(column)
            xy.append(
                projection.to_meters_array(
                    [(sp.lon, sp.lat) for sp in column]
                )
            )
        labels = [labeler(xy[k], config) for k in range(m)]

        combos: Dict[Tuple[int, ...], List[int]] = defaultdict(list)
        for j in range(len(occurrences)):
            key = tuple(int(labels[k][j]) for k in range(m))
            if -1 in key:
                continue
            combos[key].append(j)

        for _key, members in sorted(combos.items()):
            if len(members) < config.support:
                continue
            groups = [[stays[k][j] for j in members] for k in range(m)]
            group_xy = [xy[k][members] for k in range(m)]
            # rho is universal across the six approaches (Section 5).
            # The baselines enforce it as Definition 11 states it — on
            # the mean group density — which is why their sparse tail
            # survives in Figure 9 while Algorithm 4's stricter
            # per-position gate prunes it for PM.
            mean_density = float(
                np.mean([spatial_density(g) for g in group_xy])
            )
            if mean_density < config.rho:
                continue
            out.append(
                FineGrainedPattern(
                    items=pattern.items,
                    representatives=[
                        representative_stay_point(groups[k], group_xy[k])
                        for k in range(m)
                    ],
                    member_ids=[occurrences[j][0] for j in members],
                    groups=groups,
                )
            )
    return out
