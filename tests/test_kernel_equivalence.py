"""Equivalence regressions: batched kernels vs. the seed loop paths.

The CSR rewrite of the spatial kernel promises *bit-identical* results,
not merely close ones: the batched queries return the same sorted hit
sets, and the ``np.bincount`` accumulations add contributions in the
same left-to-right order the seed loops did.  The batched OPTICS makes
the same promise for its ordering, reachability and core distances.
These tests keep the seed per-point implementations alive as reference
oracles and compare exactly — no tolerances.
"""

import heapq
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.recognition as recognition_mod
from repro.cluster.optics import OpticsResult, optics
from repro.core.config import CSDConfig, MiningConfig
from repro.core.constructor import build_csd
from repro.core.extraction import counterpart_cluster
from repro.core.csd import UNASSIGNED
from repro.core.popularity import compute_popularity
from repro.core.recognition import CSDRecognizer
from repro.data.poi import POI
from repro.data.trajectory import NO_SEMANTICS, SemanticTrajectory, StayPoint
from repro.geo.distance import gaussian_coefficients
from repro.geo.index import GridIndex
from tests.test_extraction import planted_database

MAJORS = [
    "Restaurant",
    "Sports",
    "Medical Service",
    "Shop & Market",
    "Business & Office",
]


def popularity_loop_oracle(poi_xy, stay_xy, r3sigma):
    """The seed per-POI loop (pre-CSR ``compute_popularity``).

    Accumulates each POI's contributions sequentially, which is the
    exact summation order of the batched ``np.bincount`` path.
    """
    pois = np.asarray(poi_xy, dtype=float).reshape(-1, 2)
    stays = np.asarray(stay_xy, dtype=float).reshape(-1, 2)
    index = GridIndex(stays, cell_size=r3sigma)
    pop = np.zeros(len(pois))
    for i, (x, y) in enumerate(pois):
        hits = index.query_radius(x, y, r3sigma)
        if len(hits) == 0:
            continue
        d = np.sqrt(((stays[hits] - (x, y)) ** 2).sum(axis=1))
        total = 0.0
        for w in gaussian_coefficients(d, r3sigma):
            total += float(w)
        pop[i] = total
    return pop


def recognize_point_oracle(recognizer, sp):
    """The seed scalar ``recognize_point`` (dict-based voting)."""
    csd = recognizer.csd
    x, y = csd.projection.to_meters(sp.lon, sp.lat)
    hits = csd.range_query(x, y, recognizer.r3sigma_m)
    if len(hits) == 0:
        return NO_SEMANTICS
    d = np.sqrt(((csd.poi_xy[hits] - (x, y)) ** 2).sum(axis=1))
    weights = gaussian_coefficients(d, recognizer.r3sigma_m)
    votes = {}
    in_range_tags = {}
    for poi_idx, w in zip(hits, weights):
        unit_id = csd.find_semantic_unit(int(poi_idx))
        if unit_id == UNASSIGNED:
            continue
        score = float(csd.popularity[poi_idx]) * float(w)
        votes[unit_id] = votes.get(unit_id, 0.0) + score
        in_range_tags.setdefault(unit_id, set()).add(csd.poi_tag(int(poi_idx)))
    if not votes:
        return NO_SEMANTICS
    winner = min(votes, key=lambda uid: (-votes[uid], uid))
    unit = csd.unit(winner)
    distribution = unit.semantic_distribution
    tags = {
        tag
        for tag in in_range_tags[winner]
        if distribution.get(tag, 0.0) >= recognizer.min_tag_share
    }
    tags.add(unit.dominant_tag())
    return frozenset(tags)


class TestPopularityEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_vectorized_matches_loop_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        pois = rng.uniform(-1500, 1500, (300, 2))
        anchors = pois[rng.integers(0, len(pois), 2_000)]
        stays = anchors + rng.normal(0.0, 40.0, anchors.shape)
        got = compute_popularity(pois, stays, r3sigma=100.0)
        want = popularity_loop_oracle(pois, stays, r3sigma=100.0)
        assert np.array_equal(got, want)

    def test_dense_single_cell_matches(self):
        """Hundreds of stays in one POI's radius — the regime where
        pairwise summation would diverge from sequential order."""
        rng = np.random.default_rng(3)
        pois = np.zeros((1, 2))
        stays = rng.normal(0.0, 30.0, (5_000, 2))
        got = compute_popularity(pois, stays, r3sigma=100.0)
        want = popularity_loop_oracle(pois, stays, r3sigma=100.0)
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def random_csd():
    """Plaza-style synthetic city: 30 clustered venues plus strays."""
    rng = np.random.default_rng(42)
    centers = np.stack(
        [
            121.47 + rng.uniform(-0.02, 0.02, 30),
            31.23 + rng.uniform(-0.015, 0.015, 30),
        ],
        axis=1,
    )
    pois = []
    for c, (clon, clat) in enumerate(centers):
        major = MAJORS[c % len(MAJORS)]
        for _ in range(12):
            pois.append(
                POI(
                    len(pois),
                    float(clon + rng.normal(0.0, 1.2e-4)),
                    float(clat + rng.normal(0.0, 1.0e-4)),
                    major,
                    "Generic",
                )
            )
    for _ in range(40):  # scattered strays -> leftovers / UNASSIGNED POIs
        pois.append(
            POI(
                len(pois),
                float(121.47 + rng.uniform(-0.02, 0.02)),
                float(31.23 + rng.uniform(-0.015, 0.015)),
                MAJORS[int(rng.integers(0, len(MAJORS)))],
                "Generic",
            )
        )
    picks = rng.integers(0, len(centers), 3_000)
    stays = [
        StayPoint(
            float(centers[p, 0] + rng.normal(0.0, 4e-4)),
            float(centers[p, 1] + rng.normal(0.0, 3e-4)),
            float(t),
        )
        for t, p in enumerate(picks)
    ]
    return build_csd(pois, stays, CSDConfig(min_pts=3, alpha=0.5))


@pytest.fixture(scope="module")
def corpus(random_csd):
    """200 stay points: most near POIs, a tail far outside the city."""
    rng = np.random.default_rng(77)
    out = []
    for t in range(200):
        if t % 10 == 9:
            sp = StayPoint(122.3 + t * 1e-4, 31.9, float(t))
        else:
            sp = StayPoint(
                float(121.47 + rng.uniform(-0.022, 0.022)),
                float(31.23 + rng.uniform(-0.017, 0.017)),
                float(t),
            )
        out.append(sp)
    return out


class TestRecognitionEquivalence:
    def test_batched_matches_scalar_oracle(self, random_csd, corpus):
        recognizer = CSDRecognizer(random_csd, 100.0)
        batched = recognizer.recognize_points(corpus)
        assert len(batched) == len(corpus)
        assert any(p for p in batched)  # corpus is not degenerate
        assert any(not p for p in batched)
        for sp, got in zip(corpus, batched):
            assert got == recognize_point_oracle(recognizer, sp)

    def test_recognize_point_wrapper_matches_batch(self, random_csd, corpus):
        recognizer = CSDRecognizer(random_csd, 100.0)
        batched = recognizer.recognize_points(corpus)
        for sp, got in zip(corpus[:25], batched[:25]):
            assert recognizer.recognize_point(sp) == got

    def test_recognize_trajectories_uses_batch_path(self, random_csd, corpus):
        recognizer = CSDRecognizer(random_csd, 100.0)
        trajs = [
            SemanticTrajectory(i, corpus[i * 20 : (i + 1) * 20])
            for i in range(10)
        ]
        out = recognizer.recognize(trajs)
        flat = [sp.semantics for st in out for sp in st.stay_points]
        assert flat == recognizer.recognize_points(corpus)

    def test_n_jobs_identical_to_serial(self, random_csd, corpus, monkeypatch):
        recognizer = CSDRecognizer(random_csd, 100.0)
        trajs = [
            SemanticTrajectory(i, corpus[i * 20 : (i + 1) * 20])
            for i in range(10)
        ]
        serial = recognizer.recognize(trajs)
        monkeypatch.setattr(recognition_mod, "_MIN_STAYS_PER_JOB", 1)
        parallel = recognizer.recognize(trajs, n_jobs=2)
        for a, b in zip(serial, parallel):
            assert a.traj_id == b.traj_id
            assert [sp.semantics for sp in a.stay_points] == [
                sp.semantics for sp in b.stay_points
            ]

    def test_rejects_bad_n_jobs(self, random_csd):
        recognizer = CSDRecognizer(random_csd, 100.0)
        with pytest.raises(ValueError):
            recognizer.recognize([], n_jobs=0)


def optics_loop_oracle(xy, min_pts, max_eps=np.inf, index=None):
    """The seed per-point OPTICS loop (pre-batching ``optics``).

    Every expanded point issues two scalar range queries, one for its
    core distance and one for its seed update, and the seed update is
    a Python loop over the neighbours feeding a ``(reach, index)`` heap.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    reach = np.full(n, np.inf, dtype=np.float64)
    core = np.full(n, np.inf, dtype=np.float64)
    ordering = np.empty(n, dtype=np.int64)
    if n == 0:
        return OpticsResult(ordering, reach, core)
    diagonal = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))) + 1.0
    eps = min(max_eps, diagonal)
    if index is None:
        index = GridIndex(pts, cell_size=max(min(eps, 250.0), 1e-9))
    if len(index) != n:
        raise ValueError("index must cover exactly the points being clustered")

    def update_core(i):
        neighbours = index.query_radius(pts[i, 0], pts[i, 1], eps)
        if len(neighbours) < min_pts:
            return
        d = np.sqrt(((pts[neighbours] - pts[i]) ** 2).sum(axis=1))
        d.sort()
        core[i] = d[min_pts - 1]

    def update_seeds(i, seeds):
        neighbours = index.query_radius(pts[i, 0], pts[i, 1], eps)
        d = np.sqrt(((pts[neighbours] - pts[i]) ** 2).sum(axis=1))
        for j, dist in zip(neighbours, d):
            if processed[j]:
                continue
            new_reach = max(core[i], dist)
            if new_reach < reach[j]:
                reach[j] = new_reach
                heapq.heappush(seeds, (new_reach, int(j)))

    processed = np.zeros(n, dtype=bool)
    pos = 0
    for start in range(n):
        if processed[start]:
            continue
        processed[start] = True
        ordering[pos] = start
        pos += 1
        seeds = []
        update_core(start)
        if np.isfinite(core[start]):
            update_seeds(start, seeds)
        while seeds:
            _r, j = heapq.heappop(seeds)
            if processed[j]:
                continue
            processed[j] = True
            ordering[pos] = j
            pos += 1
            update_core(j)
            if np.isfinite(core[j]):
                update_seeds(j, seeds)
    return OpticsResult(ordering, reach, core)


def assert_optics_identical(got, want):
    assert got.ordering.dtype == want.ordering.dtype
    assert np.array_equal(got.ordering, want.ordering)
    assert got.reachability.tobytes() == want.reachability.tobytes()
    assert got.core_distance.tobytes() == want.core_distance.tobytes()


def _blobs(seed, n_per=40, spread=15.0):
    rng = np.random.default_rng(seed)
    centres = np.array([[0.0, 0.0], [300.0, 40.0], [90.0, 700.0]])
    return np.vstack([c + rng.normal(0.0, spread, (n_per, 2)) for c in centres])


class TestOpticsEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_pts", [2, 5, 20])
    def test_blobs_match_oracle(self, seed, min_pts):
        pts = _blobs(seed)
        assert_optics_identical(
            optics(pts, min_pts, max_eps=1000.0),
            optics_loop_oracle(pts, min_pts, max_eps=1000.0),
        )

    def test_duplicates_and_reachability_ties(self):
        """An integer lattice with every site doubled: many points share
        coordinates and equal distances, so the seed list holds exact
        reachability ties that only the index order can break."""
        g = np.arange(6, dtype=float) * 10.0
        lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        pts = np.vstack([lattice, lattice[::-1], [[25.0, 25.0]] * 4])
        for min_pts in (1, 3, 8):
            got = optics(pts, min_pts, max_eps=40.0)
            want = optics_loop_oracle(pts, min_pts, max_eps=40.0)
            assert_optics_identical(got, want)
        finite = want.reachability[np.isfinite(want.reachability)]
        assert len(np.unique(finite)) < len(finite)  # ties really occur

    def test_min_pts_one(self):
        pts = _blobs(3, n_per=25)
        got = optics(pts, 1, max_eps=200.0)
        assert_optics_identical(got, optics_loop_oracle(pts, 1, max_eps=200.0))
        assert np.all(got.core_distance == 0.0)

    def test_min_pts_above_n(self):
        pts = _blobs(4, n_per=5)
        got = optics(pts, len(pts) + 1, max_eps=1000.0)
        assert_optics_identical(
            got, optics_loop_oracle(pts, len(pts) + 1, max_eps=1000.0)
        )
        assert np.all(np.isinf(got.core_distance))
        assert np.array_equal(got.ordering, np.arange(len(pts)))

    def test_finite_max_eps_leaves_noise(self):
        rng = np.random.default_rng(5)
        strays = rng.uniform(2_000.0, 9_000.0, (15, 2))
        pts = np.vstack([_blobs(5), strays])
        got = optics(pts, 6, max_eps=60.0)
        assert_optics_identical(got, optics_loop_oracle(pts, 6, max_eps=60.0))
        assert np.isinf(got.reachability[-len(strays):]).all()
        assert np.isinf(got.core_distance[-len(strays):]).all()

    @pytest.mark.parametrize("cell", [4.0, 50.0, 5_000.0])
    def test_caller_supplied_index(self, cell):
        """Small cells send the core pass through the index's window
        kernel, huge ones through its brute kernel."""
        pts = _blobs(6)
        index = GridIndex(pts, cell_size=cell)
        got = optics(pts, 5, max_eps=80.0, index=index)
        assert_optics_identical(
            got, optics_loop_oracle(pts, 5, max_eps=80.0, index=index)
        )
        assert_optics_identical(got, optics(pts, 5, max_eps=80.0))

    def test_index_size_mismatch_rejected(self):
        pts = _blobs(6)
        with pytest.raises(ValueError):
            optics(pts, 5, index=GridIndex(pts[:-1], cell_size=50.0))

    def test_empty_and_single_point(self):
        assert_optics_identical(
            optics(np.empty((0, 2)), 3), optics_loop_oracle(np.empty((0, 2)), 3)
        )
        one = np.array([[12.5, -3.0]])
        for min_pts in (1, 2):
            assert_optics_identical(
                optics(one, min_pts), optics_loop_oracle(one, min_pts)
            )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 70),
        min_pts=st.integers(1, 9),
        max_eps=st.sampled_from([3.0, 12.0, 40.0, np.inf]),
        grid=st.sampled_from([1.0, 0.5, 0.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_random_clouds(self, n, min_pts, max_eps, grid, seed):
        """Random clouds, optionally snapped to a grid so coordinates and
        distances repeat."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 15.0, (n, 2))
        if grid:
            pts = np.round(pts / grid) * grid
        assert_optics_identical(
            optics(pts, min_pts, max_eps=max_eps),
            optics_loop_oracle(pts, min_pts, max_eps=max_eps),
        )

    def test_counterpart_cluster_end_to_end(self, monkeypatch):
        """Algorithm 4 mines the same patterns with the seed loop patched
        in.  ``repro.cluster`` re-exports ``optics`` under the module's
        own name, so the module is reached through ``sys.modules``."""
        db = planted_database(60, jitter_m=25.0) + planted_database(
            40, jitter_m=60.0, seed=1, tags=("Office", "Gym")
        )
        config = MiningConfig(support=10, rho=0.0005, delta_t_s=3600.0)
        got = counterpart_cluster(db, config)
        calls = []

        def oracle(*args, **kwargs):
            calls.append(len(args[0]))
            return optics_loop_oracle(*args, **kwargs)

        optics_mod = sys.modules["repro.cluster.optics"]
        monkeypatch.setattr(optics_mod, "optics", oracle)
        want = counterpart_cluster(db, config)
        assert calls  # the oracle really ran
        assert got and got == want
