"""k-means under registry divergences: Lloyd loop, repair, centroids, ARI."""

import numpy as np
import pytest

import chorddiv.clustering
import chorddiv.numerics
import chorddiv.registry
from chorddiv import (
    BUILTIN_GENERATORS,
    ClusterConfig,
    DomainError,
    InfeasibleError,
    ParameterError,
    ShapeError,
    adjusted_rand_index,
    coordinate_minimize,
    kmeans,
    make_builtin,
    resolve_divergence,
)
from chorddiv.clustering import (
    SLICE_TOL,
    _centroid_box,
    _distances,
    _repair_empty,
    _update_center,
    objective,
)
from chorddiv.registry import resolve_block
from chorddiv.verify import clustering_dataset

QUAD1 = make_builtin("quadratic", 1)
QUAD2 = make_builtin("quadratic", 2)


def two_group_points(n_per_group=8, seed=3):
    rng = np.random.default_rng(seed)
    g1 = 0.1 * rng.random(n_per_group)
    g2 = 1.0 + 0.1 * rng.random(n_per_group)
    points = np.concatenate([g1, g2]).reshape(-1, 1)
    truth = np.array([0] * n_per_group + [1] * n_per_group)
    return points, truth


class TestClusterConfig:
    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            ClusterConfig(k=0)

    def test_rejects_bad_max_iters(self):
        with pytest.raises(ParameterError):
            ClusterConfig(k=2, max_iters=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            ClusterConfig(k=2, seed=-1)

    @pytest.mark.parametrize("settings,message", [
        ({"k": 2.5}, "k must be an integer"),
        ({"k": 2, "max_iters": 1.5}, "max_iters must be an integer"),
        ({"k": 2, "seed": 1.5}, "seed must be an integer"),
        ({"k": "2"}, "k must be an integer"),
    ])
    def test_rejects_non_integer_settings(self, settings, message):
        # each would otherwise end kmeans in a TypeError outside the
        # ChorddivError hierarchy
        with pytest.raises(ParameterError, match=message):
            ClusterConfig(**settings)

    def test_accepts_numpy_integers(self):
        cfg = ClusterConfig(k=np.int64(2), max_iters=np.int32(5),
                            seed=np.uint8(3))
        points, _ = two_group_points()
        assert kmeans(points, QUAD1, cfg).iterations <= 5


class TestObjective:
    def test_hand_value(self):
        D = resolve_divergence("bregman", QUAD1)
        pts = np.array([[0.0], [1.0], [2.0]])
        centers = np.array([[0.5], [2.0]])
        labels = np.array([0, 0, 1])
        # squared distances: 0.25 + 0.25 + 0.0
        assert objective(pts, labels, centers, D) == pytest.approx(
            0.5, abs=1e-15)

    def test_label_out_of_range(self):
        D = resolve_divergence("bregman", QUAD1)
        pts = np.array([[0.0], [1.0]])
        centers = np.array([[0.5]])
        with pytest.raises(ShapeError):
            objective(pts, np.array([0, 1]), centers, D)

    def test_label_length_mismatch(self):
        D = resolve_divergence("bregman", QUAD1)
        pts = np.array([[0.0], [1.0]])
        centers = np.array([[0.5]])
        with pytest.raises(ShapeError):
            objective(pts, np.array([0]), centers, D)


class TestRepairEmpty:
    def test_farthest_point_fills_empty_cluster(self):
        labels = np.array([0, 0, 0, 1])
        dist = np.array([5.0, 1.0, 2.0, 0.0])
        repaired = _repair_empty(labels, 3, dist)
        assert repaired.tolist() == [2, 0, 0, 1]
        # input untouched
        assert labels.tolist() == [0, 0, 0, 1]

    def test_singletons_never_donate(self):
        labels = np.array([0, 1])
        repaired = _repair_empty(labels, 3, np.array([1.0, 2.0]))
        assert repaired.tolist() == [0, 1]

    def test_two_point_cluster_donates_farther_point(self):
        labels = np.array([0, 0])
        repaired = _repair_empty(labels, 2, np.array([1.0, 3.0]))
        assert repaired.tolist() == [0, 1]

    def test_promoted_point_not_moved_again(self):
        labels = np.array([0, 0, 0, 0])
        dist = np.array([4.0, 3.0, 2.0, 1.0])
        repaired = _repair_empty(labels, 3, dist)
        # cluster 1 takes point 0, cluster 2 then takes point 1
        assert repaired.tolist() == [1, 2, 0, 0]

    def test_no_empty_clusters_is_identity(self):
        labels = np.array([0, 1, 2])
        repaired = _repair_empty(labels, 3, np.array([1.0, 1.0, 1.0]))
        assert repaired.tolist() == [0, 1, 2]


class TestUpdateCenter:
    def test_quadratic_centroid_is_mean(self):
        rng = np.random.default_rng(12)
        members = rng.uniform(-1.0, 1.0, (20, 2))
        block = resolve_block("bregman", QUAD2)
        found = _update_center(members, QUAD2, block)
        assert np.max(np.abs(found.x - members.mean(axis=0))) <= 1e-6
        assert not (found.capped or found.on_edge)

    def test_search_from_the_centroid_stops_at_once(self):
        # quadratic chord: the centroid is the member mean, where the
        # search starts; a sweep cannot lower the objective from there
        members = np.random.default_rng(0).uniform(0.2, 3.0, (4, 2))
        block = resolve_block("bregman_chord", QUAD2,
                              {"alpha": 0.9, "beta": 1.0})
        found = _update_center(members, QUAD2, block)
        assert not found.capped
        assert found.sweeps <= 3
        assert np.max(np.abs(found.x - members.mean(axis=0))) <= 1e-6

    def test_positive_domain_center_stays_positive(self):
        F = make_builtin("shannon_negentropy", 1)
        members = np.array([[0.2], [0.4], [0.9]])
        block = resolve_block("bregman", F)
        found = _update_center(members, F, block)
        assert found.x[0] > 0.0

    @pytest.mark.parametrize("gen", ["shannon_negentropy", "quadratic"])
    def test_block_search_equals_the_per_pair_search(self, gen):
        F = make_builtin(gen, 2)
        params = {"alpha": 0.9, "beta": 1.0}
        members = np.random.default_rng(4).uniform(0.2, 3.0, (7, 2))
        D = resolve_divergence("bregman_chord", F, params)
        lo, hi = _centroid_box(members, F.domain.kind == "positive")
        per_pair = coordinate_minimize(
            lambda c: sum(float(D(x, c)) for x in members), lo, hi,
            x0=members.mean(axis=0), tol=SLICE_TOL, max_sweeps=100)
        found = _update_center(members, F,
                               resolve_block("bregman_chord", F, params))
        assert found.x.tobytes() == per_pair.x.tobytes()
        assert found[1:] == per_pair[1:]


class TestKMeans:
    def test_k1_quadratic_center_is_mean(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-2.0, 2.0, (30, 2))
        res = kmeans(pts, QUAD2, ClusterConfig(k=1))
        assert np.max(np.abs(res.centers[0] - pts.mean(axis=0))) <= 1e-6
        assert set(res.assignments.tolist()) == {0}

    def test_recovers_two_groups_bregman(self):
        points, truth = clustering_dataset(seed=0)
        res = kmeans(points, QUAD1, ClusterConfig(k=2, seed=0))
        assert adjusted_rand_index(res.assignments, truth) == 1.0

    def test_recovers_two_groups_chord(self):
        points, truth = two_group_points()
        cfg = ClusterConfig(k=2, divergence="bregman_chord",
                            params={"alpha": 0.9, "beta": 1.0}, seed=0)
        res = kmeans(points, QUAD1, cfg)
        assert adjusted_rand_index(res.assignments, truth) == 1.0

    def test_fdiv_chi2_smoke(self):
        rng = np.random.default_rng(34)
        g1 = 0.5 + 0.05 * rng.random(8)
        g2 = 3.0 + 0.05 * rng.random(8)
        pts = np.concatenate([g1, g2]).reshape(-1, 1)
        truth = np.array([0] * 8 + [1] * 8)
        F = make_builtin("shannon_negentropy", 1)
        res = kmeans(pts, F, ClusterConfig(k=2, divergence="fdiv:chi2",
                                           seed=0))
        assert adjusted_rand_index(res.assignments, truth) == 1.0

    def test_trace_non_increasing(self):
        points, _ = clustering_dataset(seed=1)
        res = kmeans(points, QUAD1, ClusterConfig(k=2, seed=1))
        trace = res.objective_trace
        assert len(trace) == res.iterations + 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-8

    def test_deterministic_per_seed(self):
        points, _ = two_group_points(seed=5)
        cfg = ClusterConfig(k=2, seed=11)
        res_a = kmeans(points, QUAD1, cfg)
        res_b = kmeans(points, QUAD1, cfg)
        assert np.array_equal(res_a.assignments, res_b.assignments)
        assert np.array_equal(res_a.centers, res_b.centers)
        assert res_a.objective_trace == res_b.objective_trace

    def test_k_exceeding_distinct_points(self):
        pts = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(InfeasibleError):
            kmeans(pts, QUAD1, ClusterConfig(k=3))

    def test_duplicates_count_once_but_k_equal_distinct_works(self):
        pts = np.array([[0.0], [0.0], [1.0], [2.0]])
        res = kmeans(pts, QUAD1, ClusterConfig(k=3, seed=2))
        assert res.assignments[0] == res.assignments[1]
        assert len(set(res.assignments.tolist())) == 3

    def test_point_outside_domain(self):
        F = make_builtin("shannon_negentropy", 1)
        pts = np.array([[0.5], [-0.5]])
        with pytest.raises(DomainError):
            kmeans(pts, F, ClusterConfig(k=1))

    @pytest.mark.parametrize("div", ["bregman", "jensen"])
    def test_non_finite_distance_names_row_and_center(self, div):
        # F(x) = x.x overflows to inf, and the distances to nan
        pts = np.array([[1e200], [1.1e200], [3e200], [3.1e200]])
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match=r"row 0 to center 0 \[3e\+200\]"):
            kmeans(pts, QUAD1, ClusterConfig(k=2, divergence=div))

    @pytest.mark.parametrize("div", ["kl", "ekl", "fdiv:kl",
                                     "biskew:fdiv:chi2"])
    def test_weight_divergence_rejects_non_positive_row(self, div):
        pts = np.array([[0.5, 0.5], [0.1, 0.0], [2.9, 3.0]])
        with pytest.raises(DomainError, match="row 1"):
            kmeans(pts, QUAD2, ClusterConfig(
                k=1, divergence=div, params={"gamma": 0.2, "delta": 0.7}))

    @pytest.mark.parametrize("div", ["kl", "fdiv:kl"])
    def test_kl_has_no_right_centroid(self, monkeypatch, div):
        # sum_i kl(x_i : c) falls without bound as c grows, so the numeric
        # search used to return a corner of its box, here [0.64, 0.84]
        forbid_golden(monkeypatch)
        pts = np.array([[0.2, 0.8], [0.3, 0.7], [0.6, 0.4]])
        with pytest.raises(InfeasibleError) as info:
            kmeans(pts, QUAD2, ClusterConfig(k=1, divergence=div))
        assert repr(div) in str(info.value)
        assert "'ekl'" in str(info.value)

    def test_dimension_mismatch(self):
        pts = np.array([[0.5, 1.0], [1.0, 2.0]])
        with pytest.raises(ShapeError):
            kmeans(pts, QUAD1, ClusterConfig(k=1))

    def test_empty_points(self):
        with pytest.raises(ShapeError):
            kmeans(np.empty((0, 1)), QUAD1, ClusterConfig(k=1))

    def test_final_assignment_matches_objective(self):
        points, _ = two_group_points(seed=8)
        cfg = ClusterConfig(k=2, seed=4)
        res = kmeans(points, QUAD1, cfg)
        D = resolve_divergence("bregman", QUAD1)
        recomputed = objective(points, res.assignments, res.centers, D)
        assert recomputed == pytest.approx(res.objective_trace[-1],
                                           rel=1e-12, abs=1e-12)


def forbid_golden(monkeypatch):
    def golden(*args, **kwargs):
        raise AssertionError("golden_minimize called")
    monkeypatch.setattr(chorddiv.numerics, "golden_minimize", golden)
    monkeypatch.setattr(chorddiv.clustering, "golden_minimize", golden)


class TestClosedFormCentroid:
    @pytest.mark.parametrize("div,gen,dim", [
        *(("bregman", gen, dim) for gen in BUILTIN_GENERATORS
          for dim in (1, 2)),
        ("ekl", "quadratic", 2),
    ])
    def test_centers_are_member_means(self, monkeypatch, div, gen, dim):
        forbid_golden(monkeypatch)
        rng = np.random.default_rng(7)
        pts = np.vstack([0.5 + 0.1 * rng.random((6, dim)),
                         2.0 + 0.1 * rng.random((6, dim))])
        res = kmeans(pts, make_builtin(gen, dim),
                     ClusterConfig(k=2, divergence=div, seed=1))
        assert sorted(np.bincount(res.assignments).tolist()) == [6, 6]
        for j, center in enumerate(res.centers):
            members = pts[res.assignments == j]
            assert np.array_equal(center, members.mean(axis=0))
        assert res.center_solves == ()

    def test_biskew_bregman_stays_numeric(self, monkeypatch):
        calls = []
        original = chorddiv.numerics.golden_minimize

        def golden(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(chorddiv.numerics, "golden_minimize", golden)
        pts = np.array([[0.1], [0.2], [0.4]])
        kmeans(pts, QUAD1, ClusterConfig(
            k=1, divergence="biskew:bregman",
            params={"gamma": 0.2, "delta": 0.7}))
        assert calls


class TestDistanceMatrix:
    def test_one_pass_of_n_times_k_calls_per_iteration(self, monkeypatch):
        calls = []

        def counting_resolve(*args, **kwargs):
            D = resolve_divergence(*args, **kwargs)

            def counted(x, y):
                calls.append(1)
                return D(x, y)
            return counted

        monkeypatch.setattr(chorddiv.registry, "resolve_divergence",
                            counting_resolve)
        points, _ = clustering_dataset(seed=2)
        k = 3
        res = kmeans(points, QUAD1, ClusterConfig(k=k, seed=2))
        assert res.iterations >= 2
        assert len(calls) == (res.iterations + 1) * points.shape[0] * k

    @pytest.mark.parametrize("div,params", [
        ("bregman", {}),
        ("bregman_chord", {"alpha": 0.3, "beta": 0.8}),
    ])
    def test_one_block_call_per_center(self, div, params):
        F = make_builtin("shannon_negentropy", 2)
        pts = np.random.default_rng(5).uniform(0.2, 2.0, (9, 2))
        centers = pts[[1, 4, 6]]
        block = resolve_block(div, F, params)
        calls = []

        def counted(X, c):
            calls.append(X)
            return block(X, c)

        dist = _distances(pts, centers, counted)
        assert len(calls) == 3
        assert all(X is pts for X in calls)
        D = resolve_divergence(div, F, params)
        per_pair = np.array([[float(D(x, c)) for c in centers]
                             for x in pts])
        assert dist.tobytes() == per_pair.tobytes()

    def test_tied_distance_picks_lowest_center(self):
        # 1.0 is equidistant from the initial centers 0.0 and 2.0
        pts = np.array([[0.0], [1.0], [2.0]])
        seed = next(s for s in range(100) if sorted(
            np.random.default_rng(s).choice(3, size=2, replace=False)
        ) == [0, 2])
        res = kmeans(pts, QUAD1, ClusterConfig(k=2, seed=seed, max_iters=1))
        assert res.objective_trace == (1.0, 0.5)
        assert res.assignments.tolist() == [0, 0, 1]
        assert res.centers.tolist() == [[0.5], [2.0]]


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        a = [0, 0, 1, 1, 2]
        assert adjusted_rand_index(a, a) == 1.0

    def test_label_permutation_invariant(self):
        a = [0, 0, 1, 1, 2]
        b = [5, 5, 9, 9, 7]
        assert adjusted_rand_index(a, b) == 1.0

    def test_crossed_pairs(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == \
            pytest.approx(-0.5, abs=1e-15)

    def test_single_cluster_vs_singletons(self):
        assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 2, 3]) == \
            pytest.approx(0.0, abs=1e-15)

    def test_both_single_cluster(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_empty(self):
        with pytest.raises(ShapeError):
            adjusted_rand_index([], [])

    def test_matches_sklearn_on_random_labelings(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(45)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            ours = adjusted_rand_index(a, b)
            theirs = sklearn_metrics.adjusted_rand_score(a, b)
            assert ours == pytest.approx(theirs, abs=1e-12)


class TestCenterSolves:
    """ClusterResult.center_solves: one record per numeric center update."""

    def test_one_record_per_numeric_update(self):
        points, _ = clustering_dataset(seed=0)
        res = kmeans(points, QUAD1, ClusterConfig(
            k=2, seed=0, divergence="bregman_chord",
            params={"alpha": 0.9, "beta": 1.0}))
        assert [(it, j) for it, j, *_ in res.center_solves] == [
            (it, j) for it in range(1, res.iterations + 1) for j in (0, 1)]
        for _, _, sweeps, capped, on_edge in res.center_solves:
            assert 1 <= sweeps < 100
            assert not capped
            assert not on_edge

    @pytest.mark.parametrize("gamma,delta,corner", [
        (0.2, 0.7, "upper"),
        (0.7, 0.2, "lower"),
    ])
    def test_biskew_kl_center_is_on_edge(self, gamma, delta, corner):
        # biskew:kl, like kl, falls without bound one way along the box;
        # the search stops on a corner and must say so
        pts = np.array([[0.2, 0.8], [0.3, 0.7], [0.6, 0.4]])
        res = kmeans(pts, QUAD2, ClusterConfig(
            k=1, divergence="biskew:kl",
            params={"gamma": gamma, "delta": delta}))
        assert res.center_solves
        assert all(on_edge for *_, on_edge in res.center_solves)
        expected = [0.64, 0.84] if corner == "upper" else [0.16, 0.36]
        assert np.allclose(res.centers[0], expected, atol=1e-8)

    def test_unchanged_labels_end_the_run(self):
        # k = 1 keeps every label from the start, so the first iteration
        # already reaches the fixed point; a second would repeat its solve
        pts = np.array([[0.2, 0.8], [0.3, 0.7], [0.6, 0.4]])
        res = kmeans(pts, QUAD2, ClusterConfig(
            k=1, divergence="biskew:kl",
            params={"gamma": 0.2, "delta": 0.7}))
        assert res.iterations == 1
        assert len(res.center_solves) == 1
        assert res.center_solves[0][:2] == (1, 0)
        assert len(res.objective_trace) == 2

    def test_capped_search_is_recorded(self, monkeypatch):
        def one_sweep(*args, **kwargs):
            return coordinate_minimize(*args, **{**kwargs, "max_sweeps": 1})

        monkeypatch.setattr(chorddiv.clustering, "coordinate_minimize",
                            one_sweep)
        # under shannon the member mean is not the chord centroid, so the
        # one sweep allowed lowers the objective and the search is capped
        pts = np.array([[0.1, 0.3], [0.2, 0.5], [0.4, 0.2]])
        res = kmeans(pts, make_builtin("shannon_negentropy", 2),
                     ClusterConfig(k=1, divergence="bregman_chord",
                                   params={"alpha": 0.9, "beta": 1.0}))
        assert res.center_solves
        for _, _, sweeps, capped, _ in res.center_solves:
            assert sweeps == 1
            assert capped

    def test_singleton_cluster_is_not_on_edge(self):
        # a one-point cluster has a zero-width box on every coordinate
        pts = np.array([[0.0], [0.1], [0.2], [5.0]])
        res = kmeans(pts, QUAD1, ClusterConfig(
            k=2, seed=0, divergence="bregman_chord",
            params={"alpha": 0.9, "beta": 1.0}))
        single = int(res.assignments[3])
        assert np.bincount(res.assignments).tolist()[single] == 1
        solves = [r for r in res.center_solves if r[1] == single]
        assert solves
        assert not any(on_edge for *_, on_edge in solves)
