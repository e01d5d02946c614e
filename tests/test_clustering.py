"""k-means under registry divergences: Lloyd loop, repair, centroids, ARI."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

import chorddiv.clustering
import chorddiv.numerics
import chorddiv.registry
from chorddiv import (
    BUILTIN_GENERATORS,
    ClusterConfig,
    DomainError,
    Generator,
    InfeasibleError,
    ParameterError,
    ShapeError,
    adjusted_rand_index,
    coordinate_minimize,
    kmeans,
    make_builtin,
    resolve_divergence,
)
from chorddiv.bregman import chord_gap
from chorddiv.clustering import (
    _cccp_centers,
    _centroid_box,
    _distances,
    _distinct_rows,
    _lockstep_centers,
    _repair_empty,
    _sum_in_order,
    _update_center,
    objective,
)
from chorddiv.generators import (DOMAIN_MARGIN, REALS, SEPARABLE, Bound,
                                 Domain, coincide)
from chorddiv.jensen import JensenChordParams, jensen_gap
from chorddiv.numerics import (Minimum, golden_lockstep, golden_minimize,
                               on_box_edge)
from chorddiv.registry import center_rule, needs_generator, resolve_bound
from chorddiv.verify import clustering_dataset

from test_bregman import paired

QUAD1 = make_builtin("quadratic", 1)
QUAD2 = make_builtin("quadratic", 2)
BURG1 = make_builtin("burg_negentropy", 1)


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
        ({"k": True}, "k must be an integer, got True"),
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

    def test_sums_left_to_right(self):
        """Every objective is added left to right on every Python: a
        compensated sum (the built-in sum from 3.12 on) gives 1.0 here."""
        assert _sum_in_order([1e16, 1.0, -1e16]) == 0.0
        assert _sum_in_order(iter([0.5, np.float64(0.25)])) == 0.75


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
        found = _update_center(members, QUAD2, resolve_bound("bregman", QUAD2))
        assert np.max(np.abs(found.x - members.mean(axis=0))) <= 1e-6
        assert not (found.capped or found.on_edge)

    def test_search_from_the_centroid_stops_at_once(self):
        # quadratic chord: the centroid is the member mean, where the
        # search starts; a sweep cannot lower the objective from there
        members = np.random.default_rng(0).uniform(0.2, 3.0, (4, 2))
        bind = resolve_bound("bregman_chord", QUAD2,
                             {"alpha": 0.9, "beta": 1.0})
        found = _update_center(members, QUAD2, bind)
        assert not found.capped
        assert found.sweeps <= 3
        assert np.max(np.abs(found.x - members.mean(axis=0))) <= 1e-6

    def test_positive_domain_center_stays_positive(self):
        F = make_builtin("shannon_negentropy", 1)
        members = np.array([[0.2], [0.4], [0.9]])
        found = _update_center(members, F, resolve_bound("bregman", F))
        assert found.x[0] > 0.0

    @pytest.mark.parametrize("gen", ["log_sum_exp", "quadratic"])
    def test_block_search_equals_the_per_pair_search(self, gen):
        # generators that are not separable, whose objective has no
        # lockstep search: coordinate descent bound to the members
        F = make_builtin(gen, 2)
        params = {"alpha": 0.9, "beta": 1.0}
        assert center_rule("bregman_chord", F, params)[0] != "lockstep"
        members = np.random.default_rng(4).uniform(0.2, 3.0, (7, 2))
        D = resolve_divergence("bregman_chord", F, params)
        lo, hi = _centroid_box(members, F.domain.kind == "positive")
        per_pair = coordinate_minimize(
            lambda c: sum(float(D(x, c)) for x in members), lo, hi,
            x0=members.mean(axis=0))
        found = _update_center(members, F,
                               resolve_bound("bregman_chord", F, params))
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

    @pytest.mark.parametrize("div,params", [
        ("bregman", {}), ("bregman_chord", {"alpha": 0.9, "beta": 1.0}),
        ("bregman_tangent", {"alpha": 0.5})])
    def test_point_vector_is_a_column(self, div, params):
        # a 1-D vector of points is the (n, 1) matrix of them, bit for bit
        points, _ = two_group_points()
        F = make_builtin("shannon_negentropy", 1)
        cfg = ClusterConfig(k=2, divergence=div, params=params)
        got, want = kmeans(points[:, 0], F, cfg), kmeans(points, F, cfg)
        assert got.centers.tobytes() == want.centers.tobytes()
        assert np.array_equal(got.assignments, want.assignments)
        assert got.objective_trace == want.objective_trace
        assert got.center_solves == want.center_solves

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
        with pytest.raises(DomainError,
                           match=r"row 0 to center 0 \[3e\+200\]"):
            kmeans(pts, QUAD1, ClusterConfig(k=2, divergence=div))

    @pytest.mark.parametrize("div", ["bregman", "jensen",
                                     "bregman_tangent"])
    def test_overflow_at_binding_raises_the_pass_error(self, div):
        # F(1e308) = 1e308 log 1e308 overflows when the points are bound;
        # no numpy warning escapes, and the pass names the bad distance
        pts = np.array([[0.5], [1e308], [2.0]])
        with pytest.raises(DomainError, match=r"^divergence from point "):
            kmeans(pts, make_builtin("shannon_negentropy", 1), ClusterConfig(
                k=2, divergence=div, params={"alpha": 0.5}))

    def test_overflow_at_a_members_binding_is_not_a_warning(self):
        # coordinate descent binds each cluster's members; an overflow
        # there gives a non-finite objective, not a numpy warning
        F = make_builtin("shannon_negentropy", 1)
        members = np.array([[0.5], [1e308], [2.0]])
        bind = resolve_bound("bregman_tangent", F, {"alpha": 0.5})
        with pytest.raises(DomainError, match="^objective is nan"):
            _update_center(members, F, bind)

    @pytest.mark.parametrize("div", ["kl", "ekl", "fdiv:kl",
                                     "biskew:fdiv:chi2"])
    def test_weight_divergence_rejects_non_positive_row(self, div):
        pts = np.array([[0.5, 0.5], [0.1, 0.0], [2.9, 3.0]])
        with pytest.raises(DomainError, match="row 1"):
            kmeans(pts, QUAD2, ClusterConfig(
                k=1, divergence=div, params={"gamma": 0.2, "delta": 0.7}))

    @pytest.mark.parametrize("gen, div, rows", [
        ("shannon_negentropy", "bregman",
         [[0.5, 0.5], [0.3, np.nan], [-1.0, 2.0]]),
        ("shannon_negentropy", "bregman", [[0.5, 0.5], [0.3, 1e-12]]),
        ("quadratic", "bregman", [[0.5, 0.5], [1.0, 2.0], [np.inf, 0.0]]),
        ("quadratic", "ekl",
         [[0.5, 0.5], [0.1, 0.0], [2.9, 3.0], [-0.0, 1.0]]),
        ("quadratic", "fdiv:kl", [[1e-12, 5e-324], [0.0, 1.0], [-1.0, 1.0]]),
        ("quadratic", "fdiv:kl", [[1.0, 1.0], [-np.inf, 1.0]]),
        ("burg_negentropy", "biskew:fdiv:chi2", [[0.5, 0.5], [-0.0, 0.5]]),
    ])
    def test_first_bad_row_is_named_as_the_row_walk_names_it(self, gen, div,
                                                             rows):
        # the former check, which tested every row in turn
        F, pts = make_builtin(gen, 2), np.array(rows)
        positive = not needs_generator(div)
        with pytest.raises(DomainError) as old:
            for i in range(pts.shape[0]):
                if not F.domain.contains(pts[i]):
                    raise DomainError(
                        f"point {pts[i].tolist()} at row {i} is outside the "
                        f"{F.domain.kind} domain of {F.name}")
                if positive and not np.all(pts[i] > 0.0):
                    raise DomainError(
                        f"point {pts[i].tolist()} at row {i} is not strictly "
                        f"positive, as divergence {div!r} requires")
        with pytest.raises(DomainError) as new:
            kmeans(pts, F, ClusterConfig(
                k=1, divergence=div, params={"gamma": 0.2, "delta": 0.7}))
        assert str(new.value) == str(old.value)

    def test_points_that_pass_take_one_domain_check(self, monkeypatch):
        calls = []
        contains = Domain.contains
        monkeypatch.setattr(Domain, "contains",
                            lambda self, c: calls.append(np.shape(c))
                            or contains(self, c))
        pts = np.random.default_rng(0).uniform(0.2, 1.0, (40, 2))
        # kl raises InfeasibleError once the points have passed the checks
        with pytest.raises(InfeasibleError):
            kmeans(pts, QUAD2, ClusterConfig(k=1, divergence="kl"))
        assert calls == [(40, 2)]

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
        raise AssertionError("golden-section search called")
    for name in ("golden_minimize", "golden_lockstep"):
        monkeypatch.setattr(chorddiv.numerics, name, golden)
        monkeypatch.setattr(chorddiv.clustering, name, golden)


#: Every identifier that evaluates the generator, with the parameters it
#: reads, and biskew: of each that biskew may wrap.
GENERATOR_IDS = {
    "bregman": {},
    "bregman_dual": {},
    "bregman_chord": {"alpha": 0.9, "beta": 1.0},
    "bregman_tangent": {"alpha": 0.5},
    "bregman_chord_approx": {"epsilon": 1e-4},
    "jensen": {},
    "jensen_skewed": {"alpha": 0.3},
    "jensen_chord": {"alpha": 0.2, "beta": 0.8, "gamma": 0.5},
    "jensen_bregman": {"alpha": 0.3},
}
GENERATOR_IDS.update({
    f"biskew:{div}": {**params, "gamma": 0.1, "delta": 0.9}
    for div, params in list(GENERATOR_IDS.items()) if div != "jensen_chord"
})


def blob_points(dim, seed=7):
    rng = np.random.default_rng(seed)
    return np.vstack([0.5 + 0.1 * rng.random((6, dim)),
                      2.0 + 0.1 * rng.random((6, dim))])


def left_centroid(F, members):
    """grad F*(mean_i grad F(x_i)), the bregman_dual centroid."""
    eta = np.array([F.grad_fn(x) for x in members]).mean(axis=0)
    return F.point(F.conjugate.grad_fn(eta))


def log_mean_exp(a):
    """log mean_i e^(a_i) over the first axis, shifted by its maximum."""
    top = a.max(axis=0)
    return top + np.log(np.mean(np.exp(a - top), axis=0))


#: grad F^-1(mean_i grad F(x_i)) of the builtins without a conjugate,
#: written out. Burg's grad F(t) = -1/t is its own inverse. log_sum_exp's
#: grad F(t) = e^(t - F(t)) has 1 - sum_j grad F(t)_j = e^(-F(t)), so its
#: inverse log eta - log(1 - sum eta) is taken in log space.
INVERSE_MEAN_GRAD = {
    "burg_negentropy": lambda F, members: -1.0 / np.array(
        [F.grad_fn(x) for x in members]).mean(axis=0),
    "log_sum_exp": lambda F, members: (
        np.logaddexp.reduce(members - F.rows(members)[:, None], axis=0)
        - np.logaddexp.reduce(-F.rows(members))),
}


class TestClosedFormCentroid:
    """The member mean for bregman and ekl under every generator and for
    every generator-based id under quadratic, and the left-sided centroid
    for bregman_dual under a generator with a conjugate or under the Burg
    and log_sum_exp builtins."""

    @pytest.mark.parametrize("div,gen,dim", [
        *(("bregman", gen, dim) for gen in BUILTIN_GENERATORS
          for dim in (1, 2)),
        ("ekl", "quadratic", 2),
        *((div, "quadratic", 2) for div in GENERATOR_IDS if div != "bregman"),
    ])
    def test_centers_are_member_means(self, monkeypatch, div, gen, dim):
        forbid_golden(monkeypatch)
        pts = blob_points(dim)
        res = kmeans(pts, make_builtin(gen, dim), ClusterConfig(
            k=2, divergence=div, params=GENERATOR_IDS.get(div, {}), seed=1))
        assert sorted(np.bincount(res.assignments).tolist()) == [6, 6]
        for j, center in enumerate(res.centers):
            members = pts[res.assignments == j]
            assert np.array_equal(center, members.mean(axis=0))
        assert res.center_solves == ()

    @pytest.mark.parametrize("gen", ["shannon_negentropy", "quadratic"])
    def test_dual_centers_are_left_centroids(self, monkeypatch, gen):
        forbid_golden(monkeypatch)
        F = make_builtin(gen, 2)
        pts = blob_points(2)
        res = kmeans(pts, F, ClusterConfig(k=2, divergence="bregman_dual",
                                           seed=1))
        assert sorted(np.bincount(res.assignments).tolist()) == [6, 6]
        for j, center in enumerate(res.centers):
            members = pts[res.assignments == j]
            assert np.array_equal(center, left_centroid(F, members))
            if gen == "quadratic":
                # the member mean comes first, and the two forms agree
                assert np.array_equal(center, members.mean(axis=0))
        assert res.center_solves == ()

    @pytest.mark.parametrize("gen", INVERSE_MEAN_GRAD)
    def test_dual_centers_invert_the_mean_gradient(self, monkeypatch, gen):
        forbid_golden(monkeypatch)
        F = make_builtin(gen, 2)
        pts = blob_points(2)
        res = kmeans(pts, F, ClusterConfig(k=2, divergence="bregman_dual",
                                           seed=1))
        assert sorted(np.bincount(res.assignments).tolist()) == [6, 6]
        for j, center in enumerate(res.centers):
            members = pts[res.assignments == j]
            assert np.array_equal(center, INVERSE_MEAN_GRAD[gen](F, members))
            eta = np.array([F.grad_fn(x) for x in members]).mean(axis=0)
            if gen == "burg_negentropy":
                # the coordinate-wise harmonic mean, up to rounding
                harmonic = len(members) / np.sum(1.0 / members, axis=0)
                assert np.allclose(center, harmonic, rtol=1e-15, atol=0.0)
            else:
                # near the origin, the inverse formed from eta agrees
                assert np.allclose(center, np.log(eta) - np.log1p(-eta.sum()),
                                   rtol=0.0, atol=1e-13)
        assert res.center_solves == ()

    @pytest.mark.parametrize("shift", [40.0, -800.0])
    def test_log_sum_exp_dual_centers_hold_far_from_the_origin(self, shift):
        # at +40, 1 - sum_j of the mean gradient is below rounding, and at
        # -800 every grad F(x_i) underflows to 0; the center still solves
        # grad F(c) = mean_i grad F(x_i), checked in log space
        F = make_builtin("log_sum_exp", 2)
        members = blob_points(2)[:6] + shift
        center = center_rule("bregman_dual", F)[1](members)
        f = F.rows(members)
        assert np.all(np.isfinite(center))
        assert abs(F(center) + log_mean_exp(-f)) <= 1e-12
        assert np.allclose(center - F(center),
                           log_mean_exp(members - f[:, None]),
                           rtol=0.0, atol=1e-12)
        block = paired("bregman_dual", F, {})
        found = _update_center(members, F, resolve_bound("bregman_dual", F))
        assert np.max(np.abs(center - found.x)) <= 1e-3
        assert (block(members, center[None]).sum()
                <= block(members, found.x[None]).sum() * (1.0 + 1e-12))

    @pytest.mark.parametrize("gen,div", [
        *(("quadratic", div) for div in GENERATOR_IDS),
        ("shannon_negentropy", "bregman_dual"),
        ("burg_negentropy", "bregman_dual"),
        ("log_sum_exp", "bregman_dual"),
    ])
    def test_closed_form_matches_numeric_search(self, gen, div):
        F = make_builtin(gen, 2)
        members = blob_points(2)[:6]
        found = _update_center(members, F,
                               resolve_bound(div, F, GENERATOR_IDS[div]))
        _, centroid = center_rule(div, F)
        assert np.max(np.abs(centroid(members) - found.x)) <= 1e-6

    def test_biskew_bregman_stays_numeric(self, monkeypatch):
        # biskew:bregman is the member mean under quadratic only
        calls = []
        original = chorddiv.numerics.golden_minimize

        def golden(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(chorddiv.numerics, "golden_minimize", golden)
        pts = np.array([[0.1], [0.2], [0.4]])
        cfg = ClusterConfig(k=1, divergence="biskew:bregman",
                            params={"gamma": 0.2, "delta": 0.7})
        res = kmeans(pts, QUAD1, cfg)
        assert not calls
        assert np.array_equal(res.centers[0], pts.mean(axis=0))
        res = kmeans(pts, make_builtin("shannon_negentropy", 1), cfg)
        assert calls
        assert res.center_solves


class TestClosedFormKey:
    """The quadratic closed form and the inverse gradients of the builtins
    without a conjugate key on make_builtin's builtin field."""

    @pytest.mark.parametrize("name", INVERSE_MEAN_GRAD)
    def test_custom_dual_generator_named_like_a_builtin_stays_numeric(
            self, name):
        builtin = make_builtin(name, 1)
        custom = dataclasses.replace(builtin, builtin=None)
        pts = np.array([[0.1], [0.2], [0.4]])
        res = kmeans(pts, custom, ClusterConfig(k=1,
                                                divergence="bregman_dual"))
        assert res.center_solves

    def test_custom_generator_named_quadratic_stays_numeric(self):
        exp_sum = Generator(
            name="quadratic", dim=1, domain=REALS,
            fn=lambda t: float(np.sum(np.exp(t))),
            grad_fn=np.exp)
        pts = np.array([[0.1], [0.2], [0.4]])
        res = kmeans(pts, exp_sum, ClusterConfig(
            k=1, divergence="bregman_chord",
            params={"alpha": 0.9, "beta": 1.0}))
        assert res.center_solves

    def test_rebuilt_generator_with_wrapped_callables_keeps_it(
            self, monkeypatch):
        # rebuilt from its init fields, as a tracing wrapper does
        calls = []

        def wrap(fn):
            def wrapped(*args):
                calls.append(fn)
                return fn(*args)
            return wrapped

        fields = {f.name: getattr(QUAD2, f.name)
                  for f in dataclasses.fields(QUAD2) if f.init}
        for name in ("fn", "grad_fn", "rows"):
            fields[name] = wrap(fields[name])
        F = Generator(**fields)
        forbid_golden(monkeypatch)
        pts = blob_points(2)
        res = kmeans(pts, F, ClusterConfig(
            k=2, divergence="bregman_chord",
            params={"alpha": 0.9, "beta": 1.0}, seed=1))
        assert QUAD2.rows in calls
        for j, center in enumerate(res.centers):
            members = pts[res.assignments == j]
            assert np.array_equal(center, members.mean(axis=0))
        assert res.center_solves == ()


def conjugate_expsum(dim):
    """F(t) = sum_j exp(t_j), with its gradient and its conjugate
    F*(s) = sum_j s_j log s_j - s_j, named like a separable builtin."""
    conjugate = Generator(name="expsum*", dim=dim, domain=Domain("positive"),
                          fn=lambda s: float(np.sum(s * np.log(s) - s)),
                          grad_fn=np.log)
    return Generator(name="shannon_negentropy", dim=dim, domain=REALS,
                     fn=lambda t: float(np.sum(np.exp(t))), grad_fn=np.exp,
                     conjugate=conjugate)


#: The routing table's generators at d = 2: the builtins, then two custom
#: generators named like builtins, one with a gradient and a conjugate and
#: one with fn only. The rules key on make_builtin's builtin field, never
#: on the name.
ROUTE_GENERATORS = {
    **{gen: make_builtin(gen, 2) for gen in BUILTIN_GENERATORS},
    "conjugate": conjugate_expsum(2),
    "fn only": Generator(name="quadratic", dim=2, domain=REALS,
                         fn=lambda t: float(np.sum(np.exp(t)))),
}
ROUTE_PARAMS = {"alpha": 0.5, "beta": 1.0, "gamma": 0.5, "delta": 0.7,
                "epsilon": 1e-3}

#: The center path of every known_divergences() family, <name> expanded
#: to chi2 after fdiv and to bregman_chord after biskew:, under each
#: ROUTE_GENERATORS column in order.
ROUTES = {
    "bregman": "mean mean mean mean mean mean",
    "bregman_dual": "mean left left left left descent",
    "bregman_chord": "mean cccp cccp cccp cccp descent",
    "bregman_tangent": "mean descent descent descent descent descent",
    "bregman_chord_approx": "mean cccp cccp cccp cccp descent",
    "jensen": "mean cccp cccp cccp cccp descent",
    "jensen_skewed": "mean cccp cccp cccp cccp descent",
    "jensen_chord": "mean lockstep lockstep descent descent descent",
    "jensen_bregman": "mean cccp cccp cccp cccp descent",
    "kl": "descent descent descent descent descent descent",
    "ekl": "mean mean mean mean mean mean",
    "fdiv:<name>": "descent descent descent descent descent descent",
    "fdiv_dual:<name>": "descent descent descent descent descent descent",
    "fdiv_jsym:<name>": "descent descent descent descent descent descent",
    "fdiv_jssym:<name>": "descent descent descent descent descent descent",
    "biskew:<name>": "mean descent descent descent descent descent",
}


#: The f-divergence ids of tv and their biskew: wrappers, and the
#: constant w with D(x : c) = w sum_j |c_j - x_j| under TV_PARAMS: tv is
#: self-dual, and a biskew: wrapper scales its id's by |delta - gamma|.
TV_PARAMS = {"gamma": 0.1, "delta": 0.9}
_TV_WEIGHTS = {"fdiv:tv": 0.5, "fdiv_dual:tv": 0.5, "fdiv_jsym:tv": 0.5,
               "fdiv_jssym:tv": 0.25}
TV_IDS = {**_TV_WEIGHTS,
          **{"biskew:" + div: 0.8 * w for div, w in _TV_WEIGHTS.items()}}


class TestCenterRule:
    """registry.center_rule routes every id under every generator to one
    of its center paths, and kmeans resolves it once per run."""

    @pytest.mark.parametrize("column,gen", enumerate(ROUTE_GENERATORS))
    @pytest.mark.parametrize("family", chorddiv.registry.known_divergences())
    def test_routes_every_family(self, family, column, gen):
        div = family.replace("<name>", "chi2" if "fdiv" in family
                             else "bregman_chord")
        F = ROUTE_GENERATORS[gen]
        path, rule = center_rule(div, F, ROUTE_PARAMS)
        assert path == ROUTES[family].split()[column]
        members = blob_points(2)[:6]
        if path == "mean":
            assert rule(members).tobytes() == members.mean(axis=0).tobytes()
        elif path == "left":
            # grad F at the center is the members' mean gradient
            eta = np.mean([F.grad(x) for x in members], axis=0)
            np.testing.assert_allclose(F.grad(rule(members)), eta,
                                       rtol=1e-12, atol=0.0)
        elif path == "cccp":
            # one concave-convex step from c: grad F at the next center is
            # the mean gradient at the interpolants (1 - w) x_i + w c
            w = (1.0 - ROUTE_PARAMS["epsilon"]
                 if family == "bregman_chord_approx" else 0.5)
            c = members.mean(axis=0) + 0.1
            groups = (np.array([0]), np.array([[len(members)]]))
            step, = rule(members, groups)(np.broadcast_to(c, members.shape))
            eta = np.mean([F.grad((1.0 - w) * x + w * c) for x in members],
                          axis=0)
            np.testing.assert_allclose(F.grad(step), eta, rtol=1e-12,
                                       atol=0.0)
        elif path == "lockstep":
            # the id's block under the builtin at dim 1
            X, Y = members.reshape(-1, 1), members[::-1].reshape(-1, 1)
            f = make_builtin(gen, 1)
            want = paired(div, f, ROUTE_PARAMS)(X, Y)
            got = rule(X)(Y, np.arange(len(Y)))
            assert got.tobytes() == want.tobytes()
        else:
            assert rule is None

    @pytest.mark.parametrize("gen,div,params", [
        ("shannon_negentropy", "bregman", {}),
        ("burg_negentropy", "bregman_dual", {}),
        ("burg_negentropy", "jensen", {}),
        ("log_sum_exp", "bregman_chord", {"alpha": 0.9, "beta": 1.0}),
    ])
    def test_kmeans_resolves_it_once_per_run(self, monkeypatch, gen, div,
                                              params):
        calls = []

        def spy(*args):
            calls.append(args)
            return center_rule(*args)

        monkeypatch.setattr(chorddiv.clustering, "center_rule", spy)
        F = make_builtin(gen, 2)
        res = kmeans(blob_points(2), F, ClusterConfig(
            k=3, divergence=div, params=params, seed=1))
        assert res.iterations > 1
        assert calls == [(div, F, params)]
        closed = center_rule(div, F, params)[0] not in ("cccp", "lockstep",
                                                        "descent")
        assert (res.center_solves == ()) is closed

    @pytest.mark.parametrize("gen", ROUTE_GENERATORS)
    @pytest.mark.parametrize("div", TV_IDS)
    def test_tv_centers_are_the_coordinatewise_median(self, div, gen):
        path, rule = center_rule(div, ROUTE_GENERATORS[gen], TV_PARAMS)
        assert path == "median"
        # an odd count has one median, an even count the middle pair's
        # midpoint
        for members in (blob_points(2)[:7], blob_points(2)[:6]):
            want = np.median(members, axis=0)
            assert rule(members).tobytes() == want.tobytes()

    @pytest.mark.parametrize("div,weight", TV_IDS.items())
    def test_tv_ids_are_multiples_of_the_l1_distance(self, div, weight):
        X = blob_points(3)
        Y = X[::-1] + 0.05
        got = paired(div, None, TV_PARAMS)(X, Y)
        np.testing.assert_allclose(
            got, weight * np.abs(Y - X).sum(axis=1), rtol=1e-12, atol=0.0)

    def test_tv_median_is_not_above_the_search(self):
        # the search's point lies on or above the flat minimum the median
        # sits in; a biskew: wrapper's interpolants round, which moves its
        # objective along that minimum by an ulp or so
        members = np.random.default_rng(3).uniform(0.2, 2.0, (8, 2))
        for div in TV_IDS:
            slack = 1e-15 if div.startswith("biskew:") else 0.0
            block = paired(div, None, TV_PARAMS)

            def total(c):
                return float(np.sum(block(members, np.asarray(c)[None])))

            found = _update_center(members, QUAD2,
                                   resolve_bound(div, None, TV_PARAMS),
                                   positive=True)
            median = center_rule(div, QUAD2, TV_PARAMS)[1](members)
            assert total(median) <= total(found.x) * (1.0 + slack)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_tv_ids_give_one_clustering(self, dim):
        pts = np.random.default_rng(5).uniform(0.3, 2.5, (17, dim))
        runs = [kmeans(pts, QUAD2 if dim == 2 else QUAD1, ClusterConfig(
            k=3, divergence=div, params=TV_PARAMS, seed=1))
            for div in TV_IDS]
        for res in runs:
            assert res.center_solves == ()
            assert res.centers.tobytes() == runs[0].centers.tobytes()
            assert res.assignments.tolist() == runs[0].assignments.tolist()
        for j, center in enumerate(runs[0].centers):
            members = pts[runs[0].assignments == j]
            assert center.tobytes() == np.median(members, axis=0).tobytes()


class TestDistanceMatrix:
    def test_one_call_of_n_times_k_rows_per_pass(self, monkeypatch):
        # bregman has a block kernel: one call per pass, every point
        # against every center
        calls = []

        def counting_resolve(*args, **kwargs):
            bind = resolve_bound(*args, **kwargs)

            def counted_bind(X):
                bound = bind(X)

                def counted(C, J):
                    calls.append(np.broadcast_shapes((len(X),),
                                                     np.shape(J)))
                    return bound(C, J)
                return counted
            return counted_bind

        monkeypatch.setattr(chorddiv.clustering, "resolve_bound",
                            counting_resolve)
        points, _ = clustering_dataset(seed=2)
        k = 3
        res = kmeans(points, QUAD1, ClusterConfig(k=k, seed=2))
        assert res.iterations >= 2
        assert calls == [(k, points.shape[0])] * (res.iterations + 1)

    @pytest.mark.parametrize("div,params", [
        ("bregman", {}),
        ("bregman_chord", {"alpha": 0.3, "beta": 0.8}),
        ("bregman_tangent", {"alpha": 0.6}),  # the tangent block
    ])
    def test_one_block_call_per_pass(self, div, params):
        F = make_builtin("shannon_negentropy", 2)
        pts = np.random.default_rng(5).uniform(0.2, 2.0, (9, 2))
        centers = pts[[1, 4, 6]]
        bound = resolve_bound(div, F, params)(pts)
        calls = []

        def counted(C, J):
            calls.append((C, J))
            return bound(C, J)

        dist = _distances(pts, centers, counted)
        assert len(calls) == 1
        C, J = calls[0]
        # the centers once, each against every point, center by center
        assert C.tobytes() == centers.tobytes()
        assert np.broadcast_to(J, (3, 9)).tolist() == [[j] * 9
                                                       for j in range(3)]
        D = resolve_divergence(div, F, params)
        per_pair = np.array([[float(D(x, c)) for c in centers]
                             for x in pts])
        assert dist.shape == (9, 3)
        assert dist.tobytes() == per_pair.tobytes()
        # a center is a point of pts: its own row holds 0.0
        assert dist[1, 0] == dist[4, 1] == dist[6, 2] == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 16, 40])  # 40 > SMALL_ARRAY
    @pytest.mark.parametrize("gen", [*BUILTIN_GENERATORS, "custom"])
    @pytest.mark.parametrize("div,params", [
        ("bregman", {}),
        ("bregman_dual", {}),
        ("bregman_tangent", {"alpha": 1.0}),
        ("bregman_tangent", {"alpha": 0.6}),
    ])
    def test_gradient_pass_equals_the_per_pair_kernel(self, div, params,
                                                      gen, dim):
        # the stacked matmul broadcasts each center's gradient row over
        # the points and rounds each dot product as np.dot does; custom
        # has a gradient but no rows
        F = (conjugate_expsum(dim) if gen == "custom"
             else make_builtin(gen, dim))
        pts = np.random.default_rng(dim).uniform(0.2, 2.0, (9, dim))
        bound = resolve_bound(div, F, params)(pts)
        D = resolve_divergence(div, F, params)
        for k in range(1, 5):
            centers = np.random.default_rng(k).uniform(0.2, 2.0, (k, dim))
            per_pair = np.array([[float(D(x, c)) for c in centers]
                                 for x in pts])
            dist = _distances(pts, centers, bound)
            assert dist.tobytes() == per_pair.tobytes()

    def test_first_non_finite_named_in_row_major_order(self):
        # (2, 1) comes first by rows, (3, 0) by centers
        pts = np.arange(8.0).reshape(4, 2)
        centers = np.array([[10.0, 11.0], [20.0, 21.0]])
        bad = {(3, 0): np.inf, (2, 1): np.nan}

        def bound(C, J):
            # row j of the call is center J[j] against every point
            return np.array([[bad.get((i, j), 1.0) for i in range(4)]
                             for j in np.ravel(J)])

        with pytest.raises(DomainError, match=(
                r"^divergence from point \[4\.0, 5\.0\] at row 2 to center "
                r"1 \[20\.0, 21\.0\] is not finite: nan$")):
            _distances(pts, centers, bound)

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
        # Burg has no closed-form chord centroid; the points are positive
        points, _ = clustering_dataset(seed=0)
        res = kmeans(points, BURG1, ClusterConfig(
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
        monkeypatch.setattr(chorddiv.numerics, "MAX_SWEEPS", 1)
        # log_sum_exp is not separable and a chord with no anchor at 1 has
        # no concave-convex step, so its search is coordinate-wise; the
        # member mean is not the chord centroid there, so the one sweep
        # allowed lowers the objective and the search is capped
        pts = np.array([[0.1, 0.3], [0.2, 0.5], [0.4, 0.2]])
        res = kmeans(pts, make_builtin("log_sum_exp", 2),
                     ClusterConfig(k=1, divergence="bregman_chord",
                                   params={"alpha": 0.3, "beta": 0.7}))
        assert res.center_solves
        for _, _, sweeps, capped, _ in res.center_solves:
            assert sweeps == 1
            assert capped

    def test_singleton_cluster_is_not_on_edge(self):
        # a one-point cluster has a zero-width box on every coordinate;
        # Burg keeps the search numeric and needs positive points
        pts = np.array([[0.1], [0.2], [0.3], [5.0]])
        res = kmeans(pts, BURG1, ClusterConfig(
            k=2, seed=0, divergence="bregman_chord",
            params={"alpha": 0.3, "beta": 0.7}))
        single = int(res.assignments[3])
        assert np.bincount(res.assignments).tolist()[single] == 1
        solves = [r for r in res.center_solves if r[1] == single]
        assert solves
        assert not any(on_edge for *_, on_edge in solves)


#: The separable builtins and the block-kernel ids the lockstep search
#: serves: a chord with both anchors below 1 and a Jensen chord with
#: alpha < beta, which have no concave-convex step.
LOCKSTEP_CASES = [
    (gen, div, params)
    for gen in SEPARABLE
    for div, params in (("bregman_chord", {"alpha": 0.3, "beta": 0.7}),
                        ("jensen_chord",
                         {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}))
]


def stacked(groups):
    """(points, rows): the member matrices in groups stacked, and each
    group's rows of them."""
    ends = np.cumsum([len(members) for members in groups])
    return np.concatenate(groups), [np.arange(end - len(members), end)
                                    for members, end in zip(groups, ends)]


def lockstep_search(groups, F, bind, coordinate):
    """_lockstep_centers on member matrices: their rows stacked are the
    points, bound by bind, and each group is its own rows."""
    pts, rows = stacked(groups)
    return _lockstep_centers(pts, rows, F, bind(pts), coordinate)


def lockstep_rule(div, F, params):
    """The 1-D binder center_rule gives div under F, on its lockstep
    path."""
    path, coordinate = center_rule(div, F, params)
    assert path == "lockstep"
    return coordinate


def lockstep_block(div, F, params):
    """The (X, Y) form of the 1-D block lockstep_rule binds: div under
    F's builtin at dim 1."""
    lockstep_rule(div, F, params)
    return paired(div, make_builtin(F.builtin, 1), params)


def shares(coordinate, X, c):
    """The (m, dim) array whose [i, j] is coordinate j's share of
    D(X[i] : c): the 1-D block coordinate on (X[i, j], c[j])."""
    X = np.asarray(X, dtype=float)
    Y = np.broadcast_to(c, X.shape)
    return coordinate(X.reshape(-1, 1), Y.reshape(-1, 1)).reshape(X.shape)


def with_coordinate(x, j, v):
    y = x.copy()
    y[j] = v
    return y


class TestLockstepCenters:
    """Under a separable builtin, an id with a block kernel takes one
    lockstep search per iteration for all of its centers."""

    @pytest.mark.parametrize("gen,div,params", LOCKSTEP_CASES)
    def test_equals_golden_minimize_per_coordinate(self, gen, div, params):
        F = make_builtin(gen, 2)
        members = np.random.default_rng(4).uniform(0.2, 3.0, (7, 2))
        block = paired(div, F, params)
        coordinate = lockstep_block(div, F, params)
        found, = lockstep_search([members], F, resolve_bound(div, F, params),
                                 lockstep_rule(div, F, params))
        mean = members.mean(axis=0)
        lo, hi = _centroid_box(members, True)
        want = np.array([golden_minimize(
            lambda v, j=j: shares(coordinate, members,
                                  with_coordinate(mean, j, v)).sum(axis=0)[j],
            lo[j], hi[j])
            for j in range(2)])
        assert found.x.tobytes() == want.tobytes()
        # the point found is lower than the mean, so the search took it
        assert (sum(block(members, want[None]))
                < sum(block(members, mean[None])))
        assert (found.sweeps, found.capped) == (1, False)
        assert found.on_edge == on_box_edge(found.x, lo, hi)

    @pytest.mark.parametrize("gen,div,params", LOCKSTEP_CASES)
    def test_shares_sum_to_the_block(self, gen, div, params):
        F = make_builtin(gen, 3)
        rng = np.random.default_rng(9)
        X = rng.uniform(0.2, 3.0, (6, 3))
        c = rng.uniform(0.2, 3.0, 3)
        X[2] = c  # a coinciding row gives zeros
        S = shares(lockstep_block(div, F, params), X, c)
        assert S.shape == (6, 3)
        assert not S[2].any()
        np.testing.assert_allclose(S.sum(axis=1),
                                   paired(div, F, params)(X, c[None]),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("gen,div,params", LOCKSTEP_CASES)
    def test_kmeans_records_one_sweep_and_matches_coordinate_descent(
            self, monkeypatch, gen, div, params):
        F = make_builtin(gen, 2)
        pts = blob_points(2)
        cfg = ClusterConfig(k=2, divergence=div, params=params, seed=1)
        res = kmeans(pts, F, cfg)
        assert res.center_solves
        for _, _, sweeps, capped, _ in res.center_solves:
            assert (sweeps, capped) == (1, False)
        monkeypatch.setattr(chorddiv.clustering, "center_rule",
                            lambda *args: ("descent", None))
        swept = kmeans(pts, F, cfg)
        assert any(sweeps > 1 for _, _, sweeps, _, _ in swept.center_solves)
        assert np.array_equal(res.assignments, swept.assignments)
        assert np.max(np.abs(res.centers - swept.centers)) <= 1e-6
        assert res.objective_trace[-1] == pytest.approx(
            swept.objective_trace[-1], rel=1e-12)

    @pytest.mark.parametrize("slope,on_edge", [(1.0, True), (0.0, False)])
    def test_on_edge_follows_the_minimum_rule(self, slope, on_edge):
        # D(x : c) = sum_j slope c_j + (c_j - x_j)^2 / 100: with slope 1
        # every coordinate's minimizer lies below the box, at its edge
        members = np.array([[1.0, 2.0], [1.5, 2.2], [1.2, 2.6]])

        def bind(X):  # D bound to X: (C, J) -> D(X[i] : C[J[..., i]])
            def bound(C, J):
                Y = C[J]
                return (slope * Y + (Y - X) ** 2 / 100.0).sum(axis=-1)
            return bound

        # the sum over coordinates is the one term of a 1-D point
        found, = lockstep_search([members], QUAD2, bind, bind)
        lo, hi = _centroid_box(members, False)
        assert found.on_edge is on_edge
        assert found.on_edge == on_box_edge(found.x, lo, hi)
        if on_edge:
            assert np.allclose(found.x, lo, atol=1e-8)
        else:
            assert np.allclose(found.x, members.mean(axis=0), atol=1e-8)

    def test_keeps_the_mean_when_the_search_is_not_lower(self, monkeypatch):
        # a search that lands on a box corner is higher than the mean
        monkeypatch.setattr(chorddiv.clustering, "golden_lockstep",
                            lambda g, lo, hi: np.asarray(lo))
        F = make_builtin("shannon_negentropy", 2)
        members = np.random.default_rng(4).uniform(0.2, 3.0, (7, 2))
        params = {"alpha": 0.3, "beta": 0.7}
        found, = lockstep_search(
            [members], F, resolve_bound("bregman_chord", F, params),
            lockstep_rule("bregman_chord", F, params))
        assert np.array_equal(found.x, members.mean(axis=0))
        assert (found.sweeps, found.capped, found.on_edge) == (1, False,
                                                               False)


def per_center_lockstep(members, F, block, positive, coordinate):
    """The per-center lockstep search that _lockstep_centers replaced:
    one golden_lockstep over one cluster's box, then one block call at
    the member mean and one at the point found."""
    lo, hi = _centroid_box(members, positive or F.domain.kind == "positive")

    def total(c):
        return _sum_in_order(block(members, c[None]).tolist())

    start = members.mean(axis=0)
    found = golden_lockstep(
        lambda c: shares(coordinate, members, c).sum(axis=0), lo, hi)
    values = [total(start), total(found)]
    for x, value in zip((start, found), values):
        if not math.isfinite(value):
            raise DomainError(f"objective is {value} at {x.tolist()}")
    x = found if values[1] < values[0] else start
    return Minimum(x, 1, False, on_box_edge(x, lo, hi))


#: The gradient-free block-kernel ids the lockstep search serves: chord
#: anchors in either order, and Jensen chords with gamma inside and at
#: an end of [alpha, beta].
BATCH_IDS = [("bregman_chord", {"alpha": 0.3, "beta": 0.7}),
             ("bregman_chord", {"alpha": 0.9, "beta": 0.5}),
             ("jensen_chord", {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}),
             ("jensen_chord", {"alpha": 0.1, "beta": 0.6, "gamma": 0.6})]


def same_minimum(got, want):
    return got.x.tobytes() == want.x.tobytes() and got[1:] == want[1:]


#: The coordinate terms of the separable builtins, F(t) = sum_j
#: terms(t)_j, the row evaluator the lockstep search once ran its block
#: kernel under.
OLD_TERMS = {"shannon_negentropy": lambda T: T * np.log(T),
             "burg_negentropy": lambda T: -np.log(T)}


def old_terms_table(gen, X, Y, lams):
    """The table of coordinate terms the lockstep search once evaluated,
    on a block Y of second points: the (m, len(lams), dim) array of
    OLD_TERMS[gen] at the interpolants (1 - lam) X[i] + lam Y[i], with
    zeros on the rows that coincide with their second point."""
    lam = np.asarray(lams, dtype=float)[:, None]
    points = (1.0 - lam) * X[:, None] + lam * Y[:, None]
    live = ~coincide(X, Y)
    table = np.zeros(points.shape)
    table[live] = OLD_TERMS[gen](points[live])
    return table


def old_terms_block(gen, div, params, X, Y):
    """The (m, dim) coordinate shares of the chord or Jensen gap of each
    row pair of X and Y: its gap expression over old_terms_table's
    columns, as the block kernel once formed them."""
    a, b = params["alpha"], params["beta"]
    with np.errstate(all="ignore"):
        if div == "bregman_chord":
            t = old_terms_table(gen, X, Y, (0.0, a, b))
            return chord_gap(t[:, 0], t[:, 1], t[:, 2], a, b)
        t = old_terms_table(gen, X, Y, (0.0, a, b, 1.0))
        return jensen_gap(t[:, 0], t[:, 1], t[:, 2], t[:, 3],
                          JensenChordParams(a, b, params["gamma"]))


class TestBatchedLockstep:
    """_lockstep_centers searches all of an iteration's centers at once,
    bit for bit as one search per center, for as many objective calls as
    the longest of those searches."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("div,params", BATCH_IDS)
    @pytest.mark.parametrize("gen", SEPARABLE)
    def test_equals_the_per_center_search(self, gen, div, params, k, dim):
        F = make_builtin(gen, dim)
        block = paired(div, F, params)
        coordinate = lockstep_block(div, F, params)
        rule = lockstep_rule(div, F, params)
        rng = np.random.default_rng(100 * k + dim)
        sizes = rng.integers(2, 7, k)
        if k > 1:
            sizes[1] = 1  # a zero-width box, which takes no call
        groups = [rng.uniform(0.2, 3.0) * rng.uniform(0.5, 1.5, (m, dim))
                  for m in sizes]

        def counted():
            calls = []

            def g(X, y):
                calls.append(1)
                return coordinate(X, y)

            return calls, g

        calls = []

        def counted_rule(X):  # the rule's bound block, its calls counted
            bound = rule(X)
            return lambda C, J: calls.append(1) or bound(C, J)

        got = lockstep_search(groups, F, resolve_bound(div, F, params),
                              counted_rule)
        rounds = []
        for members, found in zip(groups, got):
            alone, h = counted()
            assert same_minimum(found,
                                per_center_lockstep(members, F, block, False,
                                                    h))
            rounds.append(len(alone))
        assert k == 1 or rounds[1] == 0
        assert len(calls) == max(rounds) > 0

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("div,params", BATCH_IDS)
    @pytest.mark.parametrize("gen", SEPARABLE)
    def test_shares_equal_the_terms_table(self, monkeypatch, gen, div, params,
                                          dim):
        # each probe round's shares, bit for bit as the block kernel run
        # on tables of coordinate terms gave them
        F = make_builtin(gen, dim)
        rng = np.random.default_rng(31 + dim)
        sizes = [4, 1, 6]
        groups = [rng.uniform(0.2, 3.0, (m, dim)) for m in sizes]
        searches = []
        monkeypatch.setattr(chorddiv.clustering, "golden_lockstep",
                            lambda g, lo, hi: searches.append(g)
                            or np.asarray(lo))
        coordinate = lockstep_block(div, F, params)
        lockstep_search(groups, F, resolve_bound(div, F, params),
                        lockstep_rule(div, F, params))
        probes = rng.uniform(0.2, 3.0, (len(sizes), dim))
        probes[0] = groups[0][2]  # a member that coincides with its probe
        got = np.array(searches[0](probes.ravel().tolist()))
        assert not shares(coordinate, groups[0][2:3], probes[0]).any()
        S = old_terms_block(gen, div, params, np.concatenate(groups),
                            np.repeat(probes, sizes, axis=0))
        ends = np.cumsum(sizes)
        want = np.concatenate([S[a:b].sum(axis=0)
                               for a, b in zip(ends - sizes, ends)])
        assert got.shape == (len(sizes) * dim,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("div,params", BATCH_IDS)
    @pytest.mark.parametrize("gen", SEPARABLE)
    def test_kmeans_equals_the_per_center_search(self, monkeypatch, gen, div,
                                                 params):
        # half the points clumped: in every case a cluster empties at the
        # first iteration, takes a point back, and is searched again
        seed, dim, k = 101, 3, 4
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.2, 3.0, (10, dim))
        pts[:5] = pts[0] * rng.uniform(0.98, 1.02, (5, dim))
        F = make_builtin(gen, dim)
        cfg = ClusterConfig(k=k, divergence=div, params=params, seed=seed)
        emptied = []
        repair = chorddiv.clustering._repair_empty

        def spy(labels, k, dist):
            emptied.append(np.bincount(labels, minlength=k).min() == 0)
            return repair(labels, k, dist)

        monkeypatch.setattr(chorddiv.clustering, "_repair_empty", spy)
        got = kmeans(pts, F, cfg)
        monkeypatch.setattr(
            chorddiv.clustering, "_lockstep_centers",
            lambda pts, groups, F, bound, rule: [
                per_center_lockstep(pts[rows], F,
                                    paired(div, F, params), False,
                                    lockstep_block(div, F, params))
                for rows in groups])
        want = kmeans(pts, F, cfg)
        assert emptied[0] and got.iterations > 1
        assert got.centers.tobytes() == want.centers.tobytes()
        assert np.array_equal(got.assignments, want.assignments)
        assert got.objective_trace == want.objective_trace
        assert got.iterations == want.iterations
        assert got.center_solves == want.center_solves


#: The benchmark's fixed cluster design (perfbench/spec.json, design seed
#: 2072): four positive points in 2-D.
BENCH_POINTS = np.array([[1.1282518686626684, 2.024482017121187],
                         [1.0926856958246813, 2.228123304634702],
                         [1.8965670030788566, 1.5541048518375142],
                         [1.8391089756071035, 1.4626825525045366]])


class TestSearchBudget:
    """Brent's parabolic steps keep the lockstep searches short, and one
    search serves all of an iteration's centers: objective calls per
    k-means run on the benchmark's design, where a search per center
    made 63, 29, 32 and 46. The concave-convex centers take few maps
    there: the one-point cluster of the first iteration takes none, and
    a cycle is three maps."""

    @pytest.mark.parametrize("gen,div,params,rounds", [
        ("shannon_negentropy", "bregman_chord", {"alpha": 0.3, "beta": 0.7},
         38),
        ("burg_negentropy", "bregman_chord", {"alpha": 0.3, "beta": 0.7},
         20),
        ("shannon_negentropy", "jensen_chord",
         {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}, 23),
        ("burg_negentropy", "jensen_chord",
         {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}, 36),
    ])
    def test_lockstep_calls_per_run(self, monkeypatch, gen, div, params,
                                    rounds):
        calls = []
        search = chorddiv.clustering.golden_lockstep

        def counted(g, lo, hi):
            return search(lambda c: calls.append(c) or g(c), lo, hi)

        monkeypatch.setattr(chorddiv.clustering, "golden_lockstep", counted)
        res = kmeans(BENCH_POINTS, make_builtin(gen, 2), ClusterConfig(
            k=2, divergence=div, params=params))
        assert res.center_solves
        labels = res.assignments.tolist()
        assert labels[0] == labels[1] != labels[2] == labels[3]
        assert len(calls) == rounds

    @pytest.mark.parametrize("gen,div,maps", [
        ("shannon_negentropy", "bregman_chord", [1, 9, 6, 6]),
        ("burg_negentropy", "bregman_chord", [1, 12, 9, 12]),
        ("shannon_negentropy", "jensen", [1, 12, 6, 9]),
        ("burg_negentropy", "jensen", [1, 12, 6, 6]),
    ])
    def test_cccp_maps_per_run(self, monkeypatch, gen, div, maps):
        # no lockstep search runs
        monkeypatch.setattr(chorddiv.clustering, "golden_lockstep", None)
        res = kmeans(BENCH_POINTS, make_builtin(gen, 2), ClusterConfig(
            k=2, divergence=div, params={"alpha": 0.9, "beta": 1.0}))
        assert res.assignments.tolist() == [1, 1, 0, 0]
        assert [sweeps for *_, sweeps, _, _ in res.center_solves] == maps
        assert not any(capped or on_edge
                       for *_, capped, on_edge in res.center_solves)


#: The ids center_rule sends to the concave-convex path, at anchors that
#: reach each weight rule: a chord anchor at 1 either side, 1 - epsilon,
#: and Jensen skews. w is the interpolation weight of the step.
CCCP_IDS = [
    ("bregman_chord", {"alpha": 0.9, "beta": 1.0}, 0.9),
    ("bregman_chord", {"alpha": 1.0, "beta": 0.4}, 0.4),
    ("bregman_chord_approx", {"epsilon": 1e-3}, 1.0 - 1e-3),
    ("jensen", {}, 0.5),
    ("jensen_skewed", {"alpha": 0.3}, 0.3),
    ("jensen_bregman", {"alpha": 0.7}, 0.7),
]

#: The generators with a left-sided centroid rule: through a conjugate
#: (shannon's, and a custom one), Burg's and log_sum_exp's own forms.
CCCP_GENERATORS = ["shannon_negentropy", "burg_negentropy", "log_sum_exp",
                   "conjugate"]

#: How far a concave-convex center's objective may lie above the
#: searches', relative to theirs. Both stop on progress, and the computed
#: objectives are sums of gaps of F values that cancel (by up to
#: 1/epsilon for bregman_chord_approx), so near a minimizer they differ
#: by rounding: 4.8e-12 at most over these cases.
CCCP_SLACK = 1e-11


def cccp_generator(gen, dim):
    return conjugate_expsum(dim) if gen == "conjugate" else make_builtin(
        gen, dim)


def cccp_search(groups, F, div, params):
    """_cccp_centers on member matrices, as lockstep_search runs
    _lockstep_centers."""
    path, step = center_rule(div, F, params)
    assert path == "cccp"
    pts, rows = stacked(groups)
    with np.errstate(all="ignore"):  # as kmeans binds its points
        bound = resolve_bound(div, F, params)(pts)
    return _cccp_centers(pts, rows, F, bound, step)


def watched(F, seen):
    """F under a domain that appends (point, verdict) to seen for each
    single point it is asked about: the per-row checks."""
    class Watched(Domain):
        def contains(self, coords):
            inside = super().contains(coords)
            if np.ndim(coords) == 1:
                seen.append((np.array(coords), inside))
            return inside

    return dataclasses.replace(F, domain=Watched(F.domain.kind))


#: Two points a few DOMAIN_MARGIN above the orthant's edge in their
#: first coordinate: under shannon bregman_chord_approx (epsilon 1e-3),
#: their center's extrapolated point falls below zero there.
EDGE_MEMBERS = np.array([[1.7e-11, 1.023952232972],
                         [3.7e-11, 1.4979515e-05]])


class TestCCCPCenters:
    """The concave-convex centers, accelerated by SQUAREM, against the
    searches they replace, and the records they leave."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("gen", CCCP_GENERATORS)
    @pytest.mark.parametrize("div,params,w", CCCP_IDS)
    def test_not_above_the_searches_and_stationary(self, div, params, w,
                                                    gen, dim):
        F = cccp_generator(gen, dim)
        rng = np.random.default_rng(7 * dim)
        members = rng.uniform(0.2, 3.0, (9, dim))
        found, = cccp_search([members], F, div, params)
        block = paired(div, F, params)

        def total(c):
            return _sum_in_order(block(members, c[None]).tolist())

        bind = resolve_bound(div, F, params)
        searched = [_update_center(members, F, bind).x]
        if gen in SEPARABLE:
            searched += [x for x, *_ in lockstep_search(
                [members], F, bind,
                resolve_bound(div, make_builtin(gen, 1), params))]
        for x in searched:
            assert total(found.x) <= total(x) + CCCP_SLACK * abs(total(x))
        assert 3 <= found.sweeps < 100 and found.sweeps % 3 == 0
        assert not (found.capped or found.on_edge)
        # the center is a fixed point of the concave-convex step
        eta = np.mean([F.grad((1.0 - w) * x + w * found.x)
                       for x in members], axis=0)
        np.testing.assert_allclose(F.grad(found.x), eta, rtol=1e-7,
                                   atol=0.0)

    def test_batch_equals_one_update_per_cluster(self):
        F = make_builtin("log_sum_exp", 2)
        rng = np.random.default_rng(11)
        groups = [rng.normal(c, 0.3, (m, 2))
                  for c, m in ((0.0, 5), (2.0, 8), (-1.0, 3))]
        got = cccp_search(groups, F, "jensen", {})
        for members, found in zip(groups, got):
            alone, = cccp_search([members], F, "jensen", {})
            assert same_minimum(found, alone)

    def test_mixed_domain_batch_equals_one_update_per_cluster(self):
        # the edge cluster's extrapolated point leaves the orthant and
        # falls back to its cycle's start, the other cluster's does not:
        # the per-row check keeps one row and rejects the other
        seen = []
        F = watched(make_builtin("shannon_negentropy", 2), seen)
        groups = [EDGE_MEMBERS, np.array([[2.0, 2.1], [2.2, 1.9],
                                          [2.1, 2.3]])]
        params = {"epsilon": 1e-3}
        got = cccp_search(groups, F, "bregman_chord_approx", params)
        assert any(not inside for _, inside in seen)
        assert any(inside for _, inside in seen)
        for members, found in zip(groups, got):
            alone, = cccp_search([members], F, "bregman_chord_approx",
                                 params)
            assert same_minimum(found, alone)

    @pytest.mark.parametrize("gen,div,nan_rows", [
        # the benchmark's command: in one cycle a map returns its start
        # exactly, so r = v = 0, the step length is 0/0 and the
        # extrapolated point NaN, in a batch of one cluster
        ("shannon_negentropy", "bregman_chord", 1),
        ("shannon_negentropy", "jensen", 0),
        ("burg_negentropy", "bregman_chord", 0),
    ])
    def test_candidates_inside_take_no_per_row_check(self, gen, div,
                                                       nan_rows):
        # a candidate array whose rows all lie in the domain passes one
        # check of the whole array: only the NaN rows are checked alone
        seen = []
        kmeans(BENCH_POINTS, watched(make_builtin(gen, 2), seen),
               ClusterConfig(k=2, divergence=div,
                             params={"alpha": 0.9, "beta": 1.0}))
        assert len(seen) == nan_rows
        assert all(np.isnan(x).all() and not inside for x, inside in seen)

    def test_extrapolation_outside_the_domain_falls_back(self):
        # shannon bregman_chord_approx on members a few DOMAIN_MARGIN
        # above the orthant's edge in one coordinate: an extrapolated
        # point falls below zero there, and the plain double step
        # carries the update on, inside the domain
        seen = []
        F = watched(make_builtin("shannon_negentropy", 2), seen)
        members = EDGE_MEMBERS
        params = {"epsilon": 1e-3}
        found, = cccp_search([members], F, "bregman_chord_approx", params)
        assert any(np.isfinite(x).all() and x.min() < 0.0
                   for x, inside in seen if not inside)
        assert F.domain.contains(found.x)
        assert not found.capped
        block = paired("bregman_chord_approx", F, params)
        mean = members.mean(axis=0)
        assert (np.sum(block(members, found.x[None]))
                < np.sum(block(members, mean[None])))

    def test_capped_update_is_recorded(self, monkeypatch):
        monkeypatch.setattr(chorddiv.numerics, "MAX_SWEEPS", 1)
        # the member mean is not the chord centroid under log_sum_exp, so
        # the one cycle allowed lowers the objective
        pts = np.array([[0.1, 0.3], [0.2, 0.5], [0.4, 0.2]])
        res = kmeans(pts, make_builtin("log_sum_exp", 2),
                     ClusterConfig(k=1, divergence="bregman_chord",
                                   params={"alpha": 0.9, "beta": 1.0}))
        assert res.center_solves == ((1, 0, 3, True, False),)

    def test_non_finite_objective_at_the_mean_raises(self):
        # F overflows at the middle point already when the points are
        # bound, under the binding's np.errstate
        pts = np.array([[0.5], [1e308], [2.0]])
        with pytest.raises(DomainError, match="^objective is "):
            cccp_search([pts], make_builtin("shannon_negentropy", 1),
                        "jensen", {})


@pytest.mark.parametrize("div,params,path", [
    ("bregman_chord", {"alpha": 0.9, "beta": 1.0}, "cccp"),
    ("bregman_chord", {"alpha": 0.3, "beta": 0.7}, "lockstep"),
    ("bregman_tangent", {"alpha": 0.5}, "descent"),
])
def test_one_point_clusters_take_no_search(monkeypatch, div, params, path):
    # the fourth point is a cluster of its own in every iteration: its
    # member is its center, recorded as one sweep that ends inside
    F = make_builtin("shannon_negentropy", 1)
    assert center_rule(div, F, params)[0] == path
    sizes = []
    for name in ("_cccp_centers", "_lockstep_centers"):
        search = getattr(chorddiv.clustering, name)
        monkeypatch.setattr(
            chorddiv.clustering, name,
            lambda pts, groups, *rest, search=search: sizes.extend(
                rows.size for rows in groups) or search(pts, groups, *rest))
    update = chorddiv.clustering._update_center
    monkeypatch.setattr(chorddiv.clustering, "_update_center",
                        lambda members, *rest: sizes.append(len(members))
                        or update(members, *rest))
    pts = np.array([[0.1], [0.2], [0.3], [5.0]])
    res = kmeans(pts, F, ClusterConfig(k=2, seed=0, divergence=div,
                                       params=params))
    single = int(res.assignments[3])
    assert res.centers[single].tobytes() == pts[3].tobytes()
    records = [r for r in res.center_solves if r[1] == single]
    assert len(records) == res.iterations
    assert all(r[2:] == (1, False, False) for r in records)
    assert sizes and min(sizes) > 1


def test_lockstep_run_binds_the_points_once(monkeypatch):
    # the points, for the passes and each search's closing call, then
    # each search's member coordinates
    inits = []
    init = Bound.__init__
    monkeypatch.setattr(Bound, "__init__", lambda self, F, X, *rest: (
        inits.append(X.shape), init(self, F, X, *rest))[1])
    res = kmeans(BENCH_POINTS, make_builtin("shannon_negentropy", 2),
                 ClusterConfig(k=2, divergence="bregman_chord",
                               params={"alpha": 0.3, "beta": 0.7}))
    assert res.iterations == 2
    assert inits == [(4, 2), (8, 1), (8, 1)]


class TestDistinctRows:
    """_distinct_rows gives the rows np.unique(pts, axis=0) gives, in the
    same order, bit for bit."""

    @pytest.mark.parametrize("pts", [
        [[0.5]],
        [[1.0, 2.0, 3.0]],
        [[2.0], [1.0], [2.0], [0.5], [1.0], [2.0]],
        [[1.0, 2.0, 0.5], [1.0, 2.0, 0.5], [0.5, 9.0, 1.0],
         [1.0, 1.0, 7.0], [0.5, 9.0, 1.0]],
        [[0.0], [-0.0], [1.0]],
        [[-0.0], [0.0], [1.0]],
        [[1.0, 0.0, 2.0], [3.0, 1.0, 1.0], [1.0, -0.0, 2.0]],
        [[1.0, -0.0, 2.0], [3.0, 1.0, 1.0], [1.0, 0.0, 2.0]],
        [[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-0.0, -0.0, -1.0]],
        [[-1.0, 2.0], [-1.0, 1.0], [-2.0, 5.0], [-1.0, 1.0]],
    ], ids=["one-row", "one-row-3d", "repeats-1d", "repeats-3d",
            "zero-then-minus-zero", "minus-zero-then-zero",
            "zero-then-minus-zero-3d", "minus-zero-then-zero-3d",
            "signed-zeros-only", "negatives"])
    def test_equals_np_unique(self, pts):
        pts = np.array(pts)
        got, want = _distinct_rows(pts), np.unique(pts, axis=0)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_equals_np_unique_on_seeded_draws(self, dim):
        rng = np.random.default_rng(dim)
        for n in (2, 5, 16, 40):
            pts = rng.integers(-2, 3, (n, dim)) * 0.5
            got, want = _distinct_rows(pts), np.unique(pts, axis=0)
            assert got.tobytes() == want.tobytes()


#: Every id kmeans accepts, at the CLI's parameters.
BLOCK_ONLY_IDS = [
    ("bregman", {}), ("bregman_dual", {}),
    ("bregman_tangent", {"alpha": 0.5}),
    ("bregman_chord", {"alpha": 0.9, "beta": 1.0}),
    ("bregman_chord_approx", {"epsilon": 1e-3}),
    ("jensen", {}), ("jensen_skewed", {"alpha": 0.3}),
    ("jensen_chord", {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}),
    ("jensen_bregman", {"alpha": 0.3}), ("ekl", {}),
    ("fdiv:chi2", {}), ("fdiv:tv", {}), ("fdiv_dual:kl", {}),
    ("fdiv_jsym:tv", {}), ("fdiv_jssym:chi2", {}),
    ("biskew:bregman_chord", {"alpha": 0.9, "beta": 1.0, "gamma": 0.1,
                              "delta": 0.9}),
    ("biskew:bregman", {"gamma": 0.1, "delta": 0.9}),
    ("biskew:ekl", {"gamma": 0.3, "delta": 0.8}),
    ("biskew:fdiv:chi2", {"gamma": 0.1, "delta": 0.9}),
]


@pytest.mark.parametrize("div,params", BLOCK_ONLY_IDS)
@pytest.mark.parametrize("gen", ["shannon_negentropy", "log_sum_exp"])
def test_kmeans_calls_no_scalar_kernel(monkeypatch, gen, div, params):
    # every registry entry's scalar kernel raises; biskew: ids are known
    # by registry.biskew, which is patched to the entry's own kernel
    def raising(key):
        def kernel(*args):
            raise AssertionError(f"kmeans called {key!r}'s scalar kernel")
        return kernel

    registry = chorddiv.registry
    for key, spec in registry.DIVERGENCES.items():
        monkeypatch.setitem(registry.DIVERGENCES, key,
                            spec._replace(kernel=raising(key)))
    monkeypatch.setattr(registry, "biskew",
                        registry.DIVERGENCES["biskew:"].kernel)
    for name in ("bregman_tangent", "bregman_dual", "f_div", "extended_kl",
                 "js_symmetrize_div"):
        monkeypatch.setattr(registry, name, raising(name))
    F = make_builtin(gen, 2)
    pts = blob_points(2)[:12]
    res = kmeans(pts, F, ClusterConfig(k=2, divergence=div, params=params,
                                       seed=1))
    assert np.isfinite(res.objective_trace).all()
