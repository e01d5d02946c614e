"""Right-sided k-means under any divergence from the registry.

Lloyd iterations with D(point : center) assignments. A run takes the
first of registry.center_rule's rules that holds: three closed forms,
the member mean, the left-sided centroid grad F^-1(mean grad F) and the
coordinatewise median of the tv f-divergences, then two searches:

* lockstep, for a chord or Jensen id under a generators.SEPARABLE
  builtin (shannon_negentropy, burg_negentropy): the objective is a sum
  of one-coordinate objectives under the builtin at dim 1, so one
  numerics.golden_lockstep call searches every coordinate of every
  center of an iteration at once, in one sweep, each probe round one
  1-D block call on every member coordinate and its cluster's probe;
* coordinate descent otherwise: numerics.coordinate_minimize, a 1-D
  search per coordinate, sweep after sweep.

Both take their 1-D steps by Brent's method, golden-section search plus
parabolic steps (numerics.golden_minimize).
Both searches run over the cluster's bounding box (expanded by 10 percent
and kept in the positive orthant when the generator's domain or the
divergence needs positive arguments), so no gradient is ever needed. Each
numeric solve is recorded with how it ended; the library only records, it
never warns. Every divergence value comes from registry.resolve_block's
evaluator, the id's block kernel, called on a block of points against
one (1, dim) center row or against a block of per-row centers: the
n x k divergence matrix once per iteration, on n * k rows, each point
against each center. Each call validates once and evaluates F (and
gradients) in one row-evaluator call on a builtin generator.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, InfeasibleError, ShapeError
from .generators import Generator, finite_above
from .numerics import (Minimum, coordinate_minimize, golden_lockstep,
                       on_box_edge, whole_number)
# Not called here: perfbench/tracing.py patches both by these names.
from .numerics import golden_minimize  # noqa: F401
from .registry import resolve_divergence  # noqa: F401
from .registry import center_rule, needs_generator, resolve_block

#: Ids kmeans refuses, having no right centroid: sum_i kl(x_i : c) is a
#: constant minus sum_j (sum_i x_ij) log c_j, which falls without bound as
#: c grows.
NO_RIGHT_CENTROID = ("kl", "fdiv:kl")


@dataclass(frozen=True)
class ClusterConfig:
    """Settings for a k-means run.

    divergence is any registry identifier; params feeds its scalar
    parameters (alpha, beta, ...). There is no tolerance: each 1-D search
    takes its own from its box (numerics.golden_minimize), and center
    searches and the Lloyd loop stop on progress.
    """

    k: int
    divergence: str = "bregman"
    params: Mapping[str, float] = field(default_factory=dict)
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        whole_number("k", self.k, 1)
        whole_number("max_iters", self.max_iters, 1)
        whole_number("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Outcome of a k-means run.

    objective_trace holds the objective after the initial assignment and
    after each Lloyd iteration; every entry but the last is below the one
    before. The run ends at the first iteration that does not lower the
    objective or leaves the labels as they were, or after max_iters.
    center_solves holds one (iteration, cluster, sweeps, capped, on_edge)
    record per numeric center update, iterations counted from 1, in the
    order they ran; it is () when every center is closed-form. A lockstep
    update (a SEPARABLE builtin) reads sweeps 1 and capped False: its
    one sweep is the fixed point coordinate descent would confirm. The
    lockstep updates of one iteration share one search, but each keeps
    its own record, equal to the one a search of its cluster alone
    would leave.
    """

    centers: np.ndarray
    assignments: np.ndarray
    objective_trace: tuple
    iterations: int
    center_solves: tuple = ()


def _as_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ShapeError(
            f"points must form a non-empty (n, dim) matrix, got shape "
            f"{pts.shape}"
        )
    return pts


def _sum_in_order(values) -> float:
    """The floats of values added left to right, as every objective here
    is: the built-in sum compensates its rounding from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += float(value)
    return total


def objective(points, assignments, centers, D) -> float:
    """Sum over points of D(point : assigned center), in index order: the
    per-pair reference that kmeans's objective trace matches bit for bit."""
    pts = _as_matrix(points)
    ctrs = _as_matrix(centers)
    labels = np.asarray(assignments, dtype=int)
    if labels.shape != (pts.shape[0],):
        raise ShapeError(
            f"assignments must have shape ({pts.shape[0]},), got "
            f"{labels.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= ctrs.shape[0]):
        raise ShapeError("assignment labels out of range")
    return _sum_in_order(D(p, ctrs[j]) for p, j in zip(pts, labels))


def _distances(pts: np.ndarray, centers: np.ndarray, block) -> np.ndarray:
    """The (n, k) matrix of D(pts[i] : centers[j]) from one block call on
    n * k rows: pts once per center, each against its center, center by
    center. Raises DomainError naming the first row and center, in
    row-major order, whose value is not finite."""
    n, k = pts.shape[0], centers.shape[0]
    dist = block(np.tile(pts, (k, 1)),
                 np.repeat(centers, n, axis=0)).reshape(k, n).T
    finite = np.isfinite(dist)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DomainError(
            f"divergence from point {pts[i].tolist()} at row {i} to center "
            f"{j} {centers[j].tolist()} is not finite: {dist[i, j]}"
        )
    return dist


def _distinct_rows(pts: np.ndarray) -> np.ndarray:
    """np.unique(pts, axis=0) by a stable np.lexsort: of rows that compare
    equal (0.0 and -0.0), the first in pts is kept."""
    ordered = pts[np.lexsort(pts.T[::-1])]
    fresh = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[np.concatenate(([True], fresh))]


def _repair_empty(labels: np.ndarray, k: int,
                  dist_to_center: np.ndarray) -> np.ndarray:
    """Give each empty cluster the point farthest from its current center.

    Clusters are repaired in ascending index order; a point already promoted
    to a singleton is not moved again. Deterministic: ties resolve to the
    lowest point index.
    """
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=k)
    # a repaired cluster never empties, so the empty ones are known upfront
    for j in np.flatnonzero(sizes == 0):
        # keep clusters of size one intact, they cannot donate their point;
        # a promoted point is such a singleton
        cand = np.flatnonzero(sizes[labels] > 1)
        if not cand.size:
            break
        worst = cand[int(np.argmax(dist_to_center[cand]))]
        sizes[labels[worst]] -= 1
        sizes[j] = 1
        labels[worst] = j
    return labels


def _centroid_box(members: np.ndarray, positive: bool) -> tuple:
    lo = members.min(axis=0)
    hi = members.max(axis=0)
    width = hi - lo
    lo_x = lo - 0.1 * width
    if positive:
        # stay strictly inside the orthant: never drop below half the
        # smallest member coordinate
        lo_x = np.maximum(lo_x, 0.5 * lo)
    return lo_x, hi + 0.1 * width


def _update_center(members: np.ndarray, F: Generator, block,
                   positive: bool = False) -> Minimum:
    """Numerical right centroid by coordinate descent: argmin_c
    sum_i D(x_i : c), for the ids and generators whose center_rule is
    "descent".

    The objective value at c is one block(members, c[None]) call, a
    resolve_block evaluator, its values summed in index order. The search
    runs over the expanded bounding box, which stays in the positive
    orthant when F's domain is positive or when positive is set, for
    divergences that read points as positive weights; it starts from the
    arithmetic mean and solves each coordinate with Brent's search
    (golden section plus parabolic steps, to a tolerance taken from the
    box, as golden_minimize says), sweep after sweep, until a sweep does
    not lower the objective (at most numerics.MAX_SWEEPS sweeps). Returns
    the search's Minimum, whose x is the center.
    """
    lo, hi = _centroid_box(members, positive or F.domain.kind == "positive")
    return coordinate_minimize(
        lambda c: _sum_in_order(block(members, c[None]).tolist()), lo, hi,
        x0=members.mean(axis=0))


def _lockstep_centers(groups: list, F: Generator, block, coordinate) -> list:
    """Numerical right centroids of the member matrices in groups, all
    searched at once for a separable objective: coordinate is the rule
    center_rule gives block's id on its "lockstep" path (its 1-D block).

    One golden_lockstep call searches every coordinate of every group's
    box (_update_center's box). Each round is one coordinate call on the
    stacked members' coordinates, each against its group's probe's, and
    sums each group's shares over its own rows. One block call then
    gives each group's objective, added in index order, at its mean and
    at the point found; the center is the point found when its objective
    is below the mean's, else the mean, and a non-finite objective at
    either raises DomainError. Each center is thus, bit for bit, the one
    a search of its group alone finds. Returns one Minimum per group,
    sweeps 1 and capped False.
    """
    sizes = [members.shape[0] for members in groups]
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    stacked = np.concatenate(groups)
    boxes = [_centroid_box(members, F.domain.kind == "positive")
             for members in groups]
    lo, hi = (np.concatenate(side) for side in zip(*boxes))

    def shares(v: list) -> np.ndarray:
        probes = np.repeat(np.asarray(v).reshape(-1, F.dim), sizes, axis=0)
        S = coordinate(stacked.reshape(-1, 1),
                       probes.reshape(-1, 1)).reshape(-1, F.dim)
        return np.concatenate([S[a:b].sum(axis=0) for a, b in spans])

    found = golden_lockstep(shares, lo, hi).reshape(-1, F.dim)
    means = np.array([members.mean(axis=0) for members in groups])
    # the stacked members against their means, then against the points found
    values = block(np.concatenate([stacked, stacked]),
                   np.repeat(np.concatenate([means, found]), sizes + sizes,
                             axis=0))
    at_means, at_found = values.reshape(2, -1).tolist()
    results = []
    for (a, b), start, x, (lo_j, hi_j) in zip(spans, means, found, boxes):
        totals = [_sum_in_order(at_means[a:b]), _sum_in_order(at_found[a:b])]
        for point, total in zip((start, x), totals):
            if not math.isfinite(total):
                raise DomainError(f"objective is {total} at {point.tolist()}")
        x = x if totals[1] < totals[0] else start
        results.append(Minimum(x, 1, False, on_box_edge(x, lo_j, hi_j)))
    return results


def kmeans(points, F: Generator, cfg: ClusterConfig) -> ClusterResult:
    """Lloyd k-means under the configured divergence.

    Centers are initialized to k distinct data points drawn uniformly with
    the configured seed. Each iteration updates every center by the one
    rule registry.center_rule gives the divergence under F (a closed form,
    one lockstep search for all of the centers, or coordinate descent
    center by center), reassigns points to the divergence-nearest center
    (right argument; ties keep the lowest center index), and hands any
    emptied cluster the point farthest from its own center. The labels, the
    repair distances and the objective all come from one n x k
    divergence matrix per iteration, one block call. Stops at the first
    iteration that does not lower the objective or whose labels equal the
    labels its centers came from, or after max_iters. Every numeric center
    update leaves a record in center_solves.
    Under kl and fdiv:kl, which have no right centroid, it raises
    InfeasibleError once the points have passed their checks.
    """
    pts = _as_matrix(points)
    if pts.shape[1] != F.dim:
        raise ShapeError(
            f"points have dimension {pts.shape[1]} but generator {F.name} "
            f"expects {F.dim}"
        )
    positive = not needs_generator(cfg.divergence)
    if not (F.domain.contains(pts)
            and (not positive or finite_above(pts, 0.0))):
        for i in range(pts.shape[0]):  # name the first row outside
            if not F.domain.contains(pts[i]):
                raise DomainError(
                    f"point {pts[i].tolist()} at row {i} is outside the "
                    f"{F.domain.kind} domain of {F.name}"
                )
            if positive and not np.all(pts[i] > 0.0):
                raise DomainError(
                    f"point {pts[i].tolist()} at row {i} is not strictly "
                    f"positive, as divergence {cfg.divergence!r} requires"
                )
    if cfg.divergence in NO_RIGHT_CENTROID:
        raise InfeasibleError(
            f"divergence {cfg.divergence!r} has no right centroid: the sum "
            f"of kl(x_i : c) falls without bound as c grows; use 'ekl', "
            f"whose right centroid is the member mean"
        )
    distinct = _distinct_rows(pts)
    if cfg.k > distinct.shape[0]:
        raise InfeasibleError(
            f"k={cfg.k} exceeds the {distinct.shape[0]} distinct points"
        )
    block = resolve_block(cfg.divergence, F, cfg.params)
    path, rule = center_rule(cfg.divergence, F, cfg.params)
    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(distinct.shape[0], size=cfg.k, replace=False)
    centers = distinct[np.sort(chosen)].copy()

    dist = _distances(pts, centers, block)
    labels = np.argmin(dist, axis=1)  # ties keep the lowest center index
    # objective() read off dist: the same terms summed in the same order
    rows = np.arange(pts.shape[0])
    trace = [_sum_in_order(dist[rows, labels].tolist())]
    solves = []
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        groups = [(j, members) for j in range(cfg.k)
                  if (members := pts[labels == j]).size]
        if path not in ("lockstep", "descent"):
            for j, members in groups:
                centers[j] = rule(members)
        else:
            live = [members for _, members in groups]
            found = (_lockstep_centers(live, F, block, rule)
                     if path == "lockstep" else
                     [_update_center(members, F, block, positive)
                      for members in live])
            for (j, _), minimum in zip(groups, found):
                centers[j] = minimum.x
                solves.append((iterations, j, *minimum[1:]))
        dist = _distances(pts, centers, block)
        fresh = np.argmin(dist, axis=1)
        fresh = _repair_empty(fresh, cfg.k, dist[rows, fresh])
        trace.append(_sum_in_order(dist[rows, fresh].tolist()))
        # Unchanged labels are a fixed point: the next iteration would
        # solve the same centers again, bit for bit.
        settled = np.array_equal(fresh, labels)
        labels = fresh
        if settled or not trace[-1] < trace[-2]:
            break
    return ClusterResult(
        centers=centers,
        assignments=labels,
        objective_trace=tuple(trace),
        iterations=iterations,
        center_solves=tuple(solves),
    )


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings of the same items.

    1.0 for identical partitions (up to label permutation), around 0 for
    independent ones. Closed-form contingency computation.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ShapeError(
            f"labelings must have equal length, got {a.shape} and {b.shape}"
        )
    n = a.shape[0]
    if n == 0:
        raise ShapeError("labelings must be non-empty")
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=int)
    for i, j in zip(a_idx, b_idx):
        contingency[i, j] += 1
    sum_ij = sum(math.comb(int(x), 2) for x in contingency.ravel())
    sum_a = sum(math.comb(int(x), 2) for x in contingency.sum(axis=1))
    sum_b = sum(math.comb(int(x), 2) for x in contingency.sum(axis=0))
    total = math.comb(n, 2)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)
