"""Right-sided k-means under any divergence from the registry.

Lloyd iterations with D(point : center) assignments. Where the registry
gives a closed-form right centroid (the member mean, for bregman and ekl),
centers take it. Otherwise they are found numerically by
numerics.coordinate_minimize, golden-section search per coordinate over the
cluster's bounding box (expanded by 10 percent and kept in the positive
orthant when the generator's domain or the divergence needs positive
arguments), so no gradient is ever needed. Each numeric solve is recorded
with how it ended; the library only records, it never warns. Each iteration
evaluates the n x k divergence matrix once. Every divergence value comes
from registry.resolve_block's evaluator, one call per block of points
against one center: bregman_chord and bregman_chord_approx validate once
per block, other ids loop their per-pair callable. Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, InfeasibleError, ShapeError
from .generators import Generator
from .numerics import Minimum, coordinate_minimize, whole_number
# Not called here: perfbench/tracing.py patches both by these names.
from .numerics import golden_minimize  # noqa: F401
from .registry import resolve_divergence  # noqa: F401
from .registry import needs_generator, resolve_block, right_centroid

#: Ids kmeans refuses, having no right centroid: sum_i kl(x_i : c) is a
#: constant minus sum_j (sum_i x_ij) log c_j, which falls without bound as
#: c grows.
NO_RIGHT_CENTROID = ("kl", "fdiv:kl")

#: Golden-section tolerance of each 1-D slice of a numeric center search.
SLICE_TOL = 1e-9


@dataclass(frozen=True)
class ClusterConfig:
    """Settings for a k-means run.

    divergence is any registry identifier; params feeds its scalar
    parameters (alpha, beta, ...). The one tolerance is the module constant
    SLICE_TOL; center searches and the Lloyd loop stop on progress.
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
    order they ran; it is () when every center is closed-form.
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
    total = 0.0
    for i in range(pts.shape[0]):
        total += float(D(pts[i], ctrs[labels[i]]))
    return total


def _distances(pts: np.ndarray, centers: np.ndarray, block) -> np.ndarray:
    """The (n, k) matrix of D(pts[i] : centers[j]), one block(pts, c) call
    per center. Raises DomainError naming the first row and center whose
    value is not finite."""
    dist = np.column_stack([block(pts, c) for c in centers])
    finite = np.isfinite(dist)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DomainError(
            f"divergence from point {pts[i].tolist()} at row {i} to center "
            f"{j} {centers[j].tolist()} is not finite: {dist[i, j]}"
        )
    return dist


def _objective_from(dist: np.ndarray, labels: np.ndarray) -> float:
    """objective() read off a _distances matrix: the same terms summed in
    the same order, so the value is bit-identical."""
    total = 0.0
    for i in range(dist.shape[0]):
        total += float(dist[i, labels[i]])
    return total


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
    """Numerical right centroid: argmin_c sum_i D(x_i : c), for divergences
    the registry gives no closed form.

    Coordinate-wise golden-section search over the expanded bounding box,
    started from the arithmetic mean, each slice solved to SLICE_TOL, until
    a sweep does not lower the objective (at most 100 sweeps). Each
    objective value is one block(members, c) call, a resolve_block
    evaluator, its values summed in index order. The box stays in the
    positive orthant when F's domain is positive or when positive is set,
    for divergences that read points as positive weights. Returns the
    search's Minimum, whose x is the center.
    """
    lo, hi = _centroid_box(members, positive or F.domain.kind == "positive")

    def total(c: np.ndarray) -> float:
        return sum(block(members, c).tolist())

    return coordinate_minimize(total, lo, hi, x0=members.mean(axis=0),
                               tol=SLICE_TOL, max_sweeps=100)


def kmeans(points, F: Generator, cfg: ClusterConfig) -> ClusterResult:
    """Lloyd k-means under the configured divergence.

    Centers are initialized to k distinct data points drawn uniformly with
    the configured seed. Each iteration updates every center (closed form
    where the registry has one, numerically otherwise), reassigns points to
    the divergence-nearest center (right argument; ties keep the lowest
    center index), and hands any emptied cluster the point farthest from its
    own center. The labels, the repair distances and the objective all come
    from one n x k divergence matrix per iteration. Stops at the first
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
    for i in range(pts.shape[0]):
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
    distinct = np.unique(pts, axis=0)
    if cfg.k > distinct.shape[0]:
        raise InfeasibleError(
            f"k={cfg.k} exceeds the {distinct.shape[0]} distinct points"
        )
    block = resolve_block(cfg.divergence, F, cfg.params)
    centroid = right_centroid(cfg.divergence)
    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(distinct.shape[0], size=cfg.k, replace=False)
    centers = distinct[np.sort(chosen)].copy()

    dist = _distances(pts, centers, block)
    labels = np.argmin(dist, axis=1)  # ties keep the lowest center index
    trace = [_objective_from(dist, labels)]
    solves = []
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        for j in range(cfg.k):
            members = pts[labels == j]
            if not members.size:
                continue
            if centroid is not None:
                centers[j] = centroid(members)
            else:
                found = _update_center(members, F, block, positive)
                centers[j] = found.x
                solves.append((iterations, j, found.sweeps, found.capped,
                               found.on_edge))
        dist = _distances(pts, centers, block)
        fresh = np.argmin(dist, axis=1)
        fresh = _repair_empty(fresh, cfg.k,
                              dist[np.arange(pts.shape[0]), fresh])
        trace.append(_objective_from(dist, fresh))
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
