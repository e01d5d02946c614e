"""Right-sided k-means under any divergence from the registry.

Lloyd iterations with D(point : center) assignments. Centroids are found
numerically by numerics.coordinate_minimize, golden-section search per
coordinate over the cluster's bounding box (expanded by 10 percent and kept
in the positive orthant when the generator's domain or the divergence needs
positive arguments), so no closed-form minimizer and no gradient is ever
needed. Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, InfeasibleError, ParameterError, ShapeError
from .generators import Generator
from .numerics import coordinate_minimize
# Not called here: perfbench/tracing.py patches golden_minimize by this name.
from .numerics import golden_minimize  # noqa: F401
from .registry import needs_generator, resolve_divergence


@dataclass(frozen=True)
class ClusterConfig:
    """Settings for a k-means run.

    divergence is any registry identifier; params feeds its scalar
    parameters (alpha, beta, ...). centroid_tol bounds per-coordinate
    centroid movement inside a center update; objective_tol stops the Lloyd
    loop once an iteration improves the objective by less than that.
    """

    k: int
    divergence: str = "bregman"
    params: Mapping[str, float] = field(default_factory=dict)
    max_iters: int = 100
    seed: int = 0
    centroid_tol: float = 1e-8
    objective_tol: float = 1e-10

    def __post_init__(self):
        if int(self.k) < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if int(self.max_iters) < 1:
            raise ParameterError(
                f"max_iters must be >= 1, got {self.max_iters}"
            )
        if not (self.centroid_tol > 0.0 and self.objective_tol > 0.0):
            raise ParameterError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Outcome of a k-means run.

    objective_trace holds the objective after the initial assignment and
    after each Lloyd iteration; it is non-increasing up to the centroid
    solver tolerance.
    """

    centers: np.ndarray
    assignments: np.ndarray
    objective_trace: tuple
    iterations: int


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
    """Sum over points of D(point : assigned center), in index order."""
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


def _assign(pts: np.ndarray, centers: np.ndarray, D) -> np.ndarray:
    n, k = pts.shape[0], centers.shape[0]
    labels = np.empty(n, dtype=int)
    for i in range(n):
        best, best_j = math.inf, 0
        for j in range(k):
            d = float(D(pts[i], centers[j]))
            if d < best:  # ties keep the lowest center index
                best, best_j = d, j
        labels[i] = best_j
    return labels


def _repair_empty(labels: np.ndarray, k: int,
                  dist_to_center: np.ndarray) -> np.ndarray:
    """Give each empty cluster the point farthest from its current center.

    Clusters are repaired in ascending index order; a point already promoted
    to a singleton is not moved again. Deterministic: ties resolve to the
    lowest point index.
    """
    labels = labels.copy()
    taken = np.zeros(labels.shape[0], dtype=bool)
    for j in range(k):
        if np.any(labels == j):
            continue
        eligible = ~taken
        # keep clusters of size one intact, they cannot donate their point
        for owner in np.unique(labels):
            members = np.flatnonzero(labels == owner)
            if members.size == 1:
                eligible[members[0]] = False
        if not np.any(eligible):
            break
        cand = np.flatnonzero(eligible)
        worst = cand[int(np.argmax(dist_to_center[cand]))]
        labels[worst] = j
        taken[worst] = True
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


def _update_center(members: np.ndarray, F: Generator, D, tol: float,
                   positive: bool = False) -> np.ndarray:
    """Numerical right centroid: argmin_c sum_i D(x_i : c).

    Coordinate-wise golden-section search over the expanded bounding box,
    started from the arithmetic mean. Each slice is solved to
    min(tol, 1e-9); sweeps stop once no coordinate moves by more than tol.
    The box stays in the positive orthant when F's domain is positive or
    when positive is set, for divergences that read points as positive
    weights.
    """
    lo, hi = _centroid_box(members, positive or F.domain.kind == "positive")

    def total(c: np.ndarray) -> float:
        return sum(float(D(x, c)) for x in members)

    return coordinate_minimize(total, lo, hi, x0=members.mean(axis=0),
                               tol=min(tol, 1e-9), max_sweeps=100,
                               stop_tol=tol)


def kmeans(points, F: Generator, cfg: ClusterConfig) -> ClusterResult:
    """Lloyd k-means under the configured divergence.

    Centers are initialized to k distinct data points drawn uniformly with
    the configured seed. Each iteration updates every center numerically,
    reassigns points to the divergence-nearest center (right argument), and
    hands any emptied cluster the point farthest from its own center. Stops
    when the objective improves by less than objective_tol or after
    max_iters iterations.
    """
    pts = _as_matrix(points)
    if pts.shape[1] != F.dim:
        raise ShapeError(
            f"points have dimension {pts.shape[1]} but generator {F.name} "
            f"expects {F.dim}"
        )
    for i in range(pts.shape[0]):
        if not F.domain.contains(pts[i]):
            raise DomainError(
                f"point {pts[i].tolist()} at row {i} is outside the "
                f"{F.domain.kind} domain of {F.name}"
            )
    distinct = np.unique(pts, axis=0)
    if cfg.k > distinct.shape[0]:
        raise InfeasibleError(
            f"k={cfg.k} exceeds the {distinct.shape[0]} distinct points"
        )
    D = resolve_divergence(cfg.divergence, F, cfg.params)
    positive = not needs_generator(cfg.divergence)

    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(distinct.shape[0], size=cfg.k, replace=False)
    centers = distinct[np.sort(chosen)].copy()

    labels = _assign(pts, centers, D)
    trace = [objective(pts, labels, centers, D)]
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        for j in range(cfg.k):
            members = pts[labels == j]
            if members.size:
                centers[j] = _update_center(members, F, D, cfg.centroid_tol,
                                            positive)
        labels = _assign(pts, centers, D)
        dist = np.array(
            [float(D(pts[i], centers[labels[i]]))
             for i in range(pts.shape[0])]
        )
        labels = _repair_empty(labels, cfg.k, dist)
        trace.append(objective(pts, labels, centers, D))
        if trace[-2] - trace[-1] < cfg.objective_tol:
            break
    return ClusterResult(
        centers=centers,
        assignments=labels,
        objective_trace=tuple(trace),
        iterations=iterations,
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
