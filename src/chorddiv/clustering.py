"""Right-sided k-means under any divergence from the registry.

Lloyd iterations with D(point : center) assignments. Where the registry
gives a closed-form right centroid (the member mean, for bregman and ekl),
centers take it. Otherwise they are found numerically by
numerics.coordinate_minimize, golden-section search per coordinate over the
cluster's bounding box (expanded by 10 percent and kept in the positive
orthant when the generator's domain or the divergence needs positive
arguments), so no gradient is ever needed. Each numeric solve is recorded
with how it ended; the library only records, it never warns. Each iteration
evaluates the n x k divergence matrix once. Everything is deterministic for
a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, InfeasibleError, ParameterError, ShapeError
from .generators import Generator
from .numerics import Minimum, coordinate_minimize
# Not called here: perfbench/tracing.py patches golden_minimize by this name.
from .numerics import golden_minimize  # noqa: F401
from .registry import needs_generator, resolve_divergence, right_centroid

#: Ids with no right centroid: sum_i kl(x_i : c) is a constant minus
#: sum_j (sum_i x_ij) log c_j, which falls without bound as c grows.
_NO_RIGHT_CENTROID = ("kl", "fdiv:kl")

#: A numeric center update stops once a sweep moves no coordinate by more
#: than CENTROID_TOL; each 1-D slice is solved to SLICE_TOL.
CENTROID_TOL = 1e-8
SLICE_TOL = 1e-9
#: The Lloyd loop stops once an iteration improves the objective by less.
OBJECTIVE_TOL = 1e-10


@dataclass(frozen=True)
class ClusterConfig:
    """Settings for a k-means run.

    divergence is any registry identifier; params feeds its scalar
    parameters (alpha, beta, ...). The tolerances are the module constants
    CENTROID_TOL, SLICE_TOL and OBJECTIVE_TOL.
    """

    k: int
    divergence: str = "bregman"
    params: Mapping[str, float] = field(default_factory=dict)
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if int(self.k) < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if int(self.max_iters) < 1:
            raise ParameterError(
                f"max_iters must be >= 1, got {self.max_iters}"
            )


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Outcome of a k-means run.

    objective_trace holds the objective after the initial assignment and
    after each Lloyd iteration; it is non-increasing up to the centroid
    solver tolerance. center_solves holds one (iteration, cluster, sweeps,
    capped, on_edge) record per numeric center update, iterations counted
    from 1, in the order they ran; it is () when every center is closed-form.
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


def _distances(pts: np.ndarray, centers: np.ndarray, D) -> np.ndarray:
    """The (n, k) matrix of D(pts[i] : centers[j])."""
    return np.array([[float(D(x, c)) for c in centers] for x in pts])


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


def _update_center(members: np.ndarray, F: Generator, D,
                   positive: bool = False) -> Minimum:
    """Numerical right centroid: argmin_c sum_i D(x_i : c), for divergences
    the registry gives no closed form.

    Coordinate-wise golden-section search over the expanded bounding box,
    started from the arithmetic mean, for at most 100 sweeps. Each slice is
    solved to SLICE_TOL; sweeps stop once no coordinate moves by more than
    CENTROID_TOL. The box stays in the positive orthant when F's domain is
    positive or when positive is set, for divergences that read points as
    positive weights. Returns the search's Minimum, whose x is the center.
    """
    lo, hi = _centroid_box(members, positive or F.domain.kind == "positive")

    def total(c: np.ndarray) -> float:
        return sum(float(D(x, c)) for x in members)

    return coordinate_minimize(total, lo, hi, x0=members.mean(axis=0),
                               tol=SLICE_TOL, max_sweeps=100,
                               stop_tol=CENTROID_TOL)


def kmeans(points, F: Generator, cfg: ClusterConfig) -> ClusterResult:
    """Lloyd k-means under the configured divergence.

    Centers are initialized to k distinct data points drawn uniformly with
    the configured seed. Each iteration updates every center (closed form
    where the registry has one, numerically otherwise), reassigns points to
    the divergence-nearest center (right argument; ties keep the lowest
    center index), and hands any emptied cluster the point farthest from its
    own center. The labels, the repair distances and the objective all come
    from one n x k divergence matrix per iteration. Stops when the objective
    improves by less than OBJECTIVE_TOL or after max_iters iterations. Every
    numeric center update leaves a record in center_solves.
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
    if cfg.divergence in _NO_RIGHT_CENTROID:
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
    D = resolve_divergence(cfg.divergence, F, cfg.params)
    centroid = right_centroid(cfg.divergence)
    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(distinct.shape[0], size=cfg.k, replace=False)
    centers = distinct[np.sort(chosen)].copy()

    dist = _distances(pts, centers, D)
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
                found = _update_center(members, F, D, positive)
                centers[j] = found.x
                solves.append((iterations, j, found.sweeps, found.capped,
                               found.on_edge))
        dist = _distances(pts, centers, D)
        labels = np.argmin(dist, axis=1)
        labels = _repair_empty(labels, cfg.k,
                               dist[np.arange(pts.shape[0]), labels])
        trace.append(_objective_from(dist, labels))
        if trace[-2] - trace[-1] < OBJECTIVE_TOL:
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
