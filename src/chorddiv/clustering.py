"""Right-sided k-means under any divergence from the registry.

Lloyd iterations with D(point : center) assignments. A run takes the
first of registry.center_rule's rules that holds: three closed forms,
the member mean, the left-sided centroid grad F^-1(mean grad F) and the
coordinatewise median of the tv f-divergences, then one fixed-point
update and two searches:

* cccp, for a chord id with one anchor at 1 or a skewed Jensen id under
  a generator with the left-sided centroid rule: the objective is a
  difference of convex functions of c, and its concave-convex step is
  the left-sided centroid of the members' interpolants with c; one
  update moves every center of an iteration at once, each map one
  gradient-rows call on every member, accelerated by SQUAREM
  (_cccp_centers);
* lockstep, for the other chord and Jensen ids under a
  generators.SEPARABLE builtin (shannon_negentropy, burg_negentropy): the
  objective is a sum of one-coordinate objectives under the builtin at
  dim 1, so one numerics.golden_lockstep call searches every coordinate
  of every center of an iteration at once, in one sweep, each probe
  round one 1-D block call on every member coordinate, bound once per
  search, and the k * d probes;
* coordinate descent otherwise: numerics.coordinate_minimize, a 1-D
  search per coordinate, sweep after sweep.

Both searches take their 1-D steps by Brent's method, golden-section
search plus parabolic steps (numerics.golden_minimize), over the
cluster's bounding box (expanded by 10 percent and kept in the positive
orthant when the generator's domain or the divergence needs positive
arguments), so they need no gradient; the cccp update takes F's
gradients and their inverse. A one-point cluster takes no update: its
center is its member. Each numeric update is recorded with how it
ended; the library only records, it never warns. Every divergence value
comes from the id's block bound to the side that stays fixed
(registry.resolve_bound): the points, once per run, for the n x k
divergence matrix of each pass, each point against each of the k
centers, and for the objectives of the cccp candidates and of the
lockstep means and points found; the members of a cluster, once per
coordinate-descent update; the member coordinates, once per lockstep
search. Under a chord, Jensen or Bregman id, binding validates the
fixed points and evaluates F at them once, and a call checks the moving
points and evaluates F once per distinct moving point and at the pairs'
interior interpolants: a bregman_chord pass at anchors (alpha, 1) costs
k + n * k F evaluations, a bregman pass k F evaluations and k
gradients. Each binding, pass and update runs its evaluations and gap
expressions under one np.errstate, so a value that overflows surfaces
as the pass's DomainError, not as a numpy warning.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import numerics
from .errors import DomainError, InfeasibleError, ShapeError
from .generators import Generator, finite_above
from .numerics import (Minimum, coordinate_minimize, golden_lockstep,
                       on_box_edge, whole_number)
# Not called here: perfbench/tracing.py patches both by these names.
from .numerics import golden_minimize  # noqa: F401
from .registry import resolve_divergence  # noqa: F401
from .registry import center_rule, needs_generator, resolve_bound

#: Ids kmeans refuses, having no right centroid: sum_i kl(x_i : c) is a
#: constant minus sum_j (sum_i x_ij) log c_j, which falls without bound as
#: c grows.
NO_RIGHT_CENTROID = ("kl", "fdiv:kl")

#: The pairing index of a bound block call on one center: every row
#: against C's row 0.
_FIRST = np.zeros(1, dtype=int)


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
    order they ran; it is () when every center is closed-form. A
    coordinate-descent record counts sweeps. A cccp record counts maps in
    sweeps, three per SQUAREM cycle; its capped says numerics.MAX_SWEEPS
    cycles ran, each lowering the objective, and on_edge is False, as no
    box bounds it. A lockstep update (a SEPARABLE builtin) reads sweeps 1
    and capped False: its one sweep is the fixed point coordinate descent
    would confirm. A one-point cluster's record reads sweeps 1, capped
    False and on_edge False, as any search of it would leave. The cccp
    and lockstep updates of one iteration share one batch, but each keeps
    its own record, equal to the one an update of its cluster alone would
    leave.
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


def _distances(pts: np.ndarray, centers: np.ndarray, bound) -> np.ndarray:
    """The (n, k) matrix of D(pts[i] : centers[j]) from one call of bound,
    the block bound to pts (registry.resolve_bound), on the k centers:
    every point against every center, center by center. Raises
    DomainError naming the first row and center, in row-major order,
    whose value is not finite."""
    with np.errstate(all="ignore"):
        dist = bound(centers, np.arange(centers.shape[0])[:, None]).T
    if not finite_above(dist, -math.inf):
        i, j = np.argwhere(~np.isfinite(dist))[0]
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
    sizes = np.bincount(labels, minlength=k)
    if sizes.all():
        return labels
    labels = labels.copy()
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


def _update_center(members: np.ndarray, F: Generator, bind,
                   positive: bool = False) -> Minimum:
    """Numerical right centroid by coordinate descent: argmin_c
    sum_i D(x_i : c), for the ids and generators whose center_rule is
    "descent".

    bind is the id's registry.resolve_bound binder. The members are
    bound once per update, and the objective value at c is one call of
    the bound block on c, its values summed in index order. The search
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
    with np.errstate(all="ignore"):
        bound = bind(members)
        return coordinate_minimize(
            lambda c: _sum_in_order(bound(c[None], _FIRST).tolist()), lo, hi,
            x0=members.mean(axis=0))


def _stack(pts: np.ndarray, groups: list) -> tuple:
    """(stacked, owner, slot) for the clusters whose rows of pts are the
    ascending index arrays in groups: their member rows stacked in group
    order, the group of each stacked row, and each point's group (0 for
    the points of no group), to pair every point of a call of the points'
    bound block with its own group's row of C."""
    order = np.concatenate(groups)
    owner = np.repeat(np.arange(len(groups)), [rows.size for rows in groups])
    slot = np.zeros(pts.shape[0], dtype=int)
    slot[order] = owner
    return pts[order], owner, slot


def _totals(values: list, groups: list) -> list:
    """Each group's objective: the values of its rows, a list over the
    points, added in index order."""
    return [_sum_in_order([values[i] for i in rows.tolist()])
            for rows in groups]


def _raise_if_not_finite(totals: list, points) -> None:
    for total, point in zip(totals, points):
        if not math.isfinite(total):
            raise DomainError(f"objective is {total} at {point.tolist()}")


def _lockstep_centers(pts: np.ndarray, groups: list, F: Generator, bound,
                      coordinate) -> list:
    """Numerical right centroids of the clusters whose rows of pts are
    the ascending index arrays in groups, all searched at once for a
    separable objective: coordinate is the binder center_rule gives the
    id on its "lockstep" path (its 1-D block), and bound the id's block
    bound to pts (registry.resolve_bound).

    One golden_lockstep call searches every coordinate of every group's
    box (_update_center's box). The stacked members' coordinates are bound
    once, as 1-D points; each round is one call of the bound block on the
    k * d probes, each member coordinate against its group's probe's, and
    sums each group's shares over its own rows. One call of bound then
    gives each group's objective, added in index order, at its mean and
    at the point found; the center is the point found when its objective
    is below the mean's, else the mean, and a non-finite objective at
    either raises DomainError. Each center is thus, bit for bit, the one
    a search of its group alone finds. Returns one Minimum per group,
    sweeps 1 and capped False.
    """
    k, d = len(groups), F.dim
    stacked, owner, slot = _stack(pts, groups)
    sizes = [rows.size for rows in groups]
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    boxes = [_centroid_box(pts[rows], F.domain.kind == "positive")
             for rows in groups]
    lo, hi = (np.concatenate(side) for side in zip(*boxes))
    # member row i's coordinate j meets probe owner[i] * d + j
    index = (owner[:, None] * d + np.arange(d)).ravel()
    with np.errstate(all="ignore"):
        probes = coordinate(stacked.reshape(-1, 1))

        def shares(v: list) -> list:
            S = probes(np.array(v)[:, None], index).reshape(-1, d)
            return [x for a, b in spans
                    for x in np.add.reduce(S[a:b], axis=0).tolist()]

        found = golden_lockstep(shares, lo, hi).reshape(-1, d)
        means = np.array([pts[rows].mean(axis=0) for rows in groups])
        # every point against its group's mean, then its point found
        at_means, at_found = bound(np.concatenate([means, found]),
                                   np.array([slot, slot + k])).tolist()
    results = []
    for totals, start, x, (lo_j, hi_j) in zip(
            zip(_totals(at_means, groups), _totals(at_found, groups)),
            means, found, boxes):
        _raise_if_not_finite(totals, (start, x))
        x = x if totals[1] < totals[0] else start
        results.append(Minimum(x, 1, False, on_box_edge(x, lo_j, hi_j)))
    return results


def _cccp_centers(pts: np.ndarray, groups: list, F: Generator, bound,
                  step) -> list:
    """Right centroids of the clusters whose rows of pts are the ascending
    index arrays in groups, all updated at once by the concave-convex
    procedure: step is the rule center_rule gives the id on its "cccp"
    path, bound here to the stacked members, and bound the id's block
    bound to pts (registry.resolve_bound).

    A map M of every center is one call of the bound step: one
    gradient-rows call on every member's interpolant with its own
    cluster's center, one grouped mean and one inverse gradient of the k
    means. SQUAREM (Varadhan and Roland, Scand. J. Stat. 2008, scheme S3)
    accelerates the maps: from the member mean c0, a cycle maps c1 = M(c0)
    and c2 = M(c1), extrapolates to c' = c0 - 2 a r + a^2 v, with
    r = c1 - c0, v = c2 - 2 c1 + c0 and a = -max(1, |r| / |v|), and maps
    c3 = M(c'). One call of bound scores c2 and c3 of every cluster, and a
    cluster moves to c3 when it is lower than c2, else to c2, the plain
    double step. F's domain checks each candidate array, all c1, c2, c' or
    c3, at once before it is mapped or scored, per row only if that fails:
    a cluster whose c' or c3 it rejects takes c2, and one whose c1 or c2 it
    rejects is mapped and scored at c0, which lowers nothing. A cluster
    stops at the first cycle that does not lower its objective, at the
    lowest point seen: no tolerance. Finished clusters stay in the batch,
    their rows ignored, so each cluster ends where an update of it alone
    would. A non-finite objective at the mean or at a double step raises
    DomainError. Returns one Minimum(x, maps, capped, False) per cluster:
    maps counts its maps, three per cycle, capped says it still lowered its
    objective after numerics.MAX_SWEEPS cycles, and no box bounds it.
    """
    k = len(groups)
    stacked, owner, slot = _stack(pts, groups)
    sizes = np.array([rows.size for rows in groups])
    cccp = step(stacked, (np.cumsum(sizes) - sizes, sizes[:, None]))
    tries = np.arange(2)[:, None] * k + slot  # c2's rows, then c3's

    def screen(C: np.ndarray, ok) -> tuple:
        """(C, ok): ok narrowed to the rows F's domain holds, True while all
        have, and C's other rows set to x's; one check per row if C fails."""
        if not F.domain.contains(C):
            ok = ok & np.array([F.domain.contains(c) for c in C])
        return (C if ok is True else np.where(ok[:, None], C, x)), ok

    with np.errstate(all="ignore"):
        # the member means, by .mean(axis=0)'s sum and division
        x = np.array([np.add.reduce(pts[g], axis=0) / g.size for g in groups])
        best = _totals(bound(x, slot).tolist(), groups)
        _raise_if_not_finite(best, x)
        maps = [0] * k
        live = set(range(k))
        for _ in range(numerics.MAX_SWEEPS):
            x1, ok = screen(cccp(x[owner]), True)
            x2 = cccp(x1[owner])
            r, v = x1 - x, x2 - 2.0 * x1 + x
            a = -np.maximum(np.sqrt(np.add.reduce(r * r, axis=1)
                                    / np.add.reduce(v * v, axis=1)),
                            1.0)[:, None]
            far = x - 2.0 * a * r + a * a * v
            c2, ok = screen(x2, ok)
            far, ok = screen(far, ok)
            c3, _ = screen(cccp(far[owner]), ok)
            at2, at3 = (_totals(values, groups) for values in
                        bound(np.concatenate([c2, c3]), tries).tolist())
            for j in sorted(live):
                maps[j] += 3
                _raise_if_not_finite(at2[j:j + 1], c2[j:j + 1])
                # the extrapolated step when lower, else the double step
                y, total = ((c3[j], at3[j]) if at3[j] < at2[j]
                            else (c2[j], at2[j]))
                if total < best[j]:
                    x[j], best[j] = y, total
                else:
                    live.discard(j)
            if not live:
                break
    return [Minimum(x[j], maps[j], j in live, False) for j in range(k)]


def kmeans(points, F: Generator, cfg: ClusterConfig) -> ClusterResult:
    """Lloyd k-means under the configured divergence.

    Centers are initialized to k distinct data points drawn uniformly with
    the configured seed. Each iteration updates every center by the one
    rule registry.center_rule gives the divergence under F (a closed form,
    one concave-convex update or one lockstep search for all of the
    centers, or coordinate descent center by center; a one-point cluster
    keeps its member), reassigns points to the divergence-nearest center
    (right argument; ties keep the lowest center index), and hands any
    emptied cluster the point farthest from its own center. The labels, the
    repair distances and the objective all come from one n x k
    divergence matrix per iteration, one call of the block bound to the
    points once per run. Stops at the first
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
    bind = resolve_bound(cfg.divergence, F, cfg.params)
    path, rule = center_rule(cfg.divergence, F, cfg.params)
    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(distinct.shape[0], size=cfg.k, replace=False)
    centers = distinct[np.sort(chosen)].copy()

    with np.errstate(all="ignore"):  # F at the points, as in each pass
        bound = bind(pts)
    dist = _distances(pts, centers, bound)
    labels = np.argmin(dist, axis=1)  # ties keep the lowest center index
    # objective() read off dist: the same terms summed in the same order
    rows = np.arange(pts.shape[0])
    trace = [_sum_in_order(dist[rows, labels].tolist())]
    solves = []
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        groups = [(j, members) for j in range(cfg.k)
                  if (members := np.flatnonzero(labels == j)).size]
        if path not in ("cccp", "lockstep", "descent"):
            for j, members in groups:
                centers[j] = rule(pts[members])
        else:
            # a one-point cluster's center is its member, which every
            # search returns for it after one sweep: it takes no search
            many = [members for _, members in groups if members.size > 1]
            if path == "descent":
                found = [_update_center(pts[members], F, bind, positive)
                         for members in many]
            else:
                batch = _cccp_centers if path == "cccp" else _lockstep_centers
                found = batch(pts, many, F, bound, rule) if many else []
            found = iter(found)
            for j, members in groups:
                minimum = (next(found) if members.size > 1 else
                           Minimum(pts[members[0]], 1, False, False))
                centers[j] = minimum.x
                solves.append((iterations, j, *minimum[1:]))
        dist = _distances(pts, centers, bound)
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
