"""Randomized property suites over the divergence family.

Each suite draws a seeded sample, checks one family of identities or bounds
at a fixed tolerance, and reports the worst margin it saw. The CLI `verify`
subcommand and the acceptance tests both run these, so a suite is the single
source of truth for what each property means quantitatively.

Positive-domain coordinates are sampled from (0.2, 1.5) and real coordinates
from (-1.5, 1.5); chord anchors from (0.02, 1.0) with a minimum gap of 0.05.
Those ranges keep every tolerance several orders of magnitude above float
noise and keep the epsilon-ladder decay ratios close to 10 per decade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .bregman import (
    ChordParams,
    bregman,
    bregman_chord,
    bregman_chord_approx,
    bregman_dual,
    bregman_tangent,
    chord_row,
    interpolate,
)
from .clustering import (ClusterConfig, _centroid_box, _sum_in_order,
                         adjusted_rand_index, kmeans)
from .errors import BracketError, DomainError, ParameterError
from .fdiv import (
    F_GENERATOR_NAMES,
    dual_generator,
    extended_kl,
    f_div,
    kl,
    make_f_generator,
)
from .generators import (BUILTIN_GENERATORS, Generator, LineRestriction,
                         make_builtin, restrict_to_line)
from .jensen import (
    JensenChordParams,
    jensen_chord,
    jensen_skewed,
)
from .numerics import coordinate_minimize, golden_lockstep, whole_number
from .registry import resolve_bound

#: KL((0.5, 0.5) : (0.25, 0.75)) = 0.5 log 2 + 0.5 log(2/3).
KL_REFERENCE_VALUE = 0.14384103622589045

RATIO_WINDOW = (5.0, 20.0)

#: Skews of the Jensen-Bregman bridge check, cycled by loop index so the
#: check draws nothing from the suite's random stream.
BRIDGE_SKEWS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: The clustering suite's scale cases, (generator, id, params): a
#: concave-convex update under shannon and under Burg, a lockstep search,
#: coordinate descent, and the member mean.
SCALE_CASES = (
    ("shannon_negentropy", "bregman_chord", {"alpha": 0.9, "beta": 1.0}),
    ("burg_negentropy", "jensen", {}),
    ("shannon_negentropy", "bregman_chord", {"alpha": 0.3, "beta": 0.7}),
    ("shannon_negentropy", "bregman_tangent", {"alpha": 0.5}),
    ("quadratic", "bregman_chord", {"alpha": 0.9, "beta": 1.0}),
)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one property suite.

    worst is the largest violation margin observed: positive means the suite
    failed by that much, non-positive means it passed with that margin to
    spare, and passed says which. detail is a short human-readable account
    of the sub-checks.
    """

    name: str
    worst: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.worst <= 0.0)


def _generator_matrix() -> list:
    return [
        make_builtin("quadratic", 1),
        make_builtin("quadratic", 3),
        make_builtin("shannon_negentropy", 1),
        make_builtin("shannon_negentropy", 3),
        make_builtin("burg_negentropy", 1),
        make_builtin("burg_negentropy", 3),
        make_builtin("log_sum_exp", 3),
    ]


def _sample_point(rng: np.random.Generator, F: Generator) -> np.ndarray:
    if F.domain.kind == "positive":
        return rng.uniform(0.2, 1.5, F.dim)
    return rng.uniform(-1.5, 1.5, F.dim)


def _sample_pair(rng: np.random.Generator, F: Generator,
                 min_sep: float = 0.05) -> tuple:
    while True:
        t1 = _sample_point(rng, F)
        t2 = _sample_point(rng, F)
        if float(np.max(np.abs(t1 - t2))) >= min_sep:
            return t1, t2


def _sample_anchors(rng: np.random.Generator,
                    min_gap: float = 0.05) -> ChordParams:
    a = rng.uniform(0.02, 1.0)
    b = rng.uniform(0.02, 1.0)
    while abs(a - b) < min_gap:
        b = rng.uniform(0.02, 1.0)
    return ChordParams(a, b)


def _worst(*margins) -> float:
    """The largest margin, NaN if any margin is NaN: Python's max keeps an
    earlier value when a later one is NaN, which would let a NaN pass."""
    return float(np.max(margins))


def _ratio_violation(errors: list) -> float:
    """Worst margin of decay-ratio checks: successive max-error ratios must
    be decreasing by a factor inside RATIO_WINDOW."""
    lo, hi = RATIO_WINDOW
    worst = -np.inf
    for big, small in zip(errors, errors[1:]):
        if not small > 0.0:
            return np.inf
        ratio = big / small
        worst = _worst(worst, lo - ratio, ratio - hi)
    return worst


def _linear_decay(rng: np.random.Generator, gens: list, pairs: int,
                  ladder: tuple, error: Callable) -> tuple:
    """Check that error(F, t1, t2, step) vanishes linearly along a ladder of
    decades.

    For each generator, draws a pool of `pairs` pairs and takes the max
    |error| over the pool at each step. The max errors must fall at every
    step (else the margin is inf) and pass _ratio_violation. Returns the
    worst margin and a "name: ratios r1/r2/..." line per generator.
    """
    worst = -np.inf
    lines = []
    for F in gens:
        pool = [_sample_pair(rng, F) for _ in range(pairs)]
        errors = [_worst(*(abs(error(F, t1, t2, step)) for t1, t2 in pool))
                  for step in ladder]
        steps = list(zip(errors, errors[1:]))
        stalls = not all(b > s for b, s in steps)
        worst = _worst(worst, np.inf if stalls else _ratio_violation(errors))
        lines.append(f"{F.name}: ratios " + "/".join(
            f"{(b / s if s else np.inf):.2f}" for b, s in steps))
    return worst, "; ".join(lines)


def _limit_generators() -> list:
    return [
        make_builtin("quadratic", 1),
        make_builtin("shannon_negentropy", 1),
        make_builtin("burg_negentropy", 1),
        make_builtin("log_sum_exp", 3),
    ]


def _chord_draws(trials: int, seed: int):
    """The sandwich and swap_symmetry sample, `trials` pairs per generator,
    each with 20 anchor draws: F, t1, t2, the ChordParams, and one
    chord_row call's values at them (values[0]) and swapped (values[1])."""
    rng = np.random.default_rng(seed)
    for F in _generator_matrix():
        for _ in range(trials):
            t1, t2 = _sample_pair(rng, F)
            cps = [_sample_anchors(rng) for _ in range(20)]
            a = [cp.alpha for cp in cps]
            b = [cp.beta for cp in cps]
            values = chord_row(F, t1, t2, a + b, b + a).reshape(2, 20)
            yield F, t1, t2, cps, values


def suite_sandwich(trials: int = 200, seed: int = 0) -> SuiteResult:
    """0 <= chord divergence <= ordinary Bregman divergence + 1e-12
    over the built-in generator matrix and random anchor pairs."""
    worst = -np.inf
    checks = 0
    for F, t1, t2, _, values in _chord_draws(trials, seed):
        v = values[0]
        upper = bregman(F, t1, t2) + 1e-12
        worst = _worst(worst, np.max(-v), np.max(v - upper))
        checks += v.size
    return SuiteResult("sandwich", worst, f"{checks} chord evaluations "
                       f"across {len(_generator_matrix())} generators")


def suite_swap_symmetry(trials: int = 200, seed: int = 0) -> SuiteResult:
    """bregman_chord is invariant under swapping its two anchors, to 1e-12."""
    worst = -np.inf
    checks = 0
    for *_, values in _chord_draws(trials, seed):
        worst = _worst(worst, np.max(np.abs(values[0] - values[1])) - 1e-12)
        checks += values.shape[1]
    return SuiteResult("swap_symmetry", worst,
                       f"{checks} anchor swaps, tolerance 1e-12")


def suite_limit_bregman(trials: int = 200, seed: int = 0) -> SuiteResult:
    """The gradient-free approximation error decays linearly: max error over
    a pair pool shrinks by a factor in [5, 20] per decade of epsilon."""
    worst, detail = _linear_decay(
        np.random.default_rng(seed), _limit_generators(), max(2, trials // 4),
        (1e-1, 1e-2, 1e-3, 1e-4),
        lambda F, t1, t2, eps: (bregman_chord_approx(F, t1, t2, eps)
                                - bregman(F, t1, t2)))
    return SuiteResult(name="limit_bregman", worst=worst, detail=detail)


def suite_limit_tangent(trials: int = 200, seed: int = 0) -> SuiteResult:
    """bregman_chord(alpha, alpha + eps) approaches bregman_tangent(alpha)
    linearly in eps, with per-decade decay ratios in [5, 20]."""
    alpha = 0.4
    worst, detail = _linear_decay(
        np.random.default_rng(seed), _limit_generators(), max(2, trials // 4),
        (1e-2, 1e-3, 1e-4),
        lambda F, t1, t2, eps: (
            bregman_chord(F, t1, t2, ChordParams(alpha, alpha + eps))
            - bregman_tangent(F, t1, t2, alpha)))
    return SuiteResult(name="limit_tangent", worst=worst, detail=detail)


def _bisect(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of g on [lo, hi] by bisection, to a bracket width of 1e-12 or
    float resolution, in at most ceil(log2((hi - lo) / 1e-12)) + 2 calls
    of g; BracketError unless lo < hi are finite and g changes sign."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0 or g_hi == 0.0:
        return lo if g_lo == 0.0 else hi
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={g_lo}, g(hi)={g_hi}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):  # float resolution exhausted
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _line_deriv(G: LineRestriction, lam: float) -> float:
    """G'(lam) = <theta2 - theta1, grad F(theta_lam)>, F = G.base."""
    return float(np.dot(G.theta2 - G.theta1, G.base.grad(G.point_at(lam))))


def _witness(G: LineRestriction, slope: float, lo: float, hi: float) -> float:
    """The lam in [lo, hi] where G'(lam) equals slope, the chord's, by
    _bisect: unique for a strictly convex G. A derivative that does not
    bracket the slope, impossible in exact arithmetic, raises BracketError."""
    try:
        return _bisect(lambda lam: _line_deriv(G, lam) - slope, lo, hi)
    except BracketError as exc:
        raise BracketError(
            f"derivative does not bracket the chord slope on [{lo}, {hi}]: "
            f"{exc}") from exc


def suite_mean_value(trials: int = 200, seed: int = 0) -> SuiteResult:
    """The mean-value witness lam* (_witness) lies between the anchors,
    matches the chord slope to 1e-9 and, as G(0) - G(alpha) + alpha
    G'(lam*), reconstructs the chord divergence to 1e-8, on univariate
    instances of every builtin."""
    rng = np.random.default_rng(seed)
    instances = max(4, trials // 2)
    worst_slope = -np.inf
    worst_recon = -np.inf
    inside = True
    for i in range(instances):
        F = make_builtin(
            BUILTIN_GENERATORS[i % len(BUILTIN_GENERATORS)], 1)
        t1, t2 = _sample_pair(rng, F)
        cp = _sample_anchors(rng)
        G = restrict_to_line(F, t1, t2)
        slope = (G(cp.alpha) - G(cp.beta)) / (cp.alpha - cp.beta)
        lo, hi = min(cp.alpha, cp.beta), max(cp.alpha, cp.beta)
        lam = _witness(G, slope, lo, hi)
        inside = inside and (lo < lam < hi)
        worst_slope = _worst(worst_slope, abs(_line_deriv(G, lam) - slope))
        recon = G(0.0) - G(cp.alpha) + cp.alpha * _line_deriv(G, lam)
        worst_recon = _worst(
            worst_recon, abs(recon - bregman_chord(F, t1, t2, cp))
        )
    worst = _worst(worst_slope - 1e-9, worst_recon - 1e-8,
                   -np.inf if inside else np.inf)
    return SuiteResult(
        name="mean_value",
        worst=worst,
        detail=f"{instances} instances; max slope dev {worst_slope:.3e}, "
               f"max reconstruction dev {worst_recon:.3e}",
    )


def suite_dual_identity(trials: int = 200, seed: int = 0) -> SuiteResult:
    """B_F(theta2 : theta1) equals B_{F*}(grad F(theta1) : grad F(theta2))
    to 1e-9 for the generators with closed-form conjugates."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    pairs = max(2, trials // 2)
    for name in ("quadratic", "shannon_negentropy"):
        for dim in (1, 3):
            F = make_builtin(name, dim)
            for _ in range(pairs):
                t1, t2 = _sample_pair(rng, F)
                lhs = bregman_dual(F, t1, t2)
                rhs = bregman(F.conjugate, F.grad(t1), F.grad(t2))
                worst = _worst(worst, abs(lhs - rhs) - 1e-9)
    return SuiteResult(
        name="dual_identity",
        worst=worst,
        detail=f"{4 * pairs} pairs over quadratic and shannon, dims 1 and 3",
    )


def suite_jensen(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Jensen family identities: the Jensen-Bregman bridge (the skewed gap
    equals the skew-weighted Bregman average to the interpolant), the
    scaled skew limit decay, chord non-negativity, and the degenerate
    triple reduction."""
    rng = np.random.default_rng(seed)
    pairs = max(2, trials // 2)
    worst_bridge = -np.inf
    for F in _generator_matrix():
        for i in range(pairs // 4 + 1):
            t1, t2 = _sample_pair(rng, F)
            a = BRIDGE_SKEWS[i % len(BRIDGE_SKEWS)]
            m = interpolate(t1, t2, a)
            average = (1.0 - a) * bregman(F, t1, m) + a * bregman(F, t2, m)
            worst_bridge = _worst(
                worst_bridge, abs(average - jensen_skewed(F, t1, t2, a)))

    # the univariate limit generators
    worst_ratio, _ = _linear_decay(
        rng, _limit_generators()[:3], max(2, trials // 4), (1e-1, 1e-2, 1e-3),
        lambda F, t1, t2, a: jensen_skewed(F, t1, t2, a) / a
        - bregman(F, t2, t1))

    triples = max(8, int(round(2.5 * trials)))
    worst_neg = -np.inf
    matrix = _generator_matrix()
    for i in range(triples):
        F = matrix[i % len(matrix)]
        t1, t2 = _sample_pair(rng, F)
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        while b - a < 1e-3:
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        c = rng.uniform(a, b)
        v = jensen_chord(F, t1, t2, JensenChordParams(a, b, c))
        worst_neg = _worst(worst_neg, -v)

    worst_degen = -np.inf
    for i in range(max(4, trials // 2)):
        F = matrix[i % len(matrix)]
        t1, t2 = _sample_pair(rng, F)
        t = rng.uniform(0.05, 0.95)
        gap = ((1.0 - t) * float(F.fn(t1)) + t * float(F.fn(t2))
               - float(F.fn(interpolate(t1, t2, t))))
        dev = abs(jensen_chord(F, t1, t2, JensenChordParams(t, t, t)) - gap)
        worst_degen = _worst(worst_degen, dev)

    worst = _worst(worst_bridge - 1e-12, worst_ratio, worst_neg,
                   worst_degen - 1e-12)
    return SuiteResult(
        name="jensen",
        worst=worst,
        detail=f"bridge dev {worst_bridge:.3e}; {triples} chord triples, "
               f"min value {-worst_neg:.3e}; degenerate dev "
               f"{worst_degen:.3e}",
    )


def suite_fdiv(trials: int = 200, seed: int = 0) -> SuiteResult:
    """f-divergence checks: dual duality, extended KL against the Shannon
    Bregman divergence, and the frozen KL reference value."""
    rng = np.random.default_rng(seed)
    pairs = max(2, trials // 2)
    worst_dual = -np.inf
    for name in F_GENERATOR_NAMES:
        f = make_f_generator(name)
        fd = dual_generator(f)
        for dim in (2, 5):
            for _ in range(pairs):
                p = rng.uniform(0.1, 2.0, dim)
                q = rng.uniform(0.1, 2.0, dim)
                worst_dual = _worst(
                    worst_dual, abs(f_div(fd, p, q) - f_div(f, q, p))
                )

    F = make_builtin("shannon_negentropy", 3)
    worst_ekl = -np.inf
    for _ in range(pairs):
        p = rng.uniform(0.2, 1.5, 3)
        q = rng.uniform(0.2, 1.5, 3)
        worst_ekl = _worst(worst_ekl,
                           abs(extended_kl(p, q) - bregman(F, p, q)))

    kl_dev = abs(kl((0.5, 0.5), (0.25, 0.75)) - KL_REFERENCE_VALUE)

    worst = _worst(worst_dual - 1e-12, worst_ekl - 1e-12, kl_dev - 1e-6)
    return SuiteResult(
        name="fdiv",
        worst=worst,
        detail=f"dual dev {worst_dual:.3e}; ekl dev {worst_ekl:.3e}; "
               f"kl reference dev {kl_dev:.3e}",
    )


def _central_diff_grad(F: Generator, theta) -> np.ndarray:
    """gradcheck's reference: [F(theta + h e_i) - F(theta - h e_i)] / (2 h)
    per coordinate at h = 1e-5, shrunk once by 10x where the stencil
    leaves the domain; a second violation raises DomainError."""
    theta = F.point(theta)
    grad = np.empty(F.dim)
    for i in range(F.dim):
        for step in (1e-5, 1e-5 / 10.0):
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            if F.domain.contains(up) and F.domain.contains(dn):
                grad[i] = (float(F.fn(up)) - float(F.fn(dn))) / (2.0 * step)
                break
        else:
            raise DomainError(
                f"finite-difference stencil leaves the domain of {F.name} at "
                f"coordinate {i} (theta={theta.tolist()}, h=1e-05)")
    return grad


def suite_gradcheck(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Closed-form gradients agree with central differences to a relative
    1e-6 on random interior points of every builtin."""
    rng = np.random.default_rng(seed)
    points = max(2, trials // 2)
    worst = -np.inf
    for F in _generator_matrix():
        for _ in range(points):
            t = _sample_point(rng, F)
            g = F.grad(t)
            fd = _central_diff_grad(F, t)
            rel = float(np.max(np.abs(g - fd))) / max(
                1.0, float(np.max(np.abs(g)))
            )
            worst = _worst(worst, rel - 1e-6)
    return SuiteResult(
        name="gradcheck",
        worst=worst,
        detail=f"{points} points per generator, relative tolerance 1e-6",
    )


def clustering_dataset(seed: int = 0) -> tuple:
    """Two well-separated 1-D groups, 50 points each: group spread 0.1,
    group separation 1.0. Returns (points, truth labels)."""
    rng = np.random.default_rng(seed)
    g1 = 0.1 * rng.random(50)
    g2 = 1.0 + 0.1 * rng.random(50)
    points = np.concatenate([g1, g2]).reshape(-1, 1)
    truth = np.array([0] * 50 + [1] * 50)
    return points, truth


def suite_clustering(trials: int = 200, seed: int = 0) -> SuiteResult:
    """k-means recovers two well-separated 1-D groups exactly under both the
    ordinary Bregman divergence and the chord divergence; objective traces
    are non-increasing up to 1e-8; with the quadratic generator the
    centroid matches the arithmetic mean to 1e-6 four ways: k=1 k-means
    under bregman and under bregman_chord (alpha=0.9, beta=1, whose value
    is alpha*beta*|x - c|^2 there), both of which take the member mean in
    closed form, and the two numerical searches k-means runs where no
    closed form is known, on the bregman_chord block with every point a
    member, over k-means's box: coordinate_minimize started at the box's
    lower corner rather than at the mean, which is the answer, and
    golden_lockstep, which searches the whole box. Under shannon, on the
    dataset shifted by 0.5, the concave-convex center of k=1 k-means
    under bregman_chord must match golden_lockstep's search of the same
    objective over k-means's box to 1e-6.

    k-means is also scale-equivariant: each SCALE_CASES id scales as
    D(s x : s c) = s^p D(x : c) under its builtin, so on the dataset
    shifted by 0.5 and scaled by s = 1e-6 and 1e6 the labels must equal
    the unscaled run's and the centers divided by s must match its
    centers within a relative 1e-6."""
    points, truth = clustering_dataset(seed)
    F = make_builtin("quadratic", 1)
    chord = {"alpha": 0.9, "beta": 1.0}

    res_b = kmeans(points, F, ClusterConfig(k=2, divergence="bregman",
                                            seed=seed))
    res_c = kmeans(points, F, ClusterConfig(
        k=2, divergence="bregman_chord", params=chord, seed=seed))
    ari_b = adjusted_rand_index(res_b.assignments, truth)
    ari_c = adjusted_rand_index(res_c.assignments, truth)

    trace_viol = -np.inf
    for res in (res_b, res_c):
        tr = res.objective_trace
        for prev, cur in zip(tr, tr[1:]):
            trace_viol = _worst(trace_viol, cur - prev - 1e-8)

    def mean_dev(divergence: str, params: dict) -> float:
        res = kmeans(points, F, ClusterConfig(
            k=1, divergence=divergence, params=params, seed=seed))
        return float(abs(res.centers[0, 0] - points.mean()))

    dev_b = mean_dev("bregman", {})
    dev_c = mean_dev("bregman_chord", chord)

    def objective(G, members) -> Callable:
        """c -> sum_i bregman_chord(G, members[i], c), members bound once."""
        bound = resolve_bound("bregman_chord", G, chord)(members)

        def total(c) -> float:
            with np.errstate(all="ignore"):
                values = bound(np.asarray(c)[None], [0])
            return _sum_in_order(values.tolist())
        return total

    total = objective(F, points)
    lo, hi = _centroid_box(points, False)
    found = coordinate_minimize(total, lo, hi, x0=lo)
    dev_s = float(abs(found.x[0] - points.mean()))
    lockstep = golden_lockstep(lambda c: [total(c)], lo, hi)
    dev_l = float(abs(lockstep[0] - points.mean()))

    shifted = points + 0.5
    S = make_builtin("shannon_negentropy", 1)
    cccp = kmeans(shifted, S, ClusterConfig(
        k=1, divergence="bregman_chord", params=chord, seed=seed))
    s_total = objective(S, shifted)
    searched = golden_lockstep(lambda c: [s_total(c)],
                               *_centroid_box(shifted, True))
    dev_k = float(abs(cccp.centers[0, 0] - searched[0]))

    scale_gap = -np.inf
    for gen, div, params in SCALE_CASES:
        G = make_builtin(gen, 1)
        cfg = ClusterConfig(k=2, divergence=div, params=params, seed=seed)
        base = kmeans(shifted, G, cfg)
        for s in (1e-6, 1e6):
            res = kmeans(s * shifted, G, cfg)
            same = np.array_equal(res.assignments, base.assignments)
            gap = np.abs(res.centers / s - base.centers) / base.centers
            scale_gap = _worst(scale_gap,
                               float(np.max(gap)) if same else np.inf)

    worst = _worst(1.0 - ari_b, 1.0 - ari_c, trace_viol, dev_b - 1e-6,
                   dev_c - 1e-6, dev_s - 1e-6, dev_l - 1e-6,
                   dev_k - 1e-6, scale_gap - 1e-6)
    return SuiteResult(
        name="clustering",
        worst=worst,
        detail=f"ARI bregman {ari_b:.3f}, chord {ari_c:.3f}; mean dev "
               f"bregman {dev_b:.3e}, chord {dev_c:.3e}, chord search "
               f"{dev_s:.3e}, chord lockstep {dev_l:.3e}; shannon chord "
               f"cccp against lockstep {dev_k:.3e}; iterations "
               f"{res_b.iterations}/{res_c.iterations}; scale gap "
               f"{scale_gap:.3e}",
    )


SUITES: Dict[str, Callable[[int, int], SuiteResult]] = {
    "sandwich": suite_sandwich,
    "swap_symmetry": suite_swap_symmetry,
    "limit_bregman": suite_limit_bregman,
    "limit_tangent": suite_limit_tangent,
    "mean_value": suite_mean_value,
    "dual_identity": suite_dual_identity,
    "jensen": suite_jensen,
    "fdiv": suite_fdiv,
    "gradcheck": suite_gradcheck,
    "clustering": suite_clustering,
}


def _check_run(trials: int, seed: int) -> None:
    """The CLI's rule for --trials and --seed: integers >= 1 and >= 0."""
    whole_number("trials", trials, 1)
    whole_number("seed", seed, 0)


def run_suite(name: str, trials: int = 200, seed: int = 0) -> SuiteResult:
    fn = SUITES.get(name)
    if fn is None:
        raise ParameterError(
            f"unknown suite {name!r}; known suites: {', '.join(SUITES)}"
        )
    _check_run(trials, seed)
    return fn(trials, seed)


def run_all(trials: int = 200, seed: int = 0) -> list:
    _check_run(trials, seed)
    return [fn(trials, seed) for fn in SUITES.values()]
