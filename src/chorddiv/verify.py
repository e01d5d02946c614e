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
    interpolate,
    mean_value_witness,
)
from .clustering import ClusterConfig, adjusted_rand_index, kmeans
from .errors import ParameterError
from .fdiv import (
    F_GENERATOR_NAMES,
    dual_generator,
    extended_kl,
    f_div,
    kl,
    make_f_generator,
)
from .generators import (
    BUILTIN_GENERATORS,
    Generator,
    make_builtin,
    restrict_to_line,
)
from .jensen import (
    JensenChordParams,
    jensen_chord,
    jensen_skewed,
)
from .numerics import central_diff_grad, whole_number

#: KL((0.5, 0.5) : (0.25, 0.75)) = 0.5 log 2 + 0.5 log(2/3).
KL_REFERENCE_VALUE = 0.14384103622589045

RATIO_WINDOW = (5.0, 20.0)

#: Skews of the Jensen-Bregman bridge check, cycled by loop index so the
#: check draws nothing from the suite's random stream.
BRIDGE_SKEWS = (0.1, 0.3, 0.5, 0.7, 0.9)


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


def suite_sandwich(trials: int = 200, seed: int = 0) -> SuiteResult:
    """0 <= chord divergence <= ordinary Bregman divergence + 1e-12
    over the built-in generator matrix and random anchor pairs."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    checks = 0
    for F in _generator_matrix():
        for _ in range(trials):
            t1, t2 = _sample_pair(rng, F)
            upper = bregman(F, t1, t2) + 1e-12
            for _ in range(20):
                cp = _sample_anchors(rng)
                v = bregman_chord(F, t1, t2, cp)
                worst = _worst(worst, -v, v - upper)
                checks += 1
    return SuiteResult(
        name="sandwich",
        worst=worst,
        detail=f"{checks} chord evaluations across "
               f"{len(_generator_matrix())} generators",
    )


def suite_swap_symmetry(trials: int = 200, seed: int = 0) -> SuiteResult:
    """bregman_chord is invariant under swapping its two anchors, to 1e-12."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    checks = 0
    for F in _generator_matrix():
        for _ in range(trials):
            t1, t2 = _sample_pair(rng, F)
            for _ in range(20):
                cp = _sample_anchors(rng)
                dev = abs(bregman_chord(F, t1, t2, cp)
                          - bregman_chord(F, t1, t2, cp.swapped()))
                worst = _worst(worst, dev - 1e-12)
                checks += 1
    return SuiteResult(
        name="swap_symmetry",
        worst=worst,
        detail=f"{checks} anchor swaps, tolerance 1e-12",
    )


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


def suite_mean_value(trials: int = 200, seed: int = 0) -> SuiteResult:
    """The witness matches the chord slope to 1e-9 and reconstructs the
    chord divergence to 1e-8, on univariate instances of every builtin."""
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
        lam = mean_value_witness(F, t1, t2, cp)
        lo, hi = min(cp.alpha, cp.beta), max(cp.alpha, cp.beta)
        inside = inside and (lo < lam < hi)
        G = restrict_to_line(F, t1, t2)
        slope = (G(cp.alpha) - G(cp.beta)) / (cp.alpha - cp.beta)
        worst_slope = _worst(worst_slope, abs(G.deriv(lam) - slope))
        recon = G(0.0) - G(cp.alpha) + cp.alpha * G.deriv(lam)
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
            fd = central_diff_grad(F, t)
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
    are non-increasing up to 1e-8; with k=1 and the quadratic generator the
    centroid matches the arithmetic mean to 1e-6, both the closed form of
    bregman and the numerical search of bregman_chord (alpha=0.9, beta=1,
    whose value is alpha*beta*|x - c|^2 there, so its centroid is the
    mean too)."""
    points, truth = clustering_dataset(seed)
    F = make_builtin("quadratic", 1)

    res_b = kmeans(points, F, ClusterConfig(k=2, divergence="bregman",
                                            seed=seed))
    res_c = kmeans(points, F, ClusterConfig(
        k=2, divergence="bregman_chord",
        params={"alpha": 0.9, "beta": 1.0}, seed=seed))
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
    dev_c = mean_dev("bregman_chord", {"alpha": 0.9, "beta": 1.0})

    worst = _worst(1.0 - ari_b, 1.0 - ari_c, trace_viol, dev_b - 1e-6,
                   dev_c - 1e-6)
    return SuiteResult(
        name="clustering",
        worst=worst,
        detail=f"ARI bregman {ari_b:.3f}, chord {ari_c:.3f}; mean dev "
               f"bregman {dev_b:.3e}, chord {dev_c:.3e}; iterations "
               f"{res_b.iterations}/{res_c.iterations}",
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
