"""Ordinary, dual, chord, and tangent Bregman divergences.

The chord divergence replaces the tangent plane at theta2 in the usual
Bregman construction with the chord through two interpolants of the segment
[theta1, theta2] on the generator graph. It needs no gradient, lower-bounds
the ordinary divergence, and recovers it as both anchors slide to 1.

All chord quantities are computed on the line restriction
G(lam) = F((1 - lam) theta1 + lam theta2), so multivariate inputs reduce to
the univariate picture:

    B[alpha, beta](theta1 : theta2)
        = G(0) - G(alpha) + alpha (G(beta) - G(alpha)) / (beta - alpha)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GradientRequiredError, ParameterError, ShapeError
from .generators import (Bound, Generator, _table, as_vector, coincide,
                         endpoints, restrict_to_line, rows_pair)


@dataclass(frozen=True)
class ChordParams:
    """Chord anchor pair: alpha, beta in (0, 1] with alpha != beta.

    The anchors are unordered; swapping them leaves the chord, and hence the
    divergence, unchanged.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for label, v in (("alpha", self.alpha), ("beta", self.beta)):
            unit_anchor(v, f"chord anchor {label}")
        if float(self.alpha) == float(self.beta):
            raise ParameterError(
                f"chord anchors must differ, got alpha = beta = {self.alpha}"
            )

    def swapped(self) -> "ChordParams":
        return ChordParams(self.beta, self.alpha)


@dataclass(frozen=True)
class SkewPair:
    """Interpolation positions used to biskew a divergence; gamma != delta.

    Values in [0, 1] keep both interpolants on the segment and therefore in
    any convex domain containing the endpoints. Values outside [0, 1] are
    permitted structurally; the target divergence's own domain checks reject
    interpolants that actually leave the domain.
    """

    gamma: float
    delta: float

    def __post_init__(self):
        for label, v in (("gamma", self.gamma), ("delta", self.delta)):
            if not np.isfinite(float(v)):
                raise ParameterError(f"skew {label} must be finite, got {v}")
        if float(self.gamma) == float(self.delta):
            raise ParameterError(
                f"skew positions must differ, got gamma = delta = {self.gamma}"
            )


def interpolate(theta1, theta2, lam: float) -> np.ndarray:
    """Affine interpolation (1 - lam) theta1 + lam theta2."""
    t1 = as_vector(theta1)
    t2 = as_vector(theta2)
    if t1.shape != t2.shape:
        raise ShapeError(
            f"cannot interpolate points of shapes {t1.shape} and {t2.shape}"
        )
    return (1.0 - float(lam)) * t1 + float(lam) * t2


def bregman(F: Generator, theta1, theta2) -> float:
    """Ordinary Bregman divergence B_F(theta1 : theta2).

    The ordinate gap at theta1 between the generator graph and its tangent
    plane at theta2:

        F(theta1) - F(theta2) - <theta1 - theta2, grad F(theta2)>

    Non-negative for convex F; zero iff the arguments coincide. It is
    bregman_tangent at alpha = 1.
    """
    return bregman_tangent(F, theta1, theta2, 1.0)


def _require_grad(F: Generator) -> None:
    if not F.has_grad:
        raise GradientRequiredError(
            f"bregman and bregman_tangent require a gradient; generator "
            f"{F.name} has none"
        )


def bregman_tangent_bound(F: Generator, X, alpha: float = 1.0,
                          swap: bool = False) -> Callable:
    """bregman_tangent's vector form, bound to X (generators.Bound):
    (C, J) -> bregman_tangent(F, X[i], C[J[..., i]], alpha) over Bound's
    pairs, bit for bit, or over the swapped pairs with swap
    (bregman_dual's form); bregman's at alpha = 1. F comes from Bound's
    columns at 0 and alpha. At alpha = 1 a call evaluates F and the
    gradient once per row of C (the gradient once per row of X at
    binding, with swap); below 1, both at the interpolants. The gradient
    terms are a stack of dot products, which round as np.dot does
    (einsum, sum(A * B) and A @ g round differently). Coincident pairs
    give 0.0; no gradient raises GradientRequiredError at binding. Call
    it under np.errstate(all="ignore"): its gaps give inf and nan
    unwarned, as Python floats do."""
    a = unit_anchor(alpha, "tangent anchor")
    _require_grad(F)
    rows = Bound(F, X, (0.0, a), swap)
    grad_x = F.grad_rows(rows.X) if swap and a == 1.0 else None

    def bound(C, J) -> np.ndarray:
        dead, (f0, f_a), Y = rows.table(C, J)
        first, second = (Y, rows.X) if swap else (rows.X, Y)
        diff = first - second
        if a < 1.0:
            grad = F.grad_rows(((1.0 - a) * first + a * second)
                               .reshape(-1, F.dim)).reshape(diff.shape)
        else:
            grad = grad_x if swap else F.grad_rows(np.asarray(C, float))[J]
        grad = np.ascontiguousarray(np.broadcast_to(grad, diff.shape))
        dots = (diff[..., None, :] @ grad[..., :, None])[..., 0, 0]
        gaps = f0 - f_a - a * dots
        return gaps if dead is None else np.where(dead, 0.0, gaps)
    return bound


def bregman_dual(F: Generator, theta1, theta2) -> float:
    """Argument-swapped divergence B_F(theta2 : theta1).

    Equals the conjugate-side divergence B_{F*}(grad F(theta1) : grad F(theta2))
    when the conjugate exists. bregman(F, theta2, theta1) bit for bit,
    but theta1 is validated first, as every kernel validates its
    arguments in order.
    """
    _require_grad(F)
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    g_1 = F.grad_fn(t1)
    return float(F.fn(t2)) - float(F.fn(t1)) - float(np.dot(t2 - t1, g_1))


def bregman_chord(F: Generator, theta1, theta2, cp: ChordParams) -> float:
    """Chord Bregman divergence B[alpha, beta](theta1 : theta2).

    Ordinate gap at theta1 between the generator graph and the chord through
    the alpha and beta interpolants of [theta1, theta2] on the graph.
    Gradient free; sandwiched between 0 and the ordinary Bregman divergence,
    which it recovers as alpha, beta -> 1.
    """
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    G = restrict_to_line(F, *ends)
    a, b = float(cp.alpha), float(cp.beta)
    return chord_gap(G(0.0), G(a), G(b), a, b)


def bregman_chord_bound(F: Generator, X, cp: ChordParams) -> Callable:
    """bregman_chord's vector form, bound to X (generators.Bound):
    (C, J) -> bregman_chord(F, X[i], C[J[..., i]], cp) over Bound's
    pairs, bit for bit: chord_gap over Bound's columns at 0, alpha and
    beta. numpy rounds the array expression's float64 operations, in
    chord_gap's order, as Python rounds them on floats. A call evaluates
    F once per row of C when an anchor is 1 and at the other anchors'
    interpolants: one column for anchors (alpha, 1). Coincident pairs
    give 0.0. Call it under np.errstate(all="ignore"), as
    bregman_tangent_bound."""
    a, b = float(cp.alpha), float(cp.beta)
    rows = Bound(F, X, (0.0, a, b))

    def bound(C, J) -> np.ndarray:
        dead, (g0, g_a, g_b), _ = rows.table(C, J)
        gaps = chord_gap(g0, g_a, g_b, a, b)
        return gaps if dead is None else np.where(dead, 0.0, gaps)
    return bound


def chord_gap(g0, g_a, g_b, a: float, b: float):
    """B[a, b] from G(0), G(a) and G(b): floats, or arrays of them."""
    return g0 - g_a + a * (g_b - g_a) / (b - a)


def chord_row(F: Generator, theta1, theta2, A, B) -> np.ndarray:
    """bregman_chord(F, theta1, theta2, ChordParams(A[k], B[k])) for each
    k, bit for bit, from F on the segment at the distinct anchors
    {0} U A U B (generators._table, after one domain check of all of
    those points, theta1 among them) and one chord_gap array expression;
    the caller checks the anchors. theta2 is validated first, by
    F.point. Coincident points give 0.0 for no F evaluation."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    lams = np.sort(np.concatenate(([0.0], A, B)))
    lams = lams[np.concatenate(([True], lams[1:] != lams[:-1]))]  # distinct
    t2 = F.point(theta2)
    t1 = as_vector(theta1)
    if t1.shape != t2.shape:
        raise ShapeError(f"cannot interpolate points of shapes {t1.shape} "
                         f"and {t2.shape}")
    lam = lams[:, None]
    dead = coincide(t1, t2)
    row = _table(F, (1.0 - lam) * t1 + lam * t2, dead if dead else None)
    with np.errstate(all="ignore"):  # Python floats never warn: inf - inf
        return chord_gap(row[0], row[np.searchsorted(lams, A)],
                         row[np.searchsorted(lams, B)], A, B)


def unit_anchor(value: float, label: str) -> float:
    """Validated anchor: value in (0, 1], the rule of chord and tangent
    anchors and of sweep grids; the message names it by label."""
    a = float(value)
    if not (0.0 < a <= 1.0):
        raise ParameterError(f"{label} must lie in (0, 1], got {value}")
    return a


def bregman_tangent(F: Generator, theta1, theta2, alpha: float) -> float:
    """Tangent Bregman divergence B[alpha](theta1 : theta2).

    Ordinate gap at theta1 against the tangent plane at the alpha
    interpolant; the beta -> alpha limit of the chord divergence. Recovers
    the ordinary divergence at alpha = 1, where the interpolant is theta2
    itself, and vanishes as alpha -> 0.
    """
    a = unit_anchor(alpha, "tangent anchor")
    _require_grad(F)
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    # a in (0, 1] keeps the interpolant in the convex domain
    m = t2 if a == 1.0 else (1.0 - a) * t1 + a * t2
    g_m = F.grad_fn(m)
    return float(F.fn(t1)) - float(F.fn(m)) - a * float(np.dot(t1 - t2, g_m))


def approx_anchors(epsilon: float) -> ChordParams:
    """Chord anchors (1 - epsilon, 1) for epsilon in (0, 1).

    Rejects an epsilon so small that 1 - epsilon rounds to 1, which would
    leave the two anchors equal.
    """
    eps = float(epsilon)
    if not (0.0 < eps < 1.0):
        raise ParameterError(
            f"approximation offset must lie in (0, 1), got {epsilon}"
        )
    if 1.0 - eps == 1.0:
        raise ParameterError(
            f"approximation offset epsilon = {epsilon} is below float "
            f"resolution: 1 - epsilon rounds to 1"
        )
    return ChordParams(1.0 - eps, 1.0)


def bregman_chord_approx(F: Generator, theta1, theta2,
                         epsilon: float) -> float:
    """Gradient-free approximation of the ordinary Bregman divergence.

    Evaluates the chord divergence with anchors (1 - epsilon, 1), which is
    within O(epsilon) of B_F(theta1 : theta2) using three evaluations of F
    and no gradient. Rounding adds about u |F| / epsilon (u = 2**-53), so
    the error is smallest near epsilon = 1e-8: on shannon (0.3 : 0.9) it is
    2.0e-7 at 1e-6, 8.1e-10 at 1e-8, 6.2e-8 at 1e-10 and 3.4e-5 at 1e-12.
    """
    return bregman_chord(F, theta1, theta2, approx_anchors(epsilon))


def biskew(D: Callable[[np.ndarray, np.ndarray], float], theta1, theta2,
           sp: SkewPair) -> float:
    """Biskewed divergence D((theta1 theta2)_gamma : (theta1 theta2)_delta).

    Evaluates any divergence between the gamma and delta interpolants of the
    segment. Vanishes exactly when the endpoints coincide, since distinct
    skew positions then pick the same point; separates points because the
    interpolants differ whenever the endpoints do.
    """
    segment = skew_segment(theta1, theta2, sp)
    return 0.0 if segment is None else float(D(*segment))


def skew_segment(theta1, theta2, sp: SkewPair) -> Optional[tuple]:
    """The gamma and delta interpolants biskew evaluates between, by
    interpolate's expression and shape check; None when the endpoints
    coincide."""
    t1 = as_vector(theta1)
    t2 = as_vector(theta2)
    if t1.shape != t2.shape:
        raise ShapeError(
            f"cannot interpolate points of shapes {t1.shape} and {t2.shape}"
        )
    if coincide(t1, t2):
        return None
    g, d = float(sp.gamma), float(sp.delta)
    return (1.0 - g) * t1 + g * t2, (1.0 - d) * t1 + d * t2


def biskew_block(D: Callable, X, Y, sp: SkewPair) -> np.ndarray:
    """biskew(D_1, X[i], Y[i], sp) over the row pairs of X and Y, bit for
    bit, where D is D_1's resolve_bound binder: bound to the gamma
    interpolants (interpolate's expression) of the rows whose points do
    not coincide, which it checks first, and called on their delta
    interpolants row by row; the others give 0.0."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not rows_pair(X, Y):
        raise ShapeError(f"cannot interpolate blocks of shapes {X.shape} "
                         f"and {Y.shape}")
    live = ~coincide(X, Y)
    g, d = float(sp.gamma), float(sp.delta)
    values = np.zeros(live.shape)
    B = ((1.0 - d) * X + d * Y)[live]
    values[live] = D(((1.0 - g) * X + g * Y)[live])(B, np.arange(len(B)))
    return values
