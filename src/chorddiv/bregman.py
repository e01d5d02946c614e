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

from .errors import (
    BracketError,
    GradientRequiredError,
    ParameterError,
    ShapeError,
    WitnessNotFoundError,
)
from .generators import (Generator, coincide, endpoints, line_table,
                         restrict_to_line)
from .numerics import bisect_root


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
    t1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    t2 = np.atleast_1d(np.asarray(theta2, dtype=float))
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


def bregman_dual(F: Generator, theta1, theta2) -> float:
    """Argument-swapped divergence B_F(theta2 : theta1).

    Equals the conjugate-side divergence B_{F*}(grad F(theta1) : grad F(theta2))
    when the conjugate exists.
    """
    return bregman(F, theta2, theta1)


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


def bregman_chord_block(F: Generator, X, theta2, cp: ChordParams
                        ) -> np.ndarray:
    """bregman_chord(F, X[i], theta2, cp) for each row of the (m, dim)
    block X, bit for bit: chord_gap on each row of the line_table at 0,
    alpha and beta, the table the sweep shares, so the block is validated
    once and a row that coincides with theta2 gives 0.0 for no F call."""
    a, b = float(cp.alpha), float(cp.beta)
    table = line_table(F, X, theta2, (0.0, a, b))
    return np.array([chord_gap(g0, g_a, g_b, a, b)
                     for g0, g_a, g_b in table.tolist()])


def chord_gap(g0: float, g_a: float, g_b: float, a: float, b: float) -> float:
    """B[a, b] from G(0), G(a) and G(b)."""
    return g0 - g_a + a * (g_b - g_a) / (b - a)


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
    if not F.has_grad:
        raise GradientRequiredError(
            f"bregman and bregman_tangent require a gradient; generator "
            f"{F.name} has none"
        )
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    m = t2 if a == 1.0 else F.point(interpolate(t1, t2, a))
    g_m = F.grad_fn(m)
    return float(F.fn(t1)) - float(F.fn(m)) - a * float(np.dot(t1 - t2, g_m))


def mean_value_witness(F: Generator, theta1, theta2, cp: ChordParams,
                       tol: float = 1e-12) -> float:
    """Anchor lam* strictly between alpha and beta where the restriction's
    derivative equals the chord slope, located by bisection.

    Exists by the mean value theorem and is unique for a strictly convex
    restriction (the derivative is strictly increasing). Consequently the
    chord value can be reconstructed from the witness:
    G(0) - G(alpha) + alpha G'(lam*) equals bregman_chord.

    Raises DegenerateRestrictionError for coincident points, and
    WitnessNotFoundError if the derivative fails to bracket the slope,
    which cannot happen in exact arithmetic.
    """
    G = restrict_to_line(F, theta1, theta2)
    if not G.has_deriv:
        raise GradientRequiredError(
            f"mean_value_witness requires a gradient; generator {F.name} "
            f"has none"
        )
    a, b = float(cp.alpha), float(cp.beta)
    slope = (G(a) - G(b)) / (a - b)
    lo, hi = min(a, b), max(a, b)

    def gap(lam: float) -> float:
        return G.deriv(lam) - slope

    try:
        return bisect_root(gap, lo, hi, tol=tol)
    except BracketError as exc:
        raise WitnessNotFoundError(
            f"derivative does not bracket the chord slope on [{lo}, {hi}]: "
            f"{exc}"
        ) from exc


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
    """The gamma and delta interpolants biskew evaluates between; None when
    the endpoints coincide."""
    t1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    t2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    if t1.shape != t2.shape:
        raise ShapeError(
            f"cannot biskew points of shapes {t1.shape} and {t2.shape}"
        )
    if coincide(t1, t2):
        return None
    return interpolate(t1, t2, sp.gamma), interpolate(t1, t2, sp.delta)
