"""Jensen-type divergences: midpoint and skewed Jensen gaps and the Jensen
chord divergence.

The Jensen chord divergence measures, at position gamma, the vertical gap
between the chord through the endpoint graph points and the chord through
two interior anchor graph points. At alpha = beta = gamma it collapses to
the skewed Jensen gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .generators import Bound, Generator, endpoints


@dataclass(frozen=True)
class JensenChordParams:
    """Anchors for the two-chord gap.

    Requires 0 <= alpha <= beta <= 1 with the evaluation position gamma in
    [alpha, beta]. alpha = beta is only reachable with gamma equal to both,
    the fully degenerate case, which falls back to the skewed Jensen gap.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for label, v in (("alpha", self.alpha), ("beta", self.beta),
                         ("gamma", self.gamma)):
            if not (0.0 <= float(v) <= 1.0):
                raise ParameterError(
                    f"jensen chord anchor {label} must lie in [0, 1], got {v}"
                )
        if float(self.alpha) > float(self.beta):
            raise ParameterError(
                f"jensen chord anchors must satisfy alpha <= beta, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )
        if not (float(self.alpha) <= float(self.gamma) <= float(self.beta)):
            raise ParameterError(
                f"gamma must lie in [alpha, beta] = [{self.alpha}, "
                f"{self.beta}], got {self.gamma}"
            )


def skew_anchors(alpha: float) -> JensenChordParams:
    """Jensen chord anchors (alpha, alpha, alpha) for a skew alpha in the
    open interval (0, 1): the anchors at which jensen_chord is the skewed
    Jensen gap."""
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise ParameterError(f"skew must lie in (0, 1), got {alpha}")
    return JensenChordParams(a, a, a)


def jensen(F: Generator, theta1, theta2) -> float:
    """Midpoint convexity gap (F(theta1) + F(theta2))/2 - F(midpoint).

    Symmetric in its arguments; zero iff they coincide for strictly convex F.
    It is jensen_skewed at alpha = 1/2.
    """
    return jensen_skewed(F, theta1, theta2, 0.5)


def jensen_skewed(F: Generator, theta1, theta2, alpha: float) -> float:
    """Skewed Jensen gap (1 - alpha) F(theta1) + alpha F(theta2) - F(m_alpha)
    with m_alpha the alpha interpolant; alpha in the open interval (0, 1).

    Recovers the midpoint gap at alpha = 1/2; (1/alpha) times the gap tends
    to the reverse Bregman divergence as alpha -> 0. It also equals the
    skew-weighted Bregman average (1 - alpha) B_F(theta1 : m_alpha)
    + alpha B_F(theta2 : m_alpha), whose gradient terms cancel. It is
    jensen_chord at skew_anchors(alpha), as are the registry's jensen,
    jensen_skewed and jensen_bregman ids.
    """
    return jensen_chord(F, theta1, theta2, skew_anchors(alpha))


def jensen_chord(F: Generator, theta1, theta2,
                 jcp: JensenChordParams) -> float:
    """Jensen chord divergence J[alpha, beta, gamma](theta1 ; theta2).

    The gamma-position gap between the chord joining the endpoint graph
    points and the chord joining the alpha and beta anchor graph points:

        (1 - gamma) F(theta1) + gamma F(theta2)
            - weighted average of F(m_alpha), F(m_beta)
              at weight (gamma - alpha) / (beta - alpha)

    Non-negative by convexity; equals the skewed Jensen gap when
    alpha = beta = gamma.
    """
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    a, b = float(jcp.alpha), float(jcp.beta)
    # anchors in [0, 1] keep both interpolants in the convex domain
    f_a = float(F.fn((1.0 - a) * t1 + a * t2))
    f_b = f_a if a == b else float(F.fn((1.0 - b) * t1 + b * t2))
    return jensen_gap(float(F.fn(t1)), f_a, f_b, float(F.fn(t2)), jcp)


def jensen_chord_bound(F: Generator, X, jcp: JensenChordParams) -> Callable:
    """jensen_chord's vector form, bound to X (generators.Bound):
    (C, J) -> jensen_chord(F, X[i], C[J[..., i]], jcp) over Bound's
    pairs, bit for bit: jensen_gap over Bound's columns at 0, alpha,
    beta and 1 (0, alpha and 1 when alpha = beta). A call evaluates F
    once per row of C and at the interpolants of the anchors inside
    (0, 1), one column when alpha = beta. Coincident pairs give 0.0.
    Call it under np.errstate(all="ignore"): its gaps give inf and nan
    unwarned."""
    a, b = float(jcp.alpha), float(jcp.beta)
    rows = Bound(F, X, (0.0, a, 1.0) if a == b else (0.0, a, b, 1.0))

    def bound(C, J) -> np.ndarray:
        dead, cols, _ = rows.table(C, J)
        gaps = jensen_gap(cols[0], cols[1], cols[-2], cols[-1], jcp)
        return gaps if dead is None else np.where(dead, 0.0, gaps)
    return bound


def jensen_gap(f1, f_a, f_b, f2, jcp: JensenChordParams):
    """J[alpha, beta, gamma] from F at theta1, at the alpha and beta
    interpolants, and at theta2: floats, or arrays of them."""
    a, b, c = float(jcp.alpha), float(jcp.beta), float(jcp.gamma)
    upper = (1.0 - c) * f1 + c * f2
    if a == b:  # necessarily c == a, so the lower chord degenerates to F(m_c)
        return upper - f_a
    w = (c - a) / (b - a)
    return upper - ((1.0 - w) * f_a + w * f_b)
