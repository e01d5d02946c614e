"""Shared numerical machinery.

Central finite differences, bracketing root finding, and derivative-free 1-D
and coordinate-descent minimization. The solvers are deliberately small and
deterministic: no randomized restarts, fixed evaluation budgets derived from
the bracket width and the tolerance. The coordinate search returns a Minimum
that says whether it ran out of sweeps and whether it ended on its box.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BracketError, DomainError, ParameterError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0       # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0    # 1/phi^2


def central_diff_grad(F, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a generator at an interior point.

    Uses [F(theta + h e_i) - F(theta - h e_i)] / (2 h) per coordinate. If a
    stencil point falls outside the domain, the step is shrunk once by 10x;
    a second violation raises DomainError.
    """
    if not h > 0.0:
        raise ParameterError(f"step size must be positive, got {h}")
    theta = F.point(theta)
    grad = np.empty(F.dim)
    for i in range(F.dim):
        step = h
        for _ in range(2):
            up = theta.copy()
            up[i] += step
            dn = theta.copy()
            dn[i] -= step
            if F.domain.contains(up) and F.domain.contains(dn):
                grad[i] = (float(F.fn(up)) - float(F.fn(dn))) / (2.0 * step)
                break
            step /= 10.0
        else:
            raise DomainError(
                f"finite-difference stencil leaves the domain of {F.name} at "
                f"coordinate {i} (theta={theta.tolist()}, h={h})"
            )
    return grad


def bisect_root(g: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-10) -> float:
    """Bisection root of a scalar function on a sign-changing bracket.

    Halves [lo, hi] until its width drops below tol and returns the bracket
    midpoint; one evaluation of g per halving, so the total evaluation count
    is bounded by ceil(log2((hi - lo)/tol)) + 2.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    g_lo = g(lo)
    if g_lo == 0.0:
        return lo
    g_hi = g(hi)
    if g_hi == 0.0:
        return hi
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={g_lo}, g(hi)={g_hi}"
        )
    while hi - lo > tol:
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


def golden_minimize(g: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-8) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi].

    Shrinks the bracket by 1/phi per iteration until its width drops below
    tol, then returns the midpoint of the surviving bracket; lands within
    tol of a boundary when the minimizer sits there. Evaluation count is
    ceil(log(tol/(hi-lo)) / log(1/phi)) + 1.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise BracketError(f"invalid interval [{lo}, {hi}]")
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    width = hi - lo
    if width <= tol:
        return 0.5 * (lo + hi)
    n = int(math.ceil(math.log(tol / width) / math.log(INV_PHI)))
    c = lo + INV_PHI_SQ * width
    d = lo + INV_PHI * width
    g_c, g_d = g(c), g(d)
    for _ in range(n - 1):
        if g_c < g_d:
            hi, d, g_d = d, c, g_c
            width *= INV_PHI
            c = lo + INV_PHI_SQ * width
            g_c = g(c)
        else:
            lo, c, g_c = c, d, g_d
            width *= INV_PHI
            d = lo + INV_PHI * width
            g_d = g(d)
    return 0.5 * (lo + d) if g_c < g_d else 0.5 * (c + hi)


class Minimum(NamedTuple):
    """How coordinate_minimize ended.

    x is the lowest point between sweeps: the start of the sweep that did
    not lower the objective, or the end of the last sweep when capped.
    sweeps counts every sweep run, that last one included. capped means the
    sweep limit ran out while each sweep still lowered the objective.
    on_edge means some coordinate of x whose box is wider than tol lies
    within max(1e-6 * width, tol) of lo or hi, so the true minimizer may
    lie outside the box.
    """

    x: np.ndarray
    sweeps: int
    capped: bool
    on_edge: bool


def coordinate_minimize(g: Callable[[np.ndarray], float],
                        lo: Sequence[float], hi: Sequence[float],
                        x0: Optional[Sequence[float]] = None,
                        tol: float = 1e-10, max_sweeps: int = 60) -> Minimum:
    """Round-robin per-coordinate golden-section descent over a box.

    Sweeps coordinates in index order, minimizing each 1-D slice with
    golden_minimize to tol, until a sweep does not lower g or max_sweeps
    is hit. Returns a Minimum at the lowest point between sweeps, saying
    which of the two happened and whether that point lies on the box edge.
    A non-finite g at the start or after a sweep raises DomainError.
    Deterministic for a fixed start.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise BracketError(f"box bounds disagree: {lo.shape} vs {hi.shape}")
    if np.any(lo > hi):
        raise BracketError("box has lo > hi on some coordinate")
    x = 0.5 * (lo + hi) if x0 is None else np.asarray(x0, dtype=float).copy()
    np.clip(x, lo, hi, out=x)
    last, sweeps, capped = math.inf, 0, True
    while True:
        now = float(g(x))
        if not math.isfinite(now):
            raise DomainError(f"objective is {now} at {x.tolist()}")
        if not now < last:
            x, capped = before, False
            break
        if sweeps == max_sweeps:
            break
        last, sweeps, before = now, sweeps + 1, x.copy()
        for i in range(x.size):
            def slice_obj(v: float, i: int = i) -> float:
                y = x.copy()
                y[i] = v
                return g(y)

            x[i] = golden_minimize(slice_obj, lo[i], hi[i], tol)
    width = hi - lo
    edge_tol = np.maximum(1e-6 * width, tol)
    on_edge = (width > tol) & ((x - lo <= edge_tol) | (hi - x <= edge_tol))
    return Minimum(x, sweeps, capped, bool(np.any(on_edge)))
