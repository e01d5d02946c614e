"""Shared numerical machinery.

Central finite differences, bracketing root finding, and derivative-free 1-D
(one coordinate, or several in lockstep) and coordinate-descent
minimization. The solvers are deliberately small and deterministic: no
randomized restarts, fixed evaluation budgets derived from the bracket
width and the tolerance. The coordinate search returns a Minimum
that says whether it ran out of sweeps and whether it ended on its box.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BracketError, DomainError, ParameterError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0       # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0    # 1/phi^2


def whole_number(label: str, value, least: int) -> int:
    """value, a Python or numpy integer >= least, as an int; anything else,
    a float such as 2.0 included, raises ParameterError."""
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{label} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{label} must be >= {least}, got {value}")
    return int(value)


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

    It is golden_lockstep on one coordinate. The lockstep form serves
    separable objectives: for F = sum_j f(t_j), each point on a line
    restriction gives G(lam) = sum_j G_j(lam), and the chord and Jensen
    gaps are linear in G, so sum_i D(x_i : c) = sum_j H_j(c_j) with H_j
    reading coordinate j alone. Coordinate descent then finds every H_j's
    minimizer in its first sweep, which is already its fixed point, so
    one lockstep search over the d coordinates gives what the sweeps
    would.
    """
    return float(golden_lockstep(lambda v: (g(v[0]),), [lo], [hi], tol)[0])


def golden_lockstep(g: Callable[[list], Sequence[float]],
                    lo: Sequence[float], hi: Sequence[float],
                    tol: float = 1e-8) -> np.ndarray:
    """golden_minimize on d unimodal functions at once, one per coordinate
    of the box [lo, hi]: x[j] minimizes g_j on [lo[j], hi[j]], bit for bit
    as golden_minimize(g_j, lo[j], hi[j], tol) finds it.

    g maps a list v of d floats, v[j] in [lo[j], hi[j]], to the d values
    g_j(v[j]). Each call probes every coordinate; one whose search has
    ended (or whose interval is no wider than tol, which needs none) is
    probed inside its interval and its value ignored. The call count is
    that of the widest interval's golden_minimize, and 0 when every
    interval is within tol.
    """
    lo_a = np.array(lo, dtype=float, ndmin=1)
    hi_a = np.array(hi, dtype=float, ndmin=1)
    if (lo_a.shape != hi_a.shape or lo_a.ndim != 1
            or not (np.isfinite(lo_a).all() and np.isfinite(hi_a).all())
            or (lo_a > hi_a).any()):
        raise BracketError(
            f"invalid interval: lo {lo_a.tolist()}, hi {hi_a.tolist()}")
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    # the state is Python floats, which round as float64 arrays do
    lo, hi = lo_a.tolist(), hi_a.tolist()
    width = [b - a for a, b in zip(lo, hi)]
    steps = [math.ceil(math.log(tol / w) / math.log(INV_PHI)) if w > tol
             else 0 for w in width]
    if not any(steps):
        return 0.5 * (lo_a + hi_a)
    c = [a + INV_PHI_SQ * w for a, w in zip(lo, width)]
    d = [a + INV_PHI * w for a, w in zip(lo, width)]
    g_c = [float(v) for v in g(c)]
    g_d = [float(v) for v in g(d)]
    live = range(len(lo))
    for step in range(1, max(steps)):
        live = [j for j in live if steps[j] > step]
        probe = d.copy()  # a coordinate whose search has ended stays at d
        left = {}  # j -> whether coordinate j probes its c
        for j in live:
            width[j] *= INV_PHI
            left[j] = g_c[j] < g_d[j]
            if left[j]:
                hi[j], d[j], g_d[j] = d[j], c[j], g_c[j]
                c[j] = probe[j] = lo[j] + INV_PHI_SQ * width[j]
            else:
                lo[j], c[j], g_c[j] = c[j], d[j], g_d[j]
                d[j] = probe[j] = lo[j] + INV_PHI * width[j]
        value = g(probe)
        for j in live:
            if left[j]:
                g_c[j] = float(value[j])
            else:
                g_d[j] = float(value[j])
    return np.array([
        0.5 * (lo[j] + hi[j]) if not steps[j]
        else 0.5 * (lo[j] + d[j]) if g_c[j] < g_d[j]
        else 0.5 * (c[j] + hi[j])
        for j in range(len(lo))])


class Minimum(NamedTuple):
    """How a box search ended: coordinate_minimize, or the one-sweep
    lockstep search that clustering runs for a separable generator.

    x is the lowest point between sweeps: the start of the sweep that did
    not lower the objective, or the end of the last sweep when capped.
    sweeps counts every sweep run, that last one included. capped means the
    sweep limit ran out while each sweep still lowered the objective; a
    lockstep search is one sweep, never capped, whose x is the mean it
    started from when the point it found is not lower. on_edge means, as
    on_box_edge decides, that some coordinate of x whose box is wider than
    tol lies within max(1e-6 * width, tol) of lo or hi, so the true
    minimizer may lie outside the box.
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
    (an integer >= 1) is hit. Returns a Minimum at the lowest point
    between sweeps, saying which of the two happened and whether that
    point lies on the box edge.
    A non-finite g at the start or after a sweep raises DomainError.
    Deterministic for a fixed start.
    """
    max_sweeps = whole_number("max_sweeps", max_sweeps, 1)
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
    return Minimum(x, sweeps, capped, on_box_edge(x, lo, hi, tol))


def on_box_edge(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                tol: float) -> bool:
    """Minimum.on_edge: whether some coordinate of x whose box [lo, hi] is
    wider than tol lies within max(1e-6 * width, tol) of lo or hi."""
    width = hi - lo
    edge_tol = np.maximum(1e-6 * width, tol)
    on_edge = (width > tol) & ((x - lo <= edge_tol) | (hi - x <= edge_tol))
    return bool(np.any(on_edge))
