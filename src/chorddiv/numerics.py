"""Shared numerical machinery.

Central finite differences, bracketing root finding, derivative-free 1-D and
coordinate-descent minimization, and the (alpha, beta) sweep engine used by
the CLI. The solvers are deliberately small and deterministic: no randomized
restarts, fixed evaluation budgets derived from the bracket width and the
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

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
    if h <= 0.0:
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
    if tol <= 0.0:
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
    if tol <= 0.0:
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


def coordinate_minimize(g: Callable[[np.ndarray], float],
                        lo: Sequence[float], hi: Sequence[float],
                        x0: Optional[Sequence[float]] = None,
                        tol: float = 1e-10, max_sweeps: int = 60,
                        stop_tol: Optional[float] = None) -> np.ndarray:
    """Round-robin per-coordinate golden-section descent over a box.

    Sweeps coordinates in index order, minimizing each 1-D slice with
    golden_minimize to tol, until the largest per-coordinate movement in a
    sweep drops to stop_tol (default tol) or max_sweeps is hit.
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
    if stop_tol is None:
        stop_tol = tol
    for _ in range(max_sweeps):
        moved = 0.0
        for i in range(x.size):
            if hi[i] - lo[i] <= tol:
                best = 0.5 * (lo[i] + hi[i])
            else:
                def slice_obj(v: float, i: int = i) -> float:
                    y = x.copy()
                    y[i] = v
                    return g(y)

                best = golden_minimize(slice_obj, lo[i], hi[i], tol)
            moved = max(moved, abs(best - x[i]))
            x[i] = best
        if moved <= stop_tol:
            break
    return x


@dataclass(frozen=True)
class SweepGrid:
    """Anchor grid for chord sweeps: sorted values in (0, 1] on both axes.

    skip_diagonal drops cells with alpha == beta, which are invalid chord
    anchors.
    """

    alpha_values: tuple
    beta_values: tuple
    skip_diagonal: bool = True

    def __post_init__(self):
        for label, values in (("alpha", self.alpha_values),
                              ("beta", self.beta_values)):
            vals = tuple(float(v) for v in values)
            if not vals:
                raise ParameterError(f"{label}_values must be non-empty")
            for v in vals:
                if not (0.0 < v <= 1.0):
                    raise ParameterError(
                        f"{label}_values must lie in (0, 1], got {v}"
                    )
            object.__setattr__(self, f"{label}_values", tuple(sorted(vals)))


def sweep(F, theta1, theta2, grid: SweepGrid, div_id: str,
          params: Optional[Mapping[str, float]] = None) -> list:
    """Evaluate a divergence over an anchor grid, row-major by alpha then beta.

    Returns a list of (alpha, beta, value) tuples; diagonal cells are skipped
    when the grid says so. The grid's alpha and beta override any entries of
    the same name in params.
    """
    from .registry import resolve_divergence  # deferred: registry imports us

    base = dict(params or {})
    rows = []
    for a in grid.alpha_values:
        for b in grid.beta_values:
            if grid.skip_diagonal and a == b:
                continue
            cell = dict(base)
            cell["alpha"] = a
            cell["beta"] = b
            D = resolve_divergence(div_id, F, cell)
            value = float(D(theta1, theta2))
            if not np.isfinite(value):
                raise DomainError(
                    f"sweep cell (alpha={a}, beta={b}) produced a non-finite "
                    f"value {value}"
                )
            rows.append((a, b, value))
    return rows
