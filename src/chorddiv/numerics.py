"""Shared numerical machinery: derivative-free 1-D (one coordinate, or
several in lockstep) and coordinate-descent minimization.

The 1-D minimizer is Brent's method: golden-section search with parabolic
steps, which stops once its bracket is within a tolerance of the best
point that it derives from the bracket's width (see golden_minimize),
written once as a generator that golden_lockstep runs per coordinate.
The searches take no tolerance, so a box scaled by s is searched at s
times the same probes. The solvers are deliberately small and
deterministic: no randomized restarts, and every budget follows from the
bracket, the values seen and MAX_SWEEPS. The coordinate search returns a
Minimum that says whether it ran out of sweeps and whether it ended on
its box.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BracketError, DomainError, ParameterError, ShapeError

INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0    # 1/phi^2, the golden step
SQRT_EPS = math.sqrt(2.0 ** -52)             # sqrt of float64's epsilon
#: Brent's absolute tolerance t as a share of the width of the interval
#: searched, t = BRACKET_TOL (hi - lo).
BRACKET_TOL = 3e-9
#: on_box_edge's reach as a share of the width of a box side.
EDGE_REACH = 1e-6
#: The most sweeps coordinate_minimize runs, and the most SQUAREM cycles
#: of clustering's concave-convex update.
MAX_SWEEPS = 100


def whole_number(label: str, value, least: int) -> int:
    """value, a Python or numpy integer >= least, as an int; anything else,
    a float such as 2.0 or a bool included, raises ParameterError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{label} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{label} must be >= {least}, got {value}")
    return int(value)


def golden_minimize(g: Callable[[float], float], lo: float,
                    hi: float) -> float:
    """Brent's minimizer of a unimodal function on [lo, hi]: golden-section
    search plus parabolic steps (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973; the method of scipy's fminbound), no
    gradient needed.

    It keeps a bracket [a, b] and the three lowest points probed. Where
    the parabola through them has its vertex inside the bracket, less
    than half the step before last away, it probes the vertex; otherwise
    it takes a golden-section step into the larger side of the bracket.
    No step is shorter than tol1 = min(sqrt(eps) |x| + t / 3, reach / 4),
    x the lowest point, t = BRACKET_TOL (hi - lo) Brent's absolute term
    taken from the interval, and reach = EDGE_REACH (hi - lo) the distance
    within which on_box_edge counts a point as on the edge. The search
    stops once a and b both lie within 2 tol1 of x, or when a step no
    longer moves x in floating point. Every term scales with the
    interval, so [s lo, s hi] is searched at s times the probes of
    [lo, hi], up to rounding. The cap keeps the search as fine as a narrow
    box: it ends within reach / 2 of the minimizer, where sqrt(eps) |x|
    alone can exceed the box's width. A bracket end that is still lo or
    hi then was never probed, so the search probes it, and takes it if it
    is not higher than x; a minimizer past the box thus gives the edge
    itself. It returns the lowest point probed. A zero-width interval
    gives its point for no call. On the parabola (v - 0.77)^2 on [0, 1]
    the search makes 6 calls, where golden section alone makes 37.

    It is golden_lockstep on one coordinate: the search is a generator
    that yields each probe and is sent g's value. The lockstep form serves
    separable objectives: for F = sum_j f(t_j), each point on a line
    restriction gives G(lam) = sum_j G_j(lam), and the chord and Jensen
    gaps are linear in G, so sum_i D(x_i : c) = sum_j H_j(c_j) with H_j
    reading coordinate j alone. Coordinate descent then finds every H_j's
    minimizer in its first sweep, which is already its fixed point, so
    one lockstep search over the d coordinates gives what the sweeps
    would.
    """
    return float(golden_lockstep(lambda v: (g(v[0]),), [lo], [hi])[0])


def _brent(lo: float, hi: float):
    """golden_minimize's search as a generator: it yields each point to
    probe, is sent g's value there, and returns the lowest point probed.
    It keeps the bracket [a, b], the best point x, the second best w and
    the one before v, their values, and the last two steps d and e."""
    width = hi - lo
    if width == 0.0:
        return lo
    t = BRACKET_TOL * width
    cap = EDGE_REACH * width / 4.0  # on_box_edge's reach / 4
    a, b = lo, hi
    x = w = v = lo + INV_PHI_SQ * width
    fx = fw = fv = yield x
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = min(SQRT_EPS * abs(x) + t / 3.0, cap)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if mid >= x else -tol1
        if golden:
            e = (a if x >= mid else b) - x
            d = INV_PHI_SQ * e
        u = x + (d if abs(d) >= tol1 else tol1 if d >= 0.0 else -tol1)
        if u == x or not a < u < b:  # float resolution exhausted
            break
        fu = yield u
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    # a bracket end that is still a box edge was never probed
    if a == lo or b == hi:
        edge = lo if a == lo else hi
        if (yield edge) <= fx:
            return edge
    return x


def _box(lo, hi) -> tuple:
    """lo, hi as float vectors; BracketError unless finite, alike, lo <= hi."""
    lo_a = np.array(lo, dtype=float, ndmin=1)
    hi_a = np.array(hi, dtype=float, ndmin=1)
    if (lo_a.shape != hi_a.shape or lo_a.ndim != 1
            or not (np.isfinite(lo_a).all() and np.isfinite(hi_a).all())
            or (lo_a > hi_a).any()):
        raise BracketError(
            f"invalid interval: lo {lo_a.tolist()}, hi {hi_a.tolist()}")
    return lo_a, hi_a


def golden_lockstep(g: Callable[[list], Sequence[float]],
                    lo: Sequence[float], hi: Sequence[float]) -> np.ndarray:
    """golden_minimize on d unimodal functions at once, one per coordinate
    of the box [lo, hi]: x[j] minimizes g_j on [lo[j], hi[j]], bit for bit
    as golden_minimize(g_j, lo[j], hi[j]) finds it.

    g maps a list v of d floats, v[j] in [lo[j], hi[j]], to the d values
    g_j(v[j]). Each coordinate runs its own search generator; each round
    sends every unfinished search its value, then makes one call of g.
    A coordinate whose search has ended (or whose interval has zero
    width, which needs none) probes its result and its value is ignored.
    The call count is the largest of the coordinates' golden_minimize
    counts, and 0 when every interval has zero width.
    """
    lo_a, hi_a = _box(lo, hi)
    # the searches run on Python floats, which round as float64 arrays do
    live = dict(enumerate(_brent(a, b)
                          for a, b in zip(lo_a.tolist(), hi_a.tolist())))
    x = [None] * len(live)   # each search's probe, then its result
    fx = [None] * len(live)  # g's values at x; None starts a search
    while True:
        for j, search in list(live.items()):
            try:
                x[j] = search.send(fx[j])
            except StopIteration as end:
                x[j] = end.value
                del live[j]
        if not live:
            return np.array(x)
        fx = [float(f) for f in g(list(x))]


class Minimum(NamedTuple):
    """How a center update ended: coordinate_minimize, the one-sweep
    lockstep search that clustering runs for a separable generator, or
    clustering's concave-convex update.

    x is the lowest point between sweeps: the start of the sweep that did
    not lower the objective, or the end of the last sweep when capped.
    sweeps counts every sweep run, that last one included. capped means the
    sweep limit ran out while each sweep still lowered the objective; a
    lockstep search is one sweep, never capped, whose x is the mean it
    started from when the point it found is not lower. on_edge means, as
    on_box_edge decides, that some coordinate of x whose side of the box
    has positive width lies within EDGE_REACH * width of lo or hi, so the
    true minimizer may lie outside the box. A concave-convex update counts
    its maps in sweeps, is capped after MAX_SWEEPS cycles that each
    lowered its objective, and has no box, so on_edge is False.
    """

    x: np.ndarray
    sweeps: int
    capped: bool
    on_edge: bool


def coordinate_minimize(g: Callable[[np.ndarray], float],
                        lo: Sequence[float], hi: Sequence[float],
                        x0: Optional[Sequence[float]] = None) -> Minimum:
    """Round-robin per-coordinate descent over a box.

    Sweeps coordinates in index order, minimizing each 1-D slice with
    golden_minimize (Brent's search), until a sweep does not lower
    g or MAX_SWEEPS sweeps have run. Returns a Minimum at the
    lowest point between sweeps, saying which of the two happened and
    whether that point lies on the box edge. The box gets golden_lockstep's
    check (BracketError), and a start x0 of another shape raises
    ShapeError, before any call of g.
    A non-finite g at the start or after a sweep raises DomainError.
    Deterministic for a fixed start.
    """
    lo, hi = _box(lo, hi)
    x = 0.5 * (lo + hi) if x0 is None else np.array(x0, dtype=float, ndmin=1)
    if x.shape != lo.shape:
        raise ShapeError(f"x0 of shape {x.shape} for a box of {lo.shape}")
    np.clip(x, lo, hi, out=x)
    last, sweeps, capped = math.inf, 0, True
    while True:
        now = float(g(x))
        if not math.isfinite(now):
            raise DomainError(f"objective is {now} at {x.tolist()}")
        if not now < last:
            x, capped = before, False
            break
        if sweeps == MAX_SWEEPS:
            break
        last, sweeps, before = now, sweeps + 1, x.copy()
        for i in range(x.size):
            def slice_obj(v: float, i: int = i) -> float:
                y = x.copy()
                y[i] = v
                return g(y)

            x[i] = golden_minimize(slice_obj, lo[i], hi[i])
    return Minimum(x, sweeps, capped, on_box_edge(x, lo, hi))


def on_box_edge(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Minimum.on_edge: whether some coordinate of x whose side [lo, hi] of
    the box has positive width lies within EDGE_REACH * width of lo or
    hi."""
    width = hi - lo
    reach = EDGE_REACH * width
    on_edge = (width > 0.0) & ((x - lo <= reach) | (hi - x <= reach))
    return bool(np.any(on_edge))
