"""Strictly convex generators, their domains, and line restrictions.

A Generator wraps the evaluation map F: Theta -> R together with an optional
closed-form gradient and an optional closed-form conjugate. Divergences in
this package are built from these pieces; the chord constructions only ever
need evaluations, which is the point of the whole exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateRestrictionError,
    DomainError,
    GradientRequiredError,
    ParameterError,
    ShapeError,
    UnsupportedGeneratorError,
)
from .numerics import whole_number

DOMAIN_KINDS = ("reals", "positive")

#: Strict clearance a member of the positive domain keeps from its boundary,
#: which guards log and reciprocal evaluations near the edge.
DOMAIN_MARGIN = 1e-12

#: Pairs closer than this in the max norm coincide: every kernel returns 0.0
#: for them, avoiding 0/0 in slope terms, and no line restriction joins them.
DEGENERATE_EPS = 1e-14

#: Domain checks decide arrays of at most this many entries by Python float
#: comparisons and larger ones by two numpy ufunc reductions. A reduction
#: costs about 1.5 us however few its entries, a comparison about 0.05 us
#: per entry, so the comparisons cost what one reduction does at about 32
#: entries and what the two do near 50.
SMALL_ARRAY = 32


@dataclass(frozen=True)
class Domain:
    """Open convex domain descriptor for generator parameters.

    kind:
        reals    -- all of R^D
        positive -- the positive orthant, theta_i > 0

    Membership requires strict clearance of DOMAIN_MARGIN from every
    boundary. Non-finite coordinates are never members (NaN fails, empty
    passes). finite_above decides, at floor -inf on the reals and at
    DOMAIN_MARGIN on the positive orthant.
    """

    kind: str = "reals"

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ParameterError(
                f"unknown domain kind {self.kind!r}; expected one of "
                f"{', '.join(DOMAIN_KINDS)}"
            )

    def contains(self, coords: np.ndarray) -> bool:
        floor = DOMAIN_MARGIN if self.kind == "positive" else -math.inf
        return finite_above(np.asarray(coords, dtype=float), floor)


def finite_above(c: np.ndarray, floor: float) -> bool:
    """Whether every entry of the float64 array c is finite and above
    floor; NaN fails and an empty array passes. Up to SMALL_ARRAY entries,
    by Python float comparisons, floor < v < inf for each entry v, which
    NaN fails both of; beyond it, by two ufunc reductions, the minimum and
    the maximum, through which NaN propagates."""
    if c.size <= SMALL_ARRAY:
        for v in c.ravel().tolist():
            if not floor < v < math.inf:
                return False
        return True
    return bool(np.minimum.reduce(c, axis=None, initial=np.inf) > floor
                and np.maximum.reduce(c, axis=None, initial=-np.inf) < np.inf)


def as_vector(theta) -> np.ndarray:
    """theta as a float array, a scalar promoted to a 1-vector (what
    np.atleast_1d does)."""
    v = np.asarray(theta, dtype=float)
    return v.reshape(1) if v.ndim == 0 else v


REALS = Domain("reals")
POSITIVE = Domain("positive")


@dataclass(frozen=True, eq=False)
class Generator:
    """A strictly convex function on an open convex domain.

    fn maps a validated coordinate array to a float; grad_fn, when present,
    maps it to the gradient array. conjugate, when present, is the
    closed-form Legendre conjugate F*, itself a Generator whose gradient is
    the inverse of grad F. rows, when present, is fn over rows: it maps a
    (..., dim) array of validated points to the (...) array of fn over its
    last axis, each value equal to fn's bit for bit, so line_table makes
    one rows call per block; without it line_table calls fn per point.
    The same rule holds for gradients: on a generator with rows, grad_fn
    maps a (..., dim) array row by row, each row equal to grad_fn's on
    that row bit for bit (every builtin's does); on one without rows it
    takes one point, and grad_rows calls it per row.
    builtin is the identifier make_builtin built the generator from, and
    None on every other generator; rules that hold for one builtin only,
    such as the member-mean centroid under quadratic or the lockstep
    search of the SEPARABLE builtins, key on it, never on name, which any
    generator may take. Instances are immutable value objects and all
    methods are pure.
    """

    name: str
    dim: int
    domain: Domain
    fn: Callable[[np.ndarray], float]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    conjugate: Optional["Generator"] = None
    rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    builtin: Optional[str] = None

    def __post_init__(self):
        whole_number("generator dimension", self.dim, 1)

    @property
    def has_grad(self) -> bool:
        return self.grad_fn is not None

    def point(self, theta) -> np.ndarray:
        """Coerce input to a validated interior point of the domain.

        Scalars are promoted to 1-vectors so univariate generators accept
        plain floats.
        """
        coords = as_vector(theta)
        if coords.shape != (self.dim,):
            raise ShapeError(
                f"{self.name} expects a point of dimension {self.dim}, got "
                f"shape {coords.shape}"
            )
        if not self.domain.contains(coords):
            raise DomainError(
                f"point {coords.tolist()} is outside the {self.domain.kind} "
                f"domain of {self.name}"
            )
        return coords

    def __call__(self, theta) -> float:
        return float(self.fn(self.point(theta)))

    def grad(self, theta) -> np.ndarray:
        if self.grad_fn is None:
            raise GradientRequiredError(
                f"generator {self.name} defines no gradient"
            )
        return np.asarray(self.grad_fn(self.point(theta)), dtype=float)

    def grad_rows(self, T: np.ndarray) -> np.ndarray:
        """grad_fn over the rows of the (m, dim) array T of validated
        points, by the gradient-rows rule: one grad_fn call on a generator
        with rows, one per row on one without."""
        if self.rows is not None:
            return np.asarray(self.grad_fn(T), dtype=float)
        return np.array([self.grad_fn(t) for t in T],
                        dtype=float).reshape(T.shape)


def _quadratic(dim: int) -> Generator:
    conj = Generator(
        name="quadratic_conjugate",
        dim=dim,
        domain=REALS,
        fn=lambda eta: float(np.dot(eta, eta)) / 4.0,
        grad_fn=lambda eta: 0.5 * eta,
    )
    return Generator(
        name="quadratic",
        dim=dim,
        domain=REALS,
        fn=lambda t: float(np.dot(t, t)),
        grad_fn=lambda t: 2.0 * t,
        conjugate=conj,
        # a stack of dot products; einsum and sum(T * T) round differently
        rows=lambda T: (T[..., None, :] @ T[..., :, None])[..., 0, 0],
    )


def _shannon_negentropy(dim: int) -> Generator:
    # F(t) = sum t_i log t_i on the positive orthant; F*(eta) = sum e^(eta-1).
    conj = Generator(
        name="shannon_negentropy_conjugate",
        dim=dim,
        domain=REALS,
        fn=lambda eta: float(np.add.reduce(np.exp(eta - 1.0), axis=None)),
        grad_fn=lambda eta: np.exp(eta - 1.0),
    )
    return Generator(
        name="shannon_negentropy",
        dim=dim,
        domain=POSITIVE,
        fn=lambda t: float(np.add.reduce(t * np.log(t), axis=None)),
        grad_fn=lambda t: 1.0 + np.log(t),
        conjugate=conj,
        rows=lambda T: np.add.reduce(T * np.log(T), axis=-1),
    )


def _burg_negentropy(dim: int) -> Generator:
    return Generator(
        name="burg_negentropy",
        dim=dim,
        domain=POSITIVE,
        fn=lambda t: -float(np.add.reduce(np.log(t), axis=None)),
        grad_fn=lambda t: -1.0 / t,
        rows=lambda T: np.add.reduce(-np.log(T), axis=-1),
    )


def _log_sum_exp(dim: int) -> Generator:
    # F(t) = log(1 + sum e^(t_i)), shifted so the max exponent (including the
    # implicit zero term) is factored out before exponentiation.
    def fn(t: np.ndarray) -> float:
        m = max(0.0, float(np.maximum.reduce(t, axis=None)))
        return m + float(np.log(np.exp(-m)
                                + np.add.reduce(np.exp(t - m), axis=None)))

    def rows(T: np.ndarray) -> np.ndarray:
        m = np.maximum(0.0, np.maximum.reduce(T, axis=-1))
        return m + np.log(np.exp(-m)
                          + np.add.reduce(np.exp(T - m[..., None]), axis=-1))

    def grad_fn(t: np.ndarray) -> np.ndarray:
        # grad F(t) = e^(t - F(t)); one point takes fn, which costs less
        # there than rows and equals it bit for bit
        return np.exp(t - (fn(t) if t.ndim == 1 else rows(t)[..., None]))

    return Generator(
        name="log_sum_exp",
        dim=dim,
        domain=REALS,
        fn=fn,
        grad_fn=grad_fn,
        rows=rows,
    )


_BUILTIN_FACTORIES = {
    "quadratic": _quadratic,
    "shannon_negentropy": _shannon_negentropy,
    "burg_negentropy": _burg_negentropy,
    "log_sum_exp": _log_sum_exp,
}

#: Stable identifiers accepted by make_builtin (and the CLI --generator flag).
BUILTIN_GENERATORS = tuple(_BUILTIN_FACTORIES)

#: The builtins F(t) = sum_j f(t_j), f the builtin at dim 1: their rows
#: are f's rows summed over the coordinates, bit for bit.
SEPARABLE = ("shannon_negentropy", "burg_negentropy")


def make_builtin(name: str, dim: int) -> Generator:
    """Construct a built-in generator by its stable identifier, which it
    records as the generator's builtin field.

    quadratic           sum t_i^2 on R^D, with conjugate
    shannon_negentropy  sum t_i log t_i on the positive orthant, with conjugate
    burg_negentropy     -sum log t_i on the positive orthant (no conjugate)
    log_sum_exp         log(1 + sum e^(t_i)) on R^D (no conjugate)
    """
    factory = _BUILTIN_FACTORIES.get(name)
    if factory is None:
        raise UnsupportedGeneratorError(
            f"unknown generator {name!r}; known generators: "
            f"{', '.join(BUILTIN_GENERATORS)}"
        )
    return replace(factory(dim), builtin=name)


@dataclass(frozen=True, eq=False)
class LineRestriction:
    """The univariate generator lam -> F((1 - lam) theta1 + lam theta2).

    Strictly convex in lam whenever the base generator is strictly convex on
    the segment, which is what makes the chord constructions dimension-free.
    """

    base: Generator
    theta1: np.ndarray
    theta2: np.ndarray

    def point_at(self, lam: float) -> np.ndarray:
        return (1.0 - lam) * self.theta1 + lam * self.theta2

    def __call__(self, lam: float) -> float:
        return self.base(self.point_at(lam))


def coincide(t1: np.ndarray, t2: np.ndarray):
    """Whether two points are closer than DEGENERATE_EPS in the max norm;
    row by row, as a boolean array, for blocks of points."""
    return np.maximum.reduce(np.abs(t1 - t2), axis=-1) < DEGENERATE_EPS


def rows_pair(X: np.ndarray, Y: np.ndarray) -> bool:
    """Whether the arrays X and Y are 2-D blocks of one width whose rows
    pair as numpy broadcasts them: as many rows, or one a single row."""
    return (X.ndim == Y.ndim == 2 and X.shape[1] == Y.shape[1]
            and (X.shape[0] == Y.shape[0] or 1 in (X.shape[0], Y.shape[0])))


def endpoints(F: Generator, theta1, theta2) -> Optional[tuple]:
    """The argument step of every generator kernel: both points validated
    by F, as (t1, t2), or None when they coincide. Validated points are
    finite, so up to SMALL_ARRAY entries coincide's verdict is taken by
    abs(a - b) < DEGENERATE_EPS over their Python floats (about 0.6 us at
    d = 2, against 1.7 us for coincide's reduction)."""
    t1 = F.point(theta1)
    t2 = F.point(theta2)
    if t1.size > SMALL_ARRAY:
        return None if coincide(t1, t2) else (t1, t2)
    for a, b in zip(t1.tolist(), t2.tolist()):
        if not abs(a - b) < DEGENERATE_EPS:
            return t1, t2
    return None


def _validate(F: Generator, points: np.ndarray) -> None:
    """One domain check of the (..., dim) array points; F.point's
    DomainError for the first of them outside, in row-major order."""
    if not F.domain.contains(points):
        for p in points.reshape(-1, F.dim):
            F.point(p)


def _values(F: Generator, points: np.ndarray) -> np.ndarray:
    """F over the (..., dim) array of validated points: one F.rows call,
    or one F.fn call per point on a generator without rows."""
    if F.rows is not None:
        return np.asarray(F.rows(points), dtype=float)
    return np.array([float(F.fn(p)) for p in points.reshape(-1, F.dim)]
                    ).reshape(points.shape[:-1])


def _table(F: Generator, points: np.ndarray, dead) -> np.ndarray:
    """The validate-and-evaluate body of line_table and Bound: F at the
    (..., dim) array points after one domain check of all of them, and
    0.0 for no evaluation where dead, a mask over points' leading axes
    but its last, is True; dead is None when it would be all False."""
    _validate(F, points)
    if dead is None:
        return _values(F, points)
    live = ~dead
    table = np.zeros(points.shape[:-1])
    table[live] = _values(F, points[live])
    return table


def line_table(F: Generator, X, Y, lams) -> np.ndarray:
    """The (m, len(lams)) array of F((1 - lam) X[i] + lam Y[i]) over the
    row pairs (rows_pair) of X and Y, each an (m, dim) block or one
    (1, dim) row: row i is restrict_to_line(F, X[i], Y[i]) at lams, bit
    for bit. Both blocks get one shape check, then Y and the whole table
    of points one domain check each, before any evaluation, which raises
    F.point's DomainError for the first row or point outside. Rows whose
    points coincide hold 0.0 and cost no F evaluation; the others take
    one F.rows call when F has a row evaluator (every builtin does), and
    one F.fn call per point when it has none.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not (rows_pair(X, Y) and X.shape[1] == F.dim):
        raise ShapeError(f"{F.name} expects (m, {F.dim}) or (1, {F.dim}) "
                         f"blocks of points that pair row by row, got "
                         f"shapes {X.shape} and {Y.shape}")
    _validate(F, Y)
    lam = np.asarray(lams, dtype=float)[:, None]
    # [i, j]: the pair of row i at lams[j]
    points = (1.0 - lam) * X[:, None] + lam * Y[:, None]
    dead = coincide(X, Y)
    return _table(F, points, dead if dead.any() else None)


class Bound:
    """line_table's columns at fixed lams over pairs of a bound block X,
    an (n, dim) array, and the rows of a moving block C: pair i is
    (X[i], C[J[..., i]]), or (C[J[..., i]], X[i]) with swap, for an
    integer index J whose last axis has n entries or one for every row.

    Binding validates X (F.point's DomainError for its first row
    outside), evaluates F at its rows once and forms X's share of every
    interpolant. table(C, J) then checks C, naming the first row outside
    in the order J pairs them, and the interpolants, and evaluates F
    once per row of C (when a column at C's end needs it) and, by
    _table, at the interior lams. Each column is line_table's bit for
    bit, interpolants (1 - lam) first + lam second included, and pairs
    whose points coincide cost no interior evaluation.
    """

    def __init__(self, F: Generator, X, lams, swap: bool = False):
        X = np.ascontiguousarray(X, dtype=float)
        if not (X.ndim == 2 and X.shape[1] == F.dim):
            raise ShapeError(f"{F.name} expects an (n, {F.dim}) block of "
                             f"points to bind, got shape {X.shape}")
        _validate(F, X)
        self.F, self.X, self.fX = F, X, _values(F, X)
        lams = [float(lam) for lam in lams]
        inner = [lam for lam in lams if lam not in (0.0, 1.0)]
        # each column's source: fX, F at C, or an interior column
        ends = {0.0: "c" if swap else "x", 1.0: "x" if swap else "c"}
        self.plan = [ends[lam] if lam in ends else inner.index(lam)
                     for lam in lams]
        lam = np.array(inner)[:, None]
        # interpolant (1 - lam) first + lam second = X's share + C's share
        self.x_share = (lam if swap else 1.0 - lam) * X[:, None] if inner \
            else None
        self.c_weight = 1.0 - lam if swap else lam

    def table(self, C, J) -> tuple:
        """(dead, columns, Y): Y = C[J], the moving points of the pairs;
        dead the mask of pairs whose points coincide, or None when none
        do; columns[l] the array of F at lams[l] over the pairs, of J's
        shape with n entries in its last axis, 0.0 on dead pairs at
        the interior lams."""
        F, X = self.F, self.X
        C = np.asarray(C, dtype=float)
        J = np.asarray(J)
        if not (C.ndim == 2 and C.shape[1] == F.dim and J.ndim
                and J.shape[-1] in (X.shape[0], 1)):
            raise ShapeError(f"{F.name} expects an (m, {F.dim}) block and "
                             f"an index of {X.shape[0]} or 1 entries per "
                             f"row, got shapes {C.shape} and {J.shape}")
        if not F.domain.contains(C):
            for j in J.ravel().tolist():
                F.point(C[j])  # raises at the first row outside
            _validate(F, C)  # or at one that no pair reaches
        Y = C[J]
        dead = None
        # a pair coincides only if some coordinate gap is below the bound
        if np.minimum.reduce(np.abs(X - Y), axis=None,
                             initial=math.inf) < DEGENERATE_EPS:
            dead = coincide(X, Y)
            dead = dead if dead.any() else None
        if self.x_share is not None:
            table = _table(F, self.x_share + self.c_weight * Y[..., None, :],
                           dead)
        f_c = _values(F, C)[J] if "c" in self.plan else None
        columns = [self.fX if at == "x" else f_c if at == "c"
                   else table[..., at] for at in self.plan]
        return dead, columns, Y


def restrict_to_line(F: Generator, theta1, theta2) -> LineRestriction:
    """Restrict a generator to the segment through theta1 and theta2.

    Both endpoints must be interior domain points and must not coincide.
    """
    if (ends := endpoints(F, theta1, theta2)) is None:
        raise DegenerateRestrictionError("line restriction endpoints coincide")
    return LineRestriction(F, *ends)
