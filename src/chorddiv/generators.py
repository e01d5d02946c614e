"""Strictly convex generators, their domains, and line restrictions.

A Generator wraps the evaluation map F: Theta -> R together with an optional
closed-form gradient and an optional closed-form conjugate. Divergences in
this package are built from these pieces; the chord constructions only ever
need evaluations, which is the point of the whole exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
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

DOMAIN_KINDS = ("reals", "positive")

#: Strict clearance a member of the positive domain keeps from its boundary,
#: which guards log and reciprocal evaluations near the edge.
DOMAIN_MARGIN = 1e-12

#: Pairs closer than this in the max norm coincide: every kernel returns 0.0
#: for them, avoiding 0/0 in slope terms, and no line restriction joins them.
DEGENERATE_EPS = 1e-14


@dataclass(frozen=True)
class Domain:
    """Open convex domain descriptor for generator parameters.

    kind:
        reals    -- all of R^D
        positive -- the positive orthant, theta_i > 0

    Membership requires strict clearance of DOMAIN_MARGIN from every
    boundary. Non-finite coordinates are never members.
    """

    kind: str = "reals"

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ParameterError(
                f"unknown domain kind {self.kind!r}; expected one of "
                f"{', '.join(DOMAIN_KINDS)}"
            )

    def contains(self, coords: np.ndarray) -> bool:
        c = np.asarray(coords, dtype=float)
        return bool(np.isfinite(c).all()
                    and (self.kind == "reals" or (c > DOMAIN_MARGIN).all()))


REALS = Domain("reals")
POSITIVE = Domain("positive")


@dataclass(frozen=True, eq=False)
class Generator:
    """A strictly convex function on an open convex domain.

    fn maps a validated coordinate array to a float; grad_fn, when present,
    maps it to the gradient array. conjugate, when present, is the
    closed-form Legendre conjugate F*, itself a Generator whose gradient is
    the inverse of grad F. Instances are immutable value objects and all
    methods are pure.
    """

    name: str
    dim: int
    domain: Domain
    fn: Callable[[np.ndarray], float]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    conjugate: Optional["Generator"] = None

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ParameterError(
                f"generator dimension must be >= 1, got {self.dim}"
            )

    @property
    def has_grad(self) -> bool:
        return self.grad_fn is not None

    def point(self, theta) -> np.ndarray:
        """Coerce input to a validated interior point of the domain.

        Scalars are promoted to 1-vectors so univariate generators accept
        plain floats.
        """
        coords = np.atleast_1d(np.asarray(theta, dtype=float))
        if coords.ndim != 1 or coords.shape[0] != self.dim:
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
    )


def _shannon_negentropy(dim: int) -> Generator:
    # F(t) = sum t_i log t_i on the positive orthant; F*(eta) = sum e^(eta-1).
    conj = Generator(
        name="shannon_negentropy_conjugate",
        dim=dim,
        domain=REALS,
        fn=lambda eta: float(np.sum(np.exp(eta - 1.0))),
        grad_fn=lambda eta: np.exp(eta - 1.0),
    )
    return Generator(
        name="shannon_negentropy",
        dim=dim,
        domain=POSITIVE,
        fn=lambda t: float(np.sum(t * np.log(t))),
        grad_fn=lambda t: 1.0 + np.log(t),
        conjugate=conj,
    )


def _burg_negentropy(dim: int) -> Generator:
    return Generator(
        name="burg_negentropy",
        dim=dim,
        domain=POSITIVE,
        fn=lambda t: -float(np.sum(np.log(t))),
        grad_fn=lambda t: -1.0 / t,
    )


def _log_sum_exp(dim: int) -> Generator:
    # F(t) = log(1 + sum e^(t_i)), shifted so the max exponent (including the
    # implicit zero term) is factored out before exponentiation.
    def fn(t: np.ndarray) -> float:
        m = max(0.0, float(np.max(t)))
        return m + float(np.log(np.exp(-m) + np.sum(np.exp(t - m))))

    return Generator(
        name="log_sum_exp",
        dim=dim,
        domain=REALS,
        fn=fn,
        grad_fn=lambda t: np.exp(t - fn(t)),
    )


_BUILTIN_FACTORIES = {
    "quadratic": _quadratic,
    "shannon_negentropy": _shannon_negentropy,
    "burg_negentropy": _burg_negentropy,
    "log_sum_exp": _log_sum_exp,
}

#: Stable identifiers accepted by make_builtin (and the CLI --generator flag).
BUILTIN_GENERATORS = tuple(_BUILTIN_FACTORIES)


def make_builtin(name: str, dim: int) -> Generator:
    """Construct a built-in generator by its stable identifier.

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
    return factory(int(dim))


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

    @property
    def has_deriv(self) -> bool:
        return self.base.has_grad

    def deriv(self, lam: float) -> float:
        """d/dlam via the chain rule on the base gradient."""
        g = self.base.grad(self.point_at(lam))
        return float(np.dot(self.theta2 - self.theta1, g))


def coincide(t1: np.ndarray, t2: np.ndarray):
    """Whether two points are closer than DEGENERATE_EPS in the max norm;
    row by row, as a boolean array, when t1 is an (m, dim) block."""
    return np.abs(t1 - t2).max(axis=-1) < DEGENERATE_EPS


def endpoints(F: Generator, theta1, theta2) -> Optional[tuple]:
    """The argument step of every generator kernel: both points validated
    by F, as (t1, t2), or None when they coincide."""
    t1 = F.point(theta1)
    t2 = F.point(theta2)
    return None if coincide(t1, t2) else (t1, t2)


def restrict_to_line(F: Generator, theta1, theta2) -> LineRestriction:
    """Restrict a generator to the segment through theta1 and theta2.

    Both endpoints must be interior domain points and must not coincide.
    """
    if (ends := endpoints(F, theta1, theta2)) is None:
        raise DegenerateRestrictionError("line restriction endpoints coincide")
    return LineRestriction(F, *ends)
