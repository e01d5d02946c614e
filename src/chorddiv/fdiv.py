"""f-divergences on positive discrete weight vectors.

A scalar generator f, convex on (0, inf) with f(1) = 0, induces
I_f[p : q] = sum_i p_i f(q_i / p_i). Three generator transforms are exposed:

    dual          f(u) -> u f(1/u)          swaps the arguments
    j_symmetrize  (f + dual f) / 2          Jeffreys-style half sum
    js form       half-sum of divergences to the midpoint mixture

The JS-type symmetrization is defined at the divergence level. Each
divergence takes two weight vectors and gives a float, or two blocks
whose rows pair as generators.rows_pair says and gives the array of its
values over the row pairs, each row's bit for bit as the vector form's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, \
    UnsupportedGeneratorError
from .generators import finite_above, rows_pair


@dataclass(frozen=True, eq=False)
class FGenerator:
    """Convex scalar generator on (0, inf) with f(1) = 0.

    fn must be vectorized over positive float arrays (plain numpy
    expressions are). __call__ evaluates at a single positive ratio.
    """

    name: str
    fn: Callable

    def __post_init__(self):
        probe = float(self.fn(1.0))
        if not abs(probe) <= 1e-12:
            raise ParameterError(
                f"f generator {self.name!r} must vanish at 1, got f(1)={probe}"
            )

    def __call__(self, u: float) -> float:
        u = float(u)
        if not (np.isfinite(u) and u > 0.0):
            raise DomainError(
                f"f generator {self.name!r} is defined on (0, inf), got {u}"
            )
        return float(self.fn(u))


_F_FUNCTIONS = {
    "kl": lambda u: -np.log(u),
    "tv": lambda u: 0.5 * np.abs(u - 1.0),
    "chi2": lambda u: (u - 1.0) ** 2,
}

#: Stable identifiers accepted by make_f_generator.
F_GENERATOR_NAMES = tuple(_F_FUNCTIONS)


def make_f_generator(name: str) -> FGenerator:
    """Construct a built-in scalar generator by its stable identifier.

    kl     -log u        (induces KL[p : q])
    tv     |u - 1| / 2   (induces total variation)
    chi2   (u - 1)^2     (induces Neyman chi-square)
    """
    fn = _F_FUNCTIONS.get(name)
    if fn is None:
        raise UnsupportedGeneratorError(
            f"unknown f generator {name!r}; known generators: "
            f"{', '.join(F_GENERATOR_NAMES)}"
        )
    return FGenerator(name, fn)


Weights = Union[np.ndarray, list, tuple]


def _weights(x: Weights, label: str) -> np.ndarray:
    # C order: numpy sums a block's rows in the order it sums one row
    w = np.ascontiguousarray(x, dtype=float)
    if w.ndim not in (1, 2):
        raise ShapeError(f"{label} must be a 1-D vector or a 2-D block of "
                         f"rows, got shape {w.shape}")
    if not finite_above(w, 0.0):
        raise DomainError(f"{label} must have finite, strictly positive "
                          f"entries: {_first_outside(w)}")
    return w


def _first_outside(w: np.ndarray) -> str:
    """The vector w, or the first row of the block w, with an entry that
    is not finite and positive, and that entry, for _weights' message."""
    for i, row in enumerate(np.atleast_2d(w).tolist()):
        for j, v in enumerate(row):
            if not 0.0 < v < math.inf:
                at = "" if w.ndim == 1 else f"row {i} "
                return f"{at}{row} has {v} at entry {j}"


def _weight_pair(p: Weights, q: Weights) -> tuple:
    """p and q as weight vectors of equal length, or as paired blocks."""
    pw = _weights(p, "p")
    qw = _weights(q, "q")
    if pw.shape != qw.shape and not rows_pair(pw, qw):
        raise ShapeError(f"p and q must have equal length, got shapes "
                         f"{pw.shape} and {qw.shape}")
    return pw, qw


def _total(terms: np.ndarray):
    """terms summed over the last axis: a float, or an array of rows."""
    total = np.add.reduce(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def f_div(f: FGenerator, p: Weights, q: Weights):
    """Discrete f-divergence I_f[p : q] = sum_i p_i f(q_i / p_i).

    Non-negative and zero iff p = q when both vectors are normalized, by
    Jensen's inequality.
    """
    pw, qw = _weight_pair(p, q)
    return _total(pw * f.fn(qw / pw))


def dual_generator(f: FGenerator) -> FGenerator:
    """Dual generator u f(1/u); induces the argument-swapped divergence.

    Involutive: dualizing twice gives back a generator pointwise equal to f.
    """
    return FGenerator(f.name + "_dual", lambda u: u * f.fn(1.0 / u))


def j_symmetrize(f: FGenerator) -> FGenerator:
    """Average of f and its dual; induces (I_f[p:q] + I_f[q:p]) / 2."""
    d = dual_generator(f)
    return FGenerator(f.name + "_jsym", lambda u: 0.5 * (f.fn(u) + d.fn(u)))


def js_symmetrize_div(f: FGenerator, p: Weights, q: Weights):
    """JS-type symmetrization: half-sum of divergences to the midpoint
    mixture m = (p + q)/2,

        (I_f[p : m] + I_f[q : m]) / 2.

    For f = kl on normalized inputs this is the Jensen-Shannon divergence,
    bounded by log 2. p and q are checked once; m is then positive, and
    finite unless p + q overflows, which raises DomainError.
    """
    pw, qw = _weight_pair(p, q)
    m = 0.5 * (pw + qw)
    if not finite_above(m, 0.0):
        raise DomainError("p + q must be finite")
    return 0.5 * (_total(pw * f.fn(m / pw)) + _total(qw * f.fn(m / qw)))


_F_KL = make_f_generator("kl")


def kl(p: Weights, q: Weights):
    """Kullback-Leibler divergence sum_i p_i log(p_i / q_i).

    The f-divergence induced by the kl generator; intended for normalized
    weights, where it is non-negative.
    """
    return f_div(_F_KL, p, q)


def extended_kl(p: Weights, q: Weights):
    """KL extended to unnormalized positive weights:

        sum_i p_i log(p_i / q_i) + q_i - p_i

    Non-negative on the whole positive orthant and coincides with kl when
    both vectors are normalized. Equals the Bregman divergence of the
    Shannon negentropy generator.
    """
    pw, qw = _weight_pair(p, q)
    return _total(pw * np.log(pw / qw) + qw - pw)
