"""Extended-precision reference values for the divergences the benchmark runs.

Each function returns ``(value, scale)``. ``value`` is computed in
``np.longdouble`` from the closed-form definitions, independently of
chorddiv. ``scale`` bounds how much double rounding can move the library's
answer: it sums, over every generator value the formula combines, the
magnitude of that value's terms (plus the terms' sensitivity to rounding of
the evaluation point), weighted by the absolute coefficient with which the
formula uses it. A library value is accepted when it lies within
``TOL_ULPS * u * scale`` of the reference, with u the double unit roundoff.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LD = np.longdouble
#: Unit roundoff of IEEE double.
U = float(np.finfo(float).eps) / 2.0
#: Allowed error in units of u * scale (spec.json, design.checks).
TOL_ULPS = json.loads((Path(__file__).resolve().parent / "spec.json")
                      .read_text(encoding="utf-8"))["design"]["checks"][
                          "tol_ulps"]


def _ld(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=LD))


# Generators: name -> (F(t), grad F(t) or None, rounding magnitude of F at t).

def _quadratic(t):
    return np.sum(t * t), 2 * t, np.sum(3 * t * t)


def _shannon(t):
    lg = np.log(t)
    return (np.sum(t * lg), 1 + lg,
            np.sum(np.abs(t * lg) + np.abs(t) * np.abs(1 + lg)))


def _burg(t):
    lg = np.log(t)
    return -np.sum(lg), -1 / t, np.sum(np.abs(lg) + 1)


def _log_sum_exp(t):
    m = max(LD(0), np.max(t))
    f = m + np.log(np.exp(-m) + np.sum(np.exp(t - m)))
    return f, np.exp(t - f), abs(f) + 2 * np.max(np.abs(t)) + 1


def _exp_sum(t):
    e = np.exp(t)
    return np.sum(e), None, np.sum(e * (1 + np.abs(t)))


GENERATORS = {
    "quadratic": _quadratic,
    "shannon_negentropy": _shannon,
    "burg_negentropy": _burg,
    "log_sum_exp": _log_sum_exp,
    "exp_sum": _exp_sum,
}


def _at(gen, t):
    return GENERATORS[gen](t)


def _lerp(x, y, lam):
    lam = LD(lam)
    return (1 - lam) * x + lam * y


def _dot_scale(a, b, g):
    """Rounding magnitude of <a - b, g> formed in double."""
    return np.sum((np.abs(a) + np.abs(b)) * np.abs(g))


def _bregman(gen, x, y):
    fx, _, mx = _at(gen, x)
    fy, gy, my = _at(gen, y)
    value = fx - fy - np.sum((x - y) * gy)
    return value, mx + my + 2 * _dot_scale(x, y, gy)


def _chord(gen, x, y, a, b):
    f0, _, m0 = _at(gen, x)
    fa, _, ma = _at(gen, _lerp(x, y, a))
    fb, _, mb = _at(gen, _lerp(x, y, b))
    a, b = LD(a), LD(b)
    w = a / abs(b - a)
    value = f0 - fa + a * (fb - fa) / (b - a)
    return value, m0 + ma * (1 + w) + mb * w


def _tangent(gen, x, y, a):
    fx, _, mx = _at(gen, x)
    m = _lerp(x, y, a)
    fm, gm, mm = _at(gen, m)
    value = fx - fm - LD(a) * np.sum((x - y) * gm)
    return value, mx + mm + 2 * _dot_scale(x, y, gm)


def _jensen_skewed(gen, x, y, a):
    fx, _, mx = _at(gen, x)
    fy, _, my = _at(gen, y)
    fm, _, mm = _at(gen, _lerp(x, y, a))
    a = LD(a)
    return (1 - a) * fx + a * fy - fm, (1 - a) * mx + a * my + mm


def _jensen_bregman(gen, x, y, a):
    m = _lerp(x, y, a)
    b1, s1 = _bregman(gen, x, m)
    b2, s2 = _bregman(gen, y, m)
    a = LD(a)
    return (1 - a) * b1 + a * b2, (1 - a) * s1 + a * s2


def _jensen_chord(gen, x, y, a, b, c):
    fx, _, mx = _at(gen, x)
    fy, _, my = _at(gen, y)
    fa, _, ma = _at(gen, _lerp(x, y, a))
    fb, _, mb = _at(gen, _lerp(x, y, b))
    a, b, c = LD(a), LD(b), LD(c)
    w = (c - a) / (b - a)
    value = (1 - c) * fx + c * fy - ((1 - w) * fa + w * fb)
    return value, (1 - c) * mx + c * my + abs(1 - w) * ma + abs(w) * mb


def _fdiv_kl(p, q):
    lg = np.log(q / p)
    return -np.sum(p * lg), np.sum(p * (np.abs(lg) + 2))


def _fdiv_jssym_kl(p, q):
    m = (p + q) / 2
    v1, s1 = _fdiv_kl(p, m)
    v2, s2 = _fdiv_kl(q, m)
    return (v1 + v2) / 2, (s1 + s2) / 2


def divergence(div_id: str, gen: str, x, y, params) -> tuple:
    """Reference ``(value, scale)`` of ``div_id`` at ``(x, y)``.

    ``gen`` names the generator (ignored by the f-divergences); ``params``
    holds the same scalar parameters the registry receives.
    """
    x, y = _ld(x), _ld(y)
    p = params
    if div_id == "bregman":
        return _bregman(gen, x, y)
    if div_id == "bregman_dual":
        return _bregman(gen, y, x)
    if div_id == "bregman_chord":
        return _chord(gen, x, y, p["alpha"], p["beta"])
    if div_id == "bregman_tangent":
        return _tangent(gen, x, y, p["alpha"])
    if div_id == "bregman_chord_approx":
        return _chord(gen, x, y, 1.0 - p["epsilon"], 1.0)
    if div_id == "jensen":
        return _jensen_skewed(gen, x, y, 0.5)
    if div_id == "jensen_skewed":
        return _jensen_skewed(gen, x, y, p["alpha"])
    if div_id == "jensen_bregman":
        return _jensen_bregman(gen, x, y, p["alpha"])
    if div_id == "jensen_chord":
        return _jensen_chord(gen, x, y, p["alpha"], p["beta"], p["gamma"])
    if div_id == "biskew:bregman_chord":
        xg, xd = _lerp(x, y, p["gamma"]), _lerp(x, y, p["delta"])
        return _chord(gen, xg, xd, p["alpha"], p["beta"])
    if div_id == "fdiv:kl":
        return _fdiv_kl(x, y)
    if div_id == "fdiv_jssym:kl":
        return _fdiv_jssym_kl(x, y)
    raise KeyError(f"no reference for divergence {div_id!r}")


def tolerance(scale) -> float:
    """Largest accepted |library - reference| for a rounding scale."""
    return TOL_ULPS * U * float(scale)


def generator_scale(gen: str, t) -> float:
    """Rounding magnitude of one evaluation of ``gen`` at ``t``."""
    return float(_at(gen, _ld(t))[2])
