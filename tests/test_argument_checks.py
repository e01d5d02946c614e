"""The argument checks against test-local copies of their former bodies.

Domain.contains, Generator.point, interpolate, skew_segment and
fdiv._weights coerce with generators.as_vector and test a point through
generators.finite_above: arrays of at most SMALL_ARRAY entries by Python
float comparisons, larger ones by two ufunc reductions. The builtins,
coincide, f_div and extended_kl reduce with np.add.reduce and
np.maximum.reduce. The old bodies below are the np.atleast_1d,
np.isfinite-and-all, np.sum and np.max forms they replaced, and the
two-reduction finite_above: every verdict, array (bit for bit),
exception type and message must match them, on blocks that hold each
edge value first and last at SMALL_ARRAY and SMALL_ARRAY + 1 entries
too, and so must every value of the pairs benchmark's ids with the old
bodies patched back in. One test pins which side of SMALL_ARRAY reaches
the reductions, and one that generators.endpoints decides coincidence
as coincide does, by Python floats up to SMALL_ARRAY entries. The old
bodies of endpoints, bregman_tangent and jensen_chord are the coincide
and interpolate calls that the float decision and interpolate's
expression replaced.
"""

import importlib

import numpy as np
import pytest

from chorddiv.errors import DomainError, ShapeError
from chorddiv.generators import (DOMAIN_MARGIN, POSITIVE, REALS, SMALL_ARRAY,
                                  Generator, make_builtin)

bregman, fdiv, generators, jensen, registry = (
    importlib.import_module(f"chorddiv.{name}")
    for name in ("bregman", "fdiv", "generators", "jensen", "registry"))


# -- the former bodies --------------------------------------------------------

def old_contains(self, coords):
    c = np.asarray(coords, dtype=float)
    return bool(np.isfinite(c).all() and (self.kind == "reals"
                                          or (c > DOMAIN_MARGIN).all()))


def old_finite_above(c, floor):
    return bool(np.minimum.reduce(c, axis=None, initial=np.inf) > floor
                and np.maximum.reduce(c, axis=None, initial=-np.inf) < np.inf)


def old_point(self, theta):
    coords = np.atleast_1d(np.asarray(theta, dtype=float))
    if coords.ndim != 1 or coords.shape[0] != self.dim:
        raise ShapeError(
            f"{self.name} expects a point of dimension {self.dim}, got "
            f"shape {coords.shape}"
        )
    if not old_contains(self.domain, coords):
        raise DomainError(
            f"point {coords.tolist()} is outside the {self.domain.kind} "
            f"domain of {self.name}"
        )
    return coords


def old_interpolate(theta1, theta2, lam):
    t1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    t2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    if t1.shape != t2.shape:
        raise ShapeError(
            f"cannot interpolate points of shapes {t1.shape} and {t2.shape}"
        )
    return (1.0 - float(lam)) * t1 + float(lam) * t2


def old_coincide(t1, t2):
    return np.abs(t1 - t2).max(axis=-1) < generators.DEGENERATE_EPS


def old_skew_segment(theta1, theta2, sp):
    t1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    t2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    if t1.shape == t2.shape and old_coincide(t1, t2):
        return None
    return (old_interpolate(t1, t2, sp.gamma),
            old_interpolate(t1, t2, sp.delta))


def old_endpoints(F, theta1, theta2):
    t1 = F.point(theta1)
    t2 = F.point(theta2)
    return None if old_coincide(t1, t2) else (t1, t2)


def old_bregman_tangent(F, theta1, theta2, alpha):
    a = bregman.unit_anchor(alpha, "tangent anchor")
    bregman._require_grad(F)
    if (ends := old_endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    m = t2 if a == 1.0 else old_interpolate(t1, t2, a)
    g_m = F.grad_fn(m)
    return float(F.fn(t1)) - float(F.fn(m)) - a * float(np.dot(t1 - t2, g_m))


def old_jensen_chord(F, theta1, theta2, jcp):
    if (ends := old_endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    a, b = float(jcp.alpha), float(jcp.beta)
    f_a = float(F.fn(old_interpolate(t1, t2, a)))
    f_b = f_a if a == b else float(F.fn(old_interpolate(t1, t2, b)))
    return jensen.jensen_gap(float(F.fn(t1)), f_a, f_b, float(F.fn(t2)), jcp)


def old_weights(x, label):
    w = np.atleast_1d(np.asarray(x, dtype=float))
    if w.ndim != 1:
        raise ShapeError(f"{label} must be a 1-D vector, got shape {w.shape}")
    if not (np.all(np.isfinite(w)) and np.all(w > 0.0)):
        raise DomainError(
            f"{label} must have finite, strictly positive entries"
        )
    return w


def old_f_div(f, p, q):
    pw, qw = fdiv._weight_pair(p, q)
    return float(np.sum(pw * f.fn(qw / pw)))


def old_extended_kl(p, q):
    pw, qw = fdiv._weight_pair(p, q)
    return float(np.sum(pw * np.log(pw / qw) + qw - pw))


def old_shannon(dim):
    conj = Generator("shannon_negentropy_conjugate", dim, REALS,
                     lambda eta: float(np.sum(np.exp(eta - 1.0))),
                     lambda eta: np.exp(eta - 1.0))
    return Generator("shannon_negentropy", dim, POSITIVE,
                     lambda t: float(np.sum(t * np.log(t))),
                     lambda t: 1.0 + np.log(t), conj,
                     rows=lambda T: np.sum(T * np.log(T), axis=-1))


def old_burg(dim):
    return Generator("burg_negentropy", dim, POSITIVE,
                     lambda t: -float(np.sum(np.log(t))),
                     lambda t: -1.0 / t,
                     rows=lambda T: np.sum(-np.log(T), axis=-1))


def old_log_sum_exp(dim):
    def fn(t):
        m = max(0.0, float(np.max(t)))
        return m + float(np.log(np.exp(-m) + np.sum(np.exp(t - m))))

    def rows(T):
        m = np.maximum(0.0, T.max(axis=-1))
        return m + np.log(np.exp(-m)
                          + np.sum(np.exp(T - m[..., None]), axis=-1))

    return Generator("log_sum_exp", dim, REALS, fn,
                     lambda t: np.exp(t - fn(t)), rows=rows)


OLD_FACTORIES = {"shannon_negentropy": old_shannon,
                 "burg_negentropy": old_burg,
                 "log_sum_exp": old_log_sum_exp}


@pytest.fixture
def old_bodies(monkeypatch):
    """Patch every former body back in, wherever the modules bound it."""
    monkeypatch.setattr(generators.Domain, "contains", old_contains)
    monkeypatch.setattr(generators.Generator, "point", old_point)
    for module in (generators, bregman):
        monkeypatch.setattr(module, "coincide", old_coincide)
    for module in (generators, bregman, jensen):
        monkeypatch.setattr(module, "endpoints", old_endpoints)
    monkeypatch.setattr(bregman, "interpolate", old_interpolate)
    monkeypatch.setattr(bregman, "skew_segment", old_skew_segment)
    monkeypatch.setattr(bregman, "bregman_tangent", old_bregman_tangent)
    monkeypatch.setattr(jensen, "jensen_chord", old_jensen_chord)
    monkeypatch.setattr(fdiv, "_weights", old_weights)
    monkeypatch.setattr(fdiv, "f_div", old_f_div)
    monkeypatch.setattr(fdiv, "extended_kl", old_extended_kl)
    old_kernels = {registry.f_div: old_f_div,
                   registry.bregman_tangent: old_bregman_tangent,
                   registry.jensen_chord: old_jensen_chord}
    for key, spec in registry.DIVERGENCES.items():
        if spec.kernel in old_kernels:
            monkeypatch.setitem(registry.DIVERGENCES, key, spec._replace(
                kernel=old_kernels[spec.kernel]))
    for name, factory in OLD_FACTORIES.items():
        monkeypatch.setitem(generators._BUILTIN_FACTORIES, name, factory)


def describe(result):
    """An array's dtype, shape and bytes; a tuple's items described; any
    other value's type and repr (exact for floats)."""
    if isinstance(result, np.ndarray):
        return ("array", result.dtype.str, result.shape, result.tobytes())
    if isinstance(result, tuple):
        return ("tuple",) + tuple(describe(item) for item in result)
    return ("value", type(result), repr(result))


def outcome(call, *args):
    """What a call gives: its result described, or its exception's type
    and message."""
    try:
        return describe(call(*args))
    except Exception as exc:  # compared, whatever its type
        return ("raises", type(exc), str(exc))


# -- inputs -------------------------------------------------------------------

SUBNORMAL = 5e-324
EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, SUBNORMAL, 1e-310, -SUBNORMAL,
         DOMAIN_MARGIN, np.nextafter(DOMAIN_MARGIN, 0.0),
         np.nextafter(DOMAIN_MARGIN, 1.0), 0.5, 1.0, -1.0, 1e308, -1e308]


#: Shapes of SMALL_ARRAY entries, the largest that the float comparisons
#: check, and of SMALL_ARRAY + 1, the smallest that the reductions check,
#: in 1-D, 2-D and 3-D, and one long vector.
SIDE_SHAPES = [(SMALL_ARRAY,), (2, SMALL_ARRAY // 2), (2, 2, SMALL_ARRAY // 4),
               (SMALL_ARRAY + 1,), (1, SMALL_ARRAY + 1),
               (SMALL_ARRAY + 1, 1, 1), (10_000,)]


def with_edge(shape, v, at):
    """An array of ordinary values in [0.5, 2] of the given shape, its
    entry at flat index at set to v."""
    a = np.linspace(0.5, 2.0, int(np.prod(shape)))
    a[at] = v
    return a.reshape(shape)


def blocks():
    """Scalars, vectors, lists, ints, and 0-d to 3-D blocks, each holding
    one edge value beside ordinary ones, plus empty blocks and pairs of
    edge values; and the SIDE_SHAPES, each holding an edge value first
    or last."""
    out = [[], (), np.empty(0), np.empty((0, 2)), np.empty((2, 0, 3)),
           3, 0, -1, True, [1, 2], [1, 2, 3], [[1, 2]], [[1], [2]],
           np.arange(3), np.float32(0.25), "0.5", [np.nan, np.inf],
           [np.inf, -np.inf], [1e308, -1e308]]
    for v in EDGES:
        out += [v, np.float64(v), np.array(v), [v], [0.5, v], [v, 0.5, 2.0],
                np.array([[0.5, v], [1.5, 0.25]]),
                np.full((2, 1, 3), v), np.array([[[0.5, 0.5, v]]])]
        out += [with_edge(shape, v, at) for shape in SIDE_SHAPES
                for at in (0, -1)]
    return out


BLOCKS = blocks()


# -- the checks ---------------------------------------------------------------

@pytest.mark.parametrize("domain", [REALS, POSITIVE], ids=["reals",
                                                           "positive"])
def test_contains_matches_the_old_body(domain):
    for x in BLOCKS:
        assert outcome(domain.contains, x) == outcome(old_contains, domain,
                                                      x), x


@pytest.mark.parametrize("floor", [0.0, DOMAIN_MARGIN])
def test_finite_above_matches_the_old_body(floor):
    for x in BLOCKS:
        c = np.asarray(x, dtype=float)
        assert outcome(generators.finite_above, c, floor) == outcome(
            old_finite_above, c, floor), x


class ReductionSpy:
    """numpy, recording which ufunc reductions are looked up on it."""

    def __init__(self):
        self.reductions = []

    def __getattr__(self, name):
        if name in ("minimum", "maximum"):
            self.reductions.append(name)
        return getattr(np, name)


@pytest.mark.parametrize("domain", [REALS, POSITIVE], ids=["reals",
                                                           "positive"])
def test_only_arrays_above_small_array_reach_the_reductions(domain,
                                                            monkeypatch):
    spy = ReductionSpy()
    monkeypatch.setattr(generators, "np", spy)
    for shape in SIDE_SHAPES:
        for v in (1.0, np.nan, DOMAIN_MARGIN):
            spy.reductions.clear()
            c = with_edge(shape, v, -1)
            assert domain.contains(c) == old_contains(domain, c)
            if domain is POSITIVE:
                assert generators.finite_above(c, 0.0) == old_finite_above(
                    c, 0.0)
            assert bool(spy.reductions) == (c.size > SMALL_ARRAY), shape


EPS = generators.DEGENERATE_EPS
GAPS = [0.0, np.nextafter(EPS, 0.0), EPS, 2.0 * EPS]


def gap_pairs(dim):
    """(x, y, verdict) at dim entries: y is x with one coordinate, first or
    last, moved by each of GAPS away from 0.0 on the reals (away from 1.0
    on the positive orthant, verdict None), and -0.0 against 0.0; verdict
    is whether the pair coincides."""
    out = []
    for at in (0, -1):
        x = with_edge((dim,), 0.0, at)
        for gap in GAPS:
            y = x.copy()
            y[at] = gap
            out.append((x, y, gap < EPS))
            out.append((x + 1.0, y + 1.0, None))
        out.append((x, with_edge((dim,), -0.0, at), True))
    return out


@pytest.mark.parametrize("dim", [SMALL_ARRAY, SMALL_ARRAY + 1])
def test_endpoints_decides_coincidence_as_coincide(dim, monkeypatch):
    spy = ReductionSpy()
    monkeypatch.setattr(generators, "np", spy)
    coincide_calls = []

    def counted_coincide(t1, t2):
        coincide_calls.append(t1.size)
        return old_coincide(t1, t2)

    monkeypatch.setattr(generators, "coincide", counted_coincide)
    for x, y, verdict in gap_pairs(dim):
        F = make_builtin("quadratic" if verdict is not None
                         else "shannon_negentropy", dim)
        for t1, t2 in ((x, y), (y, x)):
            spy.reductions.clear()
            coincide_calls.clear()
            ends = generators.endpoints(F, t1, t2)
            # only points above SMALL_ARRAY reach coincide and the
            # reductions, its own and finite_above's
            assert coincide_calls == ([dim] if dim > SMALL_ARRAY else [])
            assert bool(spy.reductions) == (dim > SMALL_ARRAY)
            assert (ends is None) == bool(old_coincide(t1, t2))
            if verdict is not None:
                assert (ends is None) == verdict
            if ends is not None:
                assert ends[0] is t1 and ends[1] is t2


@pytest.mark.parametrize("name", ["quadratic", "shannon_negentropy"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_point_matches_the_old_body(name, dim):
    F = make_builtin(name, dim)
    for x in BLOCKS:
        assert outcome(F.point, x) == outcome(old_point, F, x), x


def test_point_returns_a_float_vector_argument_itself():
    F = make_builtin("quadratic", 2)
    x = np.array([0.5, 1.5])
    assert F.point(x) is x
    assert old_point(F, x) is x


@pytest.mark.parametrize("lam", [0.0, 0.3, 1, -0.5, 1.5, np.float64(0.75)])
def test_interpolate_and_skew_segment_match_the_old_bodies(lam):
    sp = bregman.SkewPair(lam, 0.5)
    for x in BLOCKS:
        for y in (x, 0.25, [0.25, 0.5], [0.5, 0.5, 0.5], np.zeros((2, 1, 3)),
                  [[0.5, 1.5], [2.5, 0.75]], [np.nan, 1.0]):
            assert outcome(bregman.interpolate, x, y, lam) == outcome(
                old_interpolate, x, y, lam), (x, y)
            assert outcome(bregman.skew_segment, x, y, sp) == outcome(
                old_skew_segment, x, y, sp), (x, y)


def old_weights_by_row(x, label):
    """old_weights on a vector and row by row on a 2-D block of rows,
    which it once refused; other ranks raise the shape message that
    names both."""
    w = np.atleast_1d(np.asarray(x, dtype=float))
    if w.ndim == 1:
        return old_weights(x, label)
    if w.ndim != 2:
        raise ShapeError(f"{label} must be a 1-D vector or a 2-D block of "
                         f"rows, got shape {w.shape}")
    return np.array([old_weights(row, label) for row in w]).reshape(w.shape)


def test_weights_match_the_old_body():
    for x in BLOCKS:
        for label in ("p", "q"):
            assert outcome(fdiv._weights, x, label) == outcome(
                old_weights_by_row, x, label), x


@pytest.mark.parametrize("name", generators.BUILTIN_GENERATORS)
def test_builtin_evaluations_match_the_old_bodies(name):
    rng = np.random.default_rng(7)
    old_factory = OLD_FACTORIES.get(name, generators._quadratic)
    for dim in (1, 2, 3):
        F, old = make_builtin(name, dim), old_factory(dim)
        for scale in (1e-3, 1.0, 30.0, 800.0):
            T = rng.uniform(0.1, 1.0, (4, 5, dim)) * scale
            assert F.rows(T).tobytes() == old.rows(T).tobytes()
            for t in T.reshape(-1, dim):
                assert outcome(F.fn, t) == outcome(old.fn, t)
                if F.conjugate is not None:
                    eta = np.log(t)
                    assert outcome(F.conjugate.fn, eta) == outcome(
                        old.conjugate.fn, eta)


def test_coincide_and_weight_sums_match_the_old_bodies():
    rng = np.random.default_rng(8)
    for shape in ((3,), (4, 3), (2, 4, 3), (0, 3)):
        a = rng.uniform(0.1, 2.0, shape)
        for gap in (0.0, 1e-15, 1e-14, 1e-3):
            b = a + gap
            assert outcome(generators.coincide, a, b) == outcome(
                old_coincide, a, b)
    kl = fdiv.make_f_generator("kl")
    for d in (1, 2, 3, 17):
        p, q = rng.uniform(0.01, 5.0, (2, d))
        assert outcome(fdiv.f_div, kl, p, q) == outcome(old_f_div, kl, p, q)
        assert outcome(fdiv.extended_kl, p, q) == outcome(
            old_extended_kl, p, q)


def pairs_cases():
    """The pairs benchmark's ids over every builtin, d = 1, 2, 3, with its
    parameters: positive x at magnitudes 0.01 to 100, y at relative gaps
    1e-6 to 0.5, and a coincident pair."""
    params = {"bregman_chord": {"alpha": 0.25, "beta": 0.75},
              "bregman_tangent": {"alpha": 0.5},
              "bregman_chord_approx": {"epsilon": 1e-4},
              "jensen_skewed": {"alpha": 0.3},
              "jensen_bregman": {"alpha": 0.3},
              "jensen_chord": {"alpha": 0.2, "beta": 0.8, "gamma": 0.5},
              "biskew:bregman_chord": {"gamma": 0.1, "delta": 0.9,
                                       "alpha": 0.25, "beta": 0.75}}
    ids = ("bregman", "bregman_dual", "bregman_tangent", "jensen_bregman",
           "bregman_chord", "bregman_chord_approx", "jensen",
           "jensen_skewed", "jensen_chord", "biskew:bregman_chord")
    out = []
    for d in (1, 2, 3):
        out += [(gen, div, d, params.get(div, {}))
                for gen in generators.BUILTIN_GENERATORS for div in ids]
        out += [(None, div, d, {}) for div in ("fdiv:kl", "fdiv_jssym:kl")]
    return out


def pairs_values():
    """Every pairs case's value (or exception) on seeded inputs, built from
    the generators and the registry as they stand."""
    rng = np.random.default_rng(24)
    values = []
    for gen, div, d, params in pairs_cases():
        F = make_builtin(gen, d) if gen else None
        D = registry.resolve_divergence(div, F, params)
        for _ in range(6):
            x = np.exp(rng.uniform(np.log(0.01), np.log(100.0))) \
                * rng.uniform(0.5, 1.5, d)
            gap = np.exp(rng.uniform(np.log(1e-6), np.log(0.5)))
            y = x * (1.0 + gap * rng.choice((-1.0, 1.0), d)
                     * rng.uniform(0.5, 1.0, d))
            values.append(outcome(D, x, y))
            values.append(outcome(D, x.tolist(), y.tolist()))
        values.append(outcome(D, x, x.copy()))
    return values


def test_pairs_values_match_the_old_bodies(request):
    new = pairs_values()
    request.getfixturevalue("old_bodies")
    old = pairs_values()
    assert len(new) == len(old) == 126 * 13
    assert [v for v in new if v[0] != "value"] == []
    assert new == old
