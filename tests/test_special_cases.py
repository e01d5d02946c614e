"""Special cases run their general kernel: bregman is bregman_tangent at
alpha = 1, and the skewed Jensen gaps are jensen_chord at
alpha = beta = gamma. The references below write out the two closed forms
directly; every id and public function must equal them bit for bit."""

import importlib

import numpy as np
import pytest

from chorddiv import (
    BUILTIN_GENERATORS,
    Domain,
    Generator,
    bregman,
    bregman_dual,
    bregman_tangent,
    jensen,
    jensen_skewed,
    make_builtin,
    resolve_divergence,
)
from chorddiv.bregman import interpolate
from chorddiv.generators import endpoints
from chorddiv.jensen import JensenChordParams

# chorddiv.jensen names the function, so the modules are looked up by path
JENSEN = importlib.import_module("chorddiv.jensen")
REGISTRY = importlib.import_module("chorddiv.registry")

SKEWS = (1e-3, 0.3, 0.5, 0.9)


def reference_bregman(F, theta1, theta2):
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    g2 = F.grad_fn(t2)
    return float(F.fn(t1)) - float(F.fn(t2)) - float(np.dot(t1 - t2, g2))


def reference_jensen_skewed(F, theta1, theta2, a):
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    m = F.point(interpolate(t1, t2, a))
    return ((1.0 - a) * float(F.fn(t1)) + a * float(F.fn(t2))
            - float(F.fn(m)))


def expsum_with_grad(dim):
    """A custom generator with fn and grad_fn: F(t) = sum exp(t_i)."""
    return Generator(name="expsum", dim=dim, domain=Domain("reals"),
                     fn=lambda t: float(np.sum(np.exp(t))),
                     grad_fn=lambda t: np.exp(t))


def generator(gen, dim):
    return expsum_with_grad(dim) if gen == "expsum" else make_builtin(gen,
                                                                     dim)


def sample_pairs(F):
    """Pairs at magnitudes 1e-2 to 1e2 and relative gaps 1e-9 to 0.5, and
    one coincident pair."""
    rng = np.random.default_rng(F.dim)
    positive = F.domain.kind == "positive"
    pairs = []
    for mag in (1e-2, 1.0, 1e2):
        sign = 1.0 if positive else rng.choice([-1.0, 1.0], F.dim)
        c = sign * mag * rng.uniform(0.5, 1.5, F.dim)
        pairs += [(c * (1.0 + gap * rng.uniform(-1.0, 1.0, F.dim)), c)
                  for gap in (1e-9, 1e-6, 1e-3, 0.1, 0.5)]
    pairs.append((c, c.copy()))
    return pairs


def same_bits(got, want):
    return np.array(got).tobytes() == np.array(want).tobytes()


GENERATORS = [*BUILTIN_GENERATORS, "expsum"]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gen", GENERATORS)
def test_bregman_cases_equal_the_reference(gen, dim):
    F = generator(gen, dim)
    pairs = sample_pairs(F)
    want = [reference_bregman(F, x, y) for x, y in pairs]
    dual = [reference_bregman(F, y, x) for x, y in pairs]
    D = resolve_divergence("bregman", F)
    D_dual = resolve_divergence("bregman_dual", F)
    assert same_bits([D(x, y) for x, y in pairs], want)
    assert same_bits([bregman(F, x, y) for x, y in pairs], want)
    assert same_bits([bregman_tangent(F, x, y, 1.0) for x, y in pairs], want)
    assert same_bits([D_dual(x, y) for x, y in pairs], dual)
    assert same_bits([bregman_dual(F, x, y) for x, y in pairs], dual)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gen", GENERATORS)
def test_skewed_jensen_cases_equal_the_reference(gen, dim):
    F = generator(gen, dim)
    pairs = sample_pairs(F)
    mid = [reference_jensen_skewed(F, x, y, 0.5) for x, y in pairs]
    D = resolve_divergence("jensen", F)
    assert same_bits([D(x, y) for x, y in pairs], mid)
    assert same_bits([jensen(F, x, y) for x, y in pairs], mid)
    for a in SKEWS:
        want = [reference_jensen_skewed(F, x, y, a) for x, y in pairs]
        assert same_bits([jensen_skewed(F, x, y, a) for x, y in pairs], want)
        for div_id in ("jensen_skewed", "jensen_bregman"):
            D = resolve_divergence(div_id, F, {"alpha": a})
            assert same_bits([D(x, y) for x, y in pairs], want)


@pytest.mark.parametrize("div_id", ["jensen", "jensen_skewed",
                                    "jensen_bregman"])
def test_jensen_ids_check_their_skew_once(div_id, monkeypatch):
    calls = []

    def counted(alpha):
        calls.append(alpha)
        return JensenChordParams(alpha, alpha, alpha)

    monkeypatch.setattr(REGISTRY, "skew_anchors", counted)
    monkeypatch.setattr(JENSEN, "skew_anchors", counted)
    F = make_builtin("shannon_negentropy", 2)
    D = resolve_divergence(div_id, F, {"alpha": 0.3})
    assert len(calls) == 1
    for _ in range(5):
        D(np.array([0.2, 0.7]), np.array([0.9, 0.4]))
    assert len(calls) == 1
