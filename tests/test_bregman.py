"""Bregman family: ordinary, dual, chord, tangent, witness, approximation,
biskew.

Oracle: the chord divergence is checked against an explicit two-point-line
construction on the restriction, built independently of the library formula.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chorddiv import (
    BUILTIN_GENERATORS,
    ChordParams,
    DegenerateRestrictionError,
    Domain,
    DomainError,
    Generator,
    GradientRequiredError,
    JensenChordParams,
    ParameterError,
    ShapeError,
    SkewPair,
    biskew,
    bregman,
    bregman_chord,
    bregman_chord_approx,
    bregman_dual,
    bregman_tangent,
    jensen,
    jensen_chord,
    jensen_skewed,
    kl,
    make_builtin,
    mean_value_witness,
    resolve_divergence,
    restrict_to_line,
    sweep,
)
from chorddiv.bregman import bregman_chord_block, interpolate


def chord_gap_oracle(F, t1, t2, a, b):
    """Gap at lam=0 between the restriction graph and the straight line
    through its (a, G(a)) and (b, G(b)) points."""
    G = restrict_to_line(F, t1, t2)
    slope = (G(b) - G(a)) / (b - a)

    def line(lam):
        return G(a) + (lam - a) * slope

    return G(0.0) - line(0.0)


def sample_pair(rng, F, min_sep=0.05):
    while True:
        if F.domain.kind == "positive":
            t1 = rng.uniform(0.2, 1.5, F.dim)
            t2 = rng.uniform(0.2, 1.5, F.dim)
        else:
            t1 = rng.uniform(-1.5, 1.5, F.dim)
            t2 = rng.uniform(-1.5, 1.5, F.dim)
        if np.max(np.abs(t1 - t2)) >= min_sep:
            return t1, t2


GENERATOR_MATRIX = [
    ("quadratic", 1), ("quadratic", 3),
    ("shannon_negentropy", 1), ("shannon_negentropy", 3),
    ("burg_negentropy", 1), ("burg_negentropy", 3),
    ("log_sum_exp", 3),
]


def gradless_quadratic(dim=1):
    return Generator(name="quadratic_noglad", dim=dim,
                     domain=Domain("reals"),
                     fn=lambda t: float(np.dot(t, t)))


class TestInterpolate:
    def test_endpoints_and_midpoint(self):
        assert np.allclose(interpolate([0.0], [1.0], 0.0), [0.0])
        assert np.allclose(interpolate([0.0], [1.0], 1.0), [1.0])
        assert np.allclose(interpolate([0.0, 2.0], [2.0, 0.0], 0.5),
                           [1.0, 1.0])

    def test_outside_segment(self):
        assert np.allclose(interpolate([0.0], [1.0], 1.5), [1.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            interpolate([0.0], [1.0, 2.0], 0.5)


class TestChordParams:
    @pytest.mark.parametrize("a,b", [
        (0.5, 0.5), (0.0, 0.5), (0.5, 1.5), (-0.1, 0.5),
        (float("nan"), 0.5),
    ])
    def test_invalid(self, a, b):
        with pytest.raises(ParameterError):
            ChordParams(a, b)

    def test_beta_one_allowed(self):
        cp = ChordParams(0.3, 1.0)
        assert cp.swapped() == ChordParams(1.0, 0.3)


class TestSkewPair:
    def test_equal_rejected(self):
        with pytest.raises(ParameterError):
            SkewPair(0.4, 0.4)

    def test_outside_unit_interval_allowed(self):
        SkewPair(-0.5, 1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            SkewPair(float("inf"), 0.5)


class TestBregman:
    def test_quadratic_value(self):
        F = make_builtin("quadratic", 1)
        assert bregman(F, 0.0, 1.0) == 1.0
        # squared Euclidean distance in general
        F3 = make_builtin("quadratic", 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert bregman(F3, a, b) == pytest.approx(
                float(np.sum((a - b) ** 2)), abs=1e-12)

    def test_identical_arguments(self):
        F = make_builtin("shannon_negentropy", 2)
        assert bregman(F, [0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_burg_value(self):
        # -log t gives t1/t2 - log(t1/t2) - 1 per coordinate
        F = make_builtin("burg_negentropy", 1)
        assert bregman(F, 2.0, 1.0) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-12)

    def test_shannon_matches_kl_on_simplex(self):
        F = make_builtin("shannon_negentropy", 2)
        p, q = (0.5, 0.5), (0.25, 0.75)
        assert bregman(F, p, q) == pytest.approx(kl(p, q), abs=1e-12)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            for _ in range(50):
                t1, t2 = sample_pair(rng, F)
                assert bregman(F, t1, t2) > 0.0

    def test_gradient_required(self):
        with pytest.raises(GradientRequiredError, match=(
                "^bregman and bregman_tangent require a gradient; "
                "generator quadratic_noglad has none$")):
            bregman(gradless_quadratic(), 0.0, 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda F: ChordParams(1.5, 0.5),
     "chord anchor alpha must lie in (0, 1], got 1.5"),
    (lambda F: ChordParams(0.5, 0),
     "chord anchor beta must lie in (0, 1], got 0"),
    (lambda F: bregman_tangent(F, 0.0, 1.0, 0),
     "tangent anchor must lie in (0, 1], got 0"),
    (lambda F: resolve_divergence("bregman_tangent", F, {"alpha": 2}),
     "tangent anchor must lie in (0, 1], got 2.0"),
    (lambda F: sweep(F, 0.0, 1.0, [2, 0.5], [0.5], "bregman_chord"),
     "alphas must lie in (0, 1], got 2.0"),
    (lambda F: jensen_skewed(F, 0.0, 1.0, 1),
     "skew must lie in (0, 1), got 1"),
    (lambda F: resolve_divergence("jensen_bregman", F, {"alpha": 0}),
     "skew must lie in (0, 1), got 0.0"),
])
def test_anchor_range_messages(make, message):
    """One (0, 1] rule serves chord and tangent anchors and sweep grids;
    each message names the anchor and the value as given, or as sorted
    for a grid."""
    with pytest.raises(ParameterError) as err:
        make(make_builtin("quadratic", 1))
    assert str(err.value) == message


class TestBregmanDual:
    def test_quadratic_symmetric(self):
        F = make_builtin("quadratic", 2)
        assert bregman_dual(F, [0.0, 0.0], [1.0, 2.0]) == pytest.approx(
            bregman(F, [0.0, 0.0], [1.0, 2.0]), abs=1e-12)

    def test_swaps_arguments(self):
        F = make_builtin("shannon_negentropy", 1)
        assert bregman_dual(F, 0.4, 1.2) == pytest.approx(
            bregman(F, 1.2, 0.4), abs=1e-15)

    def test_conjugate_identity(self):
        rng = np.random.default_rng(9)
        for name in ("quadratic", "shannon_negentropy"):
            F = make_builtin(name, 3)
            for _ in range(50):
                t1, t2 = sample_pair(rng, F)
                lhs = bregman_dual(F, t1, t2)
                rhs = bregman(F.conjugate, F.grad(t1), F.grad(t2))
                assert abs(lhs - rhs) <= 1e-9


class TestBregmanChord:
    def test_quadratic_frozen_value(self):
        F = make_builtin("quadratic", 1)
        v = bregman_chord(F, 0.0, 1.0, ChordParams(0.25, 0.75))
        assert v == pytest.approx(0.1875, abs=1e-15)

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 1)
        assert bregman_chord(F, 1.0, 1.0, ChordParams(0.25, 0.75)) == 0.0

    def test_near_bregman_when_anchors_near_one(self):
        F = make_builtin("quadratic", 1)
        v = bregman_chord(F, 0.0, 1.0, ChordParams(0.999, 1.0))
        assert v == pytest.approx(1.0, abs=2e-3)

    def test_matches_line_construction_oracle(self):
        rng = np.random.default_rng(31)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            for _ in range(25):
                t1, t2 = sample_pair(rng, F)
                a = rng.uniform(0.05, 1.0)
                b = rng.uniform(0.05, 1.0)
                while abs(a - b) < 0.05:
                    b = rng.uniform(0.05, 1.0)
                v = bregman_chord(F, t1, t2, ChordParams(a, b))
                assert v == pytest.approx(
                    chord_gap_oracle(F, t1, t2, a, b), abs=1e-12)

    def test_gradient_free(self):
        v = bregman_chord(gradless_quadratic(), 0.0, 1.0,
                          ChordParams(0.25, 0.75))
        assert v == pytest.approx(0.1875, abs=1e-15)

    def test_separable_generator_sums_over_coordinates(self):
        # for a separable generator the multivariate chord value equals the
        # sum of per-coordinate chord values
        rng = np.random.default_rng(41)
        for name in ("quadratic", "shannon_negentropy", "burg_negentropy"):
            F3 = make_builtin(name, 3)
            F1 = make_builtin(name, 1)
            t1, t2 = sample_pair(rng, F3)
            cp = ChordParams(0.3, 0.8)
            total = sum(
                bregman_chord(F1, t1[i], t2[i], cp) for i in range(3)
            )
            assert bregman_chord(F3, t1, t2, cp) == pytest.approx(
                total, abs=1e-12)

    def test_sandwich_on_random_pairs(self):
        rng = np.random.default_rng(51)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            for _ in range(40):
                t1, t2 = sample_pair(rng, F)
                upper = bregman(F, t1, t2)
                a = rng.uniform(0.05, 1.0)
                b = rng.uniform(0.05, 1.0)
                while abs(a - b) < 0.05:
                    b = rng.uniform(0.05, 1.0)
                v = bregman_chord(F, t1, t2, ChordParams(a, b))
                assert 0.0 <= v <= upper + 1e-12

    def test_domain_violation_propagates(self):
        F = make_builtin("shannon_negentropy", 1)
        with pytest.raises(DomainError):
            bregman_chord(F, 0.5, -0.5, ChordParams(0.25, 0.75))


def expsum(dim):
    """A custom generator with no gradient: F(t) = sum exp(t_i)."""
    return Generator(name="expsum", dim=dim, domain=Domain("reals"),
                     fn=lambda t: float(np.sum(np.exp(t))))


def counted(F):
    """F rebuilt as a Generator subclass that counts point and fn calls."""
    calls = {"point": 0, "fn": 0}

    class Counted(Generator):
        def point(self, theta):
            calls["point"] += 1
            return super().point(theta)

    def fn(t):
        calls["fn"] += 1
        return F.fn(t)

    return Counted(F.name, F.dim, F.domain, fn, F.grad_fn), calls


class TestBregmanChordBlock:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gen", [*BUILTIN_GENERATORS, "expsum"])
    def test_bit_equal_to_bregman_chord(self, gen, dim):
        F = expsum(dim) if gen == "expsum" else make_builtin(gen, dim)
        positive = F.domain.kind == "positive"
        rng = np.random.default_rng(dim)
        for mag in (1e-2, 1.0, 1e2):
            sign = 1.0 if positive else rng.choice([-1.0, 1.0], dim)
            c = sign * mag * rng.uniform(0.5, 1.5, dim)
            X = np.array([c * (1.0 + gap * rng.uniform(-1.0, 1.0, dim))
                          for gap in (1e-9, 1e-6, 1e-3, 0.1, 0.5)
                          for _ in range(3)])
            for cp in (ChordParams(0.9, 1.0), ChordParams(0.7, 0.2),
                       ChordParams(1.0 - 1e-6, 1.0)):
                per_pair = [bregman_chord(F, x, c, cp) for x in X]
                block = bregman_chord_block(F, X, c, cp)
                assert block.tobytes() == np.array(per_pair).tobytes()

    def test_coincident_rows_give_exact_zero(self):
        F, calls = counted(make_builtin("shannon_negentropy", 2))
        c = np.array([0.4, 1.3])
        X = np.array([c, [0.9, 0.2], c + 1e-15, [0.5, 0.5]])
        values = bregman_chord_block(F, X, c, ChordParams(0.25, 0.75))
        assert values[0] == 0.0 and values[2] == 0.0
        assert values[1] > 0.0 and values[3] > 0.0
        assert calls["fn"] == 6

    def test_one_point_call_per_block(self):
        F, calls = counted(make_builtin("quadratic", 3))
        X = np.random.default_rng(2).uniform(-1.0, 1.0, (50, 3))
        bregman_chord_block(F, X, X[7], ChordParams(0.9, 1.0))
        assert calls == {"point": 1, "fn": 3 * 49}

    def test_wrong_width_raises(self):
        F = make_builtin("quadratic", 2)
        with pytest.raises(ShapeError):
            bregman_chord_block(F, np.ones((4, 3)), np.ones(2),
                                ChordParams(0.25, 0.75))
        with pytest.raises(ShapeError):
            bregman_chord_block(F, np.ones(2), np.ones(2),
                                ChordParams(0.25, 0.75))

    def test_domain_violations_raise_point_errors(self):
        F = make_builtin("shannon_negentropy", 2)
        cp = ChordParams(0.25, 0.75)
        X = np.array([[0.5, 0.5], [0.3, 0.8]])
        with pytest.raises(DomainError):
            bregman_chord_block(F, X, np.array([0.5, -0.5]), cp)
        bad = np.array([[0.5, 0.5], [0.3, -0.8]])
        with pytest.raises(DomainError) as got:
            bregman_chord_block(F, bad, np.array([0.5, 0.6]), cp)
        with pytest.raises(DomainError) as want:
            F.point(bad[1])
        assert str(got.value) == str(want.value)


class TestBregmanTangent:
    def test_quadratic_frozen_value(self):
        F = make_builtin("quadratic", 1)
        assert bregman_tangent(F, 0.0, 1.0, 0.5) == pytest.approx(
            0.25, abs=1e-15)

    def test_alpha_one_recovers_bregman(self):
        rng = np.random.default_rng(6)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            t1, t2 = sample_pair(rng, F)
            assert bregman_tangent(F, t1, t2, 1.0) == pytest.approx(
                bregman(F, t1, t2), abs=1e-12)

    def test_vanishes_as_alpha_to_zero(self):
        F = make_builtin("quadratic", 1)
        assert abs(bregman_tangent(F, 0.0, 1.0, 1e-4)) <= 1e-3

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 1)
        assert bregman_tangent(F, 2.0, 2.0, 0.5) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.1])
    def test_invalid_alpha(self, alpha):
        F = make_builtin("quadratic", 1)
        with pytest.raises(ParameterError):
            bregman_tangent(F, 0.0, 1.0, alpha)

    def test_gradient_required(self):
        with pytest.raises(GradientRequiredError):
            bregman_tangent(gradless_quadratic(), 0.0, 1.0, 0.5)

    def test_chord_with_close_anchors_approaches_tangent(self):
        rng = np.random.default_rng(61)
        F = make_builtin("shannon_negentropy", 1)
        t1, t2 = sample_pair(rng, F)
        alpha = 0.4
        errs = [
            abs(bregman_chord(F, t1, t2, ChordParams(alpha, alpha + eps))
                - bregman_tangent(F, t1, t2, alpha))
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert errs[0] > errs[1] > errs[2]
        for big, small in zip(errs, errs[1:]):
            assert 5.0 <= big / small <= 20.0


class TestMeanValueWitness:
    def test_quadratic_midpoint(self):
        F = make_builtin("quadratic", 1)
        lam = mean_value_witness(F, 0.0, 1.0, ChordParams(0.25, 0.75))
        assert lam == pytest.approx(0.5, abs=1e-9)

    def test_swap_gives_same_witness(self):
        F = make_builtin("shannon_negentropy", 1)
        cp = ChordParams(0.3, 0.7)
        a = mean_value_witness(F, 0.2, 1.2, cp)
        b = mean_value_witness(F, 0.2, 1.2, cp.swapped())
        assert a == pytest.approx(b, abs=1e-9)

    def test_witness_matches_slope_and_reconstructs_chord(self):
        rng = np.random.default_rng(81)
        for name, _ in GENERATOR_MATRIX:
            F = make_builtin(name, 1)
            t1, t2 = sample_pair(rng, F)
            cp = ChordParams(0.15, 0.85)
            lam = mean_value_witness(F, t1, t2, cp)
            assert min(cp.alpha, cp.beta) < lam < max(cp.alpha, cp.beta)
            G = restrict_to_line(F, t1, t2)
            slope = (G(cp.alpha) - G(cp.beta)) / (cp.alpha - cp.beta)
            assert abs(G.deriv(lam) - slope) <= 1e-9
            recon = G(0.0) - G(cp.alpha) + cp.alpha * G.deriv(lam)
            assert recon == pytest.approx(
                bregman_chord(F, t1, t2, cp), abs=1e-8)

    def test_independent_derivative_check(self):
        F = make_builtin("log_sum_exp", 1)
        cp = ChordParams(0.2, 0.9)
        lam = mean_value_witness(F, -1.0, 1.5, cp)
        G = restrict_to_line(F, -1.0, 1.5)
        h = 1e-6
        fd = (G(lam + h) - G(lam - h)) / (2 * h)
        slope = (G(cp.alpha) - G(cp.beta)) / (cp.alpha - cp.beta)
        assert fd == pytest.approx(slope, abs=1e-6)

    def test_coincident_arguments_rejected(self):
        F = make_builtin("quadratic", 1)
        with pytest.raises(DegenerateRestrictionError):
            mean_value_witness(F, 1.0, 1.0, ChordParams(0.25, 0.75))

    def test_gradient_required(self):
        with pytest.raises(GradientRequiredError):
            mean_value_witness(gradless_quadratic(), 0.0, 1.0,
                               ChordParams(0.25, 0.75))


class TestBregmanChordApprox:
    def test_linear_error_quadratic(self):
        F = make_builtin("quadratic", 1)
        v = bregman_chord_approx(F, 0.0, 1.0, 1e-3)
        assert abs(v - bregman(F, 0.0, 1.0)) <= 2e-3

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 1)
        assert bregman_chord_approx(F, 0.5, 0.5, 1e-3) == 0.0

    def test_error_ratio_per_decade(self):
        rng = np.random.default_rng(91)
        F = make_builtin("shannon_negentropy", 1)
        t1, t2 = sample_pair(rng, F)
        exact = bregman(F, t1, t2)
        e2 = abs(bregman_chord_approx(F, t1, t2, 1e-2) - exact)
        e3 = abs(bregman_chord_approx(F, t1, t2, 1e-3) - exact)
        assert 5.0 <= e2 / e3 <= 20.0

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_epsilon(self, eps):
        F = make_builtin("quadratic", 1)
        with pytest.raises(ParameterError):
            bregman_chord_approx(F, 0.0, 1.0, eps)

    def test_needs_no_gradient(self):
        v = bregman_chord_approx(gradless_quadratic(), 0.0, 1.0, 1e-2)
        assert v == pytest.approx(1.0, abs=2e-2)


class TestBiskew:
    def test_full_skew_recovers_plain_divergence(self):
        F = make_builtin("quadratic", 1)
        D = lambda a, b: bregman(F, a, b)
        assert biskew(D, 0.0, 1.0, SkewPair(0.0, 1.0)) == pytest.approx(
            1.0, abs=1e-15)

    def test_quarter_skew_value(self):
        # quadratic between interpolants 0.25 and 0.75 of [0, 1]: (0.5)^2
        F = make_builtin("quadratic", 1)
        D = lambda a, b: bregman(F, a, b)
        assert biskew(D, 0.0, 1.0, SkewPair(0.25, 0.75)) == pytest.approx(
            0.25, abs=1e-15)

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 1)
        D = lambda a, b: bregman(F, a, b)
        assert biskew(D, 0.7, 0.7, SkewPair(0.25, 0.75)) == 0.0

    def test_separates_distinct_points(self):
        rng = np.random.default_rng(101)
        F = make_builtin("quadratic", 2)
        D = lambda a, b: bregman(F, a, b)
        sp = SkewPair(0.3, 0.6)
        for _ in range(20):
            t1, t2 = sample_pair(rng, F)
            assert biskew(D, t1, t2, sp) > 0.0

    def test_wraps_f_divergences(self):
        sp = SkewPair(0.25, 0.75)
        v = biskew(kl, [0.9, 0.1], [0.1, 0.9], sp)
        # interpolants (0.7, 0.3) and (0.3, 0.7)
        assert v == pytest.approx(kl((0.7, 0.3), (0.3, 0.7)), abs=1e-15)

    def test_domain_violation_from_outside_skew(self):
        F = make_builtin("burg_negentropy", 1)
        D = lambda a, b: bregman(F, a, b)
        with pytest.raises(DomainError):
            biskew(D, 0.1, 2.0, SkewPair(-1.0, 0.5))


class TestDegenerateRule:
    def test_near_equal_points_give_exact_zero(self):
        F = make_builtin("quadratic", 1)
        t1, t2 = 1.0, 1.0 + 1e-15
        cp = ChordParams(0.25, 0.75)
        assert bregman(F, t1, t2) == 0.0
        assert bregman_chord(F, t1, t2, cp) == 0.0
        assert bregman_tangent(F, t1, t2, 0.5) == 0.0
        assert bregman_chord_approx(F, t1, t2, 1e-3) == 0.0
        assert jensen(F, t1, t2) == 0.0
        assert jensen_skewed(F, t1, t2, 0.3) == 0.0
        assert resolve_divergence("jensen_bregman", F,
                                  {"alpha": 0.3})(t1, t2) == 0.0
        assert jensen_chord(F, t1, t2, JensenChordParams(0.2, 0.8, 0.5)) == 0.0
        # the same rule refuses to join the pair by a line
        with pytest.raises(DegenerateRestrictionError):
            restrict_to_line(F, t1, t2)
        with pytest.raises(DegenerateRestrictionError):
            mean_value_witness(F, t1, t2, cp)


class TestScaleInvariance:
    def test_burg_family_is_scale_invariant(self):
        rng = np.random.default_rng(111)
        F = make_builtin("burg_negentropy", 2)
        cp = ChordParams(0.3, 0.9)
        for _ in range(20):
            t1, t2 = sample_pair(rng, F)
            lam = rng.uniform(0.5, 2.0)
            assert bregman(F, lam * t1, lam * t2) == pytest.approx(
                bregman(F, t1, t2), abs=1e-12)
            assert bregman_chord(F, lam * t1, lam * t2, cp) == pytest.approx(
                bregman_chord(F, t1, t2, cp), abs=1e-12)


@given(
    x=st.floats(-5.0, 5.0), y=st.floats(-5.0, 5.0),
    a=st.floats(0.05, 1.0), b=st.floats(0.05, 1.0),
)
def test_chord_sandwich_property(x, y, a, b):
    assume(abs(x - y) > 1e-3)
    assume(abs(a - b) > 0.02)
    F = make_builtin("quadratic", 1)
    v = bregman_chord(F, x, y, ChordParams(a, b))
    assert -1e-12 <= v <= bregman(F, x, y) + 1e-10


@given(
    x=st.floats(-5.0, 5.0), y=st.floats(-5.0, 5.0),
    a=st.floats(0.05, 1.0), b=st.floats(0.05, 1.0),
)
def test_chord_swap_property(x, y, a, b):
    assume(abs(x - y) > 1e-3)
    assume(abs(a - b) > 0.02)
    F = make_builtin("quadratic", 1)
    cp = ChordParams(a, b)
    assert bregman_chord(F, x, y, cp) == pytest.approx(
        bregman_chord(F, x, y, cp.swapped()), abs=1e-10)
