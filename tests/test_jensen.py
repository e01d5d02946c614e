"""Jensen family: midpoint and skewed gaps, scaled limit, the jensen_bregman
id, Jensen chord.

Oracle: the Jensen chord value is checked against an explicit construction
of the two secant lines over the restriction.
"""

import numpy as np
import pytest

from chorddiv import (
    JensenChordParams,
    ParameterError,
    bregman,
    jensen,
    jensen_chord,
    jensen_skewed,
    make_builtin,
    resolve_divergence,
    restrict_to_line,
)

from test_bregman import GENERATOR_MATRIX, sample_pair


def jensen_chord_oracle(F, t1, t2, a, b, c):
    """Vertical distance at position c between the secant through the
    endpoint graph points and the secant through the (a, b) anchor points
    of the restriction."""
    G = restrict_to_line(F, t1, t2)

    def upper(lam):
        return G(0.0) + lam * (G(1.0) - G(0.0))

    if a == b:
        return upper(c) - G(c)
    slope = (G(b) - G(a)) / (b - a)

    def lower(lam):
        return G(a) + (lam - a) * slope

    return upper(c) - lower(c)


class TestJensen:
    def test_quadratic_value(self):
        F = make_builtin("quadratic", 1)
        # (0 + 4)/2 - 1
        assert jensen(F, 0.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric(self):
        F = make_builtin("shannon_negentropy", 2)
        a, b = [0.2, 0.9], [1.1, 0.4]
        assert jensen(F, a, b) == pytest.approx(jensen(F, b, a), abs=1e-15)

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 2)
        assert jensen(F, [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_positive_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            for _ in range(30):
                t1, t2 = sample_pair(rng, F)
                assert jensen(F, t1, t2) > 0.0

    def test_equals_half_skew(self):
        F = make_builtin("burg_negentropy", 1)
        assert jensen(F, 0.5, 2.0) == pytest.approx(
            jensen_skewed(F, 0.5, 2.0, 0.5), abs=1e-15)


class TestJensenSkewed:
    def test_quadratic_frozen_value(self):
        # alpha (1 - alpha) (t2 - t1)^2 for the quadratic generator
        F = make_builtin("quadratic", 1)
        assert jensen_skewed(F, 0.0, 1.0, 0.25) == pytest.approx(
            0.1875, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.2])
    def test_invalid_skew(self, alpha):
        F = make_builtin("quadratic", 1)
        with pytest.raises(ParameterError):
            jensen_skewed(F, 0.0, 1.0, alpha)

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 1)
        assert jensen_skewed(F, 3.0, 3.0, 0.3) == 0.0

    def test_mirror_symmetry(self):
        # swapping the arguments mirrors the skew
        rng = np.random.default_rng(23)
        F = make_builtin("shannon_negentropy", 2)
        t1, t2 = sample_pair(rng, F)
        assert jensen_skewed(F, t1, t2, 0.3) == pytest.approx(
            jensen_skewed(F, t2, t1, 0.7), abs=1e-13)


def scaled_limit_gaps(F, t1, t2, alphas):
    """|(1/alpha) J^alpha(t1 : t2) - B_F(t2 : t1)| per alpha; decays
    linearly as alpha -> 0 for twice-differentiable F."""
    reverse = bregman(F, t2, t1)
    return [abs(jensen_skewed(F, t1, t2, a) / a - reverse) for a in alphas]


class TestScaledLimit:
    def test_quadratic_exact_gaps(self):
        # (1/a) J^a = (1 - a) (t2 - t1)^2, reverse Bregman is (t2 - t1)^2
        F = make_builtin("quadratic", 1)
        gaps = scaled_limit_gaps(F, 0.0, 1.0, [0.1, 0.01])
        assert gaps[0] == pytest.approx(0.1, abs=1e-12)
        assert gaps[1] == pytest.approx(0.01, abs=1e-12)

    def test_identical_arguments_all_zero(self):
        F = make_builtin("quadratic", 1)
        assert scaled_limit_gaps(F, 1.0, 1.0, [0.1, 0.01]) == \
            [0.0, 0.0]

    def test_linear_decay_for_curved_generators(self):
        rng = np.random.default_rng(34)
        for name in ("shannon_negentropy", "burg_negentropy"):
            F = make_builtin(name, 1)
            t1, t2 = sample_pair(rng, F)
            gaps = scaled_limit_gaps(F, t1, t2, [1e-1, 1e-2, 1e-3])
            assert gaps[0] > gaps[1] > gaps[2]
            for big, small in zip(gaps, gaps[1:]):
                assert 5.0 <= big / small <= 20.0


def jensen_bregman(F, t1, t2, alpha):
    """The registry's jensen_bregman id at skew alpha."""
    return resolve_divergence("jensen_bregman", F, {"alpha": alpha})(t1, t2)


class TestJensenBregman:
    """The jensen_bregman id: the skew-weighted Bregman average to the
    interpolant, resolved to the skewed Jensen gap."""

    def test_half_equals_jensen(self):
        rng = np.random.default_rng(45)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            t1, t2 = sample_pair(rng, F)
            assert jensen_bregman(F, t1, t2, 0.5) == pytest.approx(
                jensen(F, t1, t2), abs=1e-12)

    def test_jensen_is_half_sum_of_bregman_to_midpoint(self):
        rng = np.random.default_rng(56)
        F = make_builtin("shannon_negentropy", 2)
        t1, t2 = sample_pair(rng, F)
        m = 0.5 * (t1 + t2)
        half_sum = 0.5 * (bregman(F, t1, m) + bregman(F, t2, m))
        assert jensen(F, t1, t2) == pytest.approx(half_sum, abs=1e-13)

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 1)
        assert jensen_bregman(F, 2.0, 2.0, 0.3) == 0.0
        assert jensen_bregman(F, 1.0, 1.0 + 1e-15, 0.3) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_invalid_skew(self, alpha):
        F = make_builtin("quadratic", 1)
        with pytest.raises(ParameterError):
            jensen_bregman(F, 0.0, 1.0, alpha)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(67)
        F = make_builtin("quadratic", 3)
        t1, t2 = sample_pair(rng, F)
        for a in (0.2, 0.5, 0.8):
            m = (1 - a) * t1 + a * t2
            expected = (1 - a) * bregman(F, t1, m) + a * bregman(F, t2, m)
            assert jensen_bregman(F, t1, t2, a) == pytest.approx(
                expected, abs=1e-13)


class TestJensenChordParams:
    @pytest.mark.parametrize("a,b,c", [
        (0.6, 0.4, 0.5),    # alpha > beta
        (0.2, 0.8, 0.1),    # gamma below alpha
        (0.2, 0.8, 0.9),    # gamma above beta
        (0.3, 0.3, 0.5),    # alpha = beta but gamma differs
        (-0.1, 0.8, 0.5),   # outside [0, 1]
        (0.2, 1.1, 0.5),
    ])
    def test_invalid(self, a, b, c):
        with pytest.raises(ParameterError):
            JensenChordParams(a, b, c)

    def test_degenerate_triple_allowed(self):
        JensenChordParams(0.4, 0.4, 0.4)

    def test_full_interval_allowed(self):
        JensenChordParams(0.0, 1.0, 0.5)


class TestJensenChord:
    def test_full_anchor_span_gives_zero(self):
        # with anchors at the endpoints the two secants coincide
        F = make_builtin("quadratic", 1)
        v = jensen_chord(F, 0.0, 1.0, JensenChordParams(0.0, 1.0, 0.5))
        assert v == 0.0

    def test_matches_two_line_oracle(self):
        rng = np.random.default_rng(78)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            for _ in range(20):
                t1, t2 = sample_pair(rng, F)
                a, b = np.sort(rng.uniform(0.0, 1.0, 2))
                if b - a < 1e-3:
                    continue
                c = rng.uniform(a, b)
                v = jensen_chord(F, t1, t2, JensenChordParams(a, b, c))
                assert v == pytest.approx(
                    jensen_chord_oracle(F, t1, t2, a, b, c), abs=1e-12)

    def test_degenerate_triple_equals_skewed_jensen(self):
        rng = np.random.default_rng(89)
        F = make_builtin("shannon_negentropy", 2)
        t1, t2 = sample_pair(rng, F)
        for t in (0.2, 0.5, 0.9):
            v = jensen_chord(F, t1, t2, JensenChordParams(t, t, t))
            assert v == pytest.approx(jensen_skewed(F, t1, t2, t),
                                      abs=1e-12)

    def test_non_negative_on_random_triples(self):
        rng = np.random.default_rng(90)
        for name, dim in GENERATOR_MATRIX:
            F = make_builtin(name, dim)
            for _ in range(30):
                t1, t2 = sample_pair(rng, F)
                a, b = np.sort(rng.uniform(0.0, 1.0, 2))
                if b - a < 1e-3:
                    continue
                c = rng.uniform(a, b)
                assert jensen_chord(F, t1, t2,
                                    JensenChordParams(a, b, c)) >= 0.0

    def test_identical_arguments(self):
        F = make_builtin("quadratic", 2)
        v = jensen_chord(F, [1.0, 2.0], [1.0, 2.0],
                         JensenChordParams(0.2, 0.8, 0.5))
        assert v == 0.0

    def test_argument_swap_mirrors_anchors(self):
        rng = np.random.default_rng(92)
        F = make_builtin("quadratic", 2)
        t1, t2 = sample_pair(rng, F)
        v1 = jensen_chord(F, t1, t2, JensenChordParams(0.2, 0.7, 0.5))
        v2 = jensen_chord(F, t2, t1, JensenChordParams(0.3, 0.8, 0.5))
        assert v1 == pytest.approx(v2, abs=1e-12)
