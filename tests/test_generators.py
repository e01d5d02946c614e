"""Generator construction, domain checks, line restrictions, conjugates."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chorddiv import (
    BUILTIN_GENERATORS,
    DegenerateRestrictionError,
    Domain,
    DomainError,
    Generator,
    GradientRequiredError,
    ParameterError,
    ShapeError,
    UnsupportedGeneratorError,
    make_builtin,
    restrict_to_line,
)


def sample_point(rng, F):
    if F.domain.kind == "positive":
        return rng.uniform(0.2, 1.5, F.dim)
    return rng.uniform(-1.5, 1.5, F.dim)


class TestMakeBuiltin:
    def test_quadratic_value(self):
        F = make_builtin("quadratic", 1)
        assert F(3) == 9.0
        assert F([3.0]) == 9.0

    def test_quadratic_multivariate(self):
        F = make_builtin("quadratic", 3)
        assert F([1, 2, 3]) == 14.0
        assert np.allclose(F.grad([1, 2, 3]), [2, 4, 6])

    def test_shannon_value_and_grad(self):
        F = make_builtin("shannon_negentropy", 2)
        assert F([1.0, 1.0]) == 0.0
        assert F([math.e, 1.0]) == pytest.approx(math.e, abs=1e-12)
        assert np.allclose(F.grad([1.0, 1.0]), [1.0, 1.0])

    def test_burg_value_and_grad(self):
        F = make_builtin("burg_negentropy", 1)
        assert F(2.0) == pytest.approx(-math.log(2.0), abs=1e-12)
        assert F.grad(2.0)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_log_sum_exp_value_and_grad(self):
        F = make_builtin("log_sum_exp", 2)
        assert F([0.0, 0.0]) == pytest.approx(math.log(3.0), abs=1e-12)
        assert np.allclose(F.grad([0.0, 0.0]), [1 / 3, 1 / 3])

    def test_log_sum_exp_large_arguments_stay_finite(self):
        F = make_builtin("log_sum_exp", 1)
        assert F(800.0) == pytest.approx(800.0, rel=1e-12)
        assert F(-800.0) == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(F.grad(800.0)).all()

    def test_unknown_name(self):
        with pytest.raises(UnsupportedGeneratorError):
            make_builtin("euclidean", 2)

    def test_bad_dimension(self):
        with pytest.raises(ParameterError):
            make_builtin("quadratic", 0)

    def test_all_names_construct(self):
        for name in BUILTIN_GENERATORS:
            F = make_builtin(name, 2)
            assert F.name == name
            assert F.dim == 2


class TestDomains:
    def test_positive_rejects_boundary_and_outside(self):
        F = make_builtin("shannon_negentropy", 1)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                F(bad)

    def test_reals_rejects_non_finite(self):
        F = make_builtin("quadratic", 1)
        with pytest.raises(DomainError):
            F(float("inf"))

    def test_shape_mismatch(self):
        F = make_builtin("quadratic", 2)
        with pytest.raises(ShapeError):
            F([1.0, 2.0, 3.0])

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            Domain("lattice")


class TestGradientlessGenerator:
    def test_grad_raises(self):
        F = Generator(name="abs2", dim=1, domain=Domain("reals"),
                      fn=lambda t: float(np.dot(t, t)))
        assert not F.has_grad
        with pytest.raises(GradientRequiredError):
            F.grad(1.0)


class TestMidpointConvexity:
    @pytest.mark.parametrize("name,dim", [
        ("quadratic", 1), ("quadratic", 3),
        ("shannon_negentropy", 1), ("shannon_negentropy", 3),
        ("burg_negentropy", 1), ("burg_negentropy", 3),
        ("log_sum_exp", 3),
    ])
    def test_strict_midpoint_inequality(self, name, dim):
        F = make_builtin(name, dim)
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = sample_point(rng, F)
            b = sample_point(rng, F)
            if np.max(np.abs(a - b)) < 1e-3:
                continue
            gap = 0.5 * (F(a) + F(b)) - F(0.5 * (a + b))
            assert gap > 0.0


class TestLineRestriction:
    def test_quadratic_values(self):
        F = make_builtin("quadratic", 1)
        G = restrict_to_line(F, 0.0, 1.0)
        assert G(0.0) == 0.0
        assert G(1.0) == 1.0
        assert G(0.25) == pytest.approx(0.0625, abs=1e-15)

    def test_log_sum_exp_value(self):
        F = make_builtin("log_sum_exp", 2)
        G = restrict_to_line(F, [0.0, 0.0], [1.0, 1.0])
        assert G(0.0) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_shannon_endpoint(self):
        F = make_builtin("shannon_negentropy", 1)
        G = restrict_to_line(F, 0.2, 0.8)
        assert G(1.0) == pytest.approx(0.8 * math.log(0.8), abs=1e-12)

    def test_endpoints_match_generator(self):
        rng = np.random.default_rng(5)
        for name in BUILTIN_GENERATORS:
            F = make_builtin(name, 3)
            t1, t2 = sample_point(rng, F), sample_point(rng, F)
            G = restrict_to_line(F, t1, t2)
            assert G(0.0) == pytest.approx(F(t1), abs=1e-12)
            assert G(1.0) == pytest.approx(F(t2), abs=1e-12)

    def test_deriv_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for name in BUILTIN_GENERATORS:
            F = make_builtin(name, 2)
            t1, t2 = sample_point(rng, F), sample_point(rng, F)
            G = restrict_to_line(F, t1, t2)
            h = 1e-6
            for lam in (0.2, 0.5, 0.8):
                fd = (G(lam + h) - G(lam - h)) / (2 * h)
                assert G.deriv(lam) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_strict_convexity_in_lambda(self):
        rng = np.random.default_rng(13)
        for name in BUILTIN_GENERATORS:
            F = make_builtin(name, 2)
            t1, t2 = sample_point(rng, F), sample_point(rng, F)
            if np.max(np.abs(t1 - t2)) < 1e-3:
                continue
            G = restrict_to_line(F, t1, t2)
            for _ in range(20):
                l1, l2 = np.sort(rng.uniform(0.0, 1.0, 2))
                if l2 - l1 < 1e-3:
                    continue
                assert G(0.5 * (l1 + l2)) < 0.5 * (G(l1) + G(l2))

    def test_identical_endpoints_rejected(self):
        F = make_builtin("quadratic", 2)
        with pytest.raises(DegenerateRestrictionError):
            restrict_to_line(F, [1.0, 2.0], [1.0, 2.0])

    def test_out_of_domain_endpoint_rejected(self):
        F = make_builtin("burg_negentropy", 1)
        with pytest.raises(DomainError):
            restrict_to_line(F, 1.0, -1.0)

    def test_gradless_base_has_no_deriv(self):
        F = Generator(name="abs2", dim=1, domain=Domain("reals"),
                      fn=lambda t: float(np.dot(t, t)))
        G = restrict_to_line(F, 0.0, 1.0)
        assert not G.has_deriv
        with pytest.raises(GradientRequiredError):
            G.deriv(0.5)


class TestClosedFormConjugates:
    def test_quadratic_conjugate(self):
        F = make_builtin("quadratic", 2)
        assert F.conjugate([2.0, 4.0]) == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(F.conjugate.grad([2.0, 4.0]), [1.0, 2.0])

    def test_shannon_conjugate(self):
        F = make_builtin("shannon_negentropy", 1)
        assert F.conjugate(1.0) == pytest.approx(1.0, abs=1e-12)
        assert F.conjugate.grad(1.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_no_conjugate_for_burg_and_lse(self):
        assert make_builtin("burg_negentropy", 1).conjugate is None
        assert make_builtin("log_sum_exp", 1).conjugate is None

    def test_conjugate_grad_inverts_grad(self):
        rng = np.random.default_rng(3)
        for name in ("quadratic", "shannon_negentropy"):
            F = make_builtin(name, 3)
            for _ in range(25):
                t = sample_point(rng, F)
                back = F.conjugate.grad(F.grad(t))
                assert np.allclose(back, t, atol=1e-10)


@given(
    x=st.floats(-50.0, 50.0),
    y=st.floats(-50.0, 50.0),
)
def test_quadratic_midpoint_convexity_property(x, y):
    assume(abs(x - y) > 1e-4)
    F = make_builtin("quadratic", 1)
    gap = 0.5 * (F(x) + F(y)) - F(0.5 * (x + y))
    assert gap > -1e-9
