"""f-divergences, generator transforms, KL and extended KL."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chorddiv.fdiv
from chorddiv import (
    DomainError,
    FGenerator,
    ParameterError,
    ShapeError,
    UnsupportedGeneratorError,
    bregman,
    dual_generator,
    extended_kl,
    f_div,
    j_symmetrize,
    js_symmetrize_div,
    kl,
    make_builtin,
    make_f_generator,
)

# 0.5 log 2 + 0.5 log(2/3)
KL_HALF_QUARTER = 0.14384103622589045
# 0.25 log(1/2) + 0.75 log(3/2)
KL_QUARTER_HALF = 0.13081203594113694


class TestFGenerator:
    def test_must_vanish_at_one(self):
        with pytest.raises(ParameterError):
            FGenerator("shifted_log", lambda u: -np.log(u) + 1.0)

    def test_nan_at_one_is_rejected(self):
        with pytest.raises(ParameterError, match="f\\(1\\)=nan"):
            FGenerator("nan_at_one", lambda u: np.nan * u)

    def test_rejects_non_positive_ratio(self):
        f = make_f_generator("kl")
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                f(bad)

    def test_builtin_values(self):
        f_kl = make_f_generator("kl")
        f_tv = make_f_generator("tv")
        f_chi2 = make_f_generator("chi2")
        assert f_kl(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
        assert f_tv(3.0) == 1.0
        assert f_chi2(3.0) == 4.0
        for f in (f_kl, f_tv, f_chi2):
            assert f(1.0) == 0.0

    def test_unknown_name(self):
        with pytest.raises(UnsupportedGeneratorError):
            make_f_generator("hellinger")


class TestScalarFDiv:
    """One-cell f_div is the single-cell contribution a f(b / a)."""

    def test_frozen_value(self):
        f = make_f_generator("kl")
        assert f_div(f, [0.5], [0.25]) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-15)

    def test_zero_at_equal_arguments(self):
        for name in ("kl", "tv", "chi2"):
            f = make_f_generator(name)
            assert f_div(f, [0.7], [0.7]) == 0.0

    def test_rejects_non_positive(self):
        f = make_f_generator("kl")
        with pytest.raises(DomainError):
            f_div(f, [0.0], [1.0])
        with pytest.raises(DomainError):
            f_div(f, [1.0], [-1.0])

    def test_kl_cells_can_be_negative(self):
        # pointwise terms are signed; only the aggregate on normalized
        # weights is guaranteed non-negative
        f = make_f_generator("kl")
        assert f_div(f, [0.25], [0.5]) < 0.0


class TestFDiv:
    def test_kl_frozen_values(self):
        f = make_f_generator("kl")
        assert f_div(f, (0.5, 0.5), (0.25, 0.75)) == pytest.approx(
            KL_HALF_QUARTER, abs=1e-12)
        assert f_div(f, (0.25, 0.75), (0.5, 0.5)) == pytest.approx(
            KL_QUARTER_HALF, abs=1e-12)

    def test_zero_on_identical(self):
        for name in ("kl", "tv", "chi2"):
            f = make_f_generator(name)
            assert f_div(f, (0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_non_negative_on_normalized_pairs(self):
        rng = np.random.default_rng(14)
        for name in ("kl", "tv", "chi2"):
            f = make_f_generator(name)
            for _ in range(50):
                p = rng.uniform(0.05, 1.0, 4)
                q = rng.uniform(0.05, 1.0, 4)
                p /= p.sum()
                q /= q.sum()
                assert f_div(f, p, q) >= 0.0

    def test_matches_scalar_cells(self):
        f = make_f_generator("chi2")
        p = (0.2, 0.5, 0.3)
        q = (0.4, 0.1, 0.5)
        total = sum(a * f.fn(b / a) for a, b in zip(p, q))
        assert f_div(f, p, q) == pytest.approx(total, abs=1e-15)

    def test_length_mismatch(self):
        f = make_f_generator("kl")
        with pytest.raises(ShapeError):
            f_div(f, (0.5, 0.5), (0.2, 0.3, 0.5))

    def test_rejects_zero_weight(self):
        f = make_f_generator("kl")
        with pytest.raises(DomainError):
            f_div(f, (0.5, 0.0), (0.5, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, bad):
        f = make_f_generator("kl")
        with pytest.raises(DomainError, match="q must have finite"):
            f_div(f, (0.5, 0.5), (0.5, bad))


class TestDualGenerator:
    def test_kl_dual_value(self):
        f = dual_generator(make_f_generator("kl"))
        assert f(2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)

    def test_vanishes_at_one(self):
        for name in ("kl", "tv", "chi2"):
            assert dual_generator(make_f_generator(name))(1.0) == \
                pytest.approx(0.0, abs=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(25)
        for name in ("kl", "tv", "chi2"):
            f = make_f_generator(name)
            ff = dual_generator(dual_generator(f))
            for _ in range(30):
                u = rng.uniform(0.05, 5.0)
                assert ff(u) == pytest.approx(f(u), abs=1e-12)

    def test_swaps_divergence_arguments(self):
        rng = np.random.default_rng(36)
        for name in ("kl", "tv", "chi2"):
            f = make_f_generator(name)
            fd = dual_generator(f)
            for dim in (2, 5):
                for _ in range(25):
                    p = rng.uniform(0.1, 2.0, dim)
                    q = rng.uniform(0.1, 2.0, dim)
                    assert abs(f_div(fd, p, q) - f_div(f, q, p)) <= 1e-12

    def test_tv_is_self_dual(self):
        f = make_f_generator("tv")
        fd = dual_generator(f)
        for u in (0.2, 0.7, 1.0, 1.9, 4.0):
            assert fd(u) == pytest.approx(f(u), abs=1e-15)


class TestJSymmetrize:
    def test_halved_jeffreys(self):
        f = j_symmetrize(make_f_generator("kl"))
        p, q = (0.5, 0.5), (0.25, 0.75)
        expected = 0.5 * (KL_HALF_QUARTER + KL_QUARTER_HALF)
        assert f_div(f, p, q) == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(47)
        for name in ("kl", "chi2"):
            f = j_symmetrize(make_f_generator(name))
            for _ in range(20):
                p = rng.uniform(0.1, 2.0, 3)
                q = rng.uniform(0.1, 2.0, 3)
                assert f_div(f, p, q) == pytest.approx(
                    f_div(f, q, p), abs=1e-12)

    def test_vanishes_at_one(self):
        assert j_symmetrize(make_f_generator("kl"))(1.0) == \
            pytest.approx(0.0, abs=1e-15)


def js_generator(f: FGenerator) -> FGenerator:
    """Generator whose induced divergence equals js_symmetrize_div:

        (1/2) [ f((1 + u)/2) + u f((1 + u)/(2u)) ]
    """
    return FGenerator(
        f.name + "_jssym",
        lambda u: 0.5 * (f.fn((1.0 + u) / 2.0)
                         + u * f.fn((1.0 + u) / (2.0 * u))),
    )


class TestJSSymmetrize:
    def test_zero_on_identical(self):
        f = make_f_generator("kl")
        assert js_symmetrize_div(f, (0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_symmetric(self):
        f = make_f_generator("kl")
        p, q = (0.9, 0.1), (0.1, 0.9)
        assert js_symmetrize_div(f, p, q) == pytest.approx(
            js_symmetrize_div(f, q, p), abs=1e-15)

    def test_kl_value_bounded_by_log_two(self):
        f = make_f_generator("kl")
        p, q = (0.9, 0.1), (0.1, 0.9)
        v = js_symmetrize_div(f, p, q)
        assert 0.0 < v < math.log(2.0)
        # half-sum of divergences to the midpoint, computed directly
        m = (0.5, 0.5)
        assert v == pytest.approx(0.5 * (kl(p, m) + kl(q, m)), abs=1e-15)

    def test_generator_form_matches_divergence_form(self):
        rng = np.random.default_rng(58)
        for name in ("kl", "tv", "chi2"):
            f = make_f_generator(name)
            fj = js_generator(f)
            for _ in range(25):
                p = rng.uniform(0.1, 2.0, 4)
                q = rng.uniform(0.1, 2.0, 4)
                assert abs(f_div(fj, p, q)
                           - js_symmetrize_div(f, p, q)) <= 1e-12

    @pytest.mark.parametrize("name", ["kl", "tv", "chi2"])
    def test_checks_each_argument_once_and_equals_the_former_body(
            self, monkeypatch, name):
        f, rng = make_f_generator(name), np.random.default_rng(59)
        checked = []
        weights = chorddiv.fdiv._weights
        monkeypatch.setattr(chorddiv.fdiv, "_weights", lambda x, label:
                            checked.append(label) or weights(x, label))
        for shape_p, shape_q in [(4, 4), ((5, 3), (5, 3)), ((5, 3), (1, 3)),
                                 ((1, 3), (5, 3))]:
            p, q = rng.uniform(0.01, 5.0, shape_p), rng.uniform(0.01, 5.0,
                                                                  shape_q)
            checked.clear()
            got = js_symmetrize_div(f, p, q)
            assert checked == ["p", "q"]
            # the former body: two f_div calls on the mixture
            m = 0.5 * (p + q)
            want = 0.5 * (f_div(f, p, m) + f_div(f, q, m))
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_overflowing_mixture_raises(self):
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match=r"p \+ q must be finite"):
            js_symmetrize_div(make_f_generator("kl"), [1e308, 1.0],
                              [1e308, 1.0])


class TestKL:
    def test_frozen_value(self):
        assert kl((0.5, 0.5), (0.25, 0.75)) == pytest.approx(
            KL_HALF_QUARTER, abs=1e-12)

    def test_asymmetric(self):
        p, q = (0.5, 0.5), (0.25, 0.75)
        assert abs(kl(p, q) - kl(q, p)) > 1e-3


class TestExtendedKL:
    def test_zero_on_identical(self):
        assert extended_kl((2.0, 1.0), (2.0, 1.0)) == 0.0

    def test_frozen_unnormalized_value(self):
        # 2 log 2 + 1 - 2 = 2 log 2 - 1
        assert extended_kl((2.0, 1.0), (1.0, 1.0)) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-12)

    def test_reduces_to_kl_on_normalized(self):
        p, q = (0.5, 0.5), (0.25, 0.75)
        assert extended_kl(p, q) == pytest.approx(kl(p, q), abs=1e-12)

    def test_non_negative_on_positive_orthant(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            p = rng.uniform(0.05, 3.0, 4)
            q = rng.uniform(0.05, 3.0, 4)
            assert extended_kl(p, q) >= 0.0

    def test_equals_shannon_bregman(self):
        rng = np.random.default_rng(81)
        F = make_builtin("shannon_negentropy", 3)
        for _ in range(50):
            p = rng.uniform(0.2, 1.5, 3)
            q = rng.uniform(0.2, 1.5, 3)
            assert abs(extended_kl(p, q) - bregman(F, p, q)) <= 1e-12


@given(
    p1=st.floats(0.05, 0.95),
    q1=st.floats(0.05, 0.95),
)
def test_kl_non_negative_on_binary_distributions(p1, q1):
    p = (p1, 1.0 - p1)
    q = (q1, 1.0 - q1)
    assert kl(p, q) >= -1e-15


@given(u=st.floats(0.01, 100.0))
def test_dual_involution_property(u):
    f = make_f_generator("kl")
    ff = dual_generator(dual_generator(f))
    assert ff(u) == pytest.approx(f(u), rel=1e-9, abs=1e-12)


def weight_divergences():
    return [pytest.param(kl, id="kl"),
            pytest.param(extended_kl, id="extended_kl")] + [
        pytest.param(lambda p, q, f=make(name), div=div: div(f, p, q),
                     id=f"{form}:{name}")
        for form, make, div in (
            ("fdiv", make_f_generator, f_div),
            ("fdiv_dual", lambda n: dual_generator(make_f_generator(n)),
             f_div),
            ("fdiv_jsym", lambda n: j_symmetrize(make_f_generator(n)),
             f_div),
            ("fdiv_jssym", make_f_generator, js_symmetrize_div))
        for name in ("kl", "tv", "chi2")]


class TestBlocks:
    """Each weight divergence takes two blocks whose rows pair, (m, d)
    or one (1, d) row either side, and its row values equal the vector
    form's bit for bit, whatever the blocks' memory layout."""

    @pytest.mark.parametrize("div", weight_divergences())
    def test_rows_equal_the_vector_form(self, div):
        rng = np.random.default_rng(5)
        for d in (1, 2, 7, 8, 9, 17, 64, 200, 1000):
            P = rng.uniform(0.05, 3.0, (6, d))
            Q = rng.uniform(0.05, 3.0, (6, d))
            Q[2] = P[2]
            for X, Y in [(P, Q), (np.asfortranarray(P), Q),
                         (P, np.asfortranarray(Q)),
                         (rng.uniform(0.05, 3.0, (6, 2 * d))[:, ::2], Q)]:
                want = [div(x, y) for x, y in zip(X, Y)]
                assert div(X, Y).tobytes() == np.array(want).tobytes()
                assert div(X, Y[:1]).tobytes() == np.array(
                    [div(x, Y[0]) for x in X]).tobytes()
                assert div(Y[:1], X).tobytes() == np.array(
                    [div(Y[0], x) for x in X]).tobytes()
            assert type(div(P[0], Q[0])) is float

    @pytest.mark.parametrize("shapes", [
        ((3, 2), (2, 2)), ((3, 2), (3, 3)), ((3, 2), (2,)), ((2,), (1, 2)),
    ])
    def test_blocks_that_do_not_pair(self, shapes):
        p, q = (np.full(shape, 0.5) for shape in shapes)
        with pytest.raises(ShapeError, match=r"p and q must have equal "
                           r"length, got shapes"):
            f_div(make_f_generator("kl"), p, q)

    def test_three_dimensional_weights(self):
        with pytest.raises(ShapeError, match=r"p must be a 1-D vector or a "
                           r"2-D block of rows, got shape \(1, 2, 2\)"):
            kl(np.full((1, 2, 2), 0.5), np.full((1, 2), 0.5))
