"""Generator construction, domain checks, line restrictions, conjugates."""

import math
import re

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
)
from chorddiv.generators import Bound, restrict_to_line
from chorddiv.registry import resolve_bound

from test_bregman import paired


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
        for name in BUILTIN_GENERATORS:
            with pytest.raises(ParameterError,
                               match="generator dimension must be >= 1, "
                                     "got 0"):
                make_builtin(name, 0)

    @pytest.mark.parametrize("dim", [2.5, 2.0, "2", True])
    def test_non_integer_dimension(self, dim):
        # make_builtin must not truncate 2.5 to 2, and a Generator of
        # dimension 2.5 would reject every point
        for make in (lambda: make_builtin("quadratic", dim),
                     lambda: Generator(name="g", dim=dim, domain=Domain(),
                                       fn=lambda t: 0.0)):
            with pytest.raises(ParameterError,
                               match="generator dimension must be an "
                                     "integer"):
                make()

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


def exp_sum(dim, calls=None):
    """Gradient-free Sum exp(t_i); appends each F argument to calls."""
    def fn(t):
        if calls is not None:
            calls.append(t.copy())
        return float(np.sum(np.exp(t)))
    return Generator(name="exp_sum", dim=dim, domain=Domain("reals"), fn=fn)


def bound_table(F, X, Y, lams):
    """Bound's columns at lams over the row pairs of X and Y, row by row,
    or one row of either with every row of the other: the
    (m, len(lams)) table, with the mask of the pairs whose points
    coincide (None when none do)."""
    n, m = len(X), len(Y)
    J = (np.arange(m) if n == m else np.arange(m)[:, None] if n == 1
         else np.zeros(n, dtype=int))
    dead, columns, _ = Bound(F, X, lams).table(Y, J)
    table = np.stack(np.broadcast_arrays(*columns), axis=-1)
    return table.reshape(-1, len(lams)), dead


class TestBoundColumns:
    LAMS = (0.0, 0.2, 0.5, 0.9, 1.0)
    INNER = [1, 2, 3]  # the columns at lams inside (0, 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", [*BUILTIN_GENERATORS, "exp_sum"])
    def test_rows_equal_line_restriction(self, name, dim):
        F = exp_sum(dim) if name == "exp_sum" else make_builtin(name, dim)
        rng = np.random.default_rng(dim)
        X = np.array([sample_point(rng, F) for _ in range(4)])
        y = sample_point(rng, F)
        table, _ = bound_table(F, X, y[None], self.LAMS)
        assert table.shape == (4, len(self.LAMS))
        for x, row in zip(X, table.tolist()):
            G = restrict_to_line(F, x, y)
            assert row == [G(lam) for lam in self.LAMS]
        # one row as the first block pairs with every row of the second
        swapped, _ = bound_table(F, y[None], X, self.LAMS)
        for x, row in zip(X, swapped.tolist()):
            G = restrict_to_line(F, y, x)
            assert row == [G(lam) for lam in self.LAMS]

    def test_coincident_rows_hold_zero_without_f_calls(self):
        calls = []
        F = exp_sum(2, calls)
        y = np.array([0.3, -0.4])
        X = np.array([y, [0.1, 0.2], y + 1e-15])
        table, dead = bound_table(F, X, y[None], self.LAMS)
        assert dead.tolist() == [True, False, True]
        assert not table[0, self.INNER].any()
        assert not table[2, self.INNER].any()
        # F at X's rows once, when they are bound, at the interior lams
        # of the one distinct row only, and at y
        inner = [self.LAMS[j] for j in self.INNER]
        assert len(calls) == len(X) + len(inner) + 1
        assert all(np.array_equal(t, x) for t, x in zip(calls, X))
        assert all(np.array_equal(t, (1.0 - lam) * X[1] + lam * y)
                   for t, lam in zip(calls[3:], inner))
        assert np.array_equal(calls[-1], y)

    @pytest.mark.parametrize("X", [
        np.ones(2), np.ones((3, 3)), np.ones((1, 2, 2)),
    ], ids=["one-point", "wrong-dim", "3-d"])
    def test_block_shape_checked(self, X):
        # by binding, directly and through the registry
        F = make_builtin("quadratic", 2)
        message = (r"^quadratic expects an \(n, 2\) block of points to "
                   rf"bind, got shape {re.escape(str(X.shape))}$")
        with pytest.raises(ShapeError, match=message):
            Bound(F, X, self.LAMS)
        with pytest.raises(ShapeError, match=message):
            resolve_bound("jensen", F)(X)

    @pytest.mark.parametrize("C, J", [
        ([0.0, 0.0], [0]), ([[0.0, 0.0, 0.0]], [0]), (0.0, [0]),
        ([[0.0, 0.0]], 0), ([[0.0, 0.0]], [0, 0]),
    ], ids=["one-point", "wrong-dim", "scalar", "scalar-index",
            "two-entries"])
    def test_table_shape_checked(self, C, J):
        # C must be an (m, 2) block, and J's last axis hold 3 or 1 entries
        F = make_builtin("quadratic", 2)
        bound = Bound(F, np.ones((3, 2)), self.LAMS)
        message = (r"^quadratic expects an \(m, 2\) block and an index of "
                   r"3 or 1 entries per row, got shapes "
                   rf"{re.escape(str(np.shape(C)))} and "
                   rf"{re.escape(str(np.shape(J)))}$")
        with pytest.raises(ShapeError, match=message):
            bound.table(C, J)

    def test_first_point_outside_named(self):
        F = make_builtin("burg_negentropy", 1)
        # binding checks X's rows: row 1 is the first outside
        X = np.array([[2.0], [-1.0]])
        with pytest.raises(DomainError, match=r"point \[-1\.0\] is outside "
                           r"the positive domain of burg_negentropy"):
            Bound(F, X, (0.0, 1.5))
        # then the table's interpolants: (1 - 1.5) 2.0 + 1.5 0.5 = -0.25
        with pytest.raises(DomainError, match=r"point \[-0\.25\] is "
                           r"outside the positive domain of burg_negentropy"):
            Bound(F, X[:1], (0.0, 1.5)).table([[0.5]], np.zeros(1, int))

    @staticmethod
    def second_points(F, X, rng):
        """A block Y of second points for X: row 1 coincides with X[1]
        and row 3 lies within DEGENERATE_EPS of X[3]."""
        Y = np.array([sample_point(rng, F) for _ in X])
        Y[1] = X[1]
        Y[3] = X[3] + 1e-15
        return Y

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", [*BUILTIN_GENERATORS, "exp_sum"])
    def test_block_of_second_points_is_row_by_row(self, name, dim):
        F = exp_sum(dim) if name == "exp_sum" else make_builtin(name, dim)
        rng = np.random.default_rng(dim)
        X = np.array([sample_point(rng, F) for _ in range(5)])
        Y = self.second_points(F, X, rng)
        table, dead = bound_table(F, X, Y, self.LAMS)
        assert table.shape == (5, len(self.LAMS))
        for i in range(5):
            row = bound_table(F, X[i:i + 1], Y[i:i + 1], self.LAMS)[0][0]
            assert table[i].tobytes() == row.tobytes()
        assert dead.tolist() == [False, True, False, True, False]
        assert not table[1, self.INNER].any()
        assert not table[3, self.INNER].any()

    def test_coincident_second_points_make_no_f_calls(self):
        calls = []
        F = exp_sum(2, calls)
        X = np.array([[0.3, -0.4], [0.1, 0.2], [-0.5, 0.6]])
        Y = np.array([X[0], [0.7, -0.1], X[2] + 1e-15])
        table, _ = bound_table(F, X, Y, self.LAMS)
        assert not table[0, self.INNER].any()
        assert not table[2, self.INNER].any()
        # F at X's rows, at the interior lams of row 1 only, and at Y's
        # rows
        inner = [self.LAMS[j] for j in self.INNER]
        assert len(calls) == len(X) + len(inner) + len(Y)
        assert all(np.array_equal(t, (1.0 - lam) * X[1] + lam * Y[1])
                   for t, lam in zip(calls[3:], inner))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 3), (3, 1), (2,)])
    def test_block_of_second_points_shape_checked(self, shape):
        # paired with X's rows by np.arange(m), a table call
        F = make_builtin("quadratic", 2)
        with pytest.raises(ShapeError, match=r"^quadratic expects an "
                           r"\(m, 2\) block and an index of 3 or 1 entries "
                           r"per row, got shapes "):
            paired("jensen", F)(np.ones((3, 2)), np.ones(shape))

    def test_first_second_point_outside_named(self):
        # every point of the table at lams 0, 0.5 and 1 lies inside but
        # for the block's own rows 1 and 2, and row 1 is named
        F = make_builtin("burg_negentropy", 1)
        X = np.array([[1.0], [2.0], [3.0]])
        Y = np.array([[1.5], [-1.0], [-2.0]])
        with pytest.raises(DomainError, match=r"^point \[-1\.0\] is outside "
                           r"the positive domain of burg_negentropy$"):
            paired("jensen", F)(X, Y)

    def test_bregman_block_takes_a_block_of_second_points(self):
        F = make_builtin("quadratic", 2)
        X = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        Y = np.array([[0.0, 1.0], [0.5, -1.0], [-2.0, 0.5]])
        block = paired("bregman", F)
        # quadratic: B(x : y) = |x - y|^2
        assert block(X, Y).tolist() == [2.0, 0.0, 25.25]
        with pytest.raises(ShapeError, match=r"an index of 3 or 1 entries per "
                           r"row, got shapes \(2, 2\) and \(2,\)"):
            block(X, Y[:2])

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
