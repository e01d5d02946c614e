"""Finite differences, bisection, golden section, coordinate descent,
and the sweep engine."""

import math

import numpy as np
import pytest

from chorddiv import (
    BracketError,
    DomainError,
    ParameterError,
    UnknownDivergenceError,
    bisect_root,
    bregman,
    central_diff_grad,
    coordinate_minimize,
    golden_minimize,
    make_builtin,
    resolve_divergence,
    sweep,
)
from chorddiv.numerics import INV_PHI


class Counter:
    """Wrap a scalar function and count evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


class TestCentralDiffGrad:
    def test_quadratic(self):
        F = make_builtin("quadratic", 1)
        assert central_diff_grad(F, 3.0)[0] == pytest.approx(6.0, abs=1e-8)

    def test_multivariate(self):
        F = make_builtin("quadratic", 3)
        fd = central_diff_grad(F, [1.0, -2.0, 0.5])
        assert np.allclose(fd, [2.0, -4.0, 1.0], atol=1e-8)

    def test_matches_closed_form_gradients(self):
        rng = np.random.default_rng(2)
        for name in ("shannon_negentropy", "burg_negentropy",
                     "log_sum_exp"):
            F = make_builtin(name, 2)
            for _ in range(20):
                if F.domain.kind == "positive":
                    t = rng.uniform(0.2, 1.5, 2)
                else:
                    t = rng.uniform(-1.5, 1.5, 2)
                fd = central_diff_grad(F, t)
                g = F.grad(t)
                assert np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g))) \
                    < 1e-6

    def test_step_shrinks_near_boundary(self):
        # 5e-6 - 1e-5 < 0, so the default step must shrink once
        F = make_builtin("burg_negentropy", 1)
        fd = central_diff_grad(F, 5e-6)[0]
        # h shrinks to 1e-6, still 20% of theta, so the difference quotient
        # carries a visible curvature error; 2% covers it comfortably
        assert fd == pytest.approx(-1.0 / 5e-6, rel=2e-2)

    def test_fails_when_shrunk_step_still_leaves_domain(self):
        F = make_builtin("burg_negentropy", 1)
        with pytest.raises(DomainError):
            central_diff_grad(F, 5e-8)

    def test_bad_step(self):
        F = make_builtin("quadratic", 1)
        with pytest.raises(ParameterError):
            central_diff_grad(F, 1.0, h=0.0)


class TestBisectRoot:
    def test_linear(self):
        root = bisect_root(lambda x: x - 0.5, 0.0, 1.0, tol=1e-10)
        assert root == pytest.approx(0.5, abs=1e-10)

    def test_sqrt2(self):
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_exact_zero_at_endpoint(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x, 2.0, 1.0)

    def test_evaluation_budget(self):
        tol = 1e-10
        g = Counter(lambda x: x - 0.31)
        bisect_root(g, 0.0, 1.0, tol=tol)
        cap = math.ceil(math.log2(1.0 / tol)) + 2
        assert g.calls <= cap


class TestGoldenMinimize:
    def test_interior_minimum(self):
        x = golden_minimize(lambda v: (v - 0.3) ** 2, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.3, abs=2e-8)

    def test_boundary_minimum(self):
        x = golden_minimize(lambda v: v, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.0, abs=1e-7)

    def test_degenerate_interval(self):
        assert golden_minimize(lambda v: v * v, 0.4, 0.4) == 0.4

    def test_width_below_tol(self):
        assert golden_minimize(lambda v: v * v, 0.1, 0.1 + 1e-12,
                               tol=1e-8) == pytest.approx(0.1, abs=1e-8)

    def test_evaluation_budget(self):
        tol = 1e-8
        g = Counter(lambda v: (v - 0.77) ** 2)
        golden_minimize(g, 0.0, 1.0, tol=tol)
        cap = math.ceil(math.log(tol) / math.log(INV_PHI)) + 2
        assert g.calls <= cap


class TestCoordinateMinimize:
    def test_separable_quadratic(self):
        res = coordinate_minimize(
            lambda v: (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 2,
            [-5.0, -5.0], [5.0, 5.0], tol=1e-9,
        )
        assert np.allclose(res.x, [1.0, -2.0], atol=1e-8)
        assert not res.capped
        assert not res.on_edge

    def test_minimum_pinned_to_box(self):
        res = coordinate_minimize(lambda v: (v[0] - 10.0) ** 2,
                                  [0.0], [1.0], tol=1e-9)
        assert res.x[0] == pytest.approx(1.0, abs=1e-8)
        assert res.on_edge
        assert not res.capped
        # the edge is 1e-6 of the width wide: 5e-7 inside is on it, 1e-3
        # inside is not
        for target, on_edge in ((1.0 - 5e-7, True), (1.0 - 1e-3, False)):
            res = coordinate_minimize(lambda v: (v[0] - target) ** 2,
                                      [0.0], [1.0], tol=1e-9)
            assert res.on_edge is on_edge

    def test_coupled_quadratic(self):
        # minimum of (x - y)^2 + (x - 1)^2 at x = y = 1
        res = coordinate_minimize(
            lambda v: (v[0] - v[1]) ** 2 + (v[0] - 1.0) ** 2,
            [-5.0, -5.0], [5.0, 5.0], tol=1e-10,
        )
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
        assert not res.capped
        assert 1 < res.sweeps < 60
        # one sweep cannot settle the coupling, so the search is capped
        res = coordinate_minimize(
            lambda v: (v[0] - v[1]) ** 2 + (v[0] - 1.0) ** 2,
            [-5.0, -5.0], [5.0, 5.0], tol=1e-10, max_sweeps=1,
        )
        assert res.capped
        assert res.sweeps == 1
        assert not res.on_edge

    def test_zero_width_coordinate_is_not_on_edge(self):
        # the pinned coordinate sits at both lo and hi, yet is not a
        # search that ran into its box
        res = coordinate_minimize(
            lambda v: (v[0] - 0.3) ** 2 + (v[1] - 2.0) ** 2,
            [0.0, 2.0], [1.0, 2.0], tol=1e-9,
        )
        assert res.x[1] == 2.0
        assert res.x[0] == pytest.approx(0.3, abs=1e-8)
        assert not res.on_edge
        assert not res.capped

    def test_bad_box(self):
        with pytest.raises(BracketError):
            coordinate_minimize(lambda v: 0.0, [0.0, 1.0], [1.0])


class TestSweepGrid:
    """The alpha and beta anchor lists a sweep takes."""

    def test_sorts_values(self):
        F = make_builtin("quadratic", 1)
        rows = sweep(F, 0.0, 1.0, (0.75, 0.25), (1.0, 0.5), "bregman_chord")
        assert [(a, b) for a, b, _ in rows] == [
            (0.25, 0.5), (0.25, 1.0), (0.75, 0.5), (0.75, 1.0)
        ]

    def test_rejects_out_of_range(self):
        F = make_builtin("quadratic", 1)
        with pytest.raises(ParameterError):
            sweep(F, 0.0, 1.0, (0.0, 0.5), (0.5,), "bregman_chord")
        with pytest.raises(ParameterError):
            sweep(F, 0.0, 1.0, (0.5,), (1.2,), "bregman_chord")
        with pytest.raises(ParameterError):
            sweep(F, 0.0, 1.0, (), (0.5,), "bregman_chord")


class TestSweep:
    def test_two_by_two_skips_diagonal(self):
        F = make_builtin("quadratic", 1)
        rows = sweep(F, 0.0, 1.0, (0.25, 0.75), (0.25, 0.75), "bregman_chord")
        assert [(a, b) for a, b, _ in rows] == [(0.25, 0.75), (0.75, 0.25)]
        for _, _, v in rows:
            assert v == pytest.approx(0.1875, abs=1e-15)

    def test_row_major_ordering(self):
        F = make_builtin("quadratic", 1)
        rows = sweep(F, 0.0, 1.0, (0.2, 0.5), (0.3, 0.9), "bregman_chord")
        assert [(a, b) for a, b, _ in rows] == [
            (0.2, 0.3), (0.2, 0.9), (0.5, 0.3), (0.5, 0.9)
        ]

    def test_identical_points_give_zeros(self):
        F = make_builtin("shannon_negentropy", 2)
        rows = sweep(F, [0.4, 0.6], [0.4, 0.6], (0.25, 0.75), (0.25, 0.75),
                     "bregman_chord")
        assert all(v == 0.0 for _, _, v in rows)

    def test_constant_divergence_ignores_anchors(self):
        F = make_builtin("quadratic", 1)
        rows = sweep(F, 0.0, 1.0, (0.25, 0.75), (0.25, 0.75), "bregman")
        assert len(rows) == 2
        assert all(v == 1.0 for _, _, v in rows)

    @pytest.mark.parametrize("div", ["bregman_chord", "biskew:bregman_chord"])
    def test_cells_equal_resolved_divergence(self, div):
        F = make_builtin("shannon_negentropy", 3)
        x, y = np.array([0.3, 0.5, 1.2]), np.array([0.9, 0.2, 0.7])
        params = {"gamma": 0.3, "delta": 0.6}
        anchors = (0.2, 0.5, 1.0)
        rows = sweep(F, x, y, anchors, anchors, div, params)
        assert len(rows) == 6
        for a, b, v in rows:
            D = resolve_divergence(div, F, {**params, "alpha": a, "beta": b})
            assert v == D(x, y)

    def test_unknown_divergence(self):
        F = make_builtin("quadratic", 1)
        with pytest.raises(UnknownDivergenceError):
            sweep(F, 0.0, 1.0, (0.5,), (0.25,), "nonesuch")

    def test_cells_respect_sandwich_and_symmetry(self):
        F = make_builtin("shannon_negentropy", 1)
        values = tuple(i / 7 for i in range(1, 7))
        rows = sweep(F, 0.2, 0.8, values, values, "bregman_chord")
        bound = bregman(F, 0.2, 0.8)
        table = {(a, b): v for a, b, v in rows}
        for (a, b), v in table.items():
            assert 0.0 <= v <= bound + 1e-12
            assert v == pytest.approx(table[(b, a)], abs=1e-12)
