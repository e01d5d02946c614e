"""Finite differences, bisection, golden section, coordinate descent,
and the sweep engine."""

import math

import numpy as np
import pytest

from chorddiv import (
    BracketError,
    ChordParams,
    Domain,
    DomainError,
    Generator,
    ParameterError,
    UnknownDivergenceError,
    bregman,
    coordinate_minimize,
    make_builtin,
    mean_value_witness,
    resolve_divergence,
    sweep,
)
from chorddiv.numerics import (
    INV_PHI,
    bisect_root,
    central_diff_grad,
    golden_minimize,
)


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
        for h in (0.0, math.nan):
            with pytest.raises(ParameterError):
                central_diff_grad(F, 1.0, h=h)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("solve", [
    lambda tol: bisect_root(lambda x: x - 0.9, 0.0, 1.0, tol=tol),
    lambda tol: golden_minimize(lambda v: (v - 0.3) ** 2, 0.0, 1.0, tol=tol),
    lambda tol: coordinate_minimize(lambda v: float(v @ v), [-1.0], [1.0],
                                    tol=tol),
    lambda tol: mean_value_witness(make_builtin("shannon_negentropy", 1),
                                   0.3, 0.9, ChordParams(0.2, 0.8), tol=tol),
], ids=["bisect_root", "golden_minimize", "coordinate_minimize",
        "mean_value_witness"])
def test_bad_tolerance(solve, tol):
    """A NaN tolerance fails the positivity check too, instead of
    returning a point or escaping as a bare ValueError."""
    with pytest.raises(ParameterError, match="tolerance must be positive"):
        solve(tol)


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

    def test_start_at_minimizer_stops_after_one_sweep(self):
        # the one sweep cannot lower g, so the start comes back bit for bit
        m = np.array([0.3, -1.25])
        res = coordinate_minimize(lambda v: float(np.sum((v - m) ** 2)),
                                  [-5.0, -5.0], [5.0, 5.0], x0=m, tol=1e-9)
        assert res.sweeps == 1
        assert not res.capped
        assert res.x.tolist() == m.tolist()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_objective_raises(self, bad):
        with pytest.raises(DomainError, match=r"at \[0\.5, 0\.5\]"):
            coordinate_minimize(lambda v: bad, [0.0, 0.0], [1.0, 1.0],
                                max_sweeps=5)
        # finite at the start, not after the first sweep
        with pytest.raises(DomainError, match="objective is nan"):
            coordinate_minimize(
                lambda v: 0.0 if v[0] == 0.5 else float("nan"),
                [0.0], [1.0], x0=[0.5], max_sweeps=5)

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
    @pytest.mark.parametrize("gen", ["quadratic", "shannon_negentropy",
                                     "burg_negentropy", "log_sum_exp"])
    @pytest.mark.parametrize("x, y", [
        ([0.3], [0.9]),
        ([0.3, 0.5, 1.2], [0.9, 0.2, 0.7]),
        ([0.4, 0.6], [0.4, 0.6]),
    ], ids=["d1", "d3", "coincident"])
    def test_cells_equal_resolved_divergence(self, div, gen, x, y):
        F = make_builtin(gen, len(x))
        x, y = np.array(x), np.array(y)
        params = {"gamma": 0.3, "delta": 0.6}
        anchors = (0.2, 0.5, 1.0)
        rows = sweep(F, x, y, anchors, anchors, div, params)
        assert len(rows) == 6
        for a, b, v in rows:
            D = resolve_divergence(div, F, {**params, "alpha": a, "beta": b})
            assert v == D(x, y)

    ALPHAS, BETAS = (0.25, 0.5, 0.75), (0.5, 0.75, 1.0)

    def counted_sweep(self, div):
        fn = Counter(lambda t: float(np.dot(t, t)))
        F = Generator(name="counted", dim=2, domain=Domain("reals"), fn=fn)
        params = {"gamma": 0.2, "delta": 0.9, "epsilon": 1e-3}
        rows = sweep(F, [0.1, 0.4], [0.7, -0.2], self.ALPHAS, self.BETAS,
                     div, params)
        assert len(rows) == 7
        return fn.calls

    @pytest.mark.parametrize("div", ["bregman_chord", "biskew:bregman_chord"])
    def test_evaluates_each_distinct_anchor_once(self, div):
        assert self.counted_sweep(div) == len({0.0, *self.ALPHAS,
                                               *self.BETAS})

    @pytest.mark.parametrize("div", ["bregman_chord_approx", "jensen"])
    def test_anchor_free_divergence_evaluated_once(self, div):
        # one call of a three-evaluation divergence, not one per cell
        assert self.counted_sweep(div) == 3

    def test_non_finite_cell_names_its_anchors(self):
        def fn(t):
            return float(t[0] ** 2) if t[0] < 0.9 else math.inf

        F = Generator(name="blows_up", dim=1, domain=Domain("reals"), fn=fn)
        with pytest.raises(DomainError, match=r"\(alpha=0\.25, beta=1\.0\)"):
            sweep(F, 0.0, 1.0, (0.25,), (0.5, 1.0), "bregman_chord")

    @pytest.mark.parametrize("div", ["bregman_tangent", "jensen_skewed",
                                     "jensen_bregman", "jensen_chord",
                                     "biskew:bregman_tangent"])
    def test_rejects_ids_a_grid_does_not_fit(self, div):
        fn = Counter(lambda t: float(np.dot(t, t)))
        F = Generator(name="counted", dim=1, domain=Domain("reals"), fn=fn)
        params = {"alpha": 0.5, "gamma": 0.5, "delta": 0.2}
        with pytest.raises(ParameterError, match="sweep accepts bregman, "):
            sweep(F, 0.0, 1.0, (0.25, 0.5), (0.5, 1.0), div, params)
        assert fn.calls == 0

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
