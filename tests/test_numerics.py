"""Brent's 1-D search, coordinate descent, and the sweep engine."""

import math

import numpy as np
import pytest

from chorddiv import (
    BracketError,
    Domain,
    DomainError,
    Generator,
    ParameterError,
    ShapeError,
    UnknownDivergenceError,
    bregman,
    coordinate_minimize,
    make_builtin,
    resolve_divergence,
    sweep,
)
from chorddiv import numerics
from chorddiv.numerics import (
    BRACKET_TOL,
    EDGE_REACH,
    INV_PHI_SQ,
    SQRT_EPS,
    golden_lockstep,
    golden_minimize,
    on_box_edge,
)


class Counter:
    """Wrap a scalar function and count evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


class TestGoldenMinimize:
    def test_interior_minimum(self):
        x = golden_minimize(lambda v: (v - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=2e-8)

    def test_boundary_minimum(self):
        x = golden_minimize(lambda v: v, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-7)

    def test_degenerate_interval(self):
        g = Counter(lambda v: v * v)
        assert golden_minimize(g, 0.4, 0.4) == 0.4
        assert g.calls == 0

    def test_narrow_interval_is_searched(self):
        # an interval of 1e-12 has no tolerance to fall within: it is
        # searched to its float resolution and ends at its edge
        assert golden_minimize(lambda v: v * v, 0.1, 0.1 + 1e-12) == 0.1
        assert golden_minimize(lambda v: -v, 0.1, 0.1 + 1e-12) == 0.1 + 1e-12

    def test_evaluation_budget(self):
        # on a parabola: the start and two golden steps, one parabolic
        # step onto the minimizer and one probe tol1 to either side of it;
        # golden section alone takes 37 calls
        g = Counter(lambda v: (v - 0.77) ** 2)
        x = golden_minimize(g, 0.0, 1.0)
        assert g.calls == 6
        assert x == 0.77

    def test_float_resolution_ends_the_search(self):
        # tol1 is below half a unit in the last place of x here, so a step
        # of tol1 rounds back to x
        g = Counter(lambda v: (v - 1e7) ** 2)
        x = golden_minimize(g, 1e7, 1e7 + 1e-3)
        assert g.calls < 100
        assert 1e7 <= x <= 1e7 + 1e-6

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_scaled_interval_takes_scaled_probes(self, scale):
        # tol1 scales with the interval, so the search of a scaled
        # function on the scaled interval probes the scaled points
        def bump(v):
            return -math.cos(v - 0.35) + 0.01 * (v - 0.35) ** 4

        probes, scaled = [], []
        golden_minimize(lambda v: probes.append(v) or bump(v), 0.2, 1.1)
        golden_minimize(lambda v: scaled.append(v) or bump(v / scale),
                        0.2 * scale, 1.1 * scale)
        assert len(scaled) == len(probes)
        np.testing.assert_allclose(np.array(scaled) / scale, probes,
                                   rtol=1e-12)


def scalar_brent(g, lo, hi):
    """Brent's method as one scalar loop, scipy's fminbound with
    golden_minimize's tolerance, taken from the interval, its stop at
    float resolution and its final probe of a box edge: the reference
    golden_lockstep and golden_minimize must equal bit for bit."""
    width = hi - lo
    if width == 0.0:
        return lo
    tol = BRACKET_TOL * width
    cap = EDGE_REACH * width / 4.0
    a, b = lo, hi
    x = w = v = lo + INV_PHI_SQ * width
    fx = fw = fv = g(x)
    d = e = 0.0

    def end():
        if a == lo or b == hi:
            edge = lo if a == lo else hi
            if g(edge) <= fx:
                return edge
        return x

    while True:
        mid = 0.5 * (a + b)
        tol1 = min(SQRT_EPS * abs(x) + tol / 3.0, cap)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return end()
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if mid >= x else -tol1
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = INV_PHI_SQ * e
        # fminbound's si: the sign of d, and +1 at d = 0
        si = float(d > 0.0) - float(d < 0.0) + float(d == 0.0)
        u = x + si * max(abs(d), tol1)
        if u == x or not a < u < b:
            return end()
        fu = g(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


#: Narrow and unit boxes, each with its minimizer past lo, past hi, and
#: at the middle: (lo, hi, target, on_edge).
EDGE_CASES = [
    (lo, lo + width, target, on_edge)
    for lo in (0.5, 3.0)
    for width in (1.0, 1e-2, 1e-4)
    for target, on_edge in ((lo - width, True), (lo + 2.0 * width, True),
                            (lo + 0.5 * width, False))
]


class TestBoxEdge:
    """A search whose minimizer lies past its box ends within on_box_edge's
    reach of that edge however narrow the box; one whose minimizer lies
    inside does not."""

    @pytest.mark.parametrize("lo,hi,target,on_edge", EDGE_CASES)
    def test_golden_minimize(self, lo, hi, target, on_edge):
        x = golden_minimize(lambda v: (v - target) ** 2, lo, hi)
        assert lo <= x <= hi
        assert on_box_edge(np.array([x]), np.array([lo]),
                           np.array([hi])) is on_edge

    @pytest.mark.parametrize("lo,hi,target,on_edge", EDGE_CASES)
    def test_narrow_box_is_searched_to_its_scale(self, lo, hi, target,
                                                 on_edge):
        # a lopsided kink, which parabolic steps do not find: the search
        # ends within half of on_box_edge's reach of the minimizer at every
        # width
        def kink(v):
            return 3.0 * (target - v) if v < target else v - target

        reach = EDGE_REACH * (hi - lo)
        x = golden_minimize(kink, lo, hi)
        assert abs(x - min(max(target, lo), hi)) <= reach / 2

    @pytest.mark.parametrize("lo,hi,target,on_edge", EDGE_CASES)
    def test_golden_lockstep(self, lo, hi, target, on_edge):
        # the second coordinate has a unit box and an interior minimizer
        box_lo, box_hi = np.array([lo, 0.0]), np.array([hi, 1.0])
        x = golden_lockstep(
            lambda v: [(v[0] - target) ** 2, (v[1] - 0.3) ** 2],
            box_lo, box_hi)
        assert on_box_edge(x[:1], box_lo[:1], box_hi[:1]) is on_edge
        assert x[1] == pytest.approx(0.3, abs=1e-8)
        assert not on_box_edge(x[1:], box_lo[1:], box_hi[1:])

    @pytest.mark.parametrize("lo,hi,target,on_edge", EDGE_CASES)
    def test_coordinate_minimize(self, lo, hi, target, on_edge):
        res = coordinate_minimize(
            lambda v: (v[0] - target) ** 2 + (v[1] - 0.3) ** 2,
            [lo, 0.0], [hi, 1.0])
        assert res.on_edge is on_edge
        assert not res.capped
        assert res.x[1] == pytest.approx(0.3, abs=1e-8)


class TestGoldenLockstep:
    @staticmethod
    def bumps(targets):
        """One unimodal function per coordinate, with ties and plateaus
        from rounding near each minimizer."""
        return [lambda v, t=t: -math.cos(v - t) + 0.01 * (v - t) ** 4
                for t in targets]

    def test_equals_the_scalar_loop_per_coordinate(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            lo = rng.uniform(-3.0, 3.0, d)
            # widths from 1e-11 to 10, some intervals of zero width
            hi = lo + 10.0 ** rng.uniform(-11.0, 1.0, d) * rng.choice(
                [0.0, 1.0, 1.0, 1.0], d)
            fs = self.bumps(rng.uniform(lo - 0.5, hi + 0.5))
            got = golden_lockstep(
                lambda v: [f(x) for f, x in zip(fs, v)], lo, hi)
            want = [scalar_brent(f, a, b)
                    for f, a, b in zip(fs, lo.tolist(), hi.tolist())]
            assert got.tobytes() == np.array(want).tobytes()
            assert [golden_minimize(f, a, b) for f, a, b
                    in zip(fs, lo, hi)] == want

    def test_calls_are_the_most_any_coordinate_makes(self):
        calls = []

        def g(v):
            calls.append(list(v))
            return [(x - 0.3) ** 2 for x in v]

        lo, hi = [0.0, 0.0, 0.5], [1.0, 1e-3, 0.5]
        golden_lockstep(g, lo, hi)
        counts = []
        for a, b in zip(lo, hi):
            one = Counter(lambda v: (v - 0.3) ** 2)
            golden_minimize(one, a, b)
            counts.append(one.calls)
        assert counts[0] != counts[1] and counts[2] == 0
        assert len(calls) == max(counts)
        # every probe stays in its interval, finished coordinates included
        assert all(a <= x <= b for v in calls for a, x, b in zip(lo, v, hi))

    @staticmethod
    def check_probes(fs, lo, hi):
        """golden_lockstep probes coordinate j at the points scalar_brent
        probes for fs[j], in order, and at its result once that search is
        done; its result is scalar_brent's, bit for bit."""
        calls = []

        def g(v):
            calls.append(list(v))
            return [f(x) for f, x in zip(fs, v)]

        got = golden_lockstep(g, lo, hi)
        for j, (f, a, b) in enumerate(zip(fs, lo, hi)):
            probes = []
            want = scalar_brent(lambda v: probes.append(v) or f(v), a, b)
            assert got[j].tobytes() == np.float64(want).tobytes()
            assert len(probes) <= len(calls)
            tail = [want] * (len(calls) - len(probes))
            assert (np.array([v[j] for v in calls]).tobytes()
                    == np.array(probes + tail).tobytes())
        return calls

    def test_probes_are_the_scalar_loop_per_coordinate(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            lo = rng.uniform(-3.0, 3.0, d)
            hi = lo + 10.0 ** rng.uniform(-6.0, 1.0, d)
            fs = self.bumps(rng.uniform(lo - 0.5, hi + 0.5))
            self.check_probes(fs, lo.tolist(), hi.tolist())

    @pytest.mark.parametrize("lo,hi,target,on_edge", EDGE_CASES)
    def test_probes_past_the_box(self, lo, hi, target, on_edge):
        # the first coordinate's minimizer lies past lo, past hi or inside,
        # the second's inside a unit box; the third has zero width, the
        # fourth is flat, so its edge probe ties and is taken, and the
        # fifth, 1e-10 wide, is searched to its lower edge
        fs = [lambda v: (v - target) ** 2, lambda v: (v - 0.3) ** 2,
              lambda v: v, lambda v: 1.0, lambda v: v]
        calls = self.check_probes(fs, [lo, 0.0, 2.0, 0.0, 2.0],
                                  [hi, 1.0, 2.0, 1.0, 2.0 + 1e-10])
        assert calls[-1][3] in (0.0, 1.0)
        assert {v[2] for v in calls} == {2.0}
        assert calls[-1][4] == 2.0

    @pytest.mark.parametrize("search", [
        lambda g: golden_lockstep(lambda v: [g(x) for x in v],
                                  [0.0, -1.0], [1.0, 2.0]),
        lambda g: golden_minimize(g, 0.0, 1.0),
    ], ids=["lockstep", "scalar"])
    def test_an_error_from_g_propagates_unchanged(self, search):
        class Boom(Exception):
            pass

        boom, calls = Boom("third call"), []

        def g(x):
            calls.append(x)
            if len(calls) == 3:
                raise boom
            return (x - 0.3) ** 2

        with pytest.raises(Boom) as got:
            search(g)
        assert got.value is boom
        assert len(calls) == 3

    def test_no_calls_when_every_interval_has_zero_width(self):
        got = golden_lockstep(lambda v: pytest.fail("g called"),
                              [0.1, 2.0], [0.1, 2.0])
        assert got.tolist() == [0.1, 2.0]

    @pytest.mark.parametrize("lo,hi", [
        ([0.0, 1.0], [1.0, 0.5]),
        ([0.0, math.nan], [1.0, 1.0]),
        ([0.0, 0.0], [1.0]),
    ])
    def test_invalid_box(self, lo, hi):
        with pytest.raises(BracketError):
            golden_lockstep(lambda v: list(v), lo, hi)


class TestCoordinateMinimize:
    def test_separable_quadratic(self):
        res = coordinate_minimize(
            lambda v: (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 2,
            [-5.0, -5.0], [5.0, 5.0],
        )
        assert np.allclose(res.x, [1.0, -2.0], atol=1e-8)
        assert not res.capped
        assert not res.on_edge

    def test_minimum_pinned_to_box(self):
        res = coordinate_minimize(lambda v: (v[0] - 10.0) ** 2,
                                  [0.0], [1.0])
        assert res.x[0] == pytest.approx(1.0, abs=1e-8)
        assert res.on_edge
        assert not res.capped
        # the edge is 1e-6 of the width wide: 5e-7 inside is on it, 1e-3
        # inside is not
        for target, on_edge in ((1.0 - 5e-7, True), (1.0 - 1e-3, False)):
            res = coordinate_minimize(lambda v: (v[0] - target) ** 2,
                                      [0.0], [1.0])
            assert res.on_edge is on_edge

    def test_coupled_quadratic(self, monkeypatch):
        # minimum of (x - y)^2 + (x - 1)^2 at x = y = 1
        res = coordinate_minimize(
            lambda v: (v[0] - v[1]) ** 2 + (v[0] - 1.0) ** 2,
            [-5.0, -5.0], [5.0, 5.0],
        )
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
        assert not res.capped
        assert 1 < res.sweeps < 60
        # one sweep cannot settle the coupling, so the search is capped
        monkeypatch.setattr(numerics, "MAX_SWEEPS", 1)
        res = coordinate_minimize(
            lambda v: (v[0] - v[1]) ** 2 + (v[0] - 1.0) ** 2,
            [-5.0, -5.0], [5.0, 5.0],
        )
        assert res.capped
        assert res.sweeps == 1
        assert not res.on_edge

    def test_zero_width_coordinate_is_not_on_edge(self):
        # the pinned coordinate sits at both lo and hi, yet is not a
        # search that ran into its box
        res = coordinate_minimize(
            lambda v: (v[0] - 0.3) ** 2 + (v[1] - 2.0) ** 2,
            [0.0, 2.0], [1.0, 2.0],
        )
        assert res.x[1] == 2.0
        assert res.x[0] == pytest.approx(0.3, abs=1e-8)
        assert not res.on_edge
        assert not res.capped

    def test_start_at_minimizer_stops_after_one_sweep(self):
        # the one sweep cannot lower g, so the start comes back bit for bit
        m = np.array([0.3, -1.25])
        res = coordinate_minimize(lambda v: float(np.sum((v - m) ** 2)),
                                  [-5.0, -5.0], [5.0, 5.0], x0=m)
        assert res.sweeps == 1
        assert not res.capped
        assert res.x.tolist() == m.tolist()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_objective_raises(self, monkeypatch, bad):
        monkeypatch.setattr(numerics, "MAX_SWEEPS", 5)
        with pytest.raises(DomainError, match=r"at \[0\.5, 0\.5\]"):
            coordinate_minimize(lambda v: bad, [0.0, 0.0], [1.0, 1.0])
        # finite at the start, not after the first sweep
        with pytest.raises(DomainError, match="objective is nan"):
            coordinate_minimize(
                lambda v: 0.0 if v[0] == 0.5 else float("nan"),
                [0.0], [1.0], x0=[0.5])

    def test_bad_box(self):
        with pytest.raises(BracketError):
            coordinate_minimize(lambda v: 0.0, [0.0, 1.0], [1.0])

    @pytest.mark.parametrize("lo,hi", [
        ([0.0, math.nan], [1.0, 1.0]),
        ([0.0, 0.0], [math.inf, 1.0]),
        ([-math.inf], [0.0]),
        ([0.0, 1.0], [1.0, 0.5]),
    ])
    def test_non_finite_or_inverted_box_raises_before_any_call(self, lo, hi):
        with pytest.raises(BracketError, match="invalid interval"):
            coordinate_minimize(lambda v: pytest.fail("g called"), lo, hi)

    @pytest.mark.parametrize("x0", [[0.5, 0.5, 0.5], [0.5], [[0.5, 0.5]]])
    def test_start_of_another_shape_raises_before_any_call(self, x0):
        with pytest.raises(ShapeError, match=r"x0 of shape"):
            coordinate_minimize(lambda v: pytest.fail("g called"),
                                [0.0, 0.0], [1.0, 1.0], x0=x0)


class TestSweepGrid:
    """The alpha and beta anchor lists a sweep takes."""

    def test_sorts_values(self):
        F = make_builtin("quadratic", 1)
        alphas, betas, _ = sweep(F, 0.0, 1.0, (0.75, 0.25), (1.0, 0.5),
                                 "bregman_chord")
        assert list(zip(alphas.tolist(), betas.tolist())) == [
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
        alphas, betas, values = sweep(F, 0.0, 1.0, (0.25, 0.75),
                                      (0.25, 0.75), "bregman_chord")
        assert list(zip(alphas.tolist(), betas.tolist())) == [(0.25, 0.75),
                                                              (0.75, 0.25)]
        for v in values:
            assert v == pytest.approx(0.1875, abs=1e-15)

    def test_row_major_ordering(self):
        F = make_builtin("quadratic", 1)
        alphas, betas, _ = sweep(F, 0.0, 1.0, (0.2, 0.5), (0.3, 0.9),
                                 "bregman_chord")
        assert list(zip(alphas.tolist(), betas.tolist())) == [
            (0.2, 0.3), (0.2, 0.9), (0.5, 0.3), (0.5, 0.9)
        ]

    def test_identical_points_give_zeros(self):
        F = make_builtin("shannon_negentropy", 2)
        _, _, values = sweep(F, [0.4, 0.6], [0.4, 0.6], (0.25, 0.75),
                             (0.25, 0.75), "bregman_chord")
        assert all(v == 0.0 for v in values)

    def test_constant_divergence_ignores_anchors(self):
        F = make_builtin("quadratic", 1)
        _, _, values = sweep(F, 0.0, 1.0, (0.25, 0.75), (0.25, 0.75),
                             "bregman")
        assert len(values) == 2
        assert all(v == 1.0 for v in values)

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
        alphas, betas, values = sweep(F, x, y, anchors, anchors, div, params)
        assert len(values) == 6
        for a, b, v in zip(alphas.tolist(), betas.tolist(), values):
            D = resolve_divergence(div, F, {**params, "alpha": a, "beta": b})
            assert v == D(x, y)

    ALPHAS, BETAS = (0.25, 0.5, 0.75), (0.5, 0.75, 1.0)

    def counted_sweep(self, div):
        fn = Counter(lambda t: float(np.dot(t, t)))
        F = Generator(name="counted", dim=2, domain=Domain("reals"), fn=fn)
        params = {"gamma": 0.2, "delta": 0.9, "epsilon": 1e-3}
        _, _, values = sweep(F, [0.1, 0.4], [0.7, -0.2], self.ALPHAS,
                             self.BETAS, div, params)
        assert len(values) == 7
        return fn.calls

    @pytest.mark.parametrize("div", ["bregman_chord", "biskew:bregman_chord"])
    def test_evaluates_each_distinct_anchor_once(self, div):
        assert self.counted_sweep(div) == len({0.0, *self.ALPHAS,
                                               *self.BETAS})

    @pytest.mark.parametrize("div", ["bregman_chord_approx", "jensen"])
    def test_anchor_free_divergence_evaluated_once(self, div):
        # one call of a three-evaluation divergence, not one per cell
        assert self.counted_sweep(div) == 3

    def counted_points(self, div, anchors):
        calls = []

        class Counted(Generator):
            def point(self, theta):
                calls.append(theta)
                return super().point(theta)

        F = Counted(name="counted", dim=2, domain=Domain("reals"),
                    fn=lambda t: float(np.dot(t, t)))
        sweep(F, [0.1, 0.4], [0.7, -0.2], anchors, anchors, div,
              {"gamma": 0.2, "delta": 0.9})
        return len(calls)

    @pytest.mark.parametrize("div", ["bregman_chord", "biskew:bregman_chord"])
    def test_validation_does_not_grow_with_anchors(self, div):
        # one domain check covers the whole table of interpolants
        few = self.counted_points(div, (0.5, 1.0))
        many = self.counted_points(div, tuple(i / 20 for i in range(1, 21)))
        assert few == many

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
        rows = zip(*sweep(F, 0.2, 0.8, values, values, "bregman_chord"))
        bound = bregman(F, 0.2, 0.8)
        table = {(a, b): v for a, b, v in rows}
        for (a, b), v in table.items():
            assert 0.0 <= v <= bound + 1e-12
            assert v == pytest.approx(table[(b, a)], abs=1e-12)
