"""Row evaluation: each builtin's Generator.rows equals its scalar fn bit
for bit, and the vector forms built on generators.Bound (resolve_bound,
the bound form called once on all pairs) equal their per-pair kernels
bit for bit. Every reference is computed on the scalar path at
test time, not stored, since numpy versions and BLAS builds may round a
form differently."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from chorddiv import (
    BUILTIN_GENERATORS,
    ChordParams,
    Domain,
    DomainError,
    Generator,
    GradientRequiredError,
    ShapeError,
    bregman,
    bregman_chord,
    make_builtin,
    resolve_divergence,
    sweep,
)
from chorddiv.bregman import SkewPair, chord_gap, interpolate, skew_segment
from chorddiv.generators import Bound, coincide, endpoints, restrict_to_line
from chorddiv.jensen import JensenChordParams, jensen_chord

from test_bregman import chord_block, paired

# chorddiv.jensen names the function, so the module is looked up by path
JENSEN = importlib.import_module("chorddiv.jensen")
REGISTRY = importlib.import_module("chorddiv.registry")

GENERATORS = [*BUILTIN_GENERATORS, "expsum"]


def expsum(dim):
    """A custom generator with fn only: F(t) = sum exp(t_i)."""
    return Generator(name="expsum", dim=dim, domain=Domain("reals"),
                     fn=lambda t: float(np.sum(np.exp(t))))


def generator(gen, dim):
    return expsum(dim) if gen == "expsum" else make_builtin(gen, dim)


def same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


def scattered_points(F, rng, shape):
    """Seeded points of leading shape `shape`, each coordinate of
    magnitude 1e-2 to 1e2, of either sign on the reals."""
    pts = 10.0 ** rng.uniform(-2.0, 2.0, (*shape, F.dim))
    if F.domain.kind != "positive":
        pts *= rng.choice([-1.0, 1.0], pts.shape)
    return pts


def scalar_rows(F, T):
    """F.fn on each point of T, the reference for F.rows(T)."""
    values = [float(F.fn(t)) for t in T.reshape(-1, F.dim)]
    return np.array(values).reshape(T.shape[:-1])


class TestRowForms:
    @pytest.mark.parametrize("shape", [(400,), (60, 3), (1, 80)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_rows_equal_scalar_fn(self, gen, dim, shape):
        F = make_builtin(gen, dim)
        T = scattered_points(F, np.random.default_rng(dim), shape)
        got = F.rows(T)
        assert got.shape == shape and got.dtype == np.float64
        assert same_bits(got, scalar_rows(F, T))

    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_rows_equal_scalar_fn_on_bound_tables(self, gen):
        # the interpolants a Bound evaluates, near and far from theta2
        F = make_builtin(gen, 3)
        rng = np.random.default_rng(7)
        c = scattered_points(F, rng, ())
        X = np.array([c * (1.0 + gap * rng.uniform(-1.0, 1.0, 3))
                      for gap in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5)])
        lam = np.array([0.0, 1e-6, 0.3, 0.9, 1.0 - 1e-6, 1.0])[:, None]
        T = (1.0 - lam) * X[:, None] + lam * c
        assert same_bits(F.rows(T), scalar_rows(F, T))

    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_empty_input(self, gen):
        F = make_builtin(gen, 2)
        assert F.rows(np.empty((0, 3, 2))).shape == (0, 3)

    def test_custom_generators_have_no_rows(self):
        assert expsum(2).rows is None


def scalar_grads(F, T):
    """F.grad_fn on each point of T, the reference for gradient rows."""
    grads = [F.grad_fn(t) for t in T.reshape(-1, F.dim)]
    return np.array(grads).reshape(T.shape)


class TestGradientRows:
    """Every builtin's grad_fn maps (..., dim) arrays row by row, each row
    equal to its one-point gradient bit for bit; a generator without rows
    takes its gradient per row."""

    @pytest.mark.parametrize("shape", [(400,), (60, 3), (1, 80)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_rows_equal_per_point_grad_fn(self, gen, dim, shape):
        F = make_builtin(gen, dim)
        T = scattered_points(F, np.random.default_rng(dim), shape)
        got = F.grad_fn(T)
        assert got.shape == T.shape and got.dtype == np.float64
        assert same_bits(got, scalar_grads(F, T))
        flat = T.reshape(-1, dim)
        assert same_bits(F.grad_rows(flat), scalar_grads(F, flat))

    @pytest.mark.parametrize("mag", [1.0, 40.0, 300.0, 700.0])
    @pytest.mark.parametrize("shape", [(400,), (60, 3), (1, 80)])
    def test_log_sum_exp_rows_far_from_the_origin(self, shape, mag):
        F = make_builtin("log_sum_exp", 3)
        rng = np.random.default_rng(int(mag))
        # coordinates in [-mag, mag], and rows all near +mag or -mag
        for T in (rng.uniform(-mag, mag, (*shape, 3)),
                  mag * rng.uniform(0.9, 1.0, (*shape, 3)),
                  -mag * rng.uniform(0.9, 1.0, (*shape, 3))):
            assert same_bits(F.grad_fn(T), scalar_grads(F, T))
            assert np.isfinite(F.grad_fn(T)).all()

    def test_custom_generator_takes_its_gradient_per_row(self):
        calls = []

        def grad_fn(t):
            calls.append(t.shape)
            return np.exp(t)

        F = dataclasses.replace(expsum(3), grad_fn=grad_fn)
        T = scattered_points(F, np.random.default_rng(3), (7,))
        got = F.grad_rows(T)
        assert calls == [(3,)] * 7
        assert same_bits(got, np.exp(T))

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_empty_input(self, gen):
        F = (expsum_with_gradient(2) if gen == "expsum"
             else make_builtin(gen, 2))
        assert F.grad_rows(np.empty((0, 2))).shape == (0, 2)


def reference_chord_block(F, X, theta2, cp):
    """The chord block as a per-row chord_gap loop on one fn call per
    interpolant; 0.0 on the rows that coincide with theta2."""
    a, b = float(cp.alpha), float(cp.beta)
    return np.array([0.0 if coincide(x, theta2) else chord_gap(
        *(float(F.fn((1.0 - lam) * x + lam * theta2)) for lam in (0.0, a, b)),
        a, b) for x in X])


def jensen_block(F, jcp):
    """jensen_chord's block at the anchors jcp."""
    return paired("jensen_chord", F, {"alpha": jcp.alpha, "beta": jcp.beta,
                                      "gamma": jcp.gamma})


def reference_jensen_chord(F, theta1, theta2, jcp):
    """jensen_chord written out on scalar F values."""
    if (ends := endpoints(F, theta1, theta2)) is None:
        return 0.0
    t1, t2 = ends
    a, b, c = float(jcp.alpha), float(jcp.beta), float(jcp.gamma)
    upper = (1.0 - c) * float(F.fn(t1)) + c * float(F.fn(t2))
    if a == b:
        return upper - float(F.fn(F.point(interpolate(t1, t2, c))))
    w = (c - a) / (b - a)
    f_a = float(F.fn(F.point(interpolate(t1, t2, a))))
    f_b = float(F.fn(F.point(interpolate(t1, t2, b))))
    return upper - ((1.0 - w) * f_a + w * f_b)


def sample_blocks(F):
    """(X, c) blocks at magnitudes 1e-2 to 1e2 and relative gaps 1e-9 to
    0.5, each with rows that coincide with c, exactly or within
    DEGENERATE_EPS."""
    rng = np.random.default_rng(F.dim)
    positive = F.domain.kind == "positive"
    blocks = []
    for mag in (1e-2, 1.0, 1e2):
        sign = 1.0 if positive else rng.choice([-1.0, 1.0], F.dim)
        c = sign * mag * rng.uniform(0.5, 1.5, F.dim)
        X = [c * (1.0 + gap * rng.uniform(-1.0, 1.0, F.dim))
             for gap in (1e-9, 1e-6, 1e-3, 0.1, 0.5) for _ in range(2)]
        blocks.append((np.array([c, *X, c + 1e-15]), c))
    return blocks


def recording_rows(F):
    """F whose rows records the shape of each input and whose fn fails:
    with rows set, a Bound must not call fn."""
    shapes = []

    def rows(T):
        shapes.append(T.shape)
        return F.rows(T)

    def fn(t):
        raise AssertionError("fn called on a generator with rows")

    return dataclasses.replace(F, fn=fn, rows=rows), shapes


CHORD_PARAMS = [ChordParams(0.9, 1.0), ChordParams(0.7, 0.2),
                ChordParams(1.0 - 1e-6, 1.0)]
JENSEN_PARAMS = [JensenChordParams(0.2, 0.8, 0.5),
                 JensenChordParams(0.0, 1.0, 0.3),
                 JensenChordParams(0.3, 0.6, 0.3),
                 JensenChordParams(0.4, 0.4, 0.4)]


class TestChordBlock:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_equals_per_pair_and_per_row_loop(self, gen, dim):
        F = generator(gen, dim)
        for X, c in sample_blocks(F):
            for cp in CHORD_PARAMS:
                block = chord_block(F, cp)(X, c[None])
                per_pair = [bregman_chord(F, x, c, cp) for x in X]
                assert same_bits(block, per_pair)
                assert same_bits(block, reference_chord_block(F, X, c, cp))
                assert block[0] == 0.0 and block[-1] == 0.0

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_resolve_bound_ids_equal_per_pair(self, gen):
        F = generator(gen, 2)
        cases = [("bregman_chord", {"alpha": 0.9, "beta": 1.0}),
                 ("bregman_chord", {"alpha": 0.7, "beta": 0.2}),
                 ("bregman_chord_approx", {"epsilon": 1e-6}),
                 ("bregman_chord_approx", {"epsilon": 1e-8})]
        for div_id, params in cases:
            block = paired(div_id, F, params)
            D = resolve_divergence(div_id, F, params)
            for X, c in sample_blocks(F):
                assert same_bits(block(X, c[None]), [D(x, c) for x in X])

    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_one_rows_call_per_table(self, gen):
        G, shapes = recording_rows(make_builtin(gen, 2))
        X, c = sample_blocks(G)[1]
        chord_block(G, ChordParams(0.9, 1.0))(X, c[None])
        # F at X's rows when they are bound, at the 0.9 interpolants of
        # all but the two coincident rows, and at the one center
        assert shapes == [(len(X), 2), (len(X) - 2, 1, 2), (1, 2)]

    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_block_whose_rows_all_coincide(self, gen):
        G, shapes = recording_rows(make_builtin(gen, 2))
        c = sample_blocks(G)[1][1][None]
        X = np.array([c[0], c[0] + 1e-15, c[0] - 1e-15])
        block = chord_block(G, ChordParams(0.7, 0.2))(X, c)
        assert same_bits(block, np.zeros(3))
        jblock = jensen_block(G, JensenChordParams(0.2, 0.8, 0.5))(X, c)
        assert same_bits(jblock, np.zeros(3))
        # no interior interpolant is evaluated; X is bound, and jensen
        # takes F at the center, its column at 1
        assert shapes == [(3, 2), (0, 2, 2), (3, 2), (0, 2, 2), (1, 2)]

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_sweep_cells_equal_bregman_chord(self, gen):
        F = generator(gen, 3)
        anchors = [i / 8 for i in range(1, 8)] + [1.0]
        for X, c in sample_blocks(F):
            x = X[3]
            alphas, betas, values = sweep(F, x, c, anchors, anchors,
                                          "bregman_chord")
            want = [bregman_chord(F, x, c, ChordParams(a, b))
                    for a, b in zip(alphas, betas)]
            assert same_bits(values, want)


def expsum_with_gradient(dim):
    """expsum with its gradient, and still no rows."""
    return dataclasses.replace(expsum(dim), grad_fn=np.exp)


class TestBregmanBlock:
    """bregman's block, the tangent bound form at alpha = 1 called once on
    all pairs: one gradient at the one-row center, F at the rows when
    they are bound and at the center, and a stack of np.dot-rounded
    products."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("gen", [*BUILTIN_GENERATORS, "expsum"])
    def test_equals_per_pair(self, gen, dim):
        F = (expsum_with_gradient(dim) if gen == "expsum"
             else make_builtin(gen, dim))
        rng = np.random.default_rng(dim)
        # coordinates of magnitude e^-4 to e^4, of either sign on the reals
        X = np.exp(rng.uniform(-4.0, 4.0, (8, 41, dim)))
        if F.domain.kind != "positive":
            X *= rng.choice([-1.0, 1.0], X.shape)
        block = paired("bregman", F)
        for X, c in [(x[1:], x[0]) for x in X] + sample_blocks(F):
            assert same_bits(block(X, c[None]), [bregman(F, x, c) for x in X])
        for X, c in sample_blocks(F):
            assert block(X, c[None])[0] == 0.0 == block(X, c[None])[-1]

    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_resolve_bound_equals_per_pair(self, gen):
        F = make_builtin(gen, 3)
        block = paired("bregman", F)
        D = resolve_divergence("bregman", F)
        for X, c in sample_blocks(F):
            assert same_bits(block(X, c[None]), [D(x, c) for x in X])

    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_one_rows_and_one_gradient_call(self, gen):
        F = make_builtin(gen, 2)
        G, shapes = recording_rows(F)
        calls = []

        def counted(fn):
            return lambda t: calls.append(fn) or fn(t)

        G = dataclasses.replace(G, fn=counted(F.fn),
                                grad_fn=counted(F.grad_fn))
        X, c = sample_blocks(G)[1]
        paired("bregman", G)(X, c[None])
        # F at X when it is bound and at the center
        assert shapes == [(len(X), 2), (1, 2)]
        assert calls == [F.grad_fn]  # at the center

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("gen", [*BUILTIN_GENERATORS, "expsum"])
    def test_block_of_second_points_equals_per_pair(self, gen, dim):
        F = (expsum_with_gradient(dim) if gen == "expsum"
             else make_builtin(gen, dim))
        block = paired("bregman", F)
        for X, Y in second_point_blocks(F):
            assert same_bits(block(X, Y),
                             [bregman(F, x, y) for x, y in zip(X, Y)])
        for X, Y in second_point_blocks(F)[8:]:  # sample_blocks' blocks
            assert block(X, Y)[0] == 0.0 == block(X, Y)[-1]

    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_block_of_second_points_makes_one_rows_and_gradient_call(
            self, gen):
        F = make_builtin(gen, 2)
        G, shapes = recording_rows(F)  # whose fn fails
        grads = []

        def grad_fn(T):
            grads.append(T.shape)
            return F.grad_fn(T)

        G = dataclasses.replace(G, grad_fn=grad_fn)
        X, _ = sample_blocks(G)[1]
        paired("bregman", G)(X, X[::-1].copy())
        # F at X when it is bound, and at Y
        assert shapes == [X.shape, X.shape]
        assert grads == [X.shape]

    def test_generator_without_gradient(self):
        F = expsum(2)
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(GradientRequiredError, match="expsum has none"):
            bregman(F, X[0], X[1])
        block = paired("bregman", F)
        with pytest.raises(GradientRequiredError, match="expsum has none"):
            block(X, X[1:])
        with pytest.raises(GradientRequiredError, match="expsum has none"):
            block(X, X[::-1])


def second_point_blocks(F):
    """(X, Y) blocks whose rows pair distinct points at magnitudes e^-4 to
    e^4 (of either sign on the reals), and sample_blocks' rows paired with
    the same rows reversed; in every block some rows coincide with their
    second point, exactly or within DEGENERATE_EPS."""
    rng = np.random.default_rng(F.dim)
    X = np.exp(rng.uniform(-4.0, 4.0, (8, 41, F.dim)))
    if F.domain.kind != "positive":
        X *= rng.choice([-1.0, 1.0], X.shape)
    blocks = [*X, *(X for X, _ in sample_blocks(F))]
    # row 20 of the 41 meets itself; sample_blocks' first and last rows
    # coincide
    return [(X, X[::-1].copy()) for X in blocks]


class TestBlocksOfSecondPoints:
    """Every resolve_bound vector form pairs an (m, dim) block X with an
    (m, dim) block Y or one (1, dim) row."""

    TANGENT = [("bregman_tangent", {"alpha": 0.6}),
                ("bregman_tangent", {"alpha": 1.0}),
                ("bregman_dual", {}),
                ("biskew:bregman_chord", {"alpha": 0.9, "beta": 1.0,
                                          "gamma": 0.1, "delta": 0.9})]

    @pytest.mark.parametrize("div_id, params", TANGENT)
    @pytest.mark.parametrize("gen", [*BUILTIN_GENERATORS, "expsum"])
    def test_blocks_equal_per_pair(self, gen, div_id, params):
        F = (expsum_with_gradient(2) if gen == "expsum"
             else make_builtin(gen, 2))
        block = paired(div_id, F, params)
        D = resolve_divergence(div_id, F, params)
        for X, Y in second_point_blocks(F):
            assert same_bits(block(X, Y), [D(x, y) for x, y in zip(X, Y)])
            assert same_bits(block(X, Y[3:4]), [D(x, Y[3]) for x in X])

    @pytest.mark.parametrize("div_id, params", [
        ("bregman", {}), *TANGENT[:3],
        ("bregman_chord", {"alpha": 0.9, "beta": 1.0}),
        ("bregman_chord_approx", {"epsilon": 1e-6}), ("jensen", {}),
        ("jensen_chord", {"alpha": 0.2, "beta": 0.8, "gamma": 0.5})])
    def test_bad_blocks_raise_the_bound_errors(self, div_id, params):
        # every bound form raises generators.Bound's errors: the shape
        # check of the moving block and its index, then binding names X's
        # first row outside before any of Y's (bregman_dual, whose pairs
        # are swapped, included)
        F = make_builtin("burg_negentropy", 2)
        X = np.array([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]])
        block = paired(div_id, F, params)
        for shape in [(2, 2), (4, 2), (3, 3), (3, 1), (2,)]:
            with pytest.raises(ShapeError) as got:
                block(X, np.ones(shape))
            assert str(got.value) == (
                f"burg_negentropy expects an (m, 2) block and an index of 3 "
                f"or 1 entries per row, got shapes {shape} and "
                f"({shape[0]},)")
        # rows 1 and 2 lie outside the positive orthant; row 1 is named
        Y = np.array([[1.0, 1.0], [-1.0, 2.0], [2.0, -3.0]])
        for first, named in ((X, "[-1.0, 2.0]"), (-X, "[-1.0, -2.0]")):
            with pytest.raises(DomainError) as got:
                block(first, Y)
            assert str(got.value) == (
                f"point {named} is outside the positive domain of "
                f"burg_negentropy")


class TestJensenChordBlock:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_equals_per_pair_and_reference(self, gen, dim):
        F = generator(gen, dim)
        for X, c in sample_blocks(F):
            for jcp in JENSEN_PARAMS:
                block = jensen_block(F, jcp)(X, c[None])
                per_pair = [jensen_chord(F, x, c, jcp) for x in X]
                reference = [reference_jensen_chord(F, x, c, jcp) for x in X]
                assert same_bits(per_pair, reference)
                assert same_bits(block, per_pair)
                assert block[0] == 0.0 and block[-1] == 0.0

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_resolve_bound_ids_equal_per_pair(self, gen):
        F = generator(gen, 2)
        cases = [("jensen", {}), ("jensen_skewed", {"alpha": 0.3}),
                 ("jensen_bregman", {"alpha": 0.9}),
                 ("jensen_chord", {"alpha": 0.2, "beta": 0.8,
                                   "gamma": 0.5})]
        for div_id, params in cases:
            block = paired(div_id, F, params)
            D = resolve_divergence(div_id, F, params)
            for X, c in sample_blocks(F):
                assert same_bits(block(X, c[None]), [D(x, c) for x in X])

    @pytest.mark.parametrize("jcp, lams", [
        (JensenChordParams(0.2, 0.8, 0.5), (0.0, 0.2, 0.8, 1.0)),
        (JensenChordParams(0.4, 0.4, 0.4), (0.0, 0.4, 1.0))])
    def test_table_columns(self, jcp, lams, monkeypatch):
        seen = []

        def recording(F, X, at, swap=False):
            seen.append(tuple(at))
            return Bound(F, X, at, swap)

        monkeypatch.setattr(JENSEN, "Bound", recording)
        F = make_builtin("quadratic", 2)
        jensen_block(F, jcp)(np.ones((4, 2)), np.zeros((1, 2)))
        assert seen == [lams]


def cells(grid):
    """sweep's three arrays zipped back into (alpha, beta, value) tuples of
    Python floats."""
    return list(zip(*(column.tolist() for column in grid)))


def reference_sweep(F, theta1, theta2, alphas, betas, div_id, params):
    """registry.sweep's body as it was, one cell at a time: a cells list,
    one chord_gap per cell on the table's Python floats, and a finiteness
    loop; div_id is bregman_chord, biskew:bregman_chord or the anchor-free
    bregman_chord_approx."""
    alphas, betas = sorted(alphas), sorted(betas)
    cells = [(a, b) for a in alphas for b in betas if a != b]
    if not cells:
        return []
    D = resolve_divergence(div_id, F, {**params, "alpha": cells[0][0],
                                       "beta": cells[0][1]})
    if div_id == "bregman_chord_approx":
        values = [float(D(theta1, theta2))] * len(cells)
    else:
        segment = (theta1, theta2)
        if div_id.startswith("biskew:"):
            segment = skew_segment(theta1, theta2, SkewPair(
                params["gamma"], params["delta"]))
        lams = sorted({0.0, *alphas, *betas})
        ends = None if segment is None else endpoints(F, *segment)
        G = None if ends is None else restrict_to_line(F, *ends)
        row = [0.0 if G is None else G(lam) for lam in lams]
        g = dict(zip(lams, row))
        values = [chord_gap(g[0.0], g[a], g[b], a, b) for a, b in cells]
    rows = []
    for (a, b), value in zip(cells, values):
        if not math.isfinite(value):
            raise DomainError(
                f"sweep cell (alpha={a}, beta={b}) produced a non-finite "
                f"value {value}"
            )
        rows.append((a, b, value))
    return rows


class TestSweepCells:
    """registry.sweep forms its cells as arrays, bit-equal to the per-cell
    reference, with the same first non-finite cell."""

    IDS = [("bregman_chord", {}),
           ("bregman_chord_approx", {"epsilon": 1e-6}),
           ("biskew:bregman_chord", {"gamma": 0.1, "delta": 0.9})]
    GRIDS = [((0.5,), (0.5, 1.0)),  # a single cell
             (tuple(i / 4 for i in range(1, 4)),
              tuple(i / 4 for i in range(1, 5))),
             ((0.9, 0.1, 0.55, 0.3), (1.0, 0.3, 0.7)),  # unsorted
             (tuple(i / 51 for i in range(1, 51)),
              tuple(i / 51 for i in range(1, 51)) + (1.0,))]

    def check(self, F, x, y, alphas, betas, div_id, params):
        got = sweep(F, x, y, alphas, betas, div_id, params)
        want = reference_sweep(F, x, y, alphas, betas, div_id, params)
        assert list(zip(got[0].tolist(), got[1].tolist())) == \
            [(a, b) for a, b, _ in want]
        assert same_bits(got[2], [v for *_, v in want])
        assert all(column.dtype == np.float64 for column in got)

    @pytest.mark.parametrize("div_id, params", IDS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
    def test_equals_per_cell_reference(self, gen, dim, div_id, params):
        F = make_builtin(gen, dim)
        rng = np.random.default_rng(dim)
        for x, y in scattered_points(F, rng, (3, 2)):
            for alphas, betas in self.GRIDS:
                self.check(F, x, y, alphas, betas, div_id, params)
        x = scattered_points(F, rng, ())
        for alphas, betas in self.GRIDS:  # coincident points
            self.check(F, x, x.copy(), alphas, betas, div_id, params)

    @pytest.mark.parametrize("threshold", [0.3, 0.6, 0.95])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_same_first_non_finite_cell(self, dim, threshold):
        # G(lam) is finite below the threshold and inf beyond it, so the
        # first bad cell is neither the first cell nor the first row's last
        def fn(t):
            return float(t[0] ** 2) if t[0] < threshold else math.inf

        F = Generator(name="blows_up", dim=dim, domain=Domain("reals"),
                      fn=fn)
        x, y = np.zeros(dim), np.ones(dim)
        anchors = tuple(i / 8 for i in range(1, 8))
        betas = anchors + (1.0,)
        with pytest.raises(DomainError) as got:
            sweep(F, x, y, anchors, betas, "bregman_chord")
        with pytest.raises(DomainError) as want:
            reference_sweep(F, x, y, anchors, betas, "bregman_chord", {})
        assert str(got.value) == str(want.value)
        assert "(alpha=0.125, beta=0.125)" not in str(got.value)

    def test_repeated_anchors_count_once(self):
        F = make_builtin("quadratic", 1)
        assert cells(sweep(F, 0.0, 1.0, (0.5, 0.5), (1.0,),
                           "bregman_chord")) == [(0.5, 1.0, 0.5)]
        assert cells(sweep(F, 0.0, 1.0, (1.0, 0.5, 1.0), (0.5, 1.0, 0.5),
                           "bregman_chord")) == \
            cells(sweep(F, 0.0, 1.0, (0.5, 1.0), (0.5, 1.0), "bregman_chord"))

    def test_empty_grid_returns_before_resolution(self):
        # bregman_chord_approx without epsilon would fail to resolve
        F = make_builtin("quadratic", 1)
        assert cells(sweep(F, 0.0, 1.0, (0.5,), (0.5,),
                           "bregman_chord_approx")) == []

    @pytest.mark.parametrize("div_id, params", IDS)
    def test_one_resolution(self, div_id, params, monkeypatch):
        calls, reads = [], []
        bind, reader = REGISTRY._bind, REGISTRY._reader

        def counted(*args):
            calls.append(args[0])
            return bind(*args)

        def counted_reader(div_id, params):
            reads.append(div_id)
            return reader(div_id, params)

        monkeypatch.setattr(REGISTRY, "_bind", counted)
        monkeypatch.setattr(REGISTRY, "_reader", counted_reader)
        F = make_builtin("shannon_negentropy", 2)
        _, _, values = sweep(F, [0.2, 0.7], [0.9, 0.4], *self.GRIDS[3],
                             div_id, params)
        assert len(values) == 50 * 51 - 50
        # biskew: binds its inner id inside the one call
        assert calls == [div_id, *div_id.split(":")[1:]]
        # each binding reads its parameters once: biskew:'s skews are not
        # read again for its segment
        assert reads == calls
