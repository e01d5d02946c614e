"""Bound blocks (registry.resolve_bound, generators.Bound): bit-equal to
the (X, Y) blocks on the pairs they form, the same DomainError, and F
evaluated once per distinct point."""

import numpy as np
import pytest

import chorddiv.clustering
import chorddiv.registry
from chorddiv import BUILTIN_GENERATORS, DomainError, Generator, make_builtin
from chorddiv.clustering import _distances, _lockstep_centers
from chorddiv.generators import DOMAIN_MARGIN, REALS, Bound, line_table
from chorddiv.registry import (center_rule, needs_generator, resolve_block,
                               resolve_bound)

#: Every chord, Jensen and Bregman id, at parameters that reach each
#: column rule: an anchor at 1 or none, alpha = 1, alpha = beta, and
#: Jensen anchors at both ends.
BOUND_IDS = [
    ("bregman", {}),
    ("bregman_dual", {}),
    ("bregman_tangent", {"alpha": 0.5}),
    ("bregman_tangent", {"alpha": 1.0}),
    ("bregman_chord", {"alpha": 0.9, "beta": 1.0}),
    ("bregman_chord", {"alpha": 0.3, "beta": 0.7}),
    ("bregman_chord", {"alpha": 1.0, "beta": 0.4}),
    ("bregman_chord_approx", {"epsilon": 1e-3}),
    ("jensen", {}),
    ("jensen_skewed", {"alpha": 0.3}),
    ("jensen_bregman", {"alpha": 0.7}),
    ("jensen_chord", {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}),
    ("jensen_chord", {"alpha": 0.0, "beta": 1.0, "gamma": 0.5}),
]

#: Ids that the registry binds by gathering each call's pairs.
GATHERED_IDS = [
    ("ekl", {}),
    ("fdiv:chi2", {}),
    ("fdiv_jssym:kl", {}),
    ("biskew:bregman_chord", {"alpha": 0.9, "beta": 1.0, "gamma": 0.1,
                              "delta": 0.9}),
]


def expsum(dim, counts=None):
    """A custom generator with fn and grad_fn and no rows, so every
    block evaluates it point by point; counts, when given, counts its
    fn and grad_fn calls."""
    def fn(t):
        if counts is not None:
            counts["fn"] += 1
        return float(np.sum(np.exp(t)))

    def grad_fn(t):
        if counts is not None:
            counts["grad"] += 1
        return np.exp(t)

    return Generator(name="expsum", dim=dim, domain=REALS, fn=fn,
                     grad_fn=grad_fn)


def generator(name, dim):
    return expsum(dim) if name == "expsum" else make_builtin(name, dim)


def sample(rng, F, shape):
    if F.domain.kind == "positive":
        return rng.uniform(0.2, 1.5, shape + (F.dim,))
    return rng.uniform(-1.5, 1.5, shape + (F.dim,))


def pairs(X, C, J):
    """The (X, Y) blocks of the bound call's pairs, and their shape."""
    Y = C[np.asarray(J)]
    shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])
    return [np.broadcast_to(A, shape + A.shape[-1:]).reshape(-1, A.shape[-1])
            for A in (X, Y)] + [shape]


def bound_call(bind, X, C, J):
    with np.errstate(all="ignore"):
        return bind(X)(C, J)


def outcome(call, *args):
    try:
        return call(*args)
    except DomainError as exc:
        return DomainError, str(exc)


def indexes(n, k):
    """Pairing indexes of every shape kmeans uses, for n rows of X and k
    rows of C: each row of C against every row of X (a distance pass),
    every row of X against one row of C (a center update), one row of C
    per row of X (a lockstep round), and two rows per row (a lockstep
    search's last call)."""
    own = np.arange(n) % k
    return [np.arange(k)[:, None], np.zeros(1, dtype=int), own,
            np.array([own, (own + 1) % k])]


class TestBitEqualToTheBlock:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("name", [*BUILTIN_GENERATORS, "expsum"])
    @pytest.mark.parametrize("div,params", BOUND_IDS + GATHERED_IDS)
    def test_every_pairing(self, div, params, name, dim):
        F = generator(name, dim)
        rng = np.random.default_rng(dim)
        # the weight divergences read positive points under any F
        on = F if needs_generator(div) else make_builtin("burg_negentropy",
                                                          dim)
        X = sample(rng, on, (7,))
        C = sample(rng, on, (4,))
        C[1] = X[2]                 # a coincident pair
        C[2] = X[4] + 1e-15         # a pair within DEGENERATE_EPS
        C[3] = C[0]                 # a duplicate center
        block = resolve_block(div, F, params)
        bind = resolve_bound(div, F, params)
        for k in (4, 1):            # and a single-row C
            for J in indexes(len(X), k):
                Xg, Yg, shape = pairs(X, C[:k], J)
                with np.errstate(all="ignore"):
                    want = block(Xg, Yg).reshape(shape)
                got = bound_call(bind, X, C[:k], J)
                assert got.shape == shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("div,params", BOUND_IDS)
    def test_coincident_pairs_give_zero(self, div, params):
        F = make_builtin("shannon_negentropy", 2)
        X = np.array([[0.5, 0.7], [0.3, 0.9]])
        C = np.array([X[1], X[0] + 1e-15])
        # row 0 pairs X[0] with C[1] and X[1] with C[0], row 1 the others
        got = bound_call(resolve_bound(div, F, params), X, C,
                         np.array([[1, 0], [0, 1]]))
        assert got[0].tolist() == [0.0, 0.0]


class TestDomainErrors:
    """The bound call raises the (X, Y) block's DomainError, whose message
    is line_table's: F.point's, for the first point outside."""

    @pytest.mark.parametrize("div,params", BOUND_IDS)
    def test_center_outside(self, div, params):
        F = make_builtin("burg_negentropy", 2)
        X = np.array([[0.5, 0.7], [0.3, 0.9], [1.1, 0.2]])
        C = np.array([[0.4, 0.4], [0.6, -0.1], [-0.2, 0.5]])
        for J in (np.arange(3)[:, None], np.array([0, 2, 1])):
            Xg, Yg, _ = pairs(X, C, J)
            want = outcome(resolve_block(div, F, params), Xg, Yg)
            got = outcome(bound_call, resolve_bound(div, F, params), X, C,
                          J)
            assert got == want
            assert got[0] is DomainError and "outside" in got[1]
        # rows that no pair reaches are checked too, in C's order
        got = outcome(bound_call, resolve_bound(div, F, params), X, C,
                      np.zeros(3, dtype=int))
        assert got == (DomainError, str(outcome(F.point, C[1])[1]))

    @pytest.mark.parametrize("swap", [False, True])
    def test_interpolant_rounds_below_the_margin(self, swap):
        # the anchors of the ids keep a convex combination of points
        # above DOMAIN_MARGIN above it; one just past the segment's end
        # rounds onto the margin, and both tables name it
        F = make_builtin("shannon_negentropy", 1)
        t = 2.0 ** -50
        lams = (0.0, -t, 0.5, 1.0 + t)
        x = np.array([[2.0 * DOMAIN_MARGIN]])
        c = np.array([[np.nextafter(DOMAIN_MARGIN, 1.0)]])
        J = np.zeros(1, dtype=int)
        X, Y = (c, x) if swap else (x, c)
        want = outcome(line_table, F, X, Y, lams)
        assert want[0] is DomainError and "outside the positive" in want[1]
        named = float(want[1].split("[")[1].split("]")[0])
        assert 0.0 < named <= DOMAIN_MARGIN
        assert outcome(lambda: Bound(F, x, lams, swap).table(c, J)) == want


def counting(dim):
    counts = {"fn": 0, "grad": 0}
    return expsum(dim, counts), counts


class TestEvaluationCounts:
    """The paper's cost, F evaluations per distinct point: a pass over n
    points and k centers, counted on a generator without rows."""

    n, k = 6, 3

    def points(self, F):
        rng = np.random.default_rng(8)
        return sample(rng, F, (self.n,)), sample(rng, F, (self.k,)) + 2.0

    def test_binding_evaluates_each_point_once(self):
        F, counts = counting(2)
        pts, _ = self.points(F)
        resolve_bound("bregman_chord", F, {"alpha": 0.9, "beta": 1.0})(pts)
        assert counts == {"fn": self.n, "grad": 0}

    @pytest.mark.parametrize("div,params,cost,old_cost", [
        # k centers, and the alpha interpolant of every pair; the (X, Y)
        # block evaluates F at 0, alpha and 1 on every pair
        ("bregman_chord", {"alpha": 0.9, "beta": 1.0},
         lambda n, k: (k + n * k, 0), lambda n, k: (3 * n * k, 0)),
        ("jensen", {},
         lambda n, k: (k + n * k, 0), lambda n, k: (3 * n * k, 0)),
        # k centers and their gradients; the block evaluates F at both
        # ends of every pair and the gradient at every pair's center
        ("bregman", {},
         lambda n, k: (k, k), lambda n, k: (2 * n * k, n * k)),
    ])
    def test_a_distance_pass(self, div, params, cost, old_cost):
        F, counts = counting(2)
        pts, centers = self.points(F)
        n, k = self.n, self.k
        bound = resolve_bound(div, F, params)(pts)
        counts.update(fn=0, grad=0)
        dist = _distances(pts, centers, bound)
        assert (counts["fn"], counts["grad"]) == cost(n, k)
        counts.update(fn=0, grad=0)
        want = resolve_block(div, F, params)(np.tile(pts, (k, 1)),
                                             np.repeat(centers, n, axis=0))
        assert (counts["fn"], counts["grad"]) == old_cost(n, k)
        assert dist.tobytes() == want.reshape(k, n).T.tobytes()

    @pytest.mark.parametrize("div,params", [
        ("bregman_chord", {"alpha": 0.9, "beta": 1.0}),
        ("jensen", {}),
    ])
    def test_a_lockstep_round(self, monkeypatch, div, params):
        # m member coordinates, k * d probes: the interior column of
        # each member coordinate and F at each probe, through the 1-D
        # builtin's rows
        values = []
        builtin = chorddiv.registry.make_builtin

        def counted_builtin(name, dim):
            F = builtin(name, dim)
            rows = F.rows
            return Generator(F.name, F.dim, F.domain, F.fn, F.grad_fn,
                             F.conjugate, lambda T: values.append(T.size)
                             or rows(T), F.builtin)

        monkeypatch.setattr(chorddiv.registry, "make_builtin",
                            counted_builtin)
        rounds = []

        def two_rounds(g, lo, hi):
            rounds.append(sum(values))  # the binding, before any round
            mid = (0.5 * (np.asarray(lo) + np.asarray(hi))).tolist()
            for _ in range(2):
                values.clear()
                g(mid)
                rounds.append(sum(values))
            return np.asarray(mid)

        monkeypatch.setattr(chorddiv.clustering, "golden_lockstep",
                            two_rounds)
        d = 2
        F = make_builtin("shannon_negentropy", d)
        rng = np.random.default_rng(3)
        groups = [rng.uniform(0.2, 1.0, (3, d)), rng.uniform(2.0, 3.0, (4, d))]
        m, k = 7, len(groups)
        _lockstep_centers(groups, F, resolve_bound(div, F, params),
                          center_rule(div, F, params)[1])
        # binding the m * d member coordinates, once, then each round
        assert rounds == [m * d, m * d + k * d, m * d + k * d]
