"""The shared pieces of the property suites: the pass rule, the
linear-decay check fed synthetic error ladders, NaN margins, and the
suites' own numerics: the bisection and derivative behind the mean-value
witness, and the central differences gradcheck holds gradients to."""

import dataclasses
import math

import numpy as np
import pytest

import chorddiv.verify
from chorddiv import (BracketError, ChordParams, DegenerateRestrictionError,
                      Domain, DomainError, Generator, GradientRequiredError,
                      Minimum, ParameterError, SuiteResult, bregman_chord,
                      make_builtin)
from chorddiv.cli import main
from chorddiv.generators import BUILTIN_GENERATORS, restrict_to_line
from chorddiv.verify import (_bisect, _central_diff_grad, _chord_draws,
                             _line_deriv, _linear_decay, _witness, run_all,
                             run_suite)

from test_bregman import GENERATOR_MATRIX, gradless_quadratic, sample_pair
from test_numerics import Counter

LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def decay(error):
    return _linear_decay(np.random.default_rng(0),
                         [make_builtin("quadratic", 1)], 3, LADDER, error)


class TestSuiteResult:
    @pytest.mark.parametrize("worst,passed", [
        (-np.inf, True), (-1.0, True), (0.0, True),
        (1e-300, False), (np.inf, False),
    ])
    def test_passed_is_worst_at_most_zero(self, worst, passed):
        assert SuiteResult("s", worst, "d").passed is passed

    def test_passed_is_not_a_field(self):
        with pytest.raises(TypeError):
            SuiteResult("s", passed=True, worst=0.0)


class TestLinearDecay:
    def test_tenfold_per_decade_passes(self):
        worst, detail = decay(lambda F, t1, t2, eps: -eps * (1.0 + t1[0]))
        assert worst == pytest.approx(-5.0)
        assert detail == "quadratic: ratios 10.00/10.00/10.00"

    @pytest.mark.parametrize("error", [
        lambda F, t1, t2, eps: 0.3,
        lambda F, t1, t2, eps: 1.0 / eps,
        lambda F, t1, t2, eps: eps * (1.0 if eps > 1e-3 else 10.0),
    ], ids=["flat", "rising", "stalls"])
    def test_errors_that_do_not_fall_fail(self, error):
        worst, _ = decay(error)
        assert worst == np.inf

    def test_hundredfold_per_decade_fails(self):
        worst, detail = decay(lambda F, t1, t2, eps: eps * eps)
        assert worst == pytest.approx(80.0)
        assert detail == "quadratic: ratios 100.00/100.00/100.00"

    def test_nan_errors_fail(self):
        worst, _ = decay(lambda F, t1, t2, eps: np.nan)
        assert worst == np.inf

    def test_zero_error_fails_without_raising(self):
        worst, detail = decay(lambda F, t1, t2, eps: 0.0 if eps < 1e-3
                              else eps)
        assert worst == np.inf
        assert detail.endswith("/inf")

    def test_worst_is_taken_over_generators(self):
        gens = [make_builtin("quadratic", 1),
                make_builtin("shannon_negentropy", 1)]

        def error(F, t1, t2, eps):
            return eps if F.name == "quadratic" else eps ** 1.5

        worst, detail = _linear_decay(np.random.default_rng(0), gens, 2,
                                      LADDER, error)
        assert worst == pytest.approx(10 ** 1.5 - 20.0)
        assert detail.startswith("quadratic: ratios 10.00/10.00/10.00; "
                                 "shannon_negentropy: ratios 31.62/")


class TestChordSuites:
    """sandwich and swap_symmetry read each sampled pair's chord values
    off one chord_row call; the results are pinned as the per-call
    bregman_chord loop gave them."""

    @pytest.mark.parametrize("name,seed,worst,detail", [
        ("sandwich", 0, -9.160142058006662e-06,
         "28000 chord evaluations across 7 generators"),
        ("sandwich", 1, -8.345951654563626e-06,
         "28000 chord evaluations across 7 generators"),
        ("swap_symmetry", 0, -9.982236431605997e-13,
         "28000 anchor swaps, tolerance 1e-12"),
        ("swap_symmetry", 1, -9.982236431605997e-13,
         "28000 anchor swaps, tolerance 1e-12"),
    ], ids=["sandwich-0", "sandwich-1", "swap_symmetry-0",
            "swap_symmetry-1"])
    def test_results_are_pinned(self, name, seed, worst, detail):
        res = run_suite(name, 200, seed)
        assert repr(res.worst) == repr(worst)
        assert res.detail == detail

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_values_equal_bregman_chord(self, seed):
        draws = 0
        for F, t1, t2, cps, values in _chord_draws(20, seed):
            want = [[bregman_chord(F, t1, t2, cp) for cp in cps],
                    [bregman_chord(F, t1, t2, cp.swapped()) for cp in cps]]
            assert values.tobytes() == np.array(want).tobytes()
            draws += 1
        assert draws == 7 * 20


class TestNaN:
    @pytest.mark.parametrize("suite", ["sandwich", "swap_symmetry"])
    def test_nan_divergence_fails_the_suite(self, monkeypatch, suite):
        monkeypatch.setattr(chorddiv.verify, "chord_row",
                            lambda F, t1, t2, A, B: np.full(len(A), np.nan))
        res = run_suite(suite, 5, 0)
        assert not res.passed
        assert np.isnan(res.worst)


class TestClusteringSearchCheck:
    """Criterion 10's numeric searches start away from the answer, so a
    search that does not move fails the suite."""

    @pytest.mark.parametrize("name,idle", [
        ("coordinate_minimize",
         lambda g, lo, hi, x0: Minimum(
             np.array(x0, dtype=float), 1, False, False)),
        ("golden_lockstep", lambda g, lo, hi: np.array(lo)),
    ])
    def test_a_search_that_returns_its_start_fails(self, monkeypatch, name,
                                                   idle):
        assert run_suite("clustering", 5, 0).passed
        monkeypatch.setattr(chorddiv.verify, name, idle)
        res = run_suite("clustering", 5, 0)
        assert not res.passed
        assert res.worst > 1e-3


class TestClusteringScaleCheck:
    """A k-means whose runs at scale 1e-6 drift from the unscaled run, by
    centers off by a relative 1e-5 or by other labels, fails the suite."""

    @pytest.mark.parametrize("drift,worst", [
        (lambda res: dataclasses.replace(res, centers=res.centers * 1.00001),
         1e-5 - 1e-6),
        (lambda res: dataclasses.replace(res,
                                         assignments=1 - res.assignments),
         np.inf),
    ], ids=["centers", "labels"])
    def test_drift_at_small_scale_fails(self, monkeypatch, drift, worst):
        kmeans = chorddiv.verify.kmeans

        def drifting(points, F, cfg):
            res = kmeans(points, F, cfg)
            return drift(res) if np.max(points) < 1e-3 else res

        monkeypatch.setattr(chorddiv.verify, "kmeans", drifting)
        res = run_suite("clustering", 5, 0)
        assert not res.passed
        assert res.worst == pytest.approx(worst, rel=0.05)


class TestRunArguments:
    # the CLI's --trials and --seed rule, for library callers
    @pytest.mark.parametrize("trials,seed,message", [
        (5, -3, "seed must be >= 0"),
        (0, 1, "trials must be >= 1"),
        (-2, 1, "trials must be >= 1"),
        (2.5, 0, "trials must be an integer"),
        (3, 1.5, "seed must be an integer"),
        (True, False, "trials must be an integer, got True"),
        (3, False, "seed must be an integer, got False"),
    ])
    def test_run_suite_rejects(self, trials, seed, message):
        with pytest.raises(ParameterError, match=message):
            run_suite("sandwich", trials, seed)

    @pytest.mark.parametrize("trials,seed,message", [
        (5, -1, "seed must be >= 0"),
        (0, 0, "trials must be >= 1"),
        (2.5, 0, "trials must be an integer"),
        (3, 1.5, "seed must be an integer"),
        (True, 0, "trials must be an integer, got True"),
        (3, True, "seed must be an integer, got True"),
    ])
    def test_run_all_rejects(self, trials, seed, message):
        with pytest.raises(ParameterError, match=message):
            run_all(trials, seed)


class TestBisect:
    def test_linear(self):
        assert _bisect(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_sqrt2(self):
        root = _bisect(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_exact_zero_at_endpoint(self):
        assert _bisect(lambda x: x, 0.0, 1.0) == 0.0
        assert _bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError, match="no sign change"):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(2.0, 1.0), (0.0, math.inf),
                                       (math.nan, 1.0)])
    def test_invalid_bracket(self, lo, hi):
        with pytest.raises(BracketError, match="invalid bracket"):
            _bisect(lambda x: pytest.fail("g called"), lo, hi)

    def test_evaluation_budget(self):
        # halvings down to a width of 1e-12, plus the two ends
        g = Counter(lambda x: x - 0.31)
        _bisect(g, 0.0, 1.0)
        assert g.calls <= math.ceil(math.log2(1.0 / 1e-12)) + 2


def witness(F, t1, t2, cp):
    """The witness as suite_mean_value finds it."""
    G = restrict_to_line(F, t1, t2)
    slope = (G(cp.alpha) - G(cp.beta)) / (cp.alpha - cp.beta)
    return _witness(G, slope, min(cp.alpha, cp.beta), max(cp.alpha, cp.beta))


class TestMeanValueWitness:
    def test_quadratic_midpoint(self):
        F = make_builtin("quadratic", 1)
        lam = witness(F, 0.0, 1.0, ChordParams(0.25, 0.75))
        assert lam == pytest.approx(0.5, abs=1e-9)

    def test_swap_gives_same_witness(self):
        F = make_builtin("shannon_negentropy", 1)
        cp = ChordParams(0.3, 0.7)
        a = witness(F, 0.2, 1.2, cp)
        b = witness(F, 0.2, 1.2, cp.swapped())
        assert a == pytest.approx(b, abs=1e-9)

    def test_witness_matches_slope_and_reconstructs_chord(self):
        rng = np.random.default_rng(81)
        for name, _ in GENERATOR_MATRIX:
            F = make_builtin(name, 1)
            t1, t2 = sample_pair(rng, F)
            cp = ChordParams(0.15, 0.85)
            lam = witness(F, t1, t2, cp)
            assert min(cp.alpha, cp.beta) < lam < max(cp.alpha, cp.beta)
            G = restrict_to_line(F, t1, t2)
            slope = (G(cp.alpha) - G(cp.beta)) / (cp.alpha - cp.beta)
            assert abs(_line_deriv(G, lam) - slope) <= 1e-9
            recon = G(0.0) - G(cp.alpha) + cp.alpha * _line_deriv(G, lam)
            assert recon == pytest.approx(
                bregman_chord(F, t1, t2, cp), abs=1e-8)

    def test_independent_derivative_check(self):
        F = make_builtin("log_sum_exp", 1)
        cp = ChordParams(0.2, 0.9)
        lam = witness(F, -1.0, 1.5, cp)
        G = restrict_to_line(F, -1.0, 1.5)
        h = 1e-6
        fd = (G(lam + h) - G(lam - h)) / (2 * h)
        slope = (G(cp.alpha) - G(cp.beta)) / (cp.alpha - cp.beta)
        assert fd == pytest.approx(slope, abs=1e-6)

    def test_coincident_arguments_rejected(self):
        F = make_builtin("quadratic", 1)
        with pytest.raises(DegenerateRestrictionError):
            witness(F, 1.0, 1.0, ChordParams(0.25, 0.75))

    def test_gradient_required(self):
        with pytest.raises(GradientRequiredError):
            witness(gradless_quadratic(), 0.0, 1.0, ChordParams(0.25, 0.75))

    def test_slope_outside_the_derivative_fails_the_cli(self, monkeypatch,
                                                        capsys):
        # a derivative that never reaches the slope brackets no witness:
        # BracketError, which the CLI reports with exit 3
        monkeypatch.setattr(chorddiv.verify, "_line_deriv",
                            lambda G, lam: math.inf)
        with pytest.raises(BracketError, match=(
                r"^derivative does not bracket the chord slope on "
                r"\[.*\]: no sign change")):
            run_suite("mean_value", 4, 0)
        assert main(["verify", "--suite", "mean_value", "--trials", "4"]) == 3
        assert "derivative does not bracket" in capsys.readouterr().err


class TestLineDeriv:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for name in BUILTIN_GENERATORS:
            F = make_builtin(name, 2)
            pts = [rng.uniform(0.2, 1.5, 2) if F.domain.kind == "positive"
                   else rng.uniform(-1.5, 1.5, 2) for _ in range(2)]
            G = restrict_to_line(F, *pts)
            h = 1e-6
            for lam in (0.2, 0.5, 0.8):
                fd = (G(lam + h) - G(lam - h)) / (2 * h)
                assert _line_deriv(G, lam) == pytest.approx(
                    fd, rel=1e-6, abs=1e-8)


class TestCentralDiffGrad:
    def test_quadratic(self):
        F = make_builtin("quadratic", 1)
        assert _central_diff_grad(F, 3.0)[0] == pytest.approx(6.0, abs=1e-8)

    def test_multivariate(self):
        F = make_builtin("quadratic", 3)
        fd = _central_diff_grad(F, [1.0, -2.0, 0.5])
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
                fd = _central_diff_grad(F, t)
                g = F.grad(t)
                assert np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g))) \
                    < 1e-6

    def test_step_is_1e_5(self):
        # on a cubic the central difference is off by h^2 exactly
        F = Generator(name="cube", dim=1, domain=Domain("reals"),
                      fn=lambda t: float(t[0] ** 3))
        assert _central_diff_grad(F, 0.0)[0] == pytest.approx(1e-10,
                                                              rel=1e-6)

    def test_step_shrinks_near_boundary(self):
        # 5e-6 - 1e-5 < 0, so the step must shrink once
        F = make_builtin("burg_negentropy", 1)
        fd = _central_diff_grad(F, 5e-6)[0]
        # h shrinks to 1e-6, still 20% of theta, so the difference quotient
        # carries a visible curvature error; 2% covers it comfortably
        assert fd == pytest.approx(-1.0 / 5e-6, rel=2e-2)

    def test_fails_when_shrunk_step_still_leaves_domain(self):
        F = make_builtin("burg_negentropy", 1)
        with pytest.raises(DomainError, match=r"h=1e-05\)$"):
            _central_diff_grad(F, 5e-8)
