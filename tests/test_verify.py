"""The shared pieces of the property suites: the pass rule, the
linear-decay check fed synthetic error ladders, and NaN margins."""

import dataclasses

import numpy as np
import pytest

import chorddiv.verify
from chorddiv import (Minimum, ParameterError, SuiteResult, bregman_chord,
                      make_builtin)
from chorddiv.verify import _chord_draws, _linear_decay, run_all, run_suite

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
         lambda g, lo, hi, x0, max_sweeps: Minimum(
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
