"""Divergence-id resolution: bare ids, prefixed families, parameter plumbing."""

import numpy as np
import pytest

from chorddiv import (
    BUILTIN_GENERATORS,
    ParameterError,
    UnknownDivergenceError,
    bregman,
    bregman_chord,
    ChordParams,
    SkewPair,
    biskew,
    known_divergences,
    make_builtin,
    resolve_divergence,
)
from chorddiv.cli import main
from chorddiv.registry import needs_generator, resolve_block

from test_bregman import expsum, sample_pair

QUAD = make_builtin("quadratic", 2)
T1 = np.array([0.0, 0.0])
T2 = np.array([1.0, 0.5])
P = np.array([0.5, 0.5])
Q = np.array([0.25, 0.75])

#: In-range values for every scalar parameter any id reads.
SAMPLE_PARAMS = {"alpha": 0.25, "beta": 0.75, "gamma": 0.5, "delta": 0.75,
                 "epsilon": 1e-4}
#: Sample name after the colon of each prefix family.
SUFFIX = {"fdiv:": "kl", "fdiv_dual:": "chi2", "fdiv_jsym:": "tv",
          "fdiv_jssym:": "kl", "biskew:": "bregman"}
#: One out-of-range override per id that reads scalar parameters.
OUT_OF_RANGE = {
    "bregman_chord": {"alpha": 1.5},
    "bregman_tangent": {"alpha": 0.0},
    "bregman_chord_approx": {"epsilon": 1e-17},
    "jensen_skewed": {"alpha": 1.0},
    "jensen_chord": {"gamma": 0.9},
    "jensen_bregman": {"alpha": 0.0},
    "biskew:": {"delta": 0.5},
}


def eval_help_ids(capsys):
    assert main(["eval", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    listed = text.split("one of: ", 1)[1].split(" --x ", 1)[0]
    return [item.strip() for item in listed.split(",")]


@pytest.mark.parametrize("family", known_divergences())
def test_every_table_id(family, capsys):
    """Each id resolves with sample parameters, is listed by eval --help,
    and, when it reads scalar parameters, rejects a missing or out-of-range
    value at resolve time."""
    key = family.replace("<name>", "")
    div_id = key + SUFFIX.get(key, "")
    D = resolve_divergence(div_id, QUAD, SAMPLE_PARAMS)
    x, y = (T1, T2) if needs_generator(div_id) else (P, Q)
    assert D(x, y) > 0.0
    assert family in eval_help_ids(capsys)
    if key in OUT_OF_RANGE:
        with pytest.raises(ParameterError):
            resolve_divergence(div_id, QUAD, {})
        with pytest.raises(ParameterError):
            resolve_divergence(div_id, QUAD,
                               {**SAMPLE_PARAMS, **OUT_OF_RANGE[key]})
    else:
        resolve_divergence(div_id, QUAD, {})


@pytest.mark.parametrize("family", known_divergences())
def test_block_resolution_matches_the_pair_callable(family):
    key = family.replace("<name>", "")
    div_id = key + SUFFIX.get(key, "")
    X = np.random.default_rng(3).uniform(0.2, 1.5, (5, 2))
    block = resolve_block(div_id, QUAD, SAMPLE_PARAMS)(X, Q)
    D = resolve_divergence(div_id, QUAD, SAMPLE_PARAMS)
    assert block.tobytes() == np.array([D(x, Q) for x in X]).tobytes()


@pytest.mark.parametrize("div_id", ["bregman_chord", "bregman_chord_approx"])
def test_block_kernel_checks_at_resolve_time(div_id):
    with pytest.raises(ParameterError):
        resolve_block(div_id, params=SAMPLE_PARAMS)
    with pytest.raises(ParameterError):
        resolve_block(div_id, QUAD, {})
    with pytest.raises(ParameterError):
        resolve_block(div_id, QUAD, {**SAMPLE_PARAMS, **OUT_OF_RANGE[div_id]})


class TestBareIds:
    def test_bregman(self):
        D = resolve_divergence("bregman", generator=QUAD)
        assert D(T1, T2) == pytest.approx(bregman(QUAD, T1, T2), abs=1e-15)

    def test_bregman_dual(self):
        D = resolve_divergence("bregman_dual", generator=QUAD)
        assert D(T1, T2) == pytest.approx(bregman(QUAD, T2, T1), abs=1e-15)

    def test_bregman_chord(self):
        D = resolve_divergence(
            "bregman_chord", generator=QUAD,
            params={"alpha": 0.25, "beta": 0.75})
        expected = bregman_chord(QUAD, T1, T2, ChordParams(0.25, 0.75))
        assert D(T1, T2) == pytest.approx(expected, abs=1e-15)

    def test_bregman_tangent(self):
        D = resolve_divergence(
            "bregman_tangent", generator=QUAD, params={"alpha": 0.5})
        assert D(T1, T2) > 0.0

    def test_bregman_chord_approx(self):
        D = resolve_divergence(
            "bregman_chord_approx", generator=QUAD,
            params={"epsilon": 1e-4})
        assert D(T1, T2) == pytest.approx(
            bregman(QUAD, T1, T2), rel=1e-3)

    def test_jensen_family(self):
        for div_id, params in (
            ("jensen", {}),
            ("jensen_skewed", {"alpha": 0.3}),
            ("jensen_bregman", {"alpha": 0.3}),
            ("jensen_chord", {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}),
        ):
            D = resolve_divergence(div_id, generator=QUAD, params=params)
            assert D(T1, T2) >= 0.0

    def test_kl_and_ekl_are_generator_free(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        D = resolve_divergence("kl")
        assert D(p, q) == pytest.approx(0.14384103622589045, abs=1e-12)
        E = resolve_divergence("ekl")
        assert E(np.array([2.0, 1.0]), np.array([2.0, 1.0])) == 0.0


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("gen", [*BUILTIN_GENERATORS, "expsum"])
def test_jensen_bregman_is_jensen_skewed(gen, dim):
    """The jensen_bregman id equals the jensen_skewed id bit for bit, also
    for a generator without a gradient."""
    F = expsum(dim) if gen == "expsum" else make_builtin(gen, dim)
    rng = np.random.default_rng(dim)
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        JB = resolve_divergence("jensen_bregman", F, {"alpha": a})
        JS = resolve_divergence("jensen_skewed", F, {"alpha": a})
        for _ in range(4):
            t1, t2 = sample_pair(rng, F)
            value = JB(t1, t2)
            assert value > 0.0
            assert value == JS(t1, t2)


class TestPrefixedIds:
    def test_fdiv(self):
        D = resolve_divergence("fdiv:kl")
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert D(p, q) == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_fdiv_dual_swaps(self):
        D = resolve_divergence("fdiv:kl")
        Dd = resolve_divergence("fdiv_dual:kl")
        p = np.array([0.4, 1.1])
        q = np.array([0.9, 0.3])
        assert Dd(p, q) == pytest.approx(D(q, p), abs=1e-12)

    def test_fdiv_jsym_symmetric(self):
        D = resolve_divergence("fdiv_jsym:kl")
        p = np.array([0.4, 1.1])
        q = np.array([0.9, 0.3])
        assert D(p, q) == pytest.approx(D(q, p), abs=1e-12)

    def test_fdiv_jssym(self):
        D = resolve_divergence("fdiv_jssym:kl")
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        assert D(p, q) == pytest.approx(0.36806420716849697, abs=1e-12)

    def test_fdiv_unknown_generator(self):
        for div_id in ("fdiv:hellinger", "fdiv_dual:nope",
                       "fdiv_jsym:", "fdiv_jssym:xx"):
            with pytest.raises(UnknownDivergenceError):
                resolve_divergence(div_id)

    def test_biskew_bregman(self):
        sp = SkewPair(0.25, 0.75)
        D = resolve_divergence(
            "biskew:bregman", generator=QUAD,
            params={"gamma": 0.25, "delta": 0.75})
        expected = biskew(
            lambda a, b: bregman(QUAD, a, b), T1, T2, sp)
        assert D(T1, T2) == pytest.approx(expected, abs=1e-15)

    def test_biskew_consumes_inner_params(self):
        D = resolve_divergence(
            "biskew:bregman_chord", generator=QUAD,
            params={"gamma": 0.25, "delta": 0.75,
                    "alpha": 0.3, "beta": 0.9})
        sp = SkewPair(0.25, 0.75)
        cp = ChordParams(0.3, 0.9)
        expected = biskew(
            lambda a, b: bregman_chord(QUAD, a, b, cp), T1, T2, sp)
        assert D(T1, T2) == pytest.approx(expected, abs=1e-15)

    def test_biskew_of_fdiv(self):
        D = resolve_divergence(
            "biskew:fdiv:kl", params={"gamma": 0.25, "delta": 0.75})
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert D(p, q) > 0.0

    def test_biskew_rejects_nesting(self):
        with pytest.raises(ParameterError):
            resolve_divergence(
                "biskew:biskew:bregman", generator=QUAD,
                params={"gamma": 0.25, "delta": 0.75})

    def test_biskew_rejects_jensen_chord(self):
        with pytest.raises(ParameterError):
            resolve_divergence(
                "biskew:jensen_chord", generator=QUAD,
                params={"gamma": 0.25, "delta": 0.75,
                        "alpha": 0.2, "beta": 0.8})

    def test_biskew_requires_skews(self):
        with pytest.raises(ParameterError):
            resolve_divergence("biskew:bregman", generator=QUAD)
        with pytest.raises(ParameterError):
            resolve_divergence(
                "biskew:bregman", generator=QUAD, params={"gamma": 0.25})


class TestErrors:
    def test_unknown_id(self):
        with pytest.raises(UnknownDivergenceError):
            resolve_divergence("wasserstein", generator=QUAD)

    def test_unknown_prefix(self):
        with pytest.raises(UnknownDivergenceError):
            resolve_divergence("gdiv:kl")

    def test_generator_required(self):
        for div_id in ("bregman", "bregman_chord", "jensen",
                       "jensen_chord", "bregman_tangent"):
            with pytest.raises(ParameterError):
                resolve_divergence(
                    div_id,
                    params={"alpha": 0.25, "beta": 0.75, "gamma": 0.5})

    def test_missing_required_params(self):
        with pytest.raises(ParameterError):
            resolve_divergence("bregman_chord", generator=QUAD)
        with pytest.raises(ParameterError):
            resolve_divergence(
                "bregman_chord", generator=QUAD, params={"alpha": 0.25})
        with pytest.raises(ParameterError):
            resolve_divergence("bregman_tangent", generator=QUAD)
        with pytest.raises(ParameterError):
            resolve_divergence("bregman_chord_approx", generator=QUAD)
        with pytest.raises(ParameterError):
            resolve_divergence("jensen_skewed", generator=QUAD)

    def test_invalid_params_rejected_eagerly(self):
        with pytest.raises(ParameterError):
            resolve_divergence(
                "bregman_chord", generator=QUAD,
                params={"alpha": 0.5, "beta": 0.5})
        with pytest.raises(ParameterError):
            resolve_divergence(
                "jensen_skewed", generator=QUAD, params={"alpha": 1.0})

    def test_epsilon_below_float_resolution_names_epsilon(self):
        with pytest.raises(ParameterError, match="epsilon"):
            resolve_divergence("bregman_chord_approx", generator=QUAD,
                               params={"epsilon": 1e-17})

    def test_extra_params_ignored(self):
        D = resolve_divergence(
            "bregman", generator=QUAD, params={"alpha": 0.25})
        assert D(T1, T2) == pytest.approx(bregman(QUAD, T1, T2), abs=1e-15)


class TestNeedsGenerator:
    def test_weight_ids_ignore_the_generator(self):
        for div_id in ("kl", "ekl", "fdiv:chi2", "fdiv_jssym:kl",
                       "biskew:fdiv:kl"):
            assert not needs_generator(div_id)
        for div_id in ("bregman", "jensen_chord", "biskew:bregman_chord"):
            assert needs_generator(div_id)


class TestKnownDivergences:
    def test_contains_core_ids(self):
        ids = known_divergences()
        for div_id in ("bregman", "bregman_dual", "bregman_chord",
                       "bregman_tangent", "bregman_chord_approx",
                       "jensen", "jensen_skewed", "jensen_bregman",
                       "jensen_chord", "kl", "ekl"):
            assert div_id in ids

    def test_mentions_prefixes(self):
        ids = known_divergences()
        joined = " ".join(ids)
        assert "fdiv:" in joined
        assert "biskew:" in joined
