"""Divergence-id resolution: bare ids, prefixed families, parameter plumbing."""

import dataclasses

import numpy as np
import pytest

from chorddiv import (
    BUILTIN_GENERATORS,
    ChorddivError,
    ClusterConfig,
    DomainError,
    ParameterError,
    UnknownDivergenceError,
    bregman,
    bregman_chord,
    ChordParams,
    SkewPair,
    biskew,
    kmeans,
    known_divergences,
    make_builtin,
    resolve_divergence,
)
from chorddiv.cli import main
from chorddiv.registry import (DIVERGENCES, center_rule, needs_generator,
                               resolve_bound, sweep)

from test_bregman import expsum, paired, sample_pair

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


def expsum_with_gradient(dim):
    """A custom generator with a gradient and no rows."""
    return dataclasses.replace(expsum(dim), grad_fn=np.exp)


def check_block(div_id, F):
    """resolve_bound's vector form against the pair callable, bit for
    bit, on both forms of the second block, (m, dim) and one (1, dim)
    row; rows 2 and 4 coincide with their second point, exactly and
    within DEGENERATE_EPS (where the generator ids give 0.0 and the
    weight ids their value)."""
    rng = np.random.default_rng(3)
    X = rng.uniform(0.2, 1.5, (6, 2))
    Y = rng.uniform(0.2, 1.5, (6, 2))
    Y[2] = X[2]
    Y[4] = X[4] + 1e-15
    X[5] = Q
    block = paired(div_id, F, SAMPLE_PARAMS)
    D = resolve_divergence(div_id, F, SAMPLE_PARAMS)

    def same(got, want):
        return got.tobytes() == np.array(want, dtype=float).tobytes()

    assert same(block(X, Y), [D(x, y) for x, y in zip(X, Y)])
    assert same(block(X, Q[None]), [D(x, Q) for x in X])
    assert block(X, Y)[2] == block(X, Q[None])[5] == 0.0


@pytest.mark.parametrize("gen", [*BUILTIN_GENERATORS, "expsum"])
@pytest.mark.parametrize("family", known_divergences())
def test_block_resolution_matches_the_pair_callable(family, gen):
    key = family.replace("<name>", "")
    F = expsum_with_gradient(2) if gen == "expsum" else make_builtin(gen, 2)
    check_block(key + SUFFIX.get(key, ""), F)


@pytest.mark.parametrize("inner", [
    "bregman_chord", "bregman_tangent", "bregman_dual", "jensen", "kl",
    "ekl", "fdiv:chi2", "fdiv_dual:kl", "fdiv_jssym:tv"])
def test_biskew_blocks_take_the_inner_block(inner):
    check_block("biskew:" + inner, make_builtin("shannon_negentropy", 2))


@pytest.mark.parametrize("inner", [
    "bregman_chord", "bregman_dual", "jensen", "ekl"])
def test_biskew_vector_form_names_a_gamma_interpolant_first(inner):
    """With skews outside [0, 1], row 0's gamma interpolant and row 1's
    delta interpolant lie outside the orthant; binding the inner id's
    vector form to the gamma interpolants names row 0's first, over a
    bound form as over a weight block."""
    F = make_builtin("shannon_negentropy", 2)
    params = {"alpha": 0.9, "beta": 1.0, "gamma": -0.5, "delta": 1.5}
    X = np.array([[0.5, 0.1], [0.7, 0.5]])
    Y = np.array([[0.2, 1.8], [0.1, 0.5]])
    with pytest.raises(DomainError) as info:
        paired("biskew:" + inner, F, params)(X, Y)
    if inner == "ekl":
        assert str(info.value) == ("p must have finite, strictly positive "
                                   "entries: row 0 [0.65, -0.75] has -0.75 "
                                   "at entry 1")
    else:
        assert str(info.value) == ("point [0.65, -0.75] is outside the "
                                   "positive domain of shannon_negentropy")


@pytest.mark.parametrize("div_id, x, y, params, named", [
    ("bregman_dual", [-1.0, 2.0], [2.0, -3.0], {}, "[-1.0, 2.0]"),
    # both interpolants outside: gamma's is the first argument
    ("biskew:bregman_dual", [0.2, 0.9], [0.9, 0.2],
     {"gamma": -0.5, "delta": 1.5}, "[-0.14999999999999997, 1.25]"),
])
def test_bregman_dual_names_its_first_argument_on_both_paths(
        div_id, x, y, params, named):
    """bregman_dual validates its arguments in order, as every kernel does,
    so its scalar kernel and its vector form name the same point when both
    lie outside the domain."""
    F = make_builtin("shannon_negentropy", 2)
    with pytest.raises(DomainError) as scalar:
        resolve_divergence(div_id, F, params)(np.array(x), np.array(y))
    with pytest.raises(DomainError) as vector:
        paired(div_id, F, params)(np.array([x]), np.array([y]))
    assert str(scalar.value) == str(vector.value) == (
        f"point {named} is outside the positive domain of shannon_negentropy")


def test_every_entry_has_one_vector_form():
    # a block, which resolve_bound gathers, or a bound form
    for key, spec in DIVERGENCES.items():
        forms = [form for form in (spec.block, spec.bound)
                 if form is not None]
        assert len(forms) == 1 and callable(forms[0]), key
    assert sorted(key for key, spec in DIVERGENCES.items() if spec.bound) == [
        "bregman", "bregman_chord", "bregman_chord_approx", "bregman_dual",
        "bregman_tangent", "jensen", "jensen_bregman", "jensen_chord",
        "jensen_skewed"]


@pytest.mark.parametrize("div_id", ["bregman_chord", "bregman_chord_approx"])
def test_block_kernel_checks_at_resolve_time(div_id):
    with pytest.raises(ParameterError):
        resolve_bound(div_id, params=SAMPLE_PARAMS)
    with pytest.raises(ParameterError):
        resolve_bound(div_id, QUAD, {})
    with pytest.raises(ParameterError):
        resolve_bound(div_id, QUAD, {**SAMPLE_PARAMS, **OUT_OF_RANGE[div_id]})


@pytest.mark.parametrize("value", ["x", "", [0.5]])
def test_non_numeric_parameter_names_the_id_and_parameter(value):
    params = {"alpha": value, "beta": 1}
    message = (r"divergence 'bregman_chord' requires parameter 'alpha' as a "
               r"number, got ")
    with pytest.raises(ParameterError, match=message):
        resolve_divergence("bregman_chord", QUAD, params)
    with pytest.raises(ParameterError, match=message):
        resolve_bound("bregman_chord", QUAD, params)
    points = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
    with pytest.raises(ParameterError, match=message):
        kmeans(points, QUAD, ClusterConfig(k=2, divergence="bregman_chord",
                                           params=params))


#: (id, generator, params, error type, message): each binding fails with the
#: same error from resolve_divergence and resolve_bound.
BINDING_ERRORS = [
    ("wasserstein", QUAD, SAMPLE_PARAMS, UnknownDivergenceError,
     "unknown divergence identifier 'wasserstein'"),
    ("fdiv:nope", None, SAMPLE_PARAMS, UnknownDivergenceError,
     "unknown f generator in divergence identifier 'fdiv:nope'"),
    ("biskew:biskew:bregman", QUAD, SAMPLE_PARAMS, ParameterError,
     "biskew cannot wrap 'biskew:bregman': its gamma/delta parameters "
     "would be consumed twice"),
    ("biskew:jensen_chord", QUAD, {}, ParameterError,
     "biskew cannot wrap 'jensen_chord': its gamma/delta parameters would "
     "be consumed twice"),
    ("bregman_chord", QUAD, {}, ParameterError,
     "divergence 'bregman_chord' requires parameter 'alpha'"),
    ("bregman_chord", QUAD, {"alpha": "x", "beta": 0.5}, ParameterError,
     "divergence 'bregman_chord' requires parameter 'alpha' as a number, "
     "got 'x'"),
    ("bregman_chord", QUAD, {**SAMPLE_PARAMS, "alpha": 1.5}, ParameterError,
     "chord anchor alpha must lie in (0, 1], got 1.5"),
    ("bregman_chord", None, {}, ParameterError,
     "divergence 'bregman_chord' requires a generator"),
    ("biskew:bregman_chord", QUAD, {"gamma": 0.5, "delta": 0.75},
     ParameterError, "divergence 'bregman_chord' requires parameter 'alpha'"),
    ("biskew:bregman", None, SAMPLE_PARAMS, ParameterError,
     "divergence 'bregman' requires a generator"),
    ("biskew:bregman", QUAD, {"gamma": 0.5}, ParameterError,
     "divergence 'biskew:bregman' requires parameter 'delta'"),
    ("biskew:bregman_chord", QUAD, {}, ParameterError,
     "divergence 'biskew:bregman_chord' requires parameter 'gamma'"),
]


@pytest.mark.parametrize("resolve", [resolve_divergence, resolve_bound])
@pytest.mark.parametrize("div_id, F, params, error, message", BINDING_ERRORS)
def test_binding_errors(resolve, div_id, F, params, error, message):
    with pytest.raises(ChorddivError) as info:
        resolve(div_id, F, params)
    assert type(info.value) is error
    assert str(info.value) == message


def sweep_rejects(div_id):
    """Whether sweep refuses div_id for how it reads the anchors."""
    try:
        sweep(QUAD, P, Q, (0.25,), (0.75,), div_id, SAMPLE_PARAMS)
    except ParameterError as exc:
        return str(exc).startswith("sweep cannot take")
    return False


@pytest.mark.parametrize("family", known_divergences())
def test_biskew_takes_its_inner_ids_properties(family):
    key = family.replace("<name>", "")
    div_id = key + SUFFIX.get(key, "")
    assert needs_generator("biskew:" + div_id) == needs_generator(div_id)
    assert sweep_rejects("biskew:" + div_id) == sweep_rejects(div_id)


@pytest.mark.parametrize("params", [{}, {"gamma": 0.25, "delta": 0.75}])
def test_biskew_of_an_unknown_id_is_unknown_everywhere(params, capsys):
    """Raised before gamma and delta are read, from every entry point."""
    shannon = make_builtin("shannon_negentropy", 2)
    for call in (lambda: resolve_divergence("biskew:nope", QUAD, params),
                 lambda: resolve_bound("biskew:nope", QUAD, params),
                 lambda: needs_generator("biskew:nope"),
                 lambda: center_rule("biskew:nope", QUAD, params),
                 lambda: center_rule("biskew:nope", shannon, params)):
        with pytest.raises(UnknownDivergenceError,
                           match="^unknown divergence identifier 'nope'$"):
            call()
    argv = ["eval", "--div", "biskew:nope", "--x", "0.5", "--y", "0.7"]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 2
    assert "unknown divergence identifier 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{}, {"gamma": 0.25, "delta": 0.75}])
@pytest.mark.parametrize("div_id, named", [
    ("fdiv:nope", "fdiv:nope"), ("fdiv_dual:", "fdiv_dual:"),
    ("fdiv_jsym:KL", "fdiv_jsym:KL"), ("fdiv_jssym:kl:x", "fdiv_jssym:kl:x"),
    ("biskew:fdiv:nope", "fdiv:nope"),
])
def test_unknown_f_name_is_unknown_everywhere(div_id, named, params, capsys):
    """The f name is checked with the id, before gamma and delta are read,
    from every entry point."""
    shannon = make_builtin("shannon_negentropy", 2)
    message = f"^unknown f generator in divergence identifier '{named}'$"
    for call in (lambda: resolve_divergence(div_id, QUAD, params),
                 lambda: resolve_bound(div_id, None, params),
                 lambda: needs_generator(div_id),
                 lambda: center_rule(div_id, QUAD, params),
                 lambda: center_rule(div_id, shannon, params),
                 lambda: kmeans(np.array([[0.5, 0.5], [0.2, 0.7]]), QUAD,
                                ClusterConfig(k=1, divergence=div_id,
                                              params=params))):
        with pytest.raises(UnknownDivergenceError, match=message):
            call()
    argv = ["eval", "--div", div_id, "--x", "0.5", "--y", "0.7"]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 2
    assert f"identifier '{named}'" in capsys.readouterr().err


def test_closed_form_center_rules_read_no_parameters():
    """bregman_chord needs alpha and beta to resolve, but its member-mean
    rule under quadratic is found without them."""
    with pytest.raises(ParameterError):
        resolve_bound("bregman_chord", QUAD, {})
    path, rule = center_rule("bregman_chord", QUAD, {})
    members = np.array([[0.0, 1.0], [0.5, 0.25], [2.0, 2.0]])
    assert path == "mean"
    assert rule(members).tobytes() == members.mean(axis=0).tobytes()


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
