"""Resolution of divergence identifiers to callables, and the (alpha, beta)
anchor sweep.

Shared by the CLI and clustering. An identifier is either a bare name
(bregman, jensen, kl, ...), an f-divergence form fdiv:<f>, fdiv_dual:<f>,
fdiv_jsym:<f>, fdiv_jssym:<f>, or a biskewed wrapper biskew:<inner>.
Scalar parameters (alpha, beta, gamma, delta, epsilon) are taken from a
params mapping; extra entries are ignored, missing required ones raise
ParameterError.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .bregman import (
    ChordParams,
    SkewPair,
    approx_anchors,
    biskew,
    biskew_block,
    bregman,
    bregman_chord,
    bregman_chord_bound,
    bregman_dual,
    bregman_tangent,
    bregman_tangent_bound,
    chord_row,
    skew_segment,
    unit_anchor,
)
from .errors import DomainError, ParameterError, UnknownDivergenceError
from .fdiv import (
    F_GENERATOR_NAMES,
    dual_generator,
    extended_kl,
    f_div,
    j_symmetrize,
    js_symmetrize_div,
    kl,
    make_f_generator,
)
from .generators import SEPARABLE, Generator, make_builtin
from .jensen import (JensenChordParams, jensen_chord, jensen_chord_bound,
                     skew_anchors)


# DivSpec.anchors values, how a value depends on the sweep anchors:
CHORD = "chord"        # B[alpha, beta]; cells from one chord_row call
IGNORED = "ignored"    # neither; one evaluation repeated over the cells
REJECTED = "rejected"  # alpha alone, or alpha <= beta only; no grid fits


class DivSpec(NamedTuple):
    """How one identifier resolves.

    Every id binds (_bind) to kernel(*pre, x, y, *post) and to one vector
    form, block or bound, never both, which resolve_bound binds to X.
    bound(*pre, X, *post), set for the chord, Jensen and Bregman ids,
    binds an (n, dim) block X and returns (C, J) -> the array of
    kernel(*pre, X[i], C[J[..., i]], *post), bit for bit.
    block(*pre, X, Y, *post), set for the other ids, takes X and Y each
    an (m, dim) block or one (1, dim) row, paired as numpy broadcasts
    them: row i is kernel(*pre, X[i], Y[i], *post) bit for bit. A bare id
    has pre = (F,), and post = (build(param),) when build is set: build
    reads scalar parameters through param(name) and checks them with the
    kernel module's own validator, so bad values fail at resolution. An
    f-divergence prefix id has pre = (build(name),), build making the f
    generator named after the colon; biskew:<inner> has pre = (the inner
    id's callable, or its resolve_bound binder for the block,) and
    post = (build(param),). needs_generator is False for ids that ignore the
    generator and read their arguments as positive weights (kl and ekl,
    whose pre is empty).
    right_centroid, when set, is the id's closed-form rule: F -> (path,
    an (m, dim) member matrix -> argmin_c sum_i D(x_i : c)), or None where
    F has no closed form; center_rule() adds the quadratic, tv median,
    lockstep and descent rules. anchors says how the value depends on the
    sweep anchors (alpha, beta): CHORD, IGNORED or REJECTED.
    """

    kernel: Callable
    block: Optional[Callable] = None
    build: Optional[Callable] = None
    needs_generator: bool = True
    right_centroid: Optional[Callable] = None
    anchors: str = IGNORED
    bound: Optional[Callable] = None


def _member_mean(F: Generator) -> tuple:
    """The member mean under every F: the right centroid of every Bregman
    divergence (Banerjee, Merugu, Dhillon and Ghosh, "Clustering with
    Bregman Divergences", JMLR 2005)."""
    return "mean", lambda members: members.mean(axis=0)


def _group_means(A: np.ndarray, groups) -> np.ndarray:
    """The mean of A's rows over each group of groups = (starts, counts):
    a group runs from one of the ascending starts, the first 0, to the
    next, and counts is the (g, 1) array of its rows. groups None is one
    group, whose mean A.mean(axis=0) rounds."""
    if groups is None:
        return A.mean(axis=0, keepdims=True)
    starts, counts = groups
    return np.add.reduceat(A, starts, axis=0) / counts


def _log_sum_exp_centroid(F: Generator, T, groups) -> np.ndarray:
    f = F.rows(T)
    starts = [0] if groups is None else groups[0]
    return (np.logaddexp.reduceat(T - f[:, None], starts, axis=0)
            - np.logaddexp.reduceat(-f, starts)[:, None])


#: (F, T, groups) -> grad F^-1(mean grad F) over each group of T's rows,
#: for the builtins without a conjugate
_INVERSE_MEAN_GRAD = {
    # grad F(t) = -1/t is its own inverse
    "burg_negentropy": lambda F, T, groups: -1.0 / _group_means(-1.0 / T,
                                                                groups),
    # grad F(x) = e^(x - F(x)) and 1 - sum_j grad F(x)_j = e^(-F(x)), so
    # log eta - log(1 - sum eta) is taken in log space: formed from eta,
    # 1 - sum eta cancels away from the origin
    "log_sum_exp": _log_sum_exp_centroid,
}


def _inverse_mean_grad(F: Generator) -> Optional[Callable]:
    """(T, groups) -> the array of grad F^-1(mean grad F(t)) over each
    group of the rows t of T (_group_means' groups), one row per group:
    through F's conjugate, or else F's builtin; None when F has
    neither."""
    if F.conjugate is not None:
        return lambda T, groups: F.conjugate.grad_rows(
            _group_means(F.grad_rows(T), groups))
    solve = _INVERSE_MEAN_GRAD.get(F.builtin)
    if solve is None:
        return None
    return lambda T, groups: solve(F, T, groups)


def _left_centroid(F: Generator) -> Optional[tuple]:
    """argmin_c sum_i B_F(c : x_i), the left-sided Bregman centroid
    grad F^-1(mean_i grad F(x_i)) (Nielsen and Nock, "Sided and
    symmetrized Bregman centroids", IEEE TIT 2009), through
    _inverse_mean_grad; None when F has no such rule."""
    solve = _inverse_mean_grad(F)
    if solve is None:
        return None
    return "left", lambda members: F.point(solve(members, None)[0])


def _cccp_weight(anchors) -> Optional[float]:
    """The interpolation weight w of the concave-convex step for chord or
    Jensen anchors: the anchor other than 1 of a chord with one anchor at
    1 (1 - epsilon for bregman_chord_approx), alpha of Jensen anchors
    alpha = beta (the skewed Jensen ids); None for any other anchors."""
    if isinstance(anchors, ChordParams):
        a, b = float(anchors.alpha), float(anchors.beta)
        return a if b == 1.0 else b if a == 1.0 else None
    a = float(anchors.alpha)
    return a if a == float(anchors.beta) else None


# the skewed Jensen ids are jensen_chord at alpha = beta = gamma;
# (1 - a) B(t1 : m_a) + a B(t2 : m_a) is jensen_skewed: gradients cancel
_SKEWED_JENSEN = DivSpec(
    jensen_chord, build=lambda param: skew_anchors(param("alpha")),
    anchors=REJECTED, bound=jensen_chord_bound)


#: The only list of identifiers; its order is the order of the help text.
DIVERGENCES = {
    "bregman": DivSpec(bregman, right_centroid=_member_mean,
                       bound=bregman_tangent_bound),
    "bregman_dual": DivSpec(
        bregman_dual, right_centroid=_left_centroid,
        bound=lambda F, X: bregman_tangent_bound(F, X, swap=True)),
    "bregman_chord": DivSpec(
        bregman_chord,
        build=lambda param: ChordParams(param("alpha"), param("beta")),
        anchors=CHORD, bound=bregman_chord_bound),
    "bregman_tangent": DivSpec(
        bregman_tangent,
        build=lambda param: unit_anchor(param("alpha"), "tangent anchor"),
        anchors=REJECTED, bound=bregman_tangent_bound),
    "bregman_chord_approx": DivSpec(
        bregman_chord, build=lambda param: approx_anchors(param("epsilon")),
        bound=bregman_chord_bound),
    "jensen": DivSpec(jensen_chord, build=lambda param: skew_anchors(0.5),
                      bound=jensen_chord_bound),
    "jensen_skewed": _SKEWED_JENSEN,
    "jensen_chord": DivSpec(
        jensen_chord, build=lambda param: JensenChordParams(
            param("alpha"), param("beta"), param("gamma")),
        anchors=REJECTED, bound=jensen_chord_bound),
    "jensen_bregman": _SKEWED_JENSEN,
    "kl": DivSpec(kl, kl, needs_generator=False),
    # ekl is the Bregman divergence of sum(t log t - t)
    "ekl": DivSpec(extended_kl, extended_kl, needs_generator=False,
                   right_centroid=_member_mean),
    "fdiv:": DivSpec(f_div, f_div, make_f_generator, False),
    "fdiv_dual:": DivSpec(f_div, f_div, lambda name: dual_generator(
        make_f_generator(name)), False),
    "fdiv_jsym:": DivSpec(f_div, f_div, lambda name: j_symmetrize(
        make_f_generator(name)), False),
    "fdiv_jssym:": DivSpec(js_symmetrize_div, js_symmetrize_div,
                           make_f_generator, False),
    # needs_generator and anchors of a biskew id are its inner id's
    "biskew:": DivSpec(
        biskew, biskew_block,
        lambda param: SkewPair(param("gamma"), param("delta"))),
}


def _spec(div_id: str) -> tuple:
    """(DivSpec of the id's head, text after its colon); a biskew: spec
    takes its inner id's needs_generator and anchors, and an f-divergence
    prefix id must name one of F_GENERATOR_NAMES after its colon."""
    head, sep, rest = div_id.partition(":")
    spec = DIVERGENCES.get(head + sep)
    if spec is None:
        raise UnknownDivergenceError(
            f"unknown divergence identifier {div_id!r}"
        )
    if spec.kernel is biskew:
        inner, _ = _spec(rest)
        spec = spec._replace(needs_generator=inner.needs_generator,
                             anchors=inner.anchors)
    elif sep and rest not in F_GENERATOR_NAMES:
        raise UnknownDivergenceError(
            f"unknown f generator in divergence identifier {div_id!r}"
        )
    return spec, rest


def needs_generator(div_id: str) -> bool:
    """Whether the identifier evaluates the generator; False for the
    f-divergence family, kl and ekl, which take positive weight vectors."""
    return _spec(div_id)[0].needs_generator


def _bind(div_id: str, generator: Optional[Generator],
          params: Optional[Mapping[str, float]], vector: bool = False
          ) -> tuple:
    """(spec, pre, post): the divergence is spec.kernel(*pre, x, y, *post),
    and its vector form spec.block(*pre, X, Y, *post) or
    spec.bound(*pre, X, *post); vector set resolves a biskew: id's inner
    id to its resolve_bound binder. Every identifier, generator and
    parameter check of a resolution is made here."""
    spec, rest = _spec(div_id)
    if spec.kernel is biskew:
        if rest.startswith("biskew:") or rest == "jensen_chord":
            raise ParameterError(
                f"biskew cannot wrap {rest!r}: its gamma/delta "
                f"parameters would be consumed twice"
            )
        sp = spec.build(_reader(div_id, params))
        # resolve_divergence by its module name, which tracers patch
        resolve = resolve_bound if vector else resolve_divergence
        return spec, (resolve(rest, generator, params),), (sp,)
    if not spec.needs_generator:
        if spec.build is None:
            return spec, (), ()
        return spec, (spec.build(rest),), ()
    if generator is None:
        raise ParameterError(f"divergence {div_id!r} requires a generator")
    if spec.build is None:
        return spec, (generator,), ()
    return spec, (generator,), (spec.build(_reader(div_id, params)),)


def resolve_divergence(div_id: str, generator: Optional[Generator] = None,
                       params: Optional[Mapping[str, float]] = None
                       ) -> Callable:
    """Resolve an identifier to a two-argument divergence callable.

    Generator-based identifiers close over `generator`; the f-divergence
    family treats the two arguments as positive weight vectors and ignores
    the generator. Parameters are validated eagerly, by _bind, so invalid
    anchors or skews fail here rather than at the first evaluation.
    """
    spec, pre, post = _bind(div_id, generator, params)
    kernel = spec.kernel
    return lambda x, y: kernel(*pre, x, y, *post)


def resolve_bound(div_id: str, generator: Optional[Generator] = None,
                  params: Optional[Mapping[str, float]] = None
                  ) -> Callable:
    """Resolve an identifier to X -> its vector form bound to X, an
    (n, dim) block of first points: a callable (C, J) -> the array of
    D(X[i] : C[J[..., i]]), J an integer array whose last axis has n
    entries or one for every row, each value bit-identical to
    resolve_divergence's callable on that pair, after the same _bind
    checks; J = np.arange(m) pairs X's rows with the m rows of C. The
    chord, Jensen and Bregman ids bind by their bound forms
    (DivSpec.bound), which check and evaluate X once; every other id by
    gathering each call's pairs into one block call. A bound block's gap
    expression gives inf and nan as Python floats do, so callers run it
    under np.errstate(all="ignore"), once per search or pass.
    """
    spec, pre, post = _bind(div_id, generator, params, vector=True)
    if spec.bound is not None:
        bound = spec.bound
        return lambda X: bound(*pre, X, *post)
    block = spec.block
    return lambda X: _gathered(lambda X, Y: block(*pre, X, Y, *post), X)


def _gathered(block: Callable, X) -> Callable:
    """The (X, Y) block bound to X by gathering: a call on (C, J) makes
    one block call on the pairs' rows, X's and C[J]'s broadcast."""
    X = np.asarray(X, dtype=float)

    def bound(C, J) -> np.ndarray:
        Y = np.asarray(C, dtype=float)[np.asarray(J)]
        pairs = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])
        flat = [np.broadcast_to(A, pairs + A.shape[-1:]).reshape(
            -1, A.shape[-1]) for A in (X, Y)]
        return block(*flat).reshape(pairs)
    return bound


def center_rule(div_id: str, F: Generator,
                params: Optional[Mapping[str, float]] = None) -> tuple:
    """(path, rule): how argmin_c sum_i D(x_i : c) is found for the id
    under F, by the first rule that holds:

    1. ("mean", members -> their mean) for every id that evaluates the
       generator when F is the quadratic builtin: each such D(x : c) is
       then a non-negative multiple of |x - c|^2 (biskew: wrappers too);
    2. a closed form: ("median", the coordinatewise median) for the four
       f-divergence ids of tv, self-dual, and their biskew: wrappers, so
       that each D(x : c) is a positive multiple of sum_j |c_j - x_j|
       (|delta - gamma| times more under biskew:); the id's
       DivSpec.right_centroid, "mean" for bregman and ekl, ("left", the
       left-sided centroid) for bregman_dual when F has a conjugate or is
       the burg_negentropy or log_sum_exp builtin;
    3. ("cccp", the concave-convex map) for the chord ids with one anchor
       at 1 (bregman_chord_approx included) and the skewed Jensen ids
       (jensen, jensen_skewed, jensen_bregman: Jensen anchors alpha =
       beta) under an F with the left-sided centroid rule: with w the
       _cccp_weight of the id's anchors, sum_i D(x_i : c) is a multiple of
       w m F(c) - sum_i F((1 - w) x_i + w c) plus a constant, a
       difference of convex functions of c, whose concave-convex step
       (Yuille and Rangarajan, Neural Comput. 2003) is the left-sided
       centroid of the interpolants, c <- grad F^-1(mean_i grad
       F((1 - w) x_i + w c)). The rule binds (X, groups), X an (m, dim)
       member matrix and groups = (starts, counts), the first row and
       the (g, 1) array of the rows of each cluster, to the step: C, the
       current center of each member's row, -> the next center of each
       cluster;
    4. ("lockstep", resolve_bound's binder of the id under f, the
       builtin at dim 1) for the other chord and Jensen ids (gradient-free
       bound forms) under a SEPARABLE builtin, F(t) = sum_j f(t_j):
       their gaps are linear in F's values, so D(x : c) sums the 1-D
       bound form's values at (x_j, c_j);
    5. ("descent", None) otherwise: coordinate descent.

    A closed form maps an (m, dim) member matrix to its center. Only rules
    3 and 4 read params, after _spec has checked the identifier, and rule
    3 only under an F with the left-sided centroid rule.
    """
    spec = _spec(div_id)[0]
    if F.builtin == "quadratic" and spec.needs_generator:
        return _member_mean(F)
    if div_id.endswith(":tv"):  # fdiv:tv, biskew:fdiv:tv, ...
        return "median", lambda members: np.median(members, axis=0)
    if spec.right_centroid and (closed := spec.right_centroid(F)):
        return closed
    chord_or_jensen = spec.bound in (bregman_chord_bound, jensen_chord_bound)
    solve = _inverse_mean_grad(F)
    if (chord_or_jensen and solve is not None and (w := _cccp_weight(
            spec.build(_reader(div_id, params)))) is not None):
        def cccp(X, groups):
            share = (1.0 - w) * X
            return lambda C: solve(share + w * C, groups)
        return "cccp", cccp
    if chord_or_jensen and F.builtin in SEPARABLE:
        return "lockstep", resolve_bound(div_id, make_builtin(F.builtin, 1),
                                         params)
    return "descent", None


def _reader(div_id: str, params: Optional[Mapping[str, float]]
            ) -> Callable[[str], float]:
    """param(name): the float value of params[name], which div_id
    requires; a missing or non-numeric value raises ParameterError."""
    params = dict(params or {})

    def param(key: str) -> float:
        value = params.get(key)
        try:
            return float(value)
        except (TypeError, ValueError):
            got = "" if value is None else f" as a number, got {value!r}"
            raise ParameterError(
                f"divergence {div_id!r} requires parameter {key!r}{got}"
            ) from None
    return param


def known_divergences() -> tuple:
    """Identifier families for help text."""
    return tuple(key + "<name>" if key.endswith(":") else key
                 for key in DIVERGENCES)


def sweep_divergences() -> tuple:
    """The known_divergences() that sweep accepts; biskew:<name> must wrap
    one of the others."""
    return tuple(family for family, spec
                 in zip(known_divergences(), DIVERGENCES.values())
                 if spec.anchors != REJECTED)


def _anchors(label: str, values: Sequence[float]) -> tuple:
    anchors = tuple(sorted({float(v) for v in values}))
    if not anchors:
        raise ParameterError(f"{label} must be non-empty")
    for v in anchors:
        unit_anchor(v, label)
    return anchors


def sweep(F, theta1, theta2, alphas: Sequence[float],
          betas: Sequence[float], div_id: str,
          params: Optional[Mapping[str, float]] = None) -> tuple:
    """Evaluate a divergence over an anchor grid, row-major by alpha then beta.

    alphas and betas are non-empty anchor values in (0, 1], visited in
    sorted order. Cells with alpha == beta are skipped: they are not valid
    chord anchors. Each cell's alpha and beta override any entries of the
    same name in params. Repeated anchors count once. A CHORD id forms
    every cell on its segment (the gamma and delta interpolants for
    biskew:) by one chord_row call, bit-equal to bregman_chord; an IGNORED
    id is evaluated once, and its value fills every cell; a REJECTED id
    raises ParameterError before any evaluation. The first non-finite
    cell in row-major order raises DomainError. Returns the cells as
    three aligned float64 arrays (alphas, betas, values), empty when every
    cell is on the diagonal.
    """
    alphas = _anchors("alphas", alphas)
    betas = _anchors("betas", betas)
    spec, _ = _spec(div_id)
    if spec.anchors == REJECTED:
        raise ParameterError(
            f"sweep cannot take divergence {div_id!r}: it reads alpha "
            f"alone or needs alpha <= beta, which an (alpha, beta) grid "
            f"does not fit; sweep accepts "
            f"{', '.join(sweep_divergences())}, where biskew: must wrap "
            f"one of the others"
        )
    A = np.repeat(alphas, len(betas))
    B = np.tile(betas, len(alphas))
    off_diagonal = A != B
    A, B = A[off_diagonal], B[off_diagonal]
    if not A.size:
        return A, B, np.zeros(0)
    # one binding makes every parameter and identifier check
    params = {**(params or {}), "alpha": float(A[0]), "beta": float(B[0])}
    spec, pre, post = _bind(div_id, F, params)
    if spec.anchors == IGNORED:
        values = np.full(A.size,
                         float(spec.kernel(*pre, theta1, theta2, *post)))
    else:
        segment = (skew_segment(theta1, theta2, *post)
                   if spec.kernel is biskew else (theta1, theta2))
        values = (np.zeros(A.size) if segment is None
                  else chord_row(F, *segment, A, B))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"sweep cell (alpha={float(A[i])}, beta={float(B[i])}) produced "
            f"a non-finite value {float(values[i])}"
        )
    return A, B, values
