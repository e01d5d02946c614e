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

import math
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .bregman import (
    ChordParams,
    SkewPair,
    approx_anchors,
    biskew,
    bregman,
    bregman_chord,
    bregman_chord_block,
    bregman_dual,
    bregman_tangent,
    chord_gap,
    skew_segment,
    unit_anchor,
)
from .errors import (
    DomainError,
    ParameterError,
    UnknownDivergenceError,
    UnsupportedGeneratorError,
)
from .fdiv import (
    dual_generator,
    extended_kl,
    f_div,
    j_symmetrize,
    js_symmetrize_div,
    kl,
    make_f_generator,
)
from .generators import Generator, line_table
from .jensen import JensenChordParams, jensen_chord, skew_anchors


# DivSpec.anchors values, how a value depends on the sweep anchors:
CHORD = "chord"        # B[alpha, beta]; cells from one line_table row
IGNORED = "ignored"    # neither; one evaluation repeated over the cells
REJECTED = "rejected"  # alpha alone, or alpha <= beta only; no grid fits


class DivSpec(NamedTuple):
    """How one identifier resolves.

    A bare id resolves to kernel(F, x, y), or to kernel(F, x, y, arg) with
    arg = build(param) when build is set: build reads scalar parameters
    through param(name) and checks them with the kernel module's own
    validator, so bad values fail at resolution. An f-divergence prefix id
    resolves to kernel(build(name), x, y), build making the f generator
    named after the colon; biskew:<inner> resolves to
    kernel(inner, x, y, build(param)). needs_generator is False for ids that
    ignore the generator and read their arguments as positive weights.
    right_centroid, when set, maps an (m, dim) member matrix to the
    closed-form argmin_c sum_i D(x_i : c); it is set only where that argmin
    holds for every generator and parameter value. anchors says how the
    value depends on the sweep anchors (alpha, beta): CHORD, IGNORED or
    REJECTED. block, when set, is the kernel's block form,
    block(F, X, y, arg) -> the values kernel(F, X[i], y, arg), bit for bit.
    """

    kernel: Callable
    build: Optional[Callable] = None
    needs_generator: bool = True
    right_centroid: Optional[Callable] = None
    anchors: str = IGNORED
    block: Optional[Callable] = None


def _member_mean(members):
    """Right centroid of every Bregman divergence (Banerjee, Merugu, Dhillon
    and Ghosh, "Clustering with Bregman Divergences", JMLR 2005)."""
    return members.mean(axis=0)


#: The only list of identifiers; its order is the order of the help text.
DIVERGENCES = {
    "bregman": DivSpec(bregman, right_centroid=_member_mean),
    "bregman_dual": DivSpec(bregman_dual),
    "bregman_chord": DivSpec(
        bregman_chord, lambda param: ChordParams(param("alpha"),
                                                 param("beta")),
        anchors=CHORD, block=bregman_chord_block),
    "bregman_tangent": DivSpec(
        bregman_tangent,
        lambda param: unit_anchor(param("alpha"), "tangent anchor"),
        anchors=REJECTED),
    "bregman_chord_approx": DivSpec(
        bregman_chord, lambda param: approx_anchors(param("epsilon")),
        block=bregman_chord_block),
    # the skewed Jensen ids are jensen_chord at alpha = beta = gamma
    "jensen": DivSpec(jensen_chord, lambda param: skew_anchors(0.5)),
    "jensen_skewed": DivSpec(
        jensen_chord, lambda param: skew_anchors(param("alpha")),
        anchors=REJECTED),
    "jensen_chord": DivSpec(
        jensen_chord, lambda param: JensenChordParams(
            param("alpha"), param("beta"), param("gamma")),
        anchors=REJECTED),
    # (1 - a) B(t1 : m_a) + a B(t2 : m_a) is jensen_skewed: gradients cancel
    "jensen_bregman": DivSpec(
        jensen_chord, lambda param: skew_anchors(param("alpha")),
        anchors=REJECTED),
    "kl": DivSpec(kl, needs_generator=False),
    # ekl is the Bregman divergence of sum(t log t - t)
    "ekl": DivSpec(extended_kl, needs_generator=False,
                   right_centroid=_member_mean),
    "fdiv:": DivSpec(f_div, make_f_generator, False),
    "fdiv_dual:": DivSpec(
        f_div, lambda name: dual_generator(make_f_generator(name)), False),
    "fdiv_jsym:": DivSpec(
        f_div, lambda name: j_symmetrize(make_f_generator(name)), False),
    "fdiv_jssym:": DivSpec(js_symmetrize_div, make_f_generator, False),
    # needs_generator and anchors of a biskew id are its inner id's
    "biskew:": DivSpec(
        biskew, lambda param: SkewPair(param("gamma"), param("delta"))),
}


def _spec(div_id: str) -> tuple:
    head, sep, rest = div_id.partition(":")
    spec = DIVERGENCES.get(head + sep)
    if spec is None:
        raise UnknownDivergenceError(
            f"unknown divergence identifier {div_id!r}"
        )
    return spec, rest


def needs_generator(div_id: str) -> bool:
    """Whether the identifier evaluates the generator; False for the
    f-divergence family, kl and ekl, which take positive weight vectors."""
    spec, rest = _spec(div_id)
    if spec.kernel is biskew:
        return needs_generator(rest)
    return spec.needs_generator


def right_centroid(div_id: str) -> Optional[Callable]:
    """The identifier's closed-form right centroid, or None when it must be
    found numerically (every biskew: wrapper included)."""
    return _spec(div_id)[0].right_centroid


def resolve_divergence(div_id: str, generator: Optional[Generator] = None,
                       params: Optional[Mapping[str, float]] = None
                       ) -> Callable:
    """Resolve an identifier to a two-argument divergence callable.

    Generator-based identifiers close over `generator`; the f-divergence
    family treats the two arguments as positive weight vectors and ignores
    the generator. Parameters are validated eagerly, so invalid anchors or
    skews fail here rather than at the first evaluation.
    """
    param = _reader(div_id, params)
    spec, rest = _spec(div_id)
    kernel = spec.kernel
    if kernel is biskew:
        if rest.startswith("biskew:") or rest == "jensen_chord":
            raise ParameterError(
                f"biskew cannot wrap {rest!r}: its gamma/delta "
                f"parameters would be consumed twice"
            )
        sp = spec.build(param)
        inner = resolve_divergence(rest, generator, params)
        return lambda x, y: biskew(inner, x, y, sp)
    if not spec.needs_generator:
        if spec.build is None:
            return kernel
        try:
            f = spec.build(rest)
        except UnsupportedGeneratorError as exc:
            raise UnknownDivergenceError(
                f"unknown f generator in divergence identifier {div_id!r}"
            ) from exc
        return lambda x, y: kernel(f, x, y)
    if generator is None:
        raise ParameterError(f"divergence {div_id!r} requires a generator")
    if spec.build is None:
        return lambda x, y: kernel(generator, x, y)
    arg = spec.build(param)
    return lambda x, y: kernel(generator, x, y, arg)


def resolve_block(div_id: str, generator: Optional[Generator] = None,
                  params: Optional[Mapping[str, float]] = None
                  ) -> Callable:
    """Resolve an identifier to (X, y) -> the array of D(X[i] : y) over
    the rows of an (m, dim) matrix X, bit-identical to resolve_divergence's
    callable.

    Ids with a block kernel validate once per call and skip the per-pair
    callable; the others loop the callable resolve_divergence returns.
    """
    spec, _ = _spec(div_id)
    if spec.block is None:
        D = resolve_divergence(div_id, generator, params)
        return lambda X, y: np.array([float(D(x, y)) for x in X])
    if generator is None:
        raise ParameterError(f"divergence {div_id!r} requires a generator")
    arg = spec.build(_reader(div_id, params))
    return lambda X, y: spec.block(generator, X, y, arg)


def _reader(div_id: str, params: Optional[Mapping[str, float]]
            ) -> Callable[[str], float]:
    """param(name): the float value of params[name], which div_id
    requires."""
    params = dict(params or {})

    def param(key: str) -> float:
        value = params.get(key)
        if value is None:
            raise ParameterError(
                f"divergence {div_id!r} requires parameter {key!r}"
            )
        return float(value)
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
    anchors = tuple(sorted(float(v) for v in values))
    if not anchors:
        raise ParameterError(f"{label} must be non-empty")
    for v in anchors:
        unit_anchor(v, label)
    return anchors


def sweep(F, theta1, theta2, alphas: Sequence[float],
          betas: Sequence[float], div_id: str,
          params: Optional[Mapping[str, float]] = None) -> list:
    """Evaluate a divergence over an anchor grid, row-major by alpha then beta.

    alphas and betas are non-empty anchor values in (0, 1], visited in
    sorted order. Cells with alpha == beta are skipped: they are not valid
    chord anchors. Each cell's alpha and beta override any entries of the
    same name in params. A CHORD id evaluates its segment (the gamma and
    delta interpolants for biskew:) as a one-row line_table at the sorted
    anchors {0} U alphas U betas, the table bregman_chord_block builds,
    and forms each cell from it with chord_gap, as bregman_chord does; an
    IGNORED id is evaluated once; a REJECTED id raises ParameterError
    before any evaluation. Returns a list of (alpha, beta, value) tuples.
    """
    alphas = _anchors("alphas", alphas)
    betas = _anchors("betas", betas)
    spec, rest = _spec(div_id)
    use = (_spec(rest)[0] if spec.kernel is biskew else spec).anchors
    if use == REJECTED:
        raise ParameterError(
            f"sweep cannot take divergence {div_id!r}: it reads alpha "
            f"alone or needs alpha <= beta, which an (alpha, beta) grid "
            f"does not fit; sweep accepts "
            f"{', '.join(sweep_divergences())}, where biskew: must wrap "
            f"one of the others"
        )
    cells = [(a, b) for a in alphas for b in betas if a != b]
    if not cells:
        return []
    base = dict(params or {})
    # one resolution makes every parameter and identifier check
    D = resolve_divergence(div_id, F, {**base, "alpha": cells[0][0],
                                       "beta": cells[0][1]})
    if use == IGNORED:
        values = [float(D(theta1, theta2))] * len(cells)
    else:
        segment = (theta1, theta2)
        if spec.kernel is biskew:
            segment = skew_segment(theta1, theta2, SkewPair(
                float(base["gamma"]), float(base["delta"])))
        lams = sorted({0.0, *alphas, *betas})
        row = [0.0] * len(lams) if segment is None else line_table(
            F, np.atleast_2d(segment[0]), segment[1], lams)[0].tolist()
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
