"""Resolution of divergence identifiers to callables.

Shared by the CLI, the sweep engine, and clustering. An identifier is either
a bare name (bregman, jensen, kl, ...), an f-divergence form fdiv:<f>,
fdiv_dual:<f>, fdiv_jsym:<f>, fdiv_jssym:<f>, or a biskewed wrapper
biskew:<inner>. Scalar parameters (alpha, beta, gamma, delta, epsilon) are
taken from a params mapping; extra entries are ignored, missing required
ones raise ParameterError.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from .bregman import (
    ChordParams,
    SkewPair,
    approx_anchors,
    biskew,
    bregman,
    bregman_chord,
    bregman_dual,
    bregman_tangent,
    tangent_anchor,
)
from .errors import (
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
from .generators import Generator
from .jensen import (
    JensenChordParams,
    jensen,
    jensen_bregman,
    jensen_chord,
    jensen_skewed,
    skew_weight,
)


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
    """

    kernel: Callable
    build: Optional[Callable] = None
    needs_generator: bool = True


#: The only list of identifiers; its order is the order of the help text.
DIVERGENCES = {
    "bregman": DivSpec(bregman),
    "bregman_dual": DivSpec(bregman_dual),
    "bregman_chord": DivSpec(
        bregman_chord, lambda param: ChordParams(param("alpha"),
                                                 param("beta"))),
    "bregman_tangent": DivSpec(
        bregman_tangent, lambda param: tangent_anchor(param("alpha"))),
    "bregman_chord_approx": DivSpec(
        bregman_chord, lambda param: approx_anchors(param("epsilon"))),
    "jensen": DivSpec(jensen),
    "jensen_skewed": DivSpec(
        jensen_skewed, lambda param: skew_weight(param("alpha"))),
    "jensen_chord": DivSpec(
        jensen_chord, lambda param: JensenChordParams(
            param("alpha"), param("beta"), param("gamma"))),
    "jensen_bregman": DivSpec(
        jensen_bregman, lambda param: skew_weight(param("alpha"))),
    "kl": DivSpec(kl, needs_generator=False),
    "ekl": DivSpec(extended_kl, needs_generator=False),
    "fdiv:": DivSpec(f_div, make_f_generator, False),
    "fdiv_dual:": DivSpec(
        f_div, lambda name: dual_generator(make_f_generator(name)), False),
    "fdiv_jsym:": DivSpec(
        f_div, lambda name: j_symmetrize(make_f_generator(name)), False),
    "fdiv_jssym:": DivSpec(js_symmetrize_div, make_f_generator, False),
    # needs_generator of a biskew id is its inner id's, see needs_generator
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


def resolve_divergence(div_id: str, generator: Optional[Generator] = None,
                       params: Optional[Mapping[str, float]] = None
                       ) -> Callable:
    """Resolve an identifier to a two-argument divergence callable.

    Generator-based identifiers close over `generator`; the f-divergence
    family treats the two arguments as positive weight vectors and ignores
    the generator. Parameters are validated eagerly, so invalid anchors or
    skews fail here rather than at the first evaluation.
    """
    params = dict(params or {})

    def param(key: str) -> float:
        value = params.get(key)
        if value is None:
            raise ParameterError(
                f"divergence {div_id!r} requires parameter {key!r}"
            )
        return float(value)

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


def known_divergences() -> tuple:
    """Identifier families for help text."""
    return tuple(key + "<name>" if key.endswith(":") else key
                 for key in DIVERGENCES)
