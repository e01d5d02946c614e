"""Divergence engineering around the chord Bregman construction.

Builds Bregman, Jensen, and f-divergence families from strictly convex
generators, including the gradient-free chord and tangent Bregman
divergences, biskewed variants, right-sided k-means under any of these
divergences, and an (alpha, beta) sweep engine.
"""

from .bregman import (
    ChordParams,
    SkewPair,
    biskew,
    bregman,
    bregman_chord,
    bregman_chord_approx,
    bregman_dual,
    bregman_tangent,
)
from .clustering import (
    ClusterConfig,
    ClusterResult,
    adjusted_rand_index,
    kmeans,
)
from .errors import (
    BracketError,
    ChorddivError,
    DegenerateRestrictionError,
    DomainError,
    GradientRequiredError,
    InfeasibleError,
    ParameterError,
    ParseError,
    ShapeError,
    UnknownDivergenceError,
    UnsupportedGeneratorError,
)
from .fdiv import (
    F_GENERATOR_NAMES,
    FGenerator,
    dual_generator,
    extended_kl,
    f_div,
    j_symmetrize,
    js_symmetrize_div,
    kl,
    make_f_generator,
)
from .generators import (
    BUILTIN_GENERATORS,
    Domain,
    Generator,
    make_builtin,
)
from .jensen import (
    JensenChordParams,
    jensen,
    jensen_chord,
    jensen_skewed,
)
from .numerics import Minimum, coordinate_minimize
from .registry import known_divergences, resolve_divergence, sweep
from .verify import SUITES, SuiteResult, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "ChordParams",
    "SkewPair",
    "biskew",
    "bregman",
    "bregman_chord",
    "bregman_chord_approx",
    "bregman_dual",
    "bregman_tangent",
    "ClusterConfig",
    "ClusterResult",
    "adjusted_rand_index",
    "kmeans",
    "BracketError",
    "ChorddivError",
    "DegenerateRestrictionError",
    "DomainError",
    "GradientRequiredError",
    "InfeasibleError",
    "ParameterError",
    "ParseError",
    "ShapeError",
    "UnknownDivergenceError",
    "UnsupportedGeneratorError",
    "F_GENERATOR_NAMES",
    "FGenerator",
    "dual_generator",
    "extended_kl",
    "f_div",
    "j_symmetrize",
    "js_symmetrize_div",
    "kl",
    "make_f_generator",
    "BUILTIN_GENERATORS",
    "Domain",
    "Generator",
    "make_builtin",
    "JensenChordParams",
    "jensen",
    "jensen_chord",
    "jensen_skewed",
    "Minimum",
    "coordinate_minimize",
    "known_divergences",
    "resolve_divergence",
    "sweep",
    "SUITES",
    "SuiteResult",
    "run_all",
    "run_suite",
    "__version__",
]
