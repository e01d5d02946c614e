"""The package's public names, pinned: a name joins or leaves
chorddiv.__all__ only by an edit of PUBLIC."""

import importlib

import chorddiv
from chorddiv import generators

PUBLIC = [
    "BUILTIN_GENERATORS",
    "BracketError",
    "ChordParams",
    "ChorddivError",
    "ClusterConfig",
    "ClusterResult",
    "DegenerateRestrictionError",
    "Domain",
    "DomainError",
    "FGenerator",
    "F_GENERATOR_NAMES",
    "Generator",
    "GradientRequiredError",
    "InfeasibleError",
    "JensenChordParams",
    "Minimum",
    "ParameterError",
    "ParseError",
    "SUITES",
    "ShapeError",
    "SkewPair",
    "SuiteResult",
    "UnknownDivergenceError",
    "UnsupportedGeneratorError",
    "__version__",
    "adjusted_rand_index",
    "biskew",
    "bregman",
    "bregman_chord",
    "bregman_chord_approx",
    "bregman_dual",
    "bregman_tangent",
    "coordinate_minimize",
    "dual_generator",
    "extended_kl",
    "f_div",
    "j_symmetrize",
    "jensen",
    "jensen_chord",
    "jensen_skewed",
    "js_symmetrize_div",
    "kl",
    "kmeans",
    "known_divergences",
    "make_builtin",
    "make_f_generator",
    "resolve_divergence",
    "run_all",
    "run_suite",
    "sweep",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(chorddiv.__all__) == PUBLIC
    assert len(chorddiv.__all__) == len(set(chorddiv.__all__))


def test_every_public_name_is_bound():
    assert [name for name in PUBLIC if not hasattr(chorddiv, name)] == []


def test_line_restriction_stays_bound_in_its_modules():
    # not public, but importable from generators, and bound in bregman,
    # where the scalar chord calls it (chorddiv.bregman is the function)
    bregman = importlib.import_module("chorddiv.bregman")
    assert bregman.restrict_to_line is generators.restrict_to_line
    assert generators.DEGENERATE_EPS == 1e-14
