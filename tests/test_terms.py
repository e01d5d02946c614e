"""Coordinate terms of the separable builtins: Generator.terms sums to
Generator.rows bit for bit, and line_table takes its trailing shape from
the row evaluator, so tables of terms are per coordinate while every
other table keeps its (m, len(lams)) shape."""

import dataclasses

import numpy as np
import pytest

from chorddiv import BUILTIN_GENERATORS, make_builtin
from chorddiv.generators import line_table

SEPARABLE = ("shannon_negentropy", "burg_negentropy")


def positive_points(rng, shape):
    return 10.0 ** rng.uniform(-2.0, 2.0, shape)


def test_only_the_separable_builtins_have_terms():
    assert {gen for gen in BUILTIN_GENERATORS
            if make_builtin(gen, 2).terms is not None} == set(SEPARABLE)


@pytest.mark.parametrize("shape", [(400, 1), (60, 3, 2), (1, 80, 10)])
@pytest.mark.parametrize("gen", SEPARABLE)
def test_terms_sum_to_rows(gen, shape):
    F = make_builtin(gen, shape[-1])
    T = positive_points(np.random.default_rng(shape[-1]), shape)
    terms = F.terms(T)
    assert terms.shape == shape and terms.dtype == np.float64
    assert np.sum(terms, axis=-1).tobytes() == F.rows(T).tobytes()


@pytest.mark.parametrize("gen", SEPARABLE)
def test_line_table_of_terms_is_per_coordinate(gen):
    F = make_builtin(gen, 3)
    rng = np.random.default_rng(5)
    X = positive_points(rng, (5, 3))
    c = positive_points(rng, 3)
    X[3] = c  # a row that coincides with c holds zeros
    lams = (0.0, 0.4, 0.9)
    shares = line_table(dataclasses.replace(F, rows=F.terms), X, c, lams)
    table = line_table(F, X, c, lams)
    assert shares.shape == (5, 3, 3) and table.shape == (5, 3)
    assert not shares[3].any()
    assert np.sum(shares, axis=-1).tobytes() == table.tobytes()


@pytest.mark.parametrize("rows", ["builtin", "none"])
@pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
def test_line_table_keeps_its_shape_without_terms(gen, rows):
    F = make_builtin(gen, 2)
    if rows == "none":
        F = dataclasses.replace(F, rows=None)
    rng = np.random.default_rng(8)
    X = positive_points(rng, (4, 2))
    assert line_table(F, X, X[0], (0.0, 0.5, 1.0)).shape == (4, 3)
    assert line_table(F, X[:0], X[0], (0.0, 0.5)).shape == (0, 2)
