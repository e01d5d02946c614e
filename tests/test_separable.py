"""The separable builtins: generators.SEPARABLE names exactly the builtins
whose row evaluator is, bit for bit, the sum over coordinates of the row
evaluator of the same builtin at dim 1; a block keeps its (m,) shape
under every generator, with a row evaluator or without."""

import dataclasses

import numpy as np
import pytest

from chorddiv import BUILTIN_GENERATORS, make_builtin
from chorddiv.generators import SEPARABLE

from test_bregman import paired

SHAPES = [(400, 1), (60, 3, 2), (1, 80, 10), (500, 3)]


def positive_points(rng, shape):
    return 10.0 ** rng.uniform(-2.0, 2.0, shape)


def rows_and_coordinate_sums(gen, shape):
    """F.rows(T) and the sum over T's last axis of the 1-D builtin's
    rows, for positive points T of the given shape."""
    T = positive_points(np.random.default_rng(shape[-1]), shape)
    f = make_builtin(gen, 1)
    return (make_builtin(gen, shape[-1]).rows(T),
            np.add.reduce(f.rows(T[..., None]), axis=-1))


def test_separable_is_exactly_the_builtins_whose_rows_sum_coordinates():
    def sums_coordinates(gen):
        return all(rows.tobytes() == sums.tobytes()
                   for rows, sums in (rows_and_coordinate_sums(gen, shape)
                                      for shape in SHAPES))

    assert {gen for gen in BUILTIN_GENERATORS
            if sums_coordinates(gen)} == set(SEPARABLE)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("gen", SEPARABLE)
def test_rows_are_the_sum_of_the_one_dimensional_rows(gen, shape):
    rows, sums = rows_and_coordinate_sums(gen, shape)
    assert rows.shape == shape[:-1] and rows.dtype == np.float64
    assert rows.tobytes() == sums.tobytes()


@pytest.mark.parametrize("rows", ["builtin", "none"])
@pytest.mark.parametrize("gen", BUILTIN_GENERATORS)
def test_block_shape(gen, rows):
    # jensen evaluates F at 0, 1/2 and 1, bregman_tangent at 0 and 1/2
    F = make_builtin(gen, 2)
    if rows == "none":
        F = dataclasses.replace(F, rows=None)
    rng = np.random.default_rng(8)
    X = positive_points(rng, (4, 2))
    jensen = paired("jensen", F)
    tangent = paired("bregman_tangent", F, {"alpha": 0.5})
    assert jensen(X, X[:1]).shape == (4,)
    assert tangent(X, X[::-1]).shape == (4,)
    assert tangent(X[:0], X[:1]).shape == (0,)
