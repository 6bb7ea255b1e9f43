"""Scheme builders that only the tests use, kept out of convertbw."""

from convertbw.convertible import ConversionScheme
from convertbw.linalg import Matrix, rref


def empty_scheme(params):
    """The scheme that downloads nothing from any node."""
    empty = Matrix.zeros(params.field(), 0, params.alpha)
    return ConversionScheme(params, (empty,) * params.ni)


def from_maps(params, maps):
    """The scheme of arbitrary (possibly rank-deficient) maps, each
    replaced by the canonical basis of its row space."""
    return ConversionScheme(params, tuple(rref(m) for m in maps))
