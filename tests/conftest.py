"""Shared strategies and fixtures for the test suite."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod

import pytest
from hypothesis import strategies as st

from linrec.multiseq import Block, MultiSequence
from linrec.rings import (
    QQ,
    ZZ,
    IntegerModRing,
    PolynomialRing,
    ProductRing,
    Ring,
)


def elements(ring: Ring, size: int = 30):
    """A hypothesis strategy drawing elements of the given ring."""
    if ring == ZZ:
        return st.integers(-size, size).map(ring)
    if ring == QQ:
        return st.fractions(
            min_value=-size, max_value=size, max_denominator=12
        ).map(ring)
    if isinstance(ring, IntegerModRing):
        return st.integers(0, ring.modulus - 1).map(ring)
    if isinstance(ring, ProductRing):
        return st.tuples(
            elements(ring.left, size), elements(ring.right, size)
        ).map(lambda pair: ring((pair[0].value, pair[1].value)))
    if isinstance(ring, PolynomialRing):
        exps = st.tuples(*([st.integers(0, 3)] * ring.nvars))
        coeff = elements(ring.base, size).map(lambda e: e.value)
        return st.dictionaries(exps, coeff, max_size=4).map(ring)
    raise TypeError(f"no strategy for {ring!r}")


AXIOM_RINGS = [
    ZZ,
    QQ,
    IntegerModRing(7),
    IntegerModRing(12),
    ProductRing(ZZ, IntegerModRing(5)),
    PolynomialRing(ZZ, ("t",)),
    PolynomialRing(QQ, ("t", "s")),
]


@pytest.fixture(params=AXIOM_RINGS, ids=lambda r: r.describe())
def any_ring(request):
    return request.param


def residues(ring: Ring) -> list:
    """Every payload of a finite ring: Z/m or a product of such rings."""
    if isinstance(ring, ProductRing):
        return [(a, b) for a in residues(ring.left) for b in residues(ring.right)]
    return list(range(ring.modulus))


def value_matrix(spec, positions) -> list:
    """Payload matrix of the map from a scalar initial block to the values
    at ``positions``: column ``j`` holds the sequence seeded by the ``j``-th
    unit block, read by the rewriting memo rather than basis rows."""
    ring, shape = spec.ring, spec.shape
    size = prod(shape)
    columns = [
        MultiSequence(
            spec, Block(ring, shape, [int(i == j) for i in range(size)])
        )
        for j in range(size)
    ]
    return [[seq.term(p).scalar().value for seq in columns] for p in positions]


def injective(ring: Ring, matrix) -> bool:
    """Whether ``v -> M v`` is injective on ``ring^N``, by trying every
    nonzero ``v``; ``ring`` must be finite."""
    add, mul, zero = ring.add, ring.mul, ring.payload_zero()
    for v in product(residues(ring), repeat=len(matrix[0])):
        if any(x != zero for x in v) and all(
            reduce(add, map(mul, row, v), zero) == zero for row in matrix
        ):
            return False
    return True
