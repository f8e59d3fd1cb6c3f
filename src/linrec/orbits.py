"""Census of the sixteen binary 2x2 starting blocks under both-axis
Fibonacci rules, plus determination tests for position sets.

Each block ``(x00, x10, x01, x11)`` starts a double sequence in which both
indices advance by ``x[n+2] = x[n+1] + x[n]``.  Shifting such a sequence
along either axis yields another one, and the 2x2 windows near the origin
of a shifted binary-block sequence are sometimes again binary blocks.  The
census groups the sixteen blocks into orbits under this reachability and
singles out primitives: blocks not obtainable by shifting any other
block's sequence.

``positions_determine`` answers a different question, for any two-axis
spec over any ring: whether prescribing values at ``d_1 * d_2`` given index
pairs pins down the double sequence uniquely, decided by whether the
determinant of the matrix of reduced monomials is a zero divisor.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import AmbiguousOrbitError, HypothesisError
from .multiseq import Block, MultiSequence, MultiSpec, charpoly, reduce_relation
from .rings import ZZ

#: Default largest per-axis shift examined when classifying orbits.
DEFAULT_SEARCH_BOUND = 4


def enumerate_blocks() -> list[tuple[int, int, int, int]]:
    """All sixteen binary blocks ``(x00, x10, x01, x11)`` in binary counting
    order with ``x00`` the least significant bit."""
    return [
        ((idx >> 0) & 1, (idx >> 1) & 1, (idx >> 2) & 1, (idx >> 3) & 1)
        for idx in range(16)
    ]


def block_index(block) -> int:
    """Position of a binary block in the enumeration order."""
    x00, x10, x01, x11 = block
    return x00 + 2 * x10 + 4 * x01 + 8 * x11


def block_sequence(block) -> MultiSequence:
    """The integer double sequence seeded by a binary block, both axes
    advancing by the Fibonacci rule."""
    spec = MultiSpec(ZZ, [(1, 1), (1, 1)])
    return MultiSequence(spec, Block(ZZ, (2, 2), list(block)))


def format_block(block) -> str:
    """Two-line rendering with the second row (k=1) printed on top."""
    x00, x10, x01, x11 = block
    return f"{x01} {x11}\n{x00} {x10}"


def format_shift(shift) -> str:
    """Name a shift as a product of per-axis shift operators, ``id`` for
    no shift; the first axis is ``H``, the second ``V``."""
    i, j = shift
    if i == 0 and j == 0:
        return "id"
    parts = []
    if i:
        parts.append("H" if i == 1 else f"H^{i}")
    if j:
        parts.append("V" if j == 1 else f"V^{j}")
    return "".join(parts)


class Orbit(namedtuple("Orbit", "primitive members")):
    """A primitive block together with every block reachable from it.

    ``primitive`` is a block ``(x00, x10, x01, x11)``; ``members`` holds a
    ``(block, shift)`` pair for each reachable block (the primitive
    included, at shift ``(0, 0)``) with the smallest shift producing it,
    ordered by that shift."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)

    def blocks(self) -> frozenset:
        return frozenset(m[0] for m in self.members)


def _window_values(seq: MultiSequence, shift) -> tuple[int, int, int, int]:
    i, j = shift
    return (
        seq.term((i, j)).scalar().value,
        seq.term((i + 1, j)).scalar().value,
        seq.term((i, j + 1)).scalar().value,
        seq.term((i + 1, j + 1)).scalar().value,
    )


def _partition(bound: int) -> list[Orbit]:
    blocks = enumerate_blocks()
    binary = set(blocks)
    # all windows of each block's sequence that land on a binary block,
    # keyed by the block found, keeping the smallest shift
    found: dict[tuple, dict[tuple, tuple[int, int]]] = {b: {} for b in blocks}
    for b in blocks:
        seq = block_sequence(b)
        for i in range(bound + 1):
            for j in range(bound + 1):
                w = _window_values(seq, (i, j))
                if w in binary:
                    prev = found[b].get(w)
                    if prev is None or (i + j, i, j) < (
                        prev[0] + prev[1],
                        prev[0],
                        prev[1],
                    ):
                        found[b][w] = (i, j)
    primitives = []
    for b in blocks:
        reachable_from_other = any(
            b in found[other]
            for other in blocks
            if other != b
        )
        if not reachable_from_other:
            primitives.append(b)
    orbits = []
    covered: dict[tuple, tuple] = {}
    for p in primitives:
        members = sorted(
            found[p].items(), key=lambda kv: (kv[1][0] + kv[1][1], kv[1])
        )
        for block, _ in members:
            if block in covered:
                raise AmbiguousOrbitError(
                    f"block {block} reachable from two primitives "
                    f"{covered[block]} and {p}"
                )
            covered[block] = p
        orbits.append(Orbit(p, tuple(members)))
    if len(covered) != 16:
        missing = [b for b in blocks if b not in covered]
        raise AmbiguousOrbitError(
            f"blocks {missing} belong to no primitive's orbit"
        )
    orbits.sort(key=lambda o: block_index(o.primitive))
    return orbits


def classify_orbits(search_bound: int = DEFAULT_SEARCH_BOUND) -> list[Orbit]:
    """Partition the sixteen binary blocks into shift orbits.

    Shifts up to ``search_bound`` per axis are examined; the partition is
    recomputed at ``search_bound + 2`` and must agree, otherwise
    :class:`~linrec.errors.AmbiguousOrbitError` is raised."""
    if search_bound < 2:
        raise ValueError("search bound must be at least 2")
    first = _partition(search_bound)
    wider = _partition(search_bound + 2)
    summary = [(o.primitive, o.blocks()) for o in first]
    if summary != [(o.primitive, o.blocks()) for o in wider]:
        raise AmbiguousOrbitError(
            f"orbit partition changed between bounds {search_bound} and "
            f"{search_bound + 2}"
        )
    return first


def generation_certificate():
    """Rows: the flattened 2x2 windows of the (1,0,0,0) block's sequence at
    shifts (0,0), (1,0), (0,1), (1,1); returns ``(matrix, determinant)``.
    A unit determinant certifies that shifted copies of that one block
    combine integrally into every starting block."""
    seq = block_sequence((1, 0, 0, 0))
    shifts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    matrix = [list(_window_values(seq, s)) for s in shifts]
    det = (-1) ** len(matrix) * charpoly(ZZ, matrix)[0]
    return matrix, det


def positions_determine(spec: MultiSpec, positions) -> bool:
    """Whether values at the given index pairs determine a scalar double
    sequence of this spec uniquely.

    Requires two axes and exactly ``d_1 * d_2`` pairwise distinct positions.
    The values are the matrix of reduced monomials times the initial block,
    so they determine it exactly when that matrix is injective: by McCoy's
    theorem, when its determinant is not a zero divisor (N. H. McCoy,
    Amer. Math. Monthly 49(5), 1942).  This holds over every ring."""
    if spec.ndim != 2:
        raise HypothesisError("determination test needs exactly two axes")
    positions = [tuple(int(n) for n in p) for p in positions]
    d1, d2 = spec.shape
    needed = d1 * d2
    if len(positions) != needed:
        raise HypothesisError(
            f"spec of shape {spec.shape} needs {needed} positions, "
            f"got {len(positions)}"
        )
    if len(set(positions)) != len(positions):
        raise HypothesisError("positions must be pairwise distinct")
    # the row of position p reduces X^p modulo the axis rules
    matrix = [
        [w.value for w in reduce_relation(spec, {p: 1})] for p in positions
    ]
    # the determinant is the constant term up to sign
    return not spec.ring.is_zero_divisor([charpoly(spec.ring, matrix)[0]])
