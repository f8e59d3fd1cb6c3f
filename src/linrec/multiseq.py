"""Multi-indexed sequences driven by one linear recurrence per axis.

A :class:`MultiSpec` fixes the ring and, for each of ``p`` axes, an
order-``d_i`` recurrence.  A :class:`MultiSequence` couples a spec with an
initial :class:`Block`: a ``d_1 x ... x d_p`` hypercube of module values
whose entries are stored flat with the first axis varying fastest
(``flat = j_1 + d_1*(j_2 + d_2*(...))``).

Any term is reached by repeatedly rewriting one coordinate with its axis
rule.  The value never depends on which axis is rewritten first; ``term``
takes an optional axis priority purely so that tests can exercise this
independence.  ``term_fast`` instead contracts the initial block against
per-axis canonical-solution rows (:meth:`Recurrence.basis_row`, the
coefficients of ``x^n`` modulo the axis rule), which is logarithmic in each
index.

The constructions at the bottom (tensor product, direct sums, the
symmetric and antisymmetric halves, diagonal identities) combine or probe
sequences without ever leaving exact arithmetic.
"""

from __future__ import annotations

from itertools import product as _iter_product

from .errors import HypothesisError, RingMismatchError
from .recurrence import Recurrence, Sequence
from .rings import ModuleElement, ProductRing, Ring, RingElement, as_module_element

# per-instance term memo is cleared once it holds this many entries
_MEMO_LIMIT = 500_000


class MultiSpec:
    """Ring plus one recurrence per axis.

    A :class:`Recurrence` object given for several axes is copied, so that
    each axis keeps its own last basis row."""

    def __init__(self, ring: Ring, axis_coeffs):
        axes = []
        for c in axis_coeffs:
            if not isinstance(c, Recurrence):
                c = Recurrence(ring, c)
            elif any(c is ax for ax in axes):
                # one object on two axes would re-power both rows on every
                # lookup of a scan
                c = Recurrence(c.ring, c.coeffs)
            axes.append(c)
        axes = tuple(axes)
        if not axes:
            raise ValueError("a spec needs at least one axis")
        for ax in axes:
            if ax.ring != ring:
                raise RingMismatchError("every axis must use the spec's ring")
        self.ring = ring
        self.axes = axes

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.order for ax in self.axes)

    def __eq__(self, other):
        if not isinstance(other, MultiSpec):
            return NotImplemented
        return self.ring == other.ring and self.axes == other.axes

    def __hash__(self):
        return hash((self.ring, self.axes))

    def __repr__(self):
        rules = "; ".join(
            ", ".join(str(c) for c in ax.coeffs) for ax in self.axes
        )
        return f"MultiSpec({self.ring.describe()}, [{rules}])"


class Block:
    """A hypercube of module values, stored flat, first axis fastest."""

    def __init__(self, ring: Ring, shape, entries):
        shape = tuple(int(d) for d in shape)
        if not shape or any(d < 1 for d in shape):
            raise ValueError(f"bad shape {shape}")
        entries = list(entries)
        size = 1
        for d in shape:
            size *= d
        if len(entries) != size:
            raise ValueError(
                f"shape {shape} needs {size} entries, got {len(entries)}"
            )
        first = as_module_element(ring, entries[0])
        self.ring = ring
        self.shape = shape
        self.entries = (first,) + tuple(
            as_module_element(ring, e, first.rank) for e in entries[1:]
        )

    @classmethod
    def from_function(cls, ring: Ring, shape, fn) -> Block:
        """Build a block by evaluating ``fn(index_tuple)`` over the box."""
        return cls(ring, shape, [fn(idx) for idx in box_indices(shape)])

    @property
    def rank(self) -> int:
        return self.entries[0].rank

    def flat_index(self, index) -> int:
        index = tuple(index)
        if len(index) != len(self.shape):
            raise IndexError(f"index {index} does not match shape {self.shape}")
        pos = 0
        stride = 1
        for j, d in zip(index, self.shape):
            if not 0 <= j < d:
                raise IndexError(f"index {index} outside shape {self.shape}")
            pos += j * stride
            stride *= d
        return pos

    def at(self, index) -> ModuleElement:
        return self.entries[self.flat_index(index)]

    def permute_axes(self, order) -> Block:
        """Reorder axes; ``order`` lists source axes (0-based) per target slot."""
        order = tuple(order)
        if sorted(order) != list(range(len(self.shape))):
            raise ValueError(f"bad axis order {order}")
        new_shape = tuple(self.shape[a] for a in order)
        entries = []
        for idx in box_indices(new_shape):
            src = [0] * len(order)
            for slot, axis in enumerate(order):
                src[axis] = idx[slot]
            entries.append(self.at(src))
        return Block(self.ring, new_shape, entries)

    def __eq__(self, other):
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __repr__(self):
        vals = ", ".join(str(e) for e in self.entries)
        return f"Block({self.ring.describe()}, {self.shape}, [{vals}])"


def box_indices(shape):
    """All index tuples of the box, first axis varying fastest."""
    for rev in _iter_product(*(range(d) for d in reversed(shape))):
        yield tuple(reversed(rev))


class MultiSequence:
    """A multi-indexed sequence determined by a spec and an initial block."""

    def __init__(self, spec: MultiSpec, block: Block):
        if block.ring != spec.ring:
            raise RingMismatchError("block ring differs from spec ring")
        if block.shape != spec.shape:
            raise ValueError(
                f"block shape {block.shape} does not match spec shape {spec.shape}"
            )
        self.spec = spec
        self.block = block
        self._memo: dict[tuple[int, ...], ModuleElement] = {}

    @property
    def ring(self) -> Ring:
        return self.spec.ring

    @property
    def ndim(self) -> int:
        return self.spec.ndim

    @property
    def rank(self) -> int:
        return self.block.rank

    def _default_priority(self) -> tuple[int, ...]:
        return tuple(range(self.ndim, 0, -1))

    def _choose_axis(self, index, priority) -> int | None:
        for axis in priority:
            i = axis - 1
            if not 0 <= index[i] < self.spec.shape[i]:
                return i
        return None

    def _reduction(self, index, i):
        """Dependencies and combiner for rewriting coordinate ``i``."""
        rec = self.spec.axes[i]
        d = rec.order
        n = index[i]
        if n >= d:
            deps = [
                index[:i] + (n - j,) + index[i + 1 :] for j in range(1, d + 1)
            ]

            def combine(vals):
                total = vals[0].scale(rec.coeffs[0])
                for a, v in zip(rec.coeffs[1:], vals[1:]):
                    total = total + v.scale(a)
                return total

            return deps, combine
        # n < 0: step backward, needs a unit trailing coefficient
        inv = rec._trailing_inverse()
        deps = [index[:i] + (n + j,) + index[i + 1 :] for j in range(1, d + 1)]

        def combine(vals):
            total = vals[d - 1]
            for j in range(1, d):
                total = total - vals[d - 1 - j].scale(rec.coeffs[j - 1])
            return total.scale(inv)

        return deps, combine

    def term(self, index, priority=None) -> ModuleElement:
        """Value at a ``p``-tuple of indices by memoized axis rewriting.

        ``priority`` lists axes (1-based) in the order they are tried when
        several coordinates are outside the initial box; any order gives
        the same value.
        """
        index = tuple(int(n) for n in index)
        if len(index) != self.ndim:
            raise IndexError(f"expected {self.ndim} indices, got {len(index)}")
        if priority is None:
            priority = self._default_priority()
        else:
            priority = tuple(priority)
            if sorted(priority) != list(range(1, self.ndim + 1)):
                raise ValueError(f"bad axis priority {priority}")
        memo = self._memo
        if len(memo) > _MEMO_LIMIT:
            memo.clear()
        stack = [index]
        while stack:
            idx = stack[-1]
            if idx in memo:
                stack.pop()
                continue
            axis = self._choose_axis(idx, priority)
            if axis is None:
                memo[idx] = self.block.at(idx)
                stack.pop()
                continue
            deps, combine = self._reduction(idx, axis)
            missing = [dep for dep in deps if dep not in memo]
            if missing:
                stack.extend(missing)
            else:
                memo[idx] = combine([memo[dep] for dep in deps])
                stack.pop()
        return memo[index]

    def term_fast(self, index) -> ModuleElement:
        """Value at ``index`` by contracting the block against per-axis
        canonical-solution rows (logarithmic in each index)."""
        index = tuple(int(n) for n in index)
        if len(index) != self.ndim:
            raise IndexError(f"expected {self.ndim} indices, got {len(index)}")
        rows = [ax.basis_row(n) for ax, n in zip(self.spec.axes, index)]
        total = None
        for j in box_indices(self.spec.shape):
            weight = rows[0][j[0]]
            for i in range(1, self.ndim):
                weight = weight * rows[i][j[i]]
            part = self.block.at(j).scale(weight)
            total = part if total is None else total + part
        return total

    def window(self, origin, shape=None) -> Block:
        """The box of values with the given origin (defaults to spec shape)."""
        origin = tuple(int(n) for n in origin)
        if len(origin) != self.ndim:
            raise IndexError(f"expected {self.ndim} indices, got {len(origin)}")
        if shape is None:
            shape = self.spec.shape
        return Block(
            self.ring,
            shape,
            [
                self.term(tuple(o + j for o, j in zip(origin, idx)))
                for idx in box_indices(shape)
            ],
        )

    def shift(self, offsets) -> MultiSequence:
        """The sequence re-based at ``offsets`` (same spec)."""
        return MultiSequence(self.spec, self.window(offsets))

    def shift_axis(self, axis: int, offset: int) -> MultiSequence:
        """Shift one axis (1-based) by ``offset``."""
        if not 1 <= axis <= self.ndim:
            raise IndexError(f"axis {axis} out of range for {self.ndim} axes")
        offsets = [0] * self.ndim
        offsets[axis - 1] = offset
        return self.shift(offsets)

    def decompose(self) -> Block:
        """Coordinates with respect to products of per-axis canonical
        solutions; equals the initial block."""
        return self.block

    def __eq__(self, other):
        if not isinstance(other, MultiSequence):
            return NotImplemented
        return self.spec == other.spec and self.block == other.block

    def __repr__(self):
        return f"MultiSequence({self.spec!r}, {self.block!r})"


def from_sequence(seq: Sequence) -> MultiSequence:
    """View a one-dimensional sequence as a one-axis multi-sequence."""
    spec = MultiSpec(seq.ring, [seq.recurrence])
    block = Block(seq.ring, (seq.recurrence.order,), list(seq.initial))
    return MultiSequence(spec, block)


def reconstruct(spec: MultiSpec, block: Block) -> MultiSequence:
    """Rebuild a sequence from its :meth:`MultiSequence.decompose` output."""
    return MultiSequence(spec, block)


def check_membership(spec: MultiSpec, block: Block) -> bool:
    """Whether a box of values is consistent with every axis rule.

    The box must extend at least one step past each axis order, so that
    every rule is actually exercised; smaller boxes are an error."""
    if block.ring != spec.ring:
        raise RingMismatchError("block ring differs from spec ring")
    if len(block.shape) != spec.ndim:
        raise ValueError("block dimension differs from spec dimension")
    for i, rec in enumerate(spec.axes):
        if block.shape[i] < rec.order + 1:
            raise ValueError(
                f"axis {i + 1} needs at least {rec.order + 1} values to "
                f"check, got {block.shape[i]}"
            )
    for i, rec in enumerate(spec.axes):
        d = rec.order
        for idx in box_indices(block.shape):
            if idx[i] < d:
                continue
            total = None
            for j, a in enumerate(rec.coeffs, start=1):
                dep = idx[:i] + (idx[i] - j,) + idx[i + 1 :]
                part = block.at(dep).scale(a)
                total = part if total is None else total + part
            if total != block.at(idx):
                return False
    return True


def _as_multi(x) -> MultiSequence:
    if isinstance(x, Sequence):
        return from_sequence(x)
    if isinstance(x, MultiSequence):
        return x
    raise RingMismatchError(f"expected a sequence, got {x!r}")


def _require_same_ring(x: MultiSequence, y: MultiSequence):
    if x.ring != y.ring:
        raise RingMismatchError("operands use different rings")


def tensor_product(*factors) -> MultiSequence:
    """Outer product of sequences (one-axis or multi-axis): axes
    concatenate in order, block entries are coordinate Kronecker products,
    ranks multiply."""
    if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
        factors = tuple(factors[0])
    if not factors:
        raise ValueError("tensor product needs at least one factor")
    seqs = [_as_multi(f) for f in factors]
    for s in seqs[1:]:
        _require_same_ring(seqs[0], s)
    result = seqs[0]
    for other in seqs[1:]:
        spec = MultiSpec(result.ring, result.spec.axes + other.spec.axes)
        p = result.ndim
        entries = [
            result.block.at(idx[:p]).kron(other.block.at(idx[p:]))
            for idx in box_indices(spec.shape)
        ]
        result = MultiSequence(spec, Block(result.ring, spec.shape, entries))
    return result


def decompose_tensor(seq) -> Block:
    """Coordinates of a sequence over products of per-axis canonical
    solutions: its window at the origin, which is the initial block."""
    return _as_multi(seq).decompose()


def direct_sum(x, y) -> MultiSequence:
    """Componentwise juxtaposition of two sequences with the same spec;
    ranks add and each term projects back onto the summands."""
    x, y = _as_multi(x), _as_multi(y)
    _require_same_ring(x, y)
    if x.spec != y.spec:
        raise RingMismatchError("direct sum needs a common spec")
    entries = [a.concat(b) for a, b in zip(x.block.entries, y.block.entries)]
    return MultiSequence(x.spec, Block(x.ring, x.spec.shape, entries))


def direct_sum_mixed(x: Sequence, y: Sequence) -> Sequence:
    """Juxtapose two one-axis sequences with different rules by moving to
    the product ring: coefficients pair up, as do the coordinates of each
    initial value.  Orders and ranks must agree."""
    if not isinstance(x, Sequence) or not isinstance(y, Sequence):
        raise RingMismatchError("mixed direct sum takes two one-axis sequences")
    if x.recurrence.order != y.recurrence.order:
        raise RingMismatchError("mixed direct sum needs equal orders")
    if x.rank != y.rank:
        raise RingMismatchError("mixed direct sum needs equal ranks")
    ring = ProductRing(x.ring, y.ring)
    coeffs = [
        (a.value, b.value)
        for a, b in zip(x.recurrence.coeffs, y.recurrence.coeffs)
    ]
    initial = []
    for a, b in zip(x.initial, y.initial):
        coords = [
            ring((ca.value, cb.value)) for ca, cb in zip(a.coords, b.coords)
        ]
        initial.append(ModuleElement(ring, coords))
    return Sequence(Recurrence(ring, coeffs), initial)


def _halved_product(x, y, sign: int) -> MultiSequence:
    x, y = _as_multi(x), _as_multi(y)
    if x.ndim != 1 or y.ndim != 1:
        raise HypothesisError("symmetrization takes two one-axis sequences")
    _require_same_ring(x, y)
    if x.spec.axes[0] != y.spec.axes[0]:
        raise HypothesisError("symmetrization needs a common recurrence")
    two = x.ring.one + x.ring.one
    half = two.try_invert()
    if half is None:
        raise HypothesisError(f"2 is not a unit in {x.ring.describe()}")
    rec = x.spec.axes[0]
    spec = MultiSpec(x.ring, [rec, rec])
    d = rec.order
    entries = []
    for idx in box_indices((d, d)):
        j1, j2 = idx
        straight = x.block.at((j1,)).kron(y.block.at((j2,)))
        crossed = x.block.at((j2,)).kron(y.block.at((j1,)))
        mixed = straight + crossed if sign > 0 else straight - crossed
        entries.append(mixed.scale(half))
    return MultiSequence(spec, Block(x.ring, (d, d), entries))


def symmetrize(x, y) -> MultiSequence:
    """The symmetric half of the tensor square of two one-axis sequences
    sharing a recurrence; needs 2 to be a unit."""
    return _halved_product(x, y, +1)


def antisymmetrize(x, y) -> MultiSequence:
    """The alternating half of the tensor square; needs 2 to be a unit."""
    return _halved_product(x, y, -1)


def _swap_symmetry(seq: MultiSequence, sign: int, bound: int) -> bool:
    if seq.ndim != 2:
        raise HypothesisError("swap symmetry is defined for two axes")
    for n in range(bound + 1):
        for k in range(n, bound + 1):
            left = seq.term((n, k))
            right = seq.term((k, n))
            if sign < 0:
                right = -right
            if left != right:
                return False
    return True


def is_symmetric(seq: MultiSequence, bound: int = 8) -> bool:
    """Whether values are unchanged under swapping the two indices, checked
    exactly for all index pairs up to ``bound``."""
    return _swap_symmetry(seq, +1, bound)


def is_antisymmetric(seq: MultiSequence, bound: int = 8) -> bool:
    """Whether values flip sign under swapping the two indices, checked
    exactly for all index pairs up to ``bound``."""
    return _swap_symmetry(seq, -1, bound)


def _order_two_axes(seq: MultiSequence):
    if seq.ndim != 2 or seq.spec.shape != (2, 2):
        raise HypothesisError(
            "diagonal identities apply to two axes of order 2"
        )
    (a, b) = seq.spec.axes[0].coeffs
    (c, d) = seq.spec.axes[1].coeffs
    return a, b, c, d


def diagonal_check(seq: MultiSequence, n: int, k: int) -> bool:
    """Verify the cross-diagonal relation
    ``ab*x[n,k+3] + (a^2+b)c*x[n+1,k+2] = a(c^2+d)*x[n+2,k+1] + cd*x[n+3,k]``
    at one position.  Applies when the axis rules ``(a, b)`` and ``(c, d)``
    satisfy ``a^2*d = b*c^2``; otherwise raises
    :class:`~linrec.errors.HypothesisError`."""
    a, b, c, d = _order_two_axes(seq)
    if a * a * d != b * c * c:
        raise HypothesisError(
            "coefficient relation a^2*d = b*c^2 does not hold"
        )
    lhs = seq.term((n, k + 3)).scale(a * b) + seq.term((n + 1, k + 2)).scale(
        (a * a + b) * c
    )
    rhs = seq.term((n + 2, k + 1)).scale(a * (c * c + d)) + seq.term(
        (n + 3, k)
    ).scale(c * d)
    return lhs == rhs


def diagonal_identity_fib(seq: MultiSequence, n: int, k: int) -> bool:
    """Verify ``x[n,k+3] - x[n+3,k] = 2*(x[n+2,k+1] - x[n+1,k+2])`` at one
    position; applies when both axis rules are ``(1, 1)``."""
    a, b, c, d = _order_two_axes(seq)
    one = seq.ring.one
    if not (a == one and b == one and c == one and d == one):
        raise HypothesisError("identity applies when both axis rules are (1, 1)")
    lhs = seq.term((n, k + 3)) - seq.term((n + 3, k))
    diff = seq.term((n + 2, k + 1)) - seq.term((n + 1, k + 2))
    return lhs == diff + diff
