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

A :class:`Sequence` is the one-axis case, indexed by plain integers: its
``term`` is the contraction, and ``iter_terms`` steps the rule forward.

The solutions of a spec form the module ``R[X_1, ..., X_p]`` modulo the
axis rules ``chi_i(X_i)``.  So :func:`reduce_relation` reduces a linear
relation ``sum_o c_o * x[n + o]`` to weights on the initial block, which
evaluate it for one sequence, or show it holds for every sequence of the
spec.  :func:`charpoly` gives the characteristic polynomial of a matrix
of such weights over any ring, without division.  The constructions at the
bottom (tensor product, direct sums, the symmetric and antisymmetric
halves) and the identity checks (the cross-diagonal relation, exact swap
symmetry) stay in exact arithmetic.
"""

from __future__ import annotations

from itertools import product as _iter_product
from math import prod

from .errors import HypothesisError, RingMismatchError
from .recurrence import Recurrence
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
        if len(entries) != prod(shape):
            raise ValueError(
                f"shape {shape} needs {prod(shape)} entries, got {len(entries)}"
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
        for j, d in zip(index, self.shape):
            if not 0 <= j < d:
                raise IndexError(f"index {index} outside shape {self.shape}")
        return flat_index(self.shape, index)

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


def flat_index(shape, index) -> int:
    """Position of ``index`` in a flat box of ``shape``, first axis fastest;
    the index is not checked against the shape."""
    pos = 0
    stride = 1
    for j, d in zip(index, shape):
        pos += j * stride
        stride *= d
    return pos


def row_products(rows) -> list:
    """The weights ``rows[0][j_1] * ... * rows[p-1][j_p]`` for every ``j`` of
    the box the rows span, first axis fastest."""
    weights = list(rows[0])
    for row in rows[1:]:
        weights = [w * r for r in row for w in weights]
    return weights


def weighted_sum(values, weights) -> ModuleElement:
    """``values[0] * weights[0] + values[1] * weights[1] + ...``: a block
    contracted against :func:`row_products`, or a rule step
    ``a_1*x[n-1] + ... + a_d*x[n-d]`` from ``x[n-1], ..., x[n-d]``."""
    total = None
    for v, w in zip(values, weights):
        part = v.scale(w)
        total = part if total is None else total + part
    return total


def reduce_relation(spec: MultiSpec, relation, at=None) -> list:
    """Weights of ``sum_o c_o * X^(at + o)`` modulo the axis rules
    ``chi_i(X_i)``, for a relation ``{offset o: c_o}``; first axis fastest.

    :func:`weighted_sum` of a block against them is that sequence's value
    ``sum_o c_o * x[at + o]``.  If they all vanish at ``at = 0`` (the
    default), every sequence of the spec satisfies the relation at every
    index.  A negative ``at + o`` needs a unit trailing coefficient."""
    ring = spec.ring
    at = (0,) * spec.ndim if at is None else tuple(at)
    if len(at) != spec.ndim:
        raise IndexError(f"expected {spec.ndim} indices, got {len(at)}")
    weights = [ring.zero] * prod(spec.shape)
    for offset, c in relation.items():
        if len(offset) != spec.ndim:
            raise IndexError(f"offset {offset} does not have {spec.ndim} entries")
        rows = [ax.basis_row(a + o) for ax, a, o in zip(spec.axes, at, offset)]
        rows[0] = [ring(c) * r for r in rows[0]]
        weights = [w + v for w, v in zip(weights, row_products(rows))]
    return weights


def charpoly(ring: Ring, rows) -> list:
    """Payloads of ``det(t*I - M)``, lowest degree first, for the square
    matrix ``M`` of payload ``rows``; ``det M`` is ``(-1)^N`` times the first.

    Berkowitz's division-free recurrence (S. J. Berkowitz, Inform. Process.
    Lett. 18(3), 1984) works over every commutative ring, with about
    ``N^4 / 4`` multiplies for ``N`` rows."""
    add, mul, zero = ring.add, ring.mul, ring.payload_zero()

    def dot(xs, ys):
        total = zero
        for x, y in zip(xs, ys):
            total = add(total, mul(x, y))
        return total

    poly = [ring.payload_one()]
    for k, row in enumerate(rows):
        # the leading block M_k+1 = [[M_k, col], [low, a]] has the polynomial
        # (t - a)*p(t) - sum_m t^m sum_j p[m+1+j] * low M_k^j col, where p
        # is M_k's; dot stops at the shorter vector, so rows act as M_k's
        v, s = [r[k] for r in rows[:k]], []
        for _ in range(k):
            s.append(dot(row, v))
            v = [dot(r, v) for r in rows[:k]]
        new = [zero] + poly
        for m in range(k + 1):
            tail = add(mul(row[k], poly[m]), dot(poly[m + 1 :], s))
            new[m] = ring.sub(new[m], tail)
        poly = new
    return poly


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

    def _index(self, index) -> tuple[int, ...]:
        index = tuple(int(n) for n in index)
        if len(index) != self.ndim:
            raise IndexError(f"expected {self.ndim} indices, got {len(index)}")
        return index

    def _choose_axis(self, index, priority) -> int | None:
        for axis in priority:
            i = axis - 1
            if not 0 <= index[i] < self.spec.shape[i]:
                return i
        return None

    def _reduction(self, index, i):
        """Dependencies and weights for rewriting coordinate ``i``; stepping
        backward needs a unit trailing coefficient ``a_d``."""
        rec = self.spec.axes[i]
        n = index[i]
        if n >= rec.order:
            step, weights = -1, rec.coeffs
        else:
            inv = rec._trailing_inverse()
            step, weights = 1, [-(a * inv) for a in rec.coeffs[-2::-1]] + [inv]
        deps = [
            index[:i] + (n + step * j,) + index[i + 1 :]
            for j in range(1, rec.order + 1)
        ]
        return deps, weights

    def term(self, index, priority=None) -> ModuleElement:
        """Value at a ``p``-tuple of indices by memoized axis rewriting.

        ``priority`` lists axes (1-based) in the order they are tried when
        several coordinates are outside the initial box; any order gives
        the same value.
        """
        index = self._index(index)
        if priority is None:
            priority = tuple(range(self.ndim, 0, -1))
        else:
            priority = tuple(priority)
            if sorted(priority) != list(range(1, self.ndim + 1)):
                raise ValueError(f"bad axis priority {priority}")
        memo = self._memo
        if len(memo) > _MEMO_LIMIT:
            # a new dict: other threads keep filling the one they hold
            self._memo = memo = {}
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
            deps, weights = self._reduction(idx, axis)
            missing = [dep for dep in deps if dep not in memo]
            if missing:
                stack.extend(missing)
            else:
                memo[idx] = weighted_sum([memo[dep] for dep in deps], weights)
                stack.pop()
        return memo[index]

    def term_fast(self, index) -> ModuleElement:
        """Value at ``index`` by contracting the block against per-axis
        canonical-solution rows (logarithmic in each index)."""
        index = self._index(index)
        rows = [ax.basis_row(n) for ax, n in zip(self.spec.axes, index)]
        return weighted_sum(self.block.entries, row_products(rows))

    def window(self, origin, shape=None) -> Block:
        """The box of values with the given origin (defaults to spec shape),
        each read from the rewriting memo."""
        origin = self._index(origin)
        if shape is None:
            shape = self.spec.shape
        elif len(shape) != self.ndim:
            raise IndexError(f"expected {self.ndim} extents, got {len(shape)}")
        return Block(
            self.ring,
            shape,
            [
                MultiSequence.term(self, tuple(o + j for o, j in zip(origin, idx)))
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
        # the tuple form, which a Sequence's integer shift overrides
        return MultiSequence.shift(self, offsets)

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


class Sequence(MultiSequence):
    """A one-axis :class:`MultiSequence`, indexed by plain integers: a
    recurrence solution with values in a free module of finite rank."""

    def __init__(self, recurrence: Recurrence, initial):
        ring = recurrence.ring
        super().__init__(
            MultiSpec(ring, [recurrence]), Block(ring, (recurrence.order,), initial)
        )

    @property
    def recurrence(self) -> Recurrence:
        return self.spec.axes[0]

    @property
    def initial(self) -> tuple[ModuleElement, ...]:
        return self.block.entries

    def term(self, n: int) -> ModuleElement:
        """Value at index ``n``: the initial segment combined with the basis
        row at ``n``, logarithmic in ``n`` and a single step next to the
        previously requested index.  Negative ``n`` needs a unit trailing
        coefficient."""
        return super().term_fast((n,))

    term_fast = term

    def iter_terms(self, start: int = 0):
        """Yield terms from ``start`` upward with constant memory."""
        coeffs = self.recurrence.coeffs
        # x[n-1], ..., x[n-d], read in ascending order so that each basis
        # row is one step from the last
        previous = [self.term(start + i) for i in range(len(coeffs))][::-1]
        while True:
            yield previous[-1]
            previous.insert(0, weighted_sum(previous, coeffs))
            previous.pop()

    def shift(self, offset: int) -> Sequence:
        """The sequence ``n -> x[n + offset]`` (same recurrence)."""
        d = self.recurrence.order
        return Sequence(self.recurrence, [self.term(offset + i) for i in range(d)])

    def extend_backward(self, steps: int) -> list[ModuleElement]:
        """Terms at ``-1, -2, ..., -steps`` (trailing coefficient must be a unit)."""
        return [self.term(-k) for k in range(1, steps + 1)]

    def decompose(self) -> tuple[ModuleElement, ...]:
        """Coordinates with respect to the canonical solutions: the initial
        segment, since ``x[n] = sum_i B_i[n] * x[i]``."""
        return self.initial

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.initial)
        return f"Sequence({self.recurrence!r}, [{vals}])"


def from_sequence(seq: MultiSequence) -> MultiSequence:
    """View a sequence as a plain :class:`MultiSequence`, whose ``term`` is
    the rewriting memo."""
    return MultiSequence(seq.spec, seq.block)


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
    entries = block.entries
    for i, rec in enumerate(spec.axes):
        stride = prod(block.shape[:i])
        for pos, idx in enumerate(box_indices(block.shape)):
            if idx[i] < rec.order:
                continue
            previous = [entries[pos - j * stride] for j in range(1, rec.order + 1)]
            if weighted_sum(previous, rec.coeffs) != entries[pos]:
                return False
    return True


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
    for f in factors[1:]:
        _require_same_ring(factors[0], f)
    result = from_sequence(factors[0])
    for other in factors[1:]:
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
    return seq.block


def direct_sum(x, y) -> MultiSequence:
    """Componentwise juxtaposition of two sequences with the same spec;
    ranks add and each term projects back onto the summands."""
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
    initial = [
        [(ca.value, cb.value) for ca, cb in zip(a.coords, b.coords)]
        for a, b in zip(x.initial, y.initial)
    ]
    return Sequence(Recurrence(ring, coeffs), initial)


def _halved_product(x, y, sign: int) -> MultiSequence:
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


def _swap_symmetry(seq: MultiSequence, sign: int) -> bool:
    if seq.ndim != 2:
        raise HypothesisError("swap symmetry is defined for two axes")
    (d1, d2), first = seq.spec.shape, seq.spec.axes[0]
    # The first rule's values along the second axis solve the spec, so this
    # box decides whether it holds there; if so, x[n, k] and x[k, n] solve
    # it along both axes and agree once they agree on the d1 x d1 corner.
    box = Block.from_function(seq.ring, (d1 + 1, d1 + d2), seq.term_fast)
    if not check_membership(MultiSpec(seq.ring, [first, first]), box):
        return False
    return all(
        box.at((n, k)) == (box.at((k, n)) if sign > 0 else -box.at((k, n)))
        for n, k in box_indices((d1, d1))
    )


def is_symmetric(seq: MultiSequence) -> bool:
    """Whether ``x[n, k] = x[k, n]`` for all ``n, k >= 0``, decided exactly:
    the first axis rule must also hold along the second axis, and the
    ``d_1 x d_1`` corner at the origin must be symmetric."""
    return _swap_symmetry(seq, +1)


def is_antisymmetric(seq: MultiSequence) -> bool:
    """Whether ``x[n, k] = -x[k, n]`` for all ``n, k >= 0``, decided exactly
    as in :func:`is_symmetric`."""
    return _swap_symmetry(seq, -1)


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
    :class:`~linrec.errors.HypothesisError`.  The relation reduces to
    ``-(a^2*d - b*c^2)*X*Y`` modulo the axis rules (:func:`reduce_relation`),
    so under the hypothesis it holds wherever the values exist, as its
    weights at the origin show.  A negative ``n`` or ``k`` still needs a
    unit trailing coefficient on that axis."""
    a, b, c, d = _order_two_axes(seq)
    if a * a * d != b * c * c:
        raise HypothesisError(
            "coefficient relation a^2*d = b*c^2 does not hold"
        )
    # a negative index steps backward, which needs a unit a_d on that axis
    for ax, m in zip(seq.spec.axes, (n, k)):
        if m < 0:
            ax._trailing_inverse()
    cross = {
        (0, 3): a * b,
        (1, 2): (a * a + b) * c,
        (2, 1): -(a * (c * c + d)),
        (3, 0): -(c * d),
    }
    # zero weights at the origin certify the relation at every position
    return all(w.is_zero() for w in reduce_relation(seq.spec, cross))


def diagonal_identity_fib(seq: MultiSequence, n: int, k: int) -> bool:
    """Verify ``x[n,k+3] - x[n+3,k] = 2*(x[n+2,k+1] - x[n+1,k+2])`` at one
    position; applies when both axis rules are ``(1, 1)``, where it is the
    cross-diagonal relation of :func:`diagonal_check`."""
    a, b, c, d = _order_two_axes(seq)
    if any(v != seq.ring.one for v in (a, b, c, d)):
        raise HypothesisError("identity applies when both axis rules are (1, 1)")
    return diagonal_check(seq, n, k)
