"""One-dimensional linear recurrence rules and their canonical solutions.

A :class:`Recurrence` of order ``d`` over a ring fixes coefficients
``(a_1, ..., a_d)`` for the rule ``x[n+d] = a_1*x[n+d-1] + ... + a_d*x[n]``.
Its canonical solutions ``B_i`` (``0 <= i < d``) are the scalar sequences
with initial segment ``B_i[j] = delta(i, j)``; every solution with values in
a free module is the combination ``x[n] = sum_i B_i[n] * x[i]``, a
one-axis :class:`~linrec.multiseq.Sequence` (importable from here too).

The basis row ``(B_0[n], ..., B_{d-1}[n])`` is the coefficient vector of
``x^n mod chi`` with ``chi = x^d - a_1*x^(d-1) - ... - a_d`` (Fiduccia,
SIAM J. Comput. 1985).  It is computed on raw payloads by binary powering,
logarithmic in ``n``, or by one step of ``x`` or ``x^-1`` from the row
requested before.  Negative indices need a unit trailing coefficient
``a_d``; otherwise they raise :class:`~linrec.errors.NotInvertibleError`.
"""

from __future__ import annotations

from .errors import NotInvertibleError
from .rings import Ring, RingElement


class Recurrence:
    """A fixed-order linear recurrence rule over a commutative ring."""

    def __init__(self, ring: Ring, coeffs):
        coeffs = tuple(ring(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a recurrence needs order >= 1")
        self.ring = ring
        self.coeffs = coeffs
        self.order = len(coeffs)
        # x^d mod chi, whose coefficients are (a_d, ..., a_1)
        self._x_d = tuple(c.value for c in reversed(coeffs))
        self._inv_trailing = coeffs[-1].try_invert()
        # x^-1 mod chi = a_d^-1 * (x^(d-1) - a_1*x^(d-2) - ... - a_(d-1))
        self._x_inv = None
        if self._inv_trailing is not None:
            inv = self._inv_trailing.value
            self._x_inv = tuple(
                ring.mul(inv, ring.neg(a)) for a in self._x_d[1:]
            ) + (inv,)
        # the last row handed out, replaced whole so that threads sharing
        # this rule always read a consistent (index, row) pair
        self._last = (0, self._power(0))

    def _trailing_inverse(self) -> RingElement:
        if self._inv_trailing is None:
            raise NotInvertibleError(
                f"trailing coefficient {self.coeffs[-1]} is not a unit in "
                f"{self.ring.describe()}; cannot step backward"
            )
        return self._inv_trailing

    def _times_x(self, row):
        """``x * row mod chi``: shift up and fold ``x^d`` back in."""
        add, mul = self.ring.add, self.ring.mul
        top, x_d = row[-1], self._x_d
        return (mul(top, x_d[0]),) + tuple(
            add(c, mul(top, r)) for c, r in zip(row, x_d[1:])
        )

    def _times_x_inv(self, row):
        """``x^-1 * row mod chi``: shift down and fold ``x^-1`` back in."""
        add, mul = self.ring.add, self.ring.mul
        low, x_inv = row[0], self._x_inv
        return tuple(
            add(c, mul(low, r)) for c, r in zip(row[1:], x_inv)
        ) + (mul(low, x_inv[-1]),)

    def _square(self, row):
        """``row * row mod chi`` by Horner's rule: ``sum_i row[i] * x^i * row``."""
        add, mul = self.ring.add, self.ring.mul
        acc = tuple(mul(row[-1], v) for v in row)
        for c in reversed(row[:-1]):
            acc = tuple(add(s, mul(c, v)) for s, v in zip(self._times_x(acc), row))
        return acc

    def _power(self, n: int):
        """``x^n mod chi`` by binary powering of ``x`` or ``x^-1``."""
        if n < 0:
            self._trailing_inverse()
        step = self._times_x if n >= 0 else self._times_x_inv
        ring = self.ring
        row = (ring.payload_one(),) + (ring.payload_zero(),) * (self.order - 1)
        if n:
            row = step(row)
            for bit in bin(abs(n))[3:]:
                row = self._square(row)
                if bit == "1":
                    row = step(row)
        return row

    def basis_row(self, n: int) -> tuple[RingElement, ...]:
        """``(B_0[n], ..., B_{d-1}[n])``, the coefficients of ``x^n mod chi``.

        A request next to the previous one takes a single step, so scans in
        either direction cost ``d`` multiplies per row; any other index is
        reached by binary powering."""
        last, row = self._last
        if n == last + 1:
            row = self._times_x(row)
        elif n == last - 1 and self._x_inv is not None:
            row = self._times_x_inv(row)
        elif n != last:
            row = self._power(n)
        self._last = (n, row)
        return tuple(RingElement(self.ring, v) for v in row)

    def basis_value(self, i: int, n: int) -> RingElement:
        """``B_i[n]``, the i-th canonical solution at index ``n``."""
        if not 0 <= i < self.order:
            raise IndexError(f"basis index {i} out of range for order {self.order}")
        return self.basis_row(n)[i]

    def __eq__(self, other):
        if not isinstance(other, Recurrence):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, tuple(self.ring.sort_key(c.value) for c in self.coeffs)))

    def __repr__(self):
        return (
            f"Recurrence({self.ring.describe()}, "
            f"[{', '.join(str(c) for c in self.coeffs)}])"
        )


def reconstruct(recurrence: Recurrence, coordinates):
    """Rebuild a :class:`~linrec.multiseq.Sequence` from canonical-basis
    coordinates (inverse of its ``decompose``)."""
    from .multiseq import Sequence

    return Sequence(recurrence, coordinates)


def check_membership(recurrence: Recurrence, values) -> bool:
    """Whether consecutive ``values`` satisfy the recurrence at every
    applicable index.  Needs at least ``order + 1`` values so that the rule
    is exercised at least once."""
    from . import multiseq

    values = list(values)
    return multiseq.check_membership(
        multiseq.MultiSpec(recurrence.ring, [recurrence]),
        multiseq.Block(recurrence.ring, (len(values),), values),
    )


def __getattr__(name):
    # Sequence is the one-axis MultiSequence; multiseq imports this module,
    # so the name is resolved on first use
    if name == "Sequence":
        from .multiseq import Sequence

        return Sequence
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
