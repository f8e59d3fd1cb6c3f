"""Rational generating functions of recurrence sequences.

A one-axis sequence of order ``d`` with rule coefficients ``(a_1, ..., a_d)``
has the rational series ``N(t) / q(t)`` with ``q(t) = 1 - a_1 t - ... -
a_d t^d`` and ``N(t) = sum_i Q_i(t) x[i]`` where ``Q_i(t) = t^i (1 - a_1 t
- ... - a_{d-i-1} t^{d-i-1})``.  A ``p``-axis sequence multiplies one such
numerator factor per axis against each initial value and divides by the
product of the per-axis ``q_i``.

:meth:`RationalGF.expand` recovers series coefficients exactly without any
division: since every ``q_i`` has constant term 1, the coefficient hypercube
satisfies ``c[n] = p[n] + sum_j a_j c[n - j]`` along each axis in turn.
``coefficient`` reads a single coefficient by Bostan-Mori halving, in a
number of ring operations logarithmic in each index.

Variables are named ``t`` for one axis, ``t, s`` for two, and ``t1..tp``
beyond that.
"""

from __future__ import annotations

from math import prod

from .errors import NotInvertibleError, RingMismatchError
from .multiseq import MultiSequence, box_indices, flat_index, row_products
from .recurrence import Recurrence
from .rings import PolynomialRing, Ring, RingElement


def series_variables(p: int) -> tuple[str, ...]:
    """Canonical variable names for ``p`` axes."""
    if p == 1:
        return ("t",)
    if p == 2:
        return ("t", "s")
    return tuple(f"t{i}" for i in range(1, p + 1))


def _rule_poly(rec: Recurrence, variable: str, low: int, terms: int) -> RingElement:
    """``t^low (1 - a_1 t - ... - a_terms t^terms)`` as a univariate polynomial."""
    payload = {(low,): rec.ring.payload_one()}
    for j, a in enumerate(rec.coeffs[:terms], start=1):
        payload[(low + j,)] = rec.ring.neg(a.value)
    return PolynomialRing(rec.ring, (variable,))(payload)


def q_poly(rec: Recurrence, variable: str = "t") -> RingElement:
    """Denominator ``1 - a_1 t - ... - a_d t^d`` as a univariate polynomial."""
    return _rule_poly(rec, variable, 0, rec.order)


def numerator_basis_polys(rec: Recurrence, variable: str = "t") -> list[RingElement]:
    """The ``d`` numerator building blocks ``Q_0, ..., Q_{d-1}``, where
    ``Q_i = t^i (1 - a_1 t - ... - a_{d-i-1} t^{d-i-1})``."""
    return [_rule_poly(rec, variable, i, rec.order - i - 1) for i in range(rec.order)]


def _embed(poly: RingElement, target: PolynomialRing, axis: int) -> RingElement:
    """Re-home a univariate polynomial onto one axis of a larger ring."""
    payload = {}
    for exps, c in poly.value.items():
        vec = [0] * target.nvars
        vec[axis] = exps[0]
        payload[tuple(vec)] = c
    return target(payload)


def _orders(orders, count: int) -> tuple[int, ...]:
    """Inclusive bounds, one nonnegative integer per variable."""
    orders = tuple(int(o) for o in orders)
    if len(orders) != count:
        raise ValueError("one order bound per variable required")
    if any(o < 0 for o in orders):
        raise ValueError(f"negative order bounds {orders}")
    return orders


class TruncatedSeries:
    """Exact series coefficients up to an inclusive bound per variable."""

    def __init__(self, ring: Ring, variables, orders, coeffs):
        self.ring = ring
        self.variables = tuple(variables)
        self.orders = _orders(orders, len(self.variables))
        self.shape = tuple(o + 1 for o in self.orders)
        coeffs = tuple(ring(c) for c in coeffs)
        if len(coeffs) != prod(self.shape):
            raise ValueError(
                f"expected {prod(self.shape)} coefficients, got {len(coeffs)}"
            )
        self.coeffs = coeffs

    @classmethod
    def from_polynomial(cls, poly: RingElement, orders) -> TruncatedSeries:
        """Truncate a polynomial to a coefficient hypercube."""
        ring = poly.ring
        if not isinstance(ring, PolynomialRing):
            raise RingMismatchError("expected a polynomial element")
        orders = _orders(orders, ring.nvars)
        shape = tuple(o + 1 for o in orders)
        flat = [ring.base.payload_zero()] * prod(shape)
        for exps, c in poly.value.items():
            if all(e <= o for e, o in zip(exps, orders)):
                flat[flat_index(shape, exps)] = c
        return cls(
            ring.base,
            ring.variables,
            orders,
            [RingElement(ring.base, c) for c in flat],
        )

    def coefficient(self, index) -> RingElement:
        index = tuple(int(n) for n in index)
        if len(index) != len(self.shape):
            raise IndexError(f"expected {len(self.shape)} indices")
        if any(not 0 <= n < d for n, d in zip(index, self.shape)):
            raise IndexError(f"index {index} beyond truncation {self.orders}")
        return self.coeffs[flat_index(self.shape, index)]

    def mul_poly(self, poly: RingElement) -> TruncatedSeries:
        """Truncated product with a polynomial from the matching ring."""
        if (
            not isinstance(poly.ring, PolynomialRing)
            or poly.ring.base != self.ring
            or poly.ring.variables != self.variables
        ):
            raise RingMismatchError("polynomial does not match series variables")
        flat = [self.ring.zero] * len(self.coeffs)
        for exps, c in poly.value.items():
            ce = RingElement(self.ring, c)
            for idx in box_indices(self.shape):
                target = tuple(n + e for n, e in zip(idx, exps))
                if all(t <= o for t, o in zip(target, self.orders)):
                    pos = flat_index(self.shape, target)
                    flat[pos] = flat[pos] + ce * self.coefficient(idx)
        return TruncatedSeries(self.ring, self.variables, self.orders, flat)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.variables == other.variables
            and self.orders == other.orders
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return (
            f"TruncatedSeries({self.ring.describe()}, {self.variables}, "
            f"orders={self.orders})"
        )


class RationalGF:
    """A numerator polynomial over per-axis denominators with constant term 1.

    ``factors``, when given, stores each axis denominator as a product of
    polynomial factors; it is used for display and must multiply back to
    the stored denominator.
    """

    def __init__(self, numerator: RingElement, denominators, factors=None):
        poly_ring = numerator.ring
        if not isinstance(poly_ring, PolynomialRing):
            raise RingMismatchError("numerator must be a polynomial element")
        self.poly_ring = poly_ring
        self.ring = poly_ring.base
        self.variables = poly_ring.variables
        self.numerator = numerator
        denominators = tuple(denominators)
        if len(denominators) != len(self.variables):
            raise ValueError("one denominator per variable required")
        one = self.ring.payload_one()
        const = (0,) * poly_ring.nvars
        for axis, q in enumerate(denominators):
            if q.ring != poly_ring:
                raise RingMismatchError("denominators must share the numerator ring")
            for exps, _ in q.value.items():
                if any(e and i != axis for i, e in enumerate(exps)):
                    raise ValueError(
                        f"denominator for axis {axis + 1} uses other variables"
                    )
            if q.value.get(const) != one:
                raise ValueError(
                    f"denominator for axis {axis + 1} must have constant term 1"
                )
        self.denominators = denominators
        if factors is not None:
            factors = tuple(tuple(fs) for fs in factors)
            if len(factors) != len(denominators):
                raise ValueError("one factor list per axis required")
            for axis, fs in enumerate(factors):
                prod = poly_ring.one
                for f in fs:
                    prod = prod * f
                if prod != denominators[axis]:
                    raise ValueError(
                        f"factors for axis {axis + 1} do not multiply to the denominator"
                    )
        self.factors = factors

    def denominator(self) -> RingElement:
        """The full denominator, all axes multiplied out."""
        total = self.poly_ring.one
        for q in self.denominators:
            total = total * q
        return total

    def expand(self, orders) -> TruncatedSeries:
        """Series coefficients up to the inclusive per-variable bounds."""
        orders = _orders(orders, len(self.variables))
        seed = TruncatedSeries.from_polynomial(self.numerator, orders)
        shape = seed.shape
        flat = list(seed.coeffs)
        for axis in range(len(self.variables)):
            # the rule (a_1, ..., a_d) from q = 1 - a_1*t - ... - a_d*t^d
            q = _dense(self.ring, self.denominators[axis], axis)
            coeffs = [-RingElement(self.ring, c) for c in q[1:]]
            if not coeffs:
                continue
            for idx in box_indices(shape):
                n = idx[axis]
                pos = flat_index(shape, idx)
                total = flat[pos]
                for j, a in enumerate(coeffs, start=1):
                    if n - j < 0:
                        break
                    dep = idx[:axis] + (n - j,) + idx[axis + 1 :]
                    total = total + a * flat[flat_index(shape, dep)]
                flat[pos] = total
        return TruncatedSeries(self.ring, self.variables, orders, flat)

    def _format_denominator(self) -> str:
        parts = []
        for axis, q in enumerate(self.denominators):
            if self.factors is not None:
                group = self.factors[axis]
            else:
                group = (q,)
            for f in group:
                if f.is_one():
                    continue
                parts.append(f"({f})")
        return "".join(parts) or "1"

    def __str__(self):
        num = str(self.numerator)
        if " " in num:
            num = f"({num})"
        den = self._format_denominator()
        if den == "1":
            return num
        return f"{num} / {den}"

    def __repr__(self):
        return f"RationalGF({self})"

    def __eq__(self, other):
        if not isinstance(other, RationalGF):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominators == other.denominators
        )


def gf(seq: MultiSequence, coordinate: int | None = None) -> RationalGF:
    """The rational generating function of a sequence.

    Scalar sequences need no ``coordinate``; for rank ``m`` values pass the
    coordinate (0-based) whose series is wanted.
    """
    if coordinate is None:
        if seq.rank != 1:
            raise RingMismatchError(
                f"rank {seq.rank} sequence: pass coordinate=0..{seq.rank - 1}"
            )
        coordinate = 0
    elif not 0 <= coordinate < seq.rank:
        raise IndexError(f"coordinate {coordinate} out of range")
    names = series_variables(seq.ndim)
    poly_ring = PolynomialRing(seq.ring, names)
    axis_numer = [
        [_embed(Q, poly_ring, axis) for Q in numerator_basis_polys(rec, names[axis])]
        for axis, rec in enumerate(seq.spec.axes)
    ]
    numerator = poly_ring.zero
    for weight, entry in zip(row_products(axis_numer), seq.block.entries):
        numerator = numerator + weight * poly_ring.constant(entry[coordinate])
    return RationalGF(numerator, _denominators(seq, poly_ring))


def _denominators(seq: MultiSequence, poly_ring: PolynomialRing) -> tuple:
    """Each axis rule's ``q_i``, in that axis's variable of ``poly_ring``."""
    return tuple(
        _embed(q_poly(rec, poly_ring.variables[axis]), poly_ring, axis)
        for axis, rec in enumerate(seq.spec.axes)
    )


def coefficient(rational: RationalGF, index) -> RingElement:
    """``[t_1^n_1 ... t_p^n_p] N / (q_1 ... q_p)``, one axis at a time by
    Bostan-Mori halving (A. Bostan and R. Mori, SOSA 2021).

    Along axis ``i``, ``N <- N(t) q_i(-t)`` keeps the terms whose exponent
    has the parity of ``n_i``, ``q_i <- q_i(t) q_i(-t)`` keeps its even part,
    and every exponent and ``n_i`` are halved; the other axes ride along in
    the numerator.  A halving costs ``O(d_i * D)`` ring multiplies, where
    ``d_i`` is the degree of ``q_i`` and ``D`` the number of numerator terms,
    so an index costs ``O(log |n_i|)`` halvings per axis.

    A negative ``n_i`` reads the series of the reversed rule: for a proper
    fraction, ``x[-m] = [s^m] a_d^-1 s^d N(1/s) / q'(s)`` with
    ``q'(s) = -a_d^-1 s^d q_i(1/s)``, which needs the trailing rule
    coefficient ``a_d`` (minus the top coefficient of ``q_i``) to be a unit.

    Only the numerator and the denominators are read, so for ``gf(seq)``
    this checks terms computed by basis rows without sharing their code.
    """
    index = tuple(int(n) for n in index)
    if len(index) != len(rational.variables):
        raise IndexError(f"expected {len(rational.variables)} indices, got {len(index)}")
    ring = rational.ring
    num = dict(rational.numerator.value)
    for axis, n in enumerate(index):
        q = _dense(ring, rational.denominators[axis], axis)
        if n < 0:
            num, q = _reverse_axis(ring, num, q, axis)
            n = -n
        num = _halve_to(ring, num, q, n, axis)
    return RingElement(ring, num.get((0,) * len(index), ring.payload_zero()))


def _dense(ring: Ring, poly: RingElement, axis: int) -> list:
    """Coefficient payloads of a one-axis polynomial, lowest degree first."""
    degree = max(exps[axis] for exps in poly.value)
    out = [ring.payload_zero()] * (degree + 1)
    for exps, c in poly.value.items():
        out[exps[axis]] = c
    return out


def _reverse_axis(ring: Ring, num: dict, q: list, axis: int):
    """Numerator and denominator whose series along ``axis`` lists the
    terms at ``0, -1, -2, ...``: ``a_d^-1 s^d N(1/s)`` over ``q'(s)``."""
    zero = ring.payload_zero()
    num = {e: c for e, c in num.items() if c != zero}
    d = len(q) - 1
    # a numerator of degree >= d along the axis needs a longer rule, whose
    # trailing coefficient is 0
    proper = all(e[axis] < d for e in num)
    trailing = ring.neg(q[d]) if proper else zero
    inv = ring.try_invert(trailing)
    if inv is None:
        raise NotInvertibleError(
            f"trailing coefficient {ring.format(trailing)} is not a unit in "
            f"{ring.describe()}; cannot step backward"
        )
    reflected = {
        e[:axis] + (d - e[axis],) + e[axis + 1 :]: ring.mul(inv, c)
        for e, c in num.items()
    }
    minus_inv = ring.neg(inv)
    return reflected, [ring.mul(minus_inv, c) for c in reversed(q)]


def _halve_to(ring: Ring, num: dict, q: list, n: int, axis: int) -> dict:
    """``[t^n] num / q`` along ``axis``: a numerator over the other axes,
    every term with exponent 0 on ``axis``."""
    add, sub, mul = ring.add, ring.sub, ring.mul
    zero = ring.payload_zero()
    while True:
        # terms above t^n cannot reach the coefficient of t^n
        num = {e: c for e, c in num.items() if e[axis] <= n}
        if n == 0:
            return num
        q = q[: n + 1]
        half = {}
        for exps, c in num.items():
            e = exps[axis]
            # q(-t) terms whose exponent brings e to the parity of n
            for j in range((e ^ n) & 1, len(q), 2):
                key = exps[:axis] + ((e + j) >> 1,) + exps[axis + 1 :]
                p = mul(c, q[j])
                prev = half.get(key, zero)
                half[key] = sub(prev, p) if j & 1 else add(prev, p)
        num = half
        q = _even_part_of_q_times_q_neg(ring, q)
        n >>= 1


def _even_part_of_q_times_q_neg(ring: Ring, q: list) -> list:
    """``q(t) q(-t)`` has only even powers; its coefficients at ``t^(2k)``
    are ``sum_i (-1)^i q_i q_(2k-i)``, each pair counted once and doubled."""
    add, sub, mul = ring.add, ring.sub, ring.mul
    size = len(q)
    out = []
    for k in range(size):
        s = ring.payload_zero()
        for i in range(max(0, 2 * k - size + 1), k):
            p = mul(q[i], q[2 * k - i])
            s = sub(s, p) if i & 1 else add(s, p)
        s = add(s, s)
        p = mul(q[k], q[k])
        out.append(sub(s, p) if k & 1 else add(s, p))
    return out


def verify_gf(seq: MultiSequence, orders) -> bool:
    """Whether the expanded generating functions reproduce every term of the
    sequence inside the bounds, exactly, one series per coordinate.

    Decided without expanding the box.  On a box anchored at 0, multiplying
    by ``q_1 ... q_p`` or by its inverse is triangular with a unit diagonal,
    and the sequence's own numerator lies in the ``d_1 x ... x d_p`` corner.
    So, when each denominator is its axis rule's ``q_i``, a series equals the
    sequence on the box exactly when its numerator has no term in the box
    outside the corner and its expansion matches the initial block there."""
    orders = _orders(orders, seq.ndim)
    corner = tuple(min(d - 1, o) for d, o in zip(seq.spec.shape, orders))
    cells = box_indices([c + 1 for c in corner])
    # the initial block on the corner, one tuple per coordinate
    initial = list(zip(*(seq.block.at(i).coords for i in cells)))
    for coord in range(seq.rank):
        rational = gf(seq, coord)
        if rational.denominators != _denominators(seq, rational.poly_ring):
            return False
        for e in rational.numerator.value:
            in_box = all(n <= o for n, o in zip(e, orders))
            if in_box and any(n >= d for n, d in zip(e, seq.spec.shape)):
                return False
        if rational.expand(corner).coeffs != initial[coord]:
            return False
    return True
