"""Root-based closed forms for order-2 rules of shape (r1+r2, -r1*r2).

When an order-2 rule factors with known roots ``r1, r2`` (so the rule is
``x[n+2] = (r1+r2) x[n+1] - r1 r2 x[n]``) its two canonical solutions have
division-free polynomial expressions in the roots (:func:`R_poly`), a
quotient form valid whenever ``delta = r2 - r1`` is a unit
(:func:`R_rational`), and scaled variants ``S = delta * R``
(:func:`S_value`) that stay division-free.  These give closed general-term
formulas for any sequence, of any number of axes, all of whose axis rules
share the pair of roots (:func:`term_via_roots`), and a factored form of
its generating function (:func:`gf_via_roots`).

All formulas extend to negative indices provided the roots are units;
nothing here ever leaves exact arithmetic.
"""

from __future__ import annotations

from .errors import NotInvertibleError, SpecMismatchError
from .genfun import RationalGF, gf
from .multiseq import MultiSequence, row_products, weighted_sum
from .recurrence import Recurrence
from .rings import ModuleElement, PolynomialRing, Ring, RingElement


class RootPair:
    """Two ring elements determining the rule (r1+r2, -r1*r2)."""

    def __init__(self, ring: Ring, r1, r2):
        self.ring = ring
        self.r1 = ring(r1)
        self.r2 = ring(r2)

    @property
    def a(self) -> RingElement:
        return self.r1 + self.r2

    @property
    def b(self) -> RingElement:
        return -(self.r1 * self.r2)

    @property
    def delta(self) -> RingElement:
        return self.r2 - self.r1

    def recurrence(self) -> Recurrence:
        """The order-2 rule these roots solve."""
        return Recurrence(self.ring, [self.a, self.b])

    def matches(self, rec: Recurrence) -> bool:
        """Whether a rule has exactly the coefficients (r1+r2, -r1*r2)."""
        return (
            rec.ring == self.ring
            and rec.order == 2
            and rec.coeffs == (self.a, self.b)
        )

    def require_match(self, mseq: MultiSequence):
        """Raise unless every axis rule of ``mseq`` matches these roots."""
        if mseq.ring != self.ring:
            raise SpecMismatchError(
                f"roots live in {self.ring.describe()}, sequence in "
                f"{mseq.ring.describe()}"
            )
        for i, rec in enumerate(mseq.spec.axes):
            if not self.matches(rec):
                have = ", ".join(str(c) for c in rec.coeffs)
                raise SpecMismatchError(
                    f"axis {i + 1} coefficients ({have}) differ from "
                    f"({self.a}, {self.b}) determined by the roots"
                )

    def __repr__(self):
        return f"RootPair({self.ring.describe()}, {self.r1}, {self.r2})"


def _check_index(i: int):
    if i not in (0, 1):
        raise IndexError(f"solution index must be 0 or 1, got {i}")


def R_poly(i: int, n: int, roots: RootPair) -> RingElement:
    """Division-free value of canonical solution ``i`` at ``n >= 0``:
    ``R_1[n] = h_(n-1)`` and ``R_0[n] = -r1 r2 h_(n-2)`` (defining values at
    ``n = 0``), where ``h_m = sum(r1^u r2^v for u+v = m)``.  Doubling ``k``
    gives ``h_(2k-1) = h_(k-1) (r1^k + r2^k)`` and a step gives
    ``h_k = h_(k-1) r2 + r1^k``, so ``O(log n)`` ring multiplies."""
    _check_index(i)
    if n < 0:
        raise ValueError("division-free form needs n >= 0; use R_rational")
    ring = roots.ring
    if n == 0:
        return ring.one if i == 0 else ring.zero
    r1, r2 = roots.r1, roots.r2
    h, p1, p2 = ring.zero, ring.one, ring.one
    for bit in bin(n if i == 1 else n - 1)[2:]:
        h, p1, p2 = h * (p1 + p2), p1 * p1, p2 * p2
        if bit == "1":
            h, p1, p2 = h * r2 + p1, p1 * r1, p2 * r2
    return h if i == 1 else -(r1 * r2 * h)


def R_rational(i: int, n: int, roots: RootPair) -> RingElement:
    """Quotient form of canonical solution ``i`` at any integer ``n``:
    ``R_1[n] = (r2^n - r1^n) / delta`` and
    ``R_0[n] = (r1^n r2 - r1 r2^n) / delta``.  Needs ``delta`` a unit;
    negative ``n`` additionally needs unit roots."""
    _check_index(i)
    inv = roots.delta.try_invert()
    if inv is None:
        raise NotInvertibleError(
            f"root difference {roots.delta} is not a unit in "
            f"{roots.ring.describe()}"
        )
    return S_value(i, n, roots) * inv


def S_value(j: int, n: int, roots: RootPair) -> RingElement:
    """The delta-scaled solutions, division-free in the roots:
    ``S_0[n] = r1^n r2 - r1 r2^n`` and ``S_1[n] = r2^n - r1^n``.
    Negative ``n`` needs unit roots."""
    _check_index(j)
    r1n = roots.r1 ** n
    r2n = roots.r2 ** n
    if j == 0:
        return r1n * roots.r2 - roots.r1 * r2n
    return r2n - r1n


def term_via_roots(
    mseq: MultiSequence, roots: RootPair, index, division_free: bool = False
) -> ModuleElement:
    """Closed-form term of a sequence all of whose axis rules match the
    roots.  With ``division_free`` the result is ``delta^p * x[index]``
    (``p`` the number of axes), exact over any ring; without it the true
    term is returned and ``delta`` must be a unit.  Negative indices need
    unit roots."""
    roots.require_match(mseq)
    rows = [
        (S_value(0, n, roots), S_value(1, n, roots)) for n in mseq._index(index)
    ]
    total = weighted_sum(mseq.block.entries, row_products(rows))
    if division_free:
        return total
    inv = roots.delta.try_invert()
    if inv is None:
        raise NotInvertibleError(
            f"root difference {roots.delta} is not a unit in "
            f"{roots.ring.describe()}; use division_free=True"
        )
    return total.scale(inv ** mseq.ndim)


def gf_via_roots(
    mseq: MultiSequence, roots: RootPair, coordinate: int | None = None
) -> RationalGF:
    """The generating function with each axis denominator kept factored as
    ``(1 - r1 t_i)(1 - r2 t_i)``."""
    roots.require_match(mseq)
    base = gf(mseq, coordinate)
    poly_ring = base.poly_ring
    factors = [
        _axis_factors(poly_ring, roots, axis) for axis in range(mseq.ndim)
    ]
    return RationalGF(base.numerator, base.denominators, factors=factors)


def _axis_factors(poly_ring: PolynomialRing, roots: RootPair, axis: int):
    var = poly_ring.variable(poly_ring.variables[axis])
    one = poly_ring.one
    return (
        one - poly_ring.constant(roots.r1) * var,
        one - poly_ring.constant(roots.r2) * var,
    )
