"""Generating functions: numerators, denominators, expansion, verification."""

import random
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements
from linrec import genfun
from linrec.errors import NotInvertibleError, RingMismatchError
from linrec.genfun import (
    RationalGF,
    TruncatedSeries,
    coefficient,
    gf,
    numerator_basis_polys,
    q_poly,
    series_variables,
    verify_gf,
)
from linrec.multiseq import Block, MultiSequence, MultiSpec, box_indices, from_sequence
from linrec.recurrence import Recurrence, Sequence
from linrec.rings import QQ, ZZ, IntegerModRing, PolynomialRing, ProductRing


def make(ring, axes, entries):
    spec = MultiSpec(ring, axes)
    return MultiSequence(spec, Block(ring, spec.shape, entries))


@pytest.fixture
def fib():
    return Sequence(Recurrence(ZZ, [1, 1]), [0, 1])


@pytest.fixture
def grid():
    return make(ZZ, [(1, 1), (1, 3)], [1, 1, 0, 1])


class TestVariableNames:
    def test_counts(self):
        assert series_variables(1) == ("t",)
        assert series_variables(2) == ("t", "s")
        assert series_variables(3) == ("t1", "t2", "t3")
        assert series_variables(5)[4] == "t5"


class TestDenominators:
    def test_fibonacci_rule(self):
        assert str(q_poly(Recurrence(ZZ, [1, 1]))) == "1 - t - t^2"

    def test_second_axis_variable(self):
        assert str(q_poly(Recurrence(ZZ, [1, 3]), "s")) == "1 - s - 3s^2"

    def test_order_one(self):
        assert str(q_poly(Recurrence(ZZ, [2]))) == "1 - 2t"

    def test_zero_coefficients_drop_out(self):
        assert str(q_poly(Recurrence(ZZ, [0, 5]))) == "1 - 5t^2"


class TestNumeratorBasis:
    def test_order_two(self):
        rec = Recurrence(ZZ, [5, 7])
        q0, q1 = numerator_basis_polys(rec)
        assert str(q0) == "1 - 5t"
        assert str(q1) == "t"

    def test_order_three(self):
        rec = Recurrence(ZZ, [2, 3, 4])
        q0, q1, q2 = numerator_basis_polys(rec)
        assert str(q0) == "1 - 2t - 3t^2"
        assert str(q1) == "t - 2t^2"
        assert str(q2) == "t^2"

    def test_valuation_and_degree(self):
        rec = Recurrence(ZZ, [1, 2, 3, 4])
        polys = numerator_basis_polys(rec)
        for i, Q in enumerate(polys):
            exps = sorted(e[0] for e in Q.value)
            assert exps[0] == i
            assert exps[-1] <= rec.order - 1

    def test_root_sum_specialization(self):
        # rule built from roots 1 and 2: coefficients (3, -2)
        rec = Recurrence(ZZ, [3, -2])
        q0, q1 = numerator_basis_polys(rec)
        assert str(q0) == "1 - 3t"
        assert str(q1) == "t"


class TestGF:
    def test_fibonacci(self, fib):
        g = gf(fib)
        assert str(g.numerator) == "t"
        assert str(g.denominators[0]) == "1 - t - t^2"
        assert str(g) == "t / (1 - t - t^2)"

    def test_two_axis_grid(self, grid):
        g = gf(grid)
        assert str(g.numerator) == "1 - s + t*s"
        assert str(g.denominators[0]) == "1 - t - t^2"
        assert str(g.denominators[1]) == "1 - s - 3s^2"

    def test_zero_sequence(self):
        g = gf(make(ZZ, [(1, 1)], [0, 0]))
        assert g.numerator.is_zero()

    def test_order_two_closed_numerator(self):
        # order 2 numerator must come out as (1 - a t) x0 + t x1
        rng = random.Random(5)
        for _ in range(10):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            x0, x1 = rng.randint(-9, 9), rng.randint(-9, 9)
            seq = Sequence(Recurrence(ZZ, [a, b]), [x0, x1])
            R = PolynomialRing(ZZ, ("t",))
            t = R.variable("t")
            expect = (R.one - R.constant(a) * t) * R.constant(x0) + t * R.constant(x1)
            assert gf(seq).numerator == expect

    def test_rank_needs_coordinate(self):
        seq = make(ZZ, [(1, 1)], [[1, 0], [0, 1]])
        with pytest.raises(RingMismatchError):
            gf(seq)
        g0 = gf(seq, coordinate=0)
        g1 = gf(seq, coordinate=1)
        assert str(g0.numerator) == "1 - t"
        assert str(g1.numerator) == "t"

    def test_bad_coordinate(self, fib):
        with pytest.raises(IndexError):
            gf(fib, coordinate=3)


class TestExpand:
    def test_fibonacci_coefficients(self, fib):
        series = gf(fib).expand((8,))
        got = [series.coefficient((n,)).value for n in range(9)]
        assert got == [0, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_grid_coefficient(self, grid):
        series = gf(grid).expand((4, 4))
        assert series.coefficient((0, 2)).value == 3
        assert series.coefficient((3, 3)).value == 17

    def test_zero_numerator(self):
        series = gf(make(ZZ, [(1, 1)], [0, 0])).expand((6,))
        assert all(
            series.coefficient((n,)).is_zero() for n in range(7)
        )

    def test_out_of_bounds_coefficient(self, fib):
        series = gf(fib).expand((4,))
        with pytest.raises(IndexError):
            series.coefficient((5,))


class TestVerify:
    def test_grid(self, grid):
        assert verify_gf(grid, (8, 8))

    def test_fibonacci(self, fib):
        assert verify_gf(fib, (20,))

    def test_rational_axis(self):
        from fractions import Fraction

        seq = make(QQ, [(Fraction(1, 2), 1)], [1, Fraction(1, 3)])
        assert verify_gf(seq, (12,))

    def test_random_three_axis_specs(self):
        rng = random.Random(20260824)
        for _ in range(5):
            shape = tuple(rng.randint(1, 3) for _ in range(3))
            axes = [
                [rng.randint(-3, 3) for _ in range(d)] for d in shape
            ]
            size = shape[0] * shape[1] * shape[2]
            entries = [rng.randint(-5, 5) for _ in range(size)]
            seq = make(ZZ, axes, entries)
            assert verify_gf(seq, (4, 4, 4))


def verify_by_expansion(seq, orders):
    """The reference: expand every series over the whole box and compare it
    with a window read by the rewriting memo."""
    series = [genfun.gf(seq, coord).expand(orders) for coord in range(seq.rank)]
    box = from_sequence(seq).window((0,) * seq.ndim, series[0].shape)
    return all(
        tuple(s.coeffs[pos] for s in series) == entry.coords
        for pos, entry in enumerate(box.entries)
    )


def corrupt(numerator=None, denominator=None):
    """``gf`` with one numerator term added (an exponent and a payload), or
    with one term added to the first axis's denominator (a degree and a
    payload)."""

    def corrupted(seq, coordinate=None):
        rational = gf(seq, coordinate)
        ring = rational.poly_ring
        num, dens = rational.numerator, list(rational.denominators)
        if numerator is not None:
            exps, c = numerator
            num = num + ring({exps: c})
        if denominator is not None:
            degree, c = denominator
            dens[0] = dens[0] + ring({(degree,) + (0,) * (seq.ndim - 1): c})
        return RationalGF(num, dens)

    return corrupted


VERIFY_RINGS = [
    ZZ,
    QQ,
    IntegerModRing(12),
    ProductRing(IntegerModRing(10**9 + 7), IntegerModRing(12)),
    PolynomialRing(ZZ, ("r",)),
]


class TestVerifyCertificate:
    def test_extra_numerator_term_outside_corner(self, grid, monkeypatch):
        monkeypatch.setattr(genfun, "gf", corrupt(numerator=((2, 0), 1)))
        assert not verify_gf(grid, (8, 8))

    def test_extra_numerator_term_beyond_box_is_harmless(self, grid, monkeypatch):
        monkeypatch.setattr(genfun, "gf", corrupt(numerator=((9, 0), 1)))
        assert verify_gf(grid, (8, 8))
        assert verify_by_expansion(grid, (8, 8))

    def test_changed_corner_coefficient(self, grid, monkeypatch):
        monkeypatch.setattr(genfun, "gf", corrupt(numerator=((1, 1), 1)))
        assert not verify_gf(grid, (8, 8))

    # degree 2 and up change no coefficient of the corner, so only the
    # denominator test sees them
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_changed_denominator_coefficient(self, grid, monkeypatch, degree):
        monkeypatch.setattr(genfun, "gf", corrupt(denominator=(degree, 1)))
        assert not verify_by_expansion(grid, (8, 8))
        assert not verify_gf(grid, (8, 8))

    @pytest.mark.parametrize(
        "orders, message",
        [
            ((8,), "one order bound per variable required"),
            ((8, 8, 8), "one order bound per variable required"),
            ((8, -1), r"negative order bounds \(8, -1\)"),
        ],
    )
    def test_bad_orders(self, grid, orders, message):
        for check in (verify_gf, verify_by_expansion):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(grid, orders)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_expansion(self, data):
        ring = data.draw(st.sampled_from(VERIFY_RINGS))
        p = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, 3 if p < 3 else 2)) for _ in range(p))
        rank = data.draw(st.integers(1, 2))
        small = elements(ring, 3)
        axes = [[data.draw(small) for _ in range(d)] for d in shape]
        entries = [[data.draw(small) for _ in range(rank)] for _ in range(prod(shape))]
        seq = make(ring, axes, entries)
        # bounds below, at and beyond the corner
        orders = tuple(data.draw(st.integers(0, d + 2)) for d in shape)
        # one numerator term, in the box or just beyond it, on one coordinate
        exps = tuple(data.draw(st.integers(0, o + 1)) for o in orders)
        extra = data.draw(small).value
        corrupted = corrupt(numerator=(exps, extra))
        bad = data.draw(st.integers(0, rank - 1))

        def patched(seq, coordinate=None):
            return (corrupted if coordinate == bad else gf)(seq, coordinate)

        assert verify_gf(seq, orders)
        with mock.patch.object(genfun, "gf", patched):
            assert verify_gf(seq, orders) == verify_by_expansion(seq, orders)


class TestInvariants:
    def test_series_times_denominator_is_numerator(self, grid):
        g = gf(grid)
        orders = (6, 6)
        series = g.expand(orders)
        product = series.mul_poly(g.denominator())
        assert product == TruncatedSeries.from_polynomial(g.numerator, orders)

    def test_numerator_is_linear_in_block(self):
        rng = random.Random(11)
        axes = [(1, 1), (2, -1)]
        e1 = [rng.randint(-5, 5) for _ in range(4)]
        e2 = [rng.randint(-5, 5) for _ in range(4)]
        esum = [a + b for a, b in zip(e1, e2)]
        g1 = gf(make(ZZ, axes, e1))
        g2 = gf(make(ZZ, axes, e2))
        gs = gf(make(ZZ, axes, esum))
        assert gs.numerator == g1.numerator + g2.numerator
        assert gs.denominators == g1.denominators

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_expand_matches_terms_mod_prime(self, data):
        ring = IntegerModRing(13)
        d1 = data.draw(st.integers(1, 3))
        d2 = data.draw(st.integers(1, 2))
        axes = [
            [data.draw(st.integers(0, 12)) for _ in range(d1)],
            [data.draw(st.integers(0, 12)) for _ in range(d2)],
        ]
        entries = [data.draw(st.integers(0, 12)) for _ in range(d1 * d2)]
        seq = make(ring, axes, entries)
        assert verify_gf(seq, (5, 5))


COEFFICIENT_RINGS = [
    ZZ,
    QQ,
    IntegerModRing(12),
    ProductRing(ZZ, IntegerModRing(5)),
    PolynomialRing(ZZ, ("r",)),
]


class TestCoefficient:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_expansion_and_rewriting(self, data):
        ring = data.draw(st.sampled_from(COEFFICIENT_RINGS))
        p = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, 3 if p < 3 else 2)) for _ in range(p))
        rank = data.draw(st.integers(1, 2))
        small = elements(ring, 2)
        # the trailing coefficient is often a unit, so that negative
        # indices are reachable
        trailing = st.sampled_from([ring.one, -ring.one]) | small
        axes = [
            [data.draw(small) for _ in range(d - 1)] + [data.draw(trailing)]
            for d in shape
        ]
        size = 1
        for d in shape:
            size *= d
        entries = [
            [data.draw(small) for _ in range(rank)] for _ in range(size)
        ]
        seq = make(ring, axes, entries)
        index = tuple(data.draw(st.integers(-12, 12)) for _ in range(p))
        if any(n < 0 and ax[-1].is_zero() for n, ax in zip(index, axes)):
            # the series then needs no unit a_d; only the rule is refused
            with pytest.raises(NotInvertibleError):
                seq.term(index)
            return
        try:
            expected = seq.term(index).coords
        except NotInvertibleError:
            expected = None
        for coord in range(rank):
            rational = gf(seq, coord)
            if expected is None:
                with pytest.raises(NotInvertibleError):
                    coefficient(rational, index)
                continue
            assert coefficient(rational, index) == expected[coord]
            if min(index) >= 0:
                assert coefficient(rational, index) == rational.expand(index).coefficient(index)

    def test_far_index_matches_kernel(self):
        ring = IntegerModRing(2**61 - 1)
        seq = make(ring, [(3, 1, 4, 1), (5, 9)], list(range(1, 9)))
        for index in [(10**18, -(10**18)), (-(10**15) - 3, 7), (0, 1)]:
            assert coefficient(gf(seq), index) == seq.term_fast(index).scalar()

    def test_non_unit_trailing_coefficient_refused_like_the_kernel(self):
        seq = Sequence(Recurrence(ZZ, [1, 2]), [0, 1])
        with pytest.raises(NotInvertibleError) as kernel:
            seq.term(-1)
        with pytest.raises(NotInvertibleError) as checker:
            coefficient(gf(seq), (-1,))
        assert str(checker.value) == str(kernel.value)

    def test_index_length_checked(self, grid):
        with pytest.raises(IndexError):
            coefficient(gf(grid), (1,))


class TestValidation:
    def test_constant_term_must_be_one(self):
        R = PolynomialRing(ZZ, ("t",))
        t = R.variable("t")
        with pytest.raises(ValueError):
            RationalGF(t, [2 * R.one - t])

    def test_denominator_variable_separation(self):
        R = PolynomialRing(ZZ, ("t", "s"))
        t, s = R.gens()
        with pytest.raises(ValueError):
            RationalGF(t, [R.one - t, R.one - t * s])

    def test_factors_must_multiply_back(self):
        R = PolynomialRing(ZZ, ("t",))
        t = R.variable("t")
        q = (R.one - t) * (R.one - 2 * t)
        good = RationalGF(t, [q], factors=[[R.one - t, R.one - 2 * t]])
        assert str(good) == "t / (1 - t)(1 - 2t)"
        with pytest.raises(ValueError):
            RationalGF(t, [q], factors=[[R.one - t, R.one - 3 * t]])
