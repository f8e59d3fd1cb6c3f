"""One-dimensional recurrences: canonical solutions, evaluation, shifts."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements
from linrec.errors import NotInvertibleError
from linrec.genfun import coefficient, gf
from linrec.multiseq import from_sequence
from linrec.recurrence import Recurrence, Sequence, check_membership, reconstruct
from linrec.rings import (
    QQ,
    ZZ,
    IntegerModRing,
    ModuleElement,
    PolynomialRing,
    ProductRing,
)


def plain_terms(coeffs, initial, count):
    """Reference evaluation with bare Python ints."""
    vals = list(initial)
    d = len(coeffs)
    while len(vals) < count:
        vals.append(sum(a * vals[-j] for j, a in enumerate(coeffs, start=1)))
    return vals[:count]


@pytest.fixture
def fib():
    return Sequence(Recurrence(ZZ, [1, 1]), [0, 1])


class TestBasisSolutions:
    def test_defining_segment_is_identity(self):
        rec = Recurrence(ZZ, [2, 0, -1])
        for n in range(3):
            row = rec.basis_row(n)
            assert [v.value for v in row] == [1 if i == n else 0 for i in range(3)]

    def test_fibonacci_basis_values(self):
        rec = Recurrence(ZZ, [1, 1])
        fibs = plain_terms([1, 1], [0, 1], 22)
        for n in range(2, 20):
            assert rec.basis_value(1, n).value == fibs[n]
            assert rec.basis_value(0, n).value == fibs[n - 1]

    def test_basis_rows_satisfy_the_rule(self):
        rec = Recurrence(ZZ, [3, -1, 2])
        for n in range(3, 40):
            row = rec.basis_row(n)
            prev = [rec.basis_row(n - j) for j in range(1, 4)]
            for i in range(3):
                expect = sum(
                    (a * prev[j - 1][i] for j, a in enumerate(rec.coeffs, start=1)),
                    ZZ.zero,
                )
                assert row[i] == expect

    def test_bad_basis_index(self):
        rec = Recurrence(ZZ, [1, 1])
        with pytest.raises(IndexError):
            rec.basis_value(2, 5)


class TestCompanionMatrix:
    def test_fast_row_matches_iterative(self):
        coeffs = [2, 1, -1, 3]
        scanned = Recurrence(ZZ, coeffs)
        steps = [scanned.basis_row(n) for n in range(101)]
        for n in (0, 1, 2, 3, 7, 16, 45, 100):
            # a fresh rule reaches n by powering, the scan by single steps
            row = Recurrence(ZZ, coeffs).basis_row(n)
            assert row == steps[n]
            assert [v.value for v in row] == [
                plain_terms(coeffs, [int(i == j) for j in range(4)], n + 1)[n]
                for i in range(4)
            ]

    def test_fast_row_matches_iterative_negative(self):
        rec = Recurrence(QQ, [3, -2])
        for n in (-1, -2, -5, -17):
            row = Recurrence(QQ, [3, -2]).basis_row(n)
            assert row == rec.basis_row(n)
            for i in range(2):
                unit = from_sequence(Sequence(rec, [int(i == j) for j in range(2)]))
                assert unit.term((n,)).scalar() == row[i]


class TestSequenceEvaluation:
    def test_fibonacci_terms(self, fib):
        fibs = plain_terms([1, 1], [0, 1], 60)
        for n in (0, 1, 2, 10, 20, 50):
            assert fib.term(n).scalar().value == fibs[n]
        assert fib.term(50).scalar().value == 12586269025

    def test_term_fast_agrees(self, fib):
        fibs = plain_terms([1, 1], [0, 1], 80)
        for n in range(0, 80, 7):
            assert fib.term_fast(n) == fib.term(n)
            assert fib.term(n).scalar().value == fibs[n]

    def test_large_index_mod_prime(self):
        p = 10**9 + 7
        seq = Sequence(Recurrence(IntegerModRing(p), [1, 1]), [0, 1])
        fibs = plain_terms([1, 1], [0, 1], 5001)
        assert seq.term(5000).scalar().value == fibs[5000] % p
        assert seq.term_fast(5000).scalar().value == fibs[5000] % p

    def test_iter_terms(self, fib):
        fibs = plain_terms([1, 1], [0, 1], 40)
        got = []
        for v in fib.iter_terms():
            got.append(v.scalar().value)
            if len(got) == 40:
                break
        assert got == fibs

    def test_iter_terms_offset(self, fib):
        it = fib.iter_terms(start=10)
        assert next(it).scalar().value == 55

    def test_vector_valued_terms(self):
        rec = Recurrence(ZZ, [1, 1])
        seq = Sequence(rec, [[1, 0], [0, 1]])
        fibs = plain_terms([1, 1], [0, 1], 20)
        for n in range(1, 18):
            v = seq.term(n)
            assert v[0].value == fibs[n - 1]
            assert v[1].value == fibs[n]

    def test_wrong_initial_count(self):
        with pytest.raises(ValueError):
            Sequence(Recurrence(ZZ, [1, 1]), [1, 2, 3])


class TestBackwardExtension:
    def test_fibonacci_negative_terms(self, fib):
        # trailing coefficient 1 is a unit, so backward steps stay integral
        expect = {-1: 1, -2: -1, -3: 2, -4: -3, -5: 5, -6: -8}
        for n, v in expect.items():
            assert fib.term(n).scalar().value == v

    def test_rational_backward(self):
        seq = Sequence(Recurrence(QQ, [3, -2]), [0, 1])
        assert seq.term(-1).scalar().value == Fraction(-1, 2)
        assert seq.term(-2).scalar().value == Fraction(-3, 4)
        assert [v.scalar().value for v in seq.extend_backward(2)] == [
            Fraction(-1, 2),
            Fraction(-3, 4),
        ]

    def test_backward_rule_still_holds(self):
        seq = Sequence(Recurrence(QQ, [3, -2]), [5, 7])
        for n in range(-10, 0):
            lhs = seq.term(n + 2).scalar()
            rhs = 3 * seq.term(n + 1).scalar() - 2 * seq.term(n).scalar()
        assert lhs == rhs

    def test_non_unit_trailing_refuses(self):
        seq = Sequence(Recurrence(ZZ, [1, 2]), [0, 1])
        with pytest.raises(NotInvertibleError):
            seq.term(-1)

    def test_deep_negative_matches_fast(self):
        seq = Sequence(Recurrence(QQ, [1, 1]), [0, 1])
        assert seq.term(-30) == seq.term_fast(-30)
        assert seq.term(-30) == from_sequence(seq).term((-30,))


class TestShiftDecompose:
    def test_shift_forward(self, fib):
        shifted = fib.shift(5)
        for n in range(10):
            assert shifted.term(n) == fib.term(n + 5)

    def test_shift_backward(self):
        seq = Sequence(Recurrence(QQ, [3, -2]), [0, 1])
        shifted = seq.shift(-3)
        for n in range(8):
            assert shifted.term(n) == seq.term(n - 3)

    def test_decompose_reconstruct_round_trip(self, fib):
        coords = fib.decompose()
        again = reconstruct(fib.recurrence, coords)
        assert again == fib
        for n in range(15):
            assert again.term(n) == fib.term(n)

    def test_decompose_matches_basis_combination(self):
        rec = Recurrence(ZZ, [2, -1, 1])
        seq = Sequence(rec, [3, 1, 4])
        coords = seq.decompose()
        for n in range(20):
            total = ZZ.zero
            for i, c in enumerate(coords):
                total = total + rec.basis_value(i, n) * c.scalar()
            assert seq.term(n).scalar() == total


class TestMembership:
    def test_accepts_valid_run(self, fib):
        vals = [fib.term(n) for n in range(10)]
        assert check_membership(fib.recurrence, vals)

    def test_rejects_corrupted_run(self, fib):
        vals = [fib.term(n).scalar().value for n in range(10)]
        vals[7] += 1
        assert not check_membership(fib.recurrence, vals)

    def test_short_run_is_refused(self, fib):
        with pytest.raises(ValueError):
            check_membership(fib.recurrence, [5, 9])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_sequences_satisfy_their_rule(data):
    ring = IntegerModRing(97)
    d = data.draw(st.integers(1, 4))
    coeffs = [data.draw(st.integers(0, 96)) for _ in range(d)]
    initial = [data.draw(st.integers(0, 96)) for _ in range(d)]
    seq = Sequence(Recurrence(ring, coeffs), initial)
    n = data.draw(st.integers(0, 120))
    lhs = seq.term(n + d).scalar()
    rhs = ring.zero
    for j, a in enumerate(seq.recurrence.coeffs, start=1):
        rhs = rhs + a * seq.term(n + d - j).scalar()
    assert lhs == rhs
    assert seq.term_fast(n) == seq.term(n) == from_sequence(seq).term((n,))


ONE_AXIS_RINGS = [
    ZZ,
    QQ,
    IntegerModRing(12),
    ProductRing(IntegerModRing(10**9 + 7), IntegerModRing(12)),
    PolynomialRing(ZZ, ("r",)),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_axis_paths_agree(data):
    """term, iter_terms, shift, extend_backward and the generating function
    all match the rewriting memo, for either sign of index where a_d is a
    unit."""
    ring = data.draw(st.sampled_from(ONE_AXIS_RINGS), label="ring")
    d = data.draw(st.integers(1, 4), label="order")
    rank = data.draw(st.integers(1, 2), label="rank")
    value = elements(ring, 5)
    coeffs = data.draw(st.lists(value, min_size=d, max_size=d), label="coeffs")
    initial = data.draw(
        st.lists(
            st.lists(value, min_size=rank, max_size=rank), min_size=d, max_size=d
        ),
        label="initial",
    )
    seq = Sequence(Recurrence(ring, coeffs), initial)
    low = -12 if coeffs[-1].try_invert() is not None else 0
    start = data.draw(st.integers(low, 40), label="start")
    n = data.draw(st.integers(low, 40), label="n")
    # without a unit a_d the shifted sequence is read at n - k >= 0 only
    k = data.draw(st.integers(low, 40) if low else st.integers(0, n), label="k")
    memo = from_sequence(seq)

    def want(m):
        return memo.term((m,))

    assert list(islice(seq.iter_terms(start), 41 - start)) == [
        want(m) for m in range(start, 41)
    ]
    assert seq.term(n) == seq.term_fast(n) == want(n)
    assert seq.shift(k).term(n - k) == want(n)
    if low:
        assert seq.extend_backward(12) == [want(-m) for m in range(1, 13)]
    for c in range(rank):
        assert coefficient(gf(seq, c), (n,)) == want(n).coords[c]
