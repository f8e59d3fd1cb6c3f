"""Multi-axis sequences: evaluation, windows, constructions, identities."""

import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements
from linrec import multiseq
from linrec.errors import HypothesisError, NotInvertibleError, RingMismatchError
from linrec.jsonio import load_spec
from linrec.multiseq import (
    Block,
    MultiSequence,
    MultiSpec,
    antisymmetrize,
    box_indices,
    check_membership,
    decompose_tensor,
    diagonal_check,
    diagonal_identity_fib,
    direct_sum,
    direct_sum_mixed,
    from_sequence,
    is_antisymmetric,
    is_symmetric,
    reconstruct,
    reduce_relation,
    symmetrize,
    tensor_product,
)
from linrec.recurrence import Recurrence, Sequence
from linrec.rings import QQ, ZZ, IntegerModRing, PolynomialRing, ProductRing


def make(ring, axes, entries):
    spec = MultiSpec(ring, axes)
    return MultiSequence(spec, Block(ring, spec.shape, entries))


@pytest.fixture
def grid():
    # one axis doubles values by the Fibonacci rule, the other adds three
    # times the older row; the block fixes the four corner values
    return make(ZZ, [(1, 1), (1, 3)], [1, 1, 0, 1])


@pytest.fixture
def fib2d():
    return make(ZZ, [(1, 1), (1, 1)], [3, 3, 2, 0])


class TestBlocks:
    def test_flat_order_first_axis_fastest(self):
        blk = Block(ZZ, (2, 3), list(range(6)))
        assert blk.at((1, 0)).scalar().value == 1
        assert blk.at((0, 1)).scalar().value == 2
        assert blk.at((1, 2)).scalar().value == 5

    def test_box_indices_order(self):
        assert list(box_indices((2, 2))) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Block(ZZ, (2, 2), [1, 2, 3])

    def test_out_of_range_index(self):
        blk = Block(ZZ, (2, 2), [1, 2, 3, 4])
        with pytest.raises(IndexError):
            blk.at((2, 0))

    def test_permute_axes(self):
        blk = Block(ZZ, (2, 3), list(range(6)))
        t = blk.permute_axes((1, 0))
        assert t.shape == (3, 2)
        for i in range(2):
            for j in range(3):
                assert t.at((j, i)) == blk.at((i, j))

    def test_from_function(self):
        blk = Block.from_function(ZZ, (2, 2), lambda idx: 10 * idx[0] + idx[1])
        assert [e.scalar().value for e in blk.entries] == [0, 10, 1, 11]


class TestGridFixture:
    def test_rows_match_known_array(self, grid):
        window = grid.window((0, 0), (4, 4))
        rows = [
            [window.at((n, k)).scalar().value for n in range(4)]
            for k in range(4)
        ]
        assert rows == [
            [1, 1, 2, 3],
            [0, 1, 1, 2],
            [3, 4, 7, 11],
            [3, 7, 10, 17],
        ]

    def test_spot_values(self, grid):
        assert grid.term((2, 2)).scalar().value == 7
        assert grid.term((3, 3)).scalar().value == 17

    def test_fast_agrees_on_grid(self, grid):
        for idx in box_indices((5, 5)):
            assert grid.term_fast(idx) == grid.term(idx)


class TestTriangularArrays:
    def test_block_1000(self):
        seq = make(ZZ, [(1, 1), (1, 1)], [1, 0, 0, 0])
        expect = {
            0: [1, 0, 1, 1, 2, 3, 5, 8, 13],
            1: [0, 0, 0, 0, 0, 0, 0, 0],
            2: [1, 0, 1, 1, 2, 3, 5],
        }
        for k, row in expect.items():
            got = [seq.term((n, k)).scalar().value for n in range(len(row))]
            assert got == row

    def test_block_0110(self):
        seq = make(ZZ, [(1, 1), (1, 1)], [0, 1, 1, 0])
        expect = {
            0: [0, 1, 1, 2, 3, 5, 8, 13, 21],
            1: [1, 0, 1, 1, 2, 3, 5, 8],
            2: [1, 1, 2, 3, 5, 8, 13],
        }
        for k, row in expect.items():
            got = [seq.term((n, k)).scalar().value for n in range(len(row))]
            assert got == row


class TestEvaluation:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_fast_matches_memoized(self, data):
        ring = IntegerModRing(97)
        shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        axes = [
            [data.draw(st.integers(0, 96)) for _ in range(d)] for d in shape
        ]
        size = shape[0] * shape[1]
        entries = [data.draw(st.integers(0, 96)) for _ in range(size)]
        seq = make(ring, axes, entries)
        idx = (data.draw(st.integers(0, 40)), data.draw(st.integers(0, 40)))
        assert seq.term_fast(idx) == seq.term(idx)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_rewrite_order_never_matters(self, data):
        ring = IntegerModRing(11)
        shape = tuple(data.draw(st.integers(1, 2)) for _ in range(3))
        axes = [
            [data.draw(st.integers(0, 10)) for _ in range(d)] for d in shape
        ]
        size = shape[0] * shape[1] * shape[2]
        entries = [data.draw(st.integers(0, 10)) for _ in range(size)]
        spec = MultiSpec(ring, axes)
        idx = tuple(data.draw(st.integers(0, 8)) for _ in range(3))
        values = set()
        for order in permutations((1, 2, 3)):
            fresh = MultiSequence(spec, Block(ring, shape, entries))
            v = fresh.term(idx, priority=order)
            values.add(v.scalar().value)
        assert len(values) == 1

    def test_axis_rules_hold_everywhere(self, grid):
        for n in range(6):
            for k in range(6):
                assert grid.term((n + 2, k)) == grid.term((n + 1, k)) + grid.term((n, k))
                assert grid.term((n, k + 2)) == grid.term((n, k + 1)) + grid.term(
                    (n, k)
                ).scale(ZZ(3))

    def test_bad_priority(self, grid):
        with pytest.raises(ValueError):
            grid.term((1, 1), priority=(1, 1))

    def test_bad_index_length(self, grid):
        with pytest.raises(IndexError):
            grid.term((1, 2, 3))

    def test_negative_indices_over_rationals(self):
        seq = make(QQ, [(3, -2), (1, 1)], [0, 1, 1, 2])
        # the value one step left must regenerate column k by the axis rule
        for k in range(3):
            v = seq.term((-1, k))
            x0, x1 = seq.term((0, k)), seq.term((1, k))
            assert x1 == x0.scale(QQ(3)) + v.scale(QQ(-2))
        assert seq.term_fast((-2, 1)) == seq.term((-2, 1))

    def test_negative_needs_unit_trailing(self):
        seq = make(ZZ, [(1, 2), (1, 1)], [0, 1, 1, 2])
        with pytest.raises(NotInvertibleError):
            seq.term((-1, 0))

    def test_vector_valued(self):
        seq = make(ZZ, [(1, 1), (1, 1)], [[1, 0], [0, 1], [1, 1], [2, 3]])
        assert seq.rank == 2
        v = seq.term((3, 2))
        w = seq.term_fast((3, 2))
        assert v == w
        a = seq.term((1, 2)) + seq.term((0, 2))
        assert seq.term((2, 2)) == a

    def test_memo_limit_under_threads(self, monkeypatch):
        """Threads sharing one sequence keep their values when the memo
        passes its limit and is replaced under them."""
        monkeypatch.setattr(multiseq, "_MEMO_LIMIT", 50)
        seq = make(ZZ, [(1, 1), (2, 3)], [3, 1, 4, 1])
        cells = [(n, k) for n in range(-3, 30) for k in range(30)]
        results, errors = {}, []

        def work(offset):
            try:
                for idx in cells[offset:] + cells[:offset]:
                    results[offset, idx] = seq.term(idx)
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t * 97,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 4 * len(cells)
        for (_, idx), value in results.items():
            assert value == seq.term_fast(idx)


class TestWindowsAndShifts:
    def test_window_is_initial_block_at_origin(self, grid):
        assert grid.window((0, 0)) == grid.block

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2,), ()])
    def test_window_shape_must_match_axes(self, shape):
        seq = load_spec(Path(__file__).parent / "data" / "grid_intro.json").sequence
        with pytest.raises(IndexError, match=f"expected 2 extents, got {len(shape)}"):
            seq.window((0, 0), shape)

    def test_shift_consistency(self, grid):
        shifted = grid.shift((2, 1))
        for idx in box_indices((3, 3)):
            target = (idx[0] + 2, idx[1] + 1)
            assert shifted.term(idx) == grid.term(target)

    def test_shift_axis_one_based(self, grid):
        s1 = grid.shift_axis(1, 3)
        s2 = grid.shift_axis(2, 3)
        assert s1.term((0, 0)) == grid.term((3, 0))
        assert s2.term((0, 0)) == grid.term((0, 3))
        with pytest.raises(IndexError):
            grid.shift_axis(3, 1)

    def test_decompose_reconstruct(self, grid):
        block = grid.decompose()
        again = reconstruct(grid.spec, block)
        assert again == grid
        assert again.term((4, 4)) == grid.term((4, 4))

    def test_decompose_tensor_is_initial_block(self, grid):
        assert decompose_tensor(grid) == grid.block

    def test_membership_accepts_windows(self, grid):
        window = grid.window((1, 2), (4, 3))
        assert check_membership(grid.spec, window)

    def test_membership_rejects_corruption(self, grid):
        window = grid.window((0, 0), (4, 4))
        entries = list(window.entries)
        entries[9] = entries[9] + ZZ(1) * entries[0]
        bad = Block(ZZ, (4, 4), entries)
        assert not check_membership(grid.spec, bad)

    def test_membership_needs_room_to_check(self, grid):
        small = grid.window((0, 0), (2, 2))
        with pytest.raises(ValueError):
            check_membership(grid.spec, small)


class TestTensorProduct:
    def test_terms_multiply(self):
        x = from_sequence(Sequence(Recurrence(ZZ, [1, 1]), [0, 1]))
        y = from_sequence(Sequence(Recurrence(ZZ, [1, 3]), [1, 1]))
        t = tensor_product(x, y)
        assert t.ndim == 2
        for n in range(5):
            for k in range(5):
                expect = x.term((n,)).kron(y.term((k,)))
                assert t.term((n, k)) == expect

    def test_rank_multiplies(self):
        x = make(ZZ, [(1, 1)], [[1, 0], [0, 1]])
        y = make(ZZ, [(2, -1)], [[5], [7]])
        t = tensor_product(x, y)
        assert t.rank == 2
        assert t.term((4, 4)) == x.term((4,)).kron(y.term((4,)))

    def test_window_at_origin_recovers_block(self):
        x = from_sequence(Sequence(Recurrence(ZZ, [1, 1]), [2, 5]))
        y = from_sequence(Sequence(Recurrence(ZZ, [1, 1]), [1, 4]))
        t = tensor_product(x, y)
        assert t.window((0, 0)) == t.block

    def test_higher_dimensional_factor(self):
        x = make(ZZ, [(1, 1), (1, 1)], [1, 0, 0, 1])
        y = make(ZZ, [(2, 1)], [1, 1])
        t = tensor_product(x, y)
        assert t.ndim == 3
        assert t.term((2, 3, 1)) == x.term((2, 3)).kron(y.term((1,)))

    def test_mixed_rings_refused(self):
        x = make(ZZ, [(1, 1)], [0, 1])
        y = make(QQ, [(1, 1)], [0, 1])
        with pytest.raises(RingMismatchError):
            tensor_product(x, y)

    def test_accepts_list_of_one_axis_factors(self):
        sx = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        sy = Sequence(Recurrence(ZZ, [1, 3]), [1, 1])
        t = tensor_product([sx, sy])
        assert t.ndim == 2
        assert t.term((3, 2)).scalar() == sx.term(3).scalar() * sy.term(2).scalar()

    def test_three_one_axis_factors(self):
        fib = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        t = tensor_product(fib, fib, fib)
        assert t.ndim == 3
        assert t.term((4, 5, 6)).scalar().value == 3 * 5 * 8


class TestDirectSums:
    def test_terms_concatenate(self):
        spec_axes = [(1, 1), (1, 3)]
        x = make(ZZ, spec_axes, [1, 1, 0, 1])
        y = make(ZZ, spec_axes, [2, 0, 1, 5])
        s = direct_sum(x, y)
        assert s.rank == 2
        for idx in box_indices((4, 4)):
            assert s.term(idx) == x.term(idx).concat(y.term(idx))

    def test_needs_common_spec(self):
        x = make(ZZ, [(1, 1)], [0, 1])
        y = make(ZZ, [(2, 1)], [0, 1])
        with pytest.raises(RingMismatchError):
            direct_sum(x, y)

    def test_mixed_rules_pair_in_product_ring(self):
        x = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        y = Sequence(Recurrence(ZZ, [2, 1]), [1, 1])
        m = direct_sum_mixed(x, y)
        assert isinstance(m.ring, ProductRing)
        for n in range(8):
            pair = m.term(n).scalar().value
            assert pair[0] == x.term(n).scalar().value
            assert pair[1] == y.term(n).scalar().value

    def test_mixed_known_pairs(self):
        x = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        y = Sequence(Recurrence(ZZ, [1, 3]), [1, 1])
        m = direct_sum_mixed(x, y)
        got = [m.term(n).scalar().value for n in range(4)]
        assert got == [(0, 1), (1, 1), (1, 4), (2, 7)]

    def test_mixed_needs_matching_order(self):
        x = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        y = Sequence(Recurrence(ZZ, [1, 1, 1]), [0, 1, 2])
        with pytest.raises(RingMismatchError):
            direct_sum_mixed(x, y)


class TestSymmetricHalves:
    def fib_pair(self):
        x = from_sequence(Sequence(Recurrence(QQ, [1, 1]), [0, 1]))
        y = from_sequence(Sequence(Recurrence(QQ, [1, 1]), [2, 1]))
        return x, y

    def test_halves_sum_to_tensor(self):
        x, y = self.fib_pair()
        s = symmetrize(x, y)
        a = antisymmetrize(x, y)
        t = tensor_product(x, y)
        for idx in box_indices((4, 4)):
            assert s.term(idx) + a.term(idx) == t.term(idx)

    def test_symmetry_flags(self):
        x, y = self.fib_pair()
        s = symmetrize(x, y)
        a = antisymmetrize(x, y)
        assert is_symmetric(s)
        assert is_antisymmetric(a)
        assert not is_symmetric(a)

    def test_values_respect_swap(self):
        x, y = self.fib_pair()
        s = symmetrize(x, y)
        a = antisymmetrize(x, y)
        for n in range(4):
            for k in range(4):
                assert s.term((n, k)) == s.term((k, n))
                assert a.term((n, k)) == -a.term((k, n))

    def test_works_mod_odd_prime(self):
        x = make(IntegerModRing(7), [(1, 1)], [0, 1])
        y = make(IntegerModRing(7), [(1, 1)], [3, 5])
        s = symmetrize(x, y)
        assert is_symmetric(s)

    def test_known_entry(self):
        x = Sequence(Recurrence(QQ, [1, 1]), [0, 1])
        y = Sequence(Recurrence(QQ, [1, 1]), [2, 1])
        s = symmetrize(x, y)
        assert s.term((1, 2)).scalar() == QQ(2)

    def test_mixed_rule_grid_is_not_symmetric(self, grid):
        assert not is_symmetric(grid)

    def test_refused_when_two_not_a_unit(self):
        x = make(IntegerModRing(6), [(1, 1)], [0, 1])
        y = make(IntegerModRing(6), [(1, 1)], [1, 1])
        with pytest.raises(HypothesisError):
            symmetrize(x, y)

    def test_refused_for_different_rules(self):
        x = make(QQ, [(1, 1)], [0, 1])
        y = make(QQ, [(2, 1)], [0, 1])
        with pytest.raises(HypothesisError):
            antisymmetrize(x, y)

    def test_each_axis_steps_its_own_rule(self):
        """A scan at ``(n, n + 7)`` takes one row step per axis and lookup,
        as with two separate rules, instead of powering both rows again."""
        ring = IntegerModRing(2**61 - 1)
        calls = [0]
        mul = ring.mul

        def counted(x, y):
            calls[0] += 1
            return mul(x, y)

        ring.mul = counted
        coeffs = [3, 1, 4, 1]
        d = len(coeffs)
        x = make(ring, [coeffs], [1, 2, 3, 4])
        y = make(ring, [coeffs], [5, 6, 7, 8])
        halves = [symmetrize(x, y), antisymmetrize(x, y), tensor_product(x, x)]
        separate = MultiSpec(ring, [Recurrence(ring, coeffs), Recurrence(ring, coeffs)])

        def scan(seq):
            calls[0] = 0
            for n in range(10**6, 10**6 + 300):
                seq.term_fast((n, n + 7))
            return calls[0]

        # two powerings, then per lookup one d-multiply step per axis and
        # 2*d*d multiplies to weight and scale the block
        power = 2 * d * d * (10**6 + 7).bit_length() + d
        bound = 2 * power + 300 * (2 * d + 2 * d * d)
        for seq in halves:
            assert seq.spec.axes[0] is not seq.spec.axes[1]
            assert seq.spec.axes[0] == seq.spec.axes[1]
            count = scan(seq)
            assert count == scan(MultiSequence(separate, seq.block))
            assert count <= bound, count


class TestDiagonalIdentities:
    def test_fixture_diagonal_values(self, fib2d):
        diag = [
            fib2d.term((0, 3)).scalar().value,
            fib2d.term((1, 2)).scalar().value,
            fib2d.term((2, 1)).scalar().value,
            fib2d.term((3, 0)).scalar().value,
        ]
        assert diag == [7, 3, 2, 9]

    def test_fib_identity_on_fixture(self, fib2d):
        for n in range(6):
            for k in range(6):
                assert diagonal_identity_fib(fib2d, n, k)

    def test_fib_identity_needs_unit_rules(self, grid):
        with pytest.raises(HypothesisError):
            diagonal_identity_fib(grid, 0, 0)

    def test_general_identity_under_relation(self):
        # axis rules (2, 12) and (1, 3): 2^2*3 = 12*1^2
        seq = make(ZZ, [(2, 12), (1, 3)], [4, -1, 3, 2])
        for n in range(5):
            for k in range(5):
                assert diagonal_check(seq, n, k)

    def test_relation_checked(self):
        seq = make(ZZ, [(2, 12), (2, 3)], [4, -1, 3, 2])
        with pytest.raises(HypothesisError):
            diagonal_check(seq, 0, 0)

    def test_needs_order_two_axes(self):
        seq = make(ZZ, [(1, 1, 1), (1, 1)], [1, 0, 0, 0, 1, 1])
        with pytest.raises(HypothesisError):
            diagonal_identity_fib(seq, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_general_identity_random_blocks(self, data):
        ring = IntegerModRing(101)
        a = data.draw(st.integers(1, 100))
        c = data.draw(st.integers(1, 100))
        d = data.draw(st.integers(1, 100))
        # choose b to satisfy the hypothesis in the prime field
        b = (a * a * d * pow(c * c, -1, 101)) % 101
        entries = [data.draw(st.integers(0, 100)) for _ in range(4)]
        seq = make(ring, [(a, b), (c, d)], entries)
        n = data.draw(st.integers(0, 10))
        k = data.draw(st.integers(0, 10))
        assert diagonal_check(seq, n, k)


RELATION_RINGS = [
    ZZ,
    QQ,
    IntegerModRing(12),
    ProductRing(IntegerModRing(10**9 + 7), IntegerModRing(12)),
    PolynomialRing(ZZ, ("r",)),
]


def draw_sequence(data, ring, ndim):
    shape = tuple(data.draw(st.integers(1, 3)) for _ in range(ndim))
    small = elements(ring, 3)
    axes = [[data.draw(small) for _ in range(d)] for d in shape]
    return make(ring, axes, [data.draw(small) for _ in range(prod(shape))])


class TestRelations:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_value_matches_rewriting(self, data):
        ring = data.draw(st.sampled_from(RELATION_RINGS))
        ndim = data.draw(st.integers(1, 3))
        seq = draw_sequence(data, ring, ndim)
        offset = st.tuples(*[st.integers(0, 3)] * ndim)
        relation = data.draw(
            st.dictionaries(offset, elements(ring, 3), min_size=1, max_size=4)
        )
        at = tuple(data.draw(st.integers(0, 5)) for _ in range(ndim))
        weights = reduce_relation(seq.spec, relation, at)
        value = multiseq.weighted_sum(seq.block.entries, weights)
        memo = from_sequence(seq)
        expected = None
        for o, c in relation.items():
            part = memo.term(tuple(a + j for a, j in zip(at, o))).scale(c)
            expected = part if expected is None else expected + part
        assert value == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_axis_rule_multiples_reduce_to_zero(self, data):
        ring = data.draw(st.sampled_from(RELATION_RINGS))
        ndim = data.draw(st.integers(1, 3))
        spec = draw_sequence(data, ring, ndim).spec
        i = data.draw(st.integers(0, ndim - 1))
        rec = spec.axes[i]
        c = data.draw(elements(ring, 3))
        e = tuple(data.draw(st.integers(0, 4)) for _ in range(ndim))

        def at_power(m):
            return e[:i] + (e[i] + m,) + e[i + 1 :]

        # c * X^e * chi_i(X_i), chi_i(X) = X^d - a_1 X^(d-1) - ... - a_d
        relation = {at_power(rec.order): c}
        for j, a in enumerate(rec.coeffs, 1):
            relation[at_power(rec.order - j)] = -(c * a)
        assert all(w.is_zero() for w in reduce_relation(spec, relation))

    @settings(max_examples=60, deadline=None)
    @given(rules=st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    def test_cross_diagonal_remainder(self, rules):
        a, b, c, d = rules
        spec = MultiSpec(ZZ, [(a, b), (c, d)])
        cross = {
            (0, 3): a * b,
            (1, 2): (a * a + b) * c,
            (2, 1): -a * (c * c + d),
            (3, 0): -c * d,
        }
        remainder = -(a * a * d - b * c * c)
        assert reduce_relation(spec, cross) == [0, 0, 0, remainder]

    def test_default_point_is_origin(self, grid):
        relation = {(1, 0): 2, (0, 1): -1}
        assert reduce_relation(grid.spec, relation) == reduce_relation(
            grid.spec, relation, (0, 0)
        )

    def test_offsets_need_one_entry_per_axis(self, grid):
        with pytest.raises(IndexError):
            reduce_relation(grid.spec, {(1,): 1})
        with pytest.raises(IndexError):
            reduce_relation(grid.spec, {(1, 0): 1}, (0, 0, 0))

    def test_negative_point_needs_unit_trailing(self):
        # 1^2 * 4 = 1 * 2^2, but the second rule's a_d = 4 is not a unit
        seq = make(ZZ, [(1, 1), (2, 4)], [0, 1, 1, 2])
        with pytest.raises(NotInvertibleError):
            reduce_relation(seq.spec, {(0, 0): 1}, (0, -1))
        with pytest.raises(NotInvertibleError):
            diagonal_check(seq, 0, -1)


class TestExactSymmetry:
    def test_periodic_second_axis(self):
        """Values agree under the swap up to index 9 but not beyond:
        ``x[n, k] = F_n F_k`` on a block whose second axis repeats every 10
        steps, so ``x[1, 10] = 0`` while ``x[10, 1] = 55``."""
        fib = [0, 1]
        while len(fib) < 11:
            fib.append(fib[-1] + fib[-2])
        period = [0] * 9 + [1]
        entries = [fib[n] * fib[k] for k in range(10) for n in range(2)]
        seq = make(ZZ, [(1, 1), period], entries)
        assert seq.term((1, 10)) != seq.term((10, 1))
        assert not is_symmetric(seq)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_brute_force(self, data):
        ring = data.draw(st.sampled_from([ZZ, IntegerModRing(7), IntegerModRing(12)]))
        small = elements(ring, 3)
        first = [data.draw(small) for _ in range(data.draw(st.integers(1, 3)))]
        d = len(first)
        kind = data.draw(st.sampled_from(["equal", "times-x", "other"]))
        if kind == "equal":
            second = first
        elif kind == "times-x":
            second = first + [ring.zero]
        else:
            second = [data.draw(small) for _ in range(data.draw(st.integers(1, 3)))]
        # a corner that is symmetric, antisymmetric or neither, continued
        # by the first rule along the second axis
        sign = data.draw(st.sampled_from([1, -1, 0]))
        corner = {}
        for n in range(d):
            for k in range(n, d):
                corner[n, k] = data.draw(small)
                corner[k, n] = data.draw(small) if sign == 0 else corner[n, k] * sign
        rows = {}
        for n in range(d):
            values = [corner[n, k] for k in range(d)]
            while len(values) < len(second):
                values.append(sum((a * v for a, v in zip(first, values[::-1])), ring.zero))
            rows[n] = values
        if data.draw(st.booleans()):
            entries = [rows[n][k] for k in range(len(second)) for n in range(d)]
        else:
            entries = [data.draw(small) for _ in range(d * len(second))]
        seq = make(ring, [first, second], entries)
        values = {idx: seq.term(idx) for idx in box_indices((17, 17))}
        for flip, decide in ((1, is_symmetric), (-1, is_antisymmetric)):
            brute = all(
                values[n, k] == (values[k, n] if flip > 0 else -values[k, n])
                for n, k in values
            )
            assert decide(seq) == brute
