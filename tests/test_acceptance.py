"""Acceptance gate: nine criteria, each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion carries a wall-clock budget that is asserted, not
just reported.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

from linrec.closedform import R_poly, R_rational, RootPair, term_via_roots
from linrec.genfun import verify_gf
from linrec.multiseq import (
    Block,
    MultiSequence,
    MultiSpec,
    antisymmetrize,
    box_indices,
    decompose_tensor,
    diagonal_check,
    diagonal_identity_fib,
    direct_sum,
    direct_sum_mixed,
    from_sequence,
    is_antisymmetric,
    is_symmetric,
    reconstruct,
    symmetrize,
    tensor_product,
)
from linrec.orbits import (
    block_index,
    block_sequence,
    classify_orbits,
    generation_certificate,
)
from linrec.recurrence import Recurrence, Sequence
from linrec.recurrence import check_membership as check_membership_1d
from linrec.rings import QQ, ZZ, IntegerModRing, PolynomialRing, ProductRing

MERSENNE = 2**61 - 1


@contextmanager
def criterion(number: int, label: str, limit_s: float):
    start = time.perf_counter()
    done = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, (
            f"criterion {number} took {elapsed:.2f}s, budget {limit_s:.0f}s"
        )
        done = True
        print(
            f"[PASS] criterion {number}: {label} "
            f"({elapsed:.2f}s, budget {limit_s:.0f}s)"
        )
    finally:
        if not done:
            print(f"[FAIL] criterion {number}: {label}")


def scalar_grid(seq: MultiSequence, n_count: int, k_count: int):
    """Plain-int values ``vals[k][n]`` of a two-axis scalar sequence."""
    window = seq.window((0, 0), (n_count, k_count))
    return [
        [window.at((n, k)).scalar().value for n in range(n_count)]
        for k in range(k_count)
    ]


def test_criterion_1_two_rule_grid():
    with criterion(1, "two-rule grid reproduces its quadrant values", 1.0):
        spec = MultiSpec(ZZ, [(1, 1), (1, 3)])
        seq = MultiSequence(spec, Block(ZZ, (2, 2), [1, 1, 0, 1]))
        assert scalar_grid(seq, 4, 4) == [
            [1, 1, 2, 3],
            [0, 1, 1, 2],
            [3, 4, 7, 11],
            [3, 7, 10, 17],
        ]


def test_criterion_2_triangular_arrays():
    left = [
        [1, 0, 1, 1, 2, 3, 5, 8, 13],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 1, 2, 3, 5],
        [1, 0, 1, 1, 2, 3],
        [2, 0, 2, 2, 4],
        [3, 0, 3, 3],
        [5, 0, 5],
        [8, 0],
        [13],
    ]
    right = [
        [0, 1, 1, 2, 3, 5, 8, 13, 21],
        [1, 0, 1, 1, 2, 3, 5, 8],
        [1, 1, 2, 3, 5, 8, 13],
        [2, 1, 3, 4, 7, 11],
        [3, 2, 5, 7, 12],
        [5, 3, 8, 11],
        [8, 5, 13],
        [13, 8],
        [21],
    ]
    with criterion(2, "triangular arrays from 2x2 blocks", 1.0):
        spec = MultiSpec(ZZ, [(1, 1), (1, 1)])
        for block_vals, triangle in (
            ((1, 0, 0, 0), left),
            ((0, 1, 1, 0), right),
        ):
            seq = MultiSequence(spec, Block(ZZ, (2, 2), list(block_vals)))
            for k, row in enumerate(triangle):
                for n, expected in enumerate(row):
                    assert n + k <= 8
                    assert seq.term((n, k)).scalar().value == expected


def _fib_like_identity_holds(vals, n, k):
    return vals[n][k + 3] - vals[n + 3][k] == 2 * (
        vals[n + 2][k + 1] - vals[n + 1][k + 2]
    )


def _general_identity_holds(vals, n, k, a, b, c, d):
    lhs = a * b * vals[n][k + 3] + (a * a + b) * c * vals[n + 1][k + 2]
    rhs = a * (c * c + d) * vals[n + 2][k + 1] + c * d * vals[n + 3][k]
    return lhs == rhs


def _int_grid(axis1, axis2, block_vals, n_count, k_count):
    """Iteratively filled plain-int grid ``vals[n][k]``, an oracle that
    bypasses the memoized evaluator."""
    a, b = axis1
    c, d = axis2
    vals = [[0] * k_count for _ in range(n_count)]
    vals[0][0], vals[1][0], vals[0][1], vals[1][1] = block_vals
    for n in range(2, n_count):
        vals[n][0] = a * vals[n - 1][0] + b * vals[n - 2][0]
        vals[n][1] = a * vals[n - 1][1] + b * vals[n - 2][1]
    for n in range(n_count):
        for k in range(2, k_count):
            vals[n][k] = c * vals[n][k - 1] + d * vals[n][k - 2]
    return vals


def test_criterion_3_cross_diagonal_identities():
    with criterion(3, "cross-diagonal identities", 30.0):
        spec = MultiSpec(ZZ, [(1, 1), (1, 1)])
        seq = MultiSequence(spec, Block(ZZ, (2, 2), [3, 3, 2, 0]))
        diagonal = [
            seq.term((0, 3)).scalar().value,
            seq.term((1, 2)).scalar().value,
            seq.term((2, 1)).scalar().value,
            seq.term((3, 0)).scalar().value,
        ]
        assert diagonal == [7, 3, 2, 9]
        assert 7 - 9 == 2 * (2 - 3)
        assert diagonal_identity_fib(seq, 0, 0)

        rng = random.Random(31337)
        for trial in range(1000):
            block_vals = [rng.randrange(-50, 51) for _ in range(4)]
            vals = _int_grid((1, 1), (1, 1), block_vals, 24, 24)
            for n in range(21):
                for k in range(21):
                    assert _fib_like_identity_holds(vals, n, k)
            if trial % 100 == 0:
                lib = MultiSequence(spec, Block(ZZ, (2, 2), block_vals))
                window = lib.window((0, 0), (24, 24))
                for n in range(24):
                    for k in range(24):
                        assert window.at((n, k)).scalar().value == vals[n][k]
                assert diagonal_identity_fib(lib, 3, 5)
                assert diagonal_check(lib, 2, 7)

        for a, b, c, d in ((1, 1, 1, 1), (2, 2, 2, 2), (1, 2, 2, 8)):
            assert a * a * d == b * c * c
            gen_spec = MultiSpec(ZZ, [(a, b), (c, d)])
            for trial in range(500):
                block_vals = [rng.randrange(-50, 51) for _ in range(4)]
                vals = _int_grid((a, b), (c, d), block_vals, 12, 12)
                for n in range(9):
                    for k in range(9):
                        assert _general_identity_holds(vals, n, k, a, b, c, d)
                if trial % 100 == 0:
                    lib = MultiSequence(gen_spec, Block(ZZ, (2, 2), block_vals))
                    assert diagonal_check(lib, 4, 2)


def test_criterion_4_orbit_census():
    with criterion(4, "binary block orbit census", 5.0):
        orbits = classify_orbits()
        assert len(orbits) == 5
        assert sorted(o.size for o in orbits) == [1, 1, 2, 3, 9]

        by_index = {block_index(o.primitive): o for o in orbits}
        assert sorted(by_index) == [0, 1, 6, 7, 9]
        assert by_index[1].size == 9
        assert by_index[9].size == 2

        def window(block, i, j):
            seq = block_sequence(block)
            return (
                seq.term((i, j)).scalar().value,
                seq.term((i + 1, j)).scalar().value,
                seq.term((i, j + 1)).scalar().value,
                seq.term((i + 1, j + 1)).scalar().value,
            )

        # shifting the one-hot corner block reaches every other member,
        # ending at the all-ones block two steps out along both axes
        b1 = (1, 0, 0, 0)
        assert window(b1, 2, 2) == (1, 1, 1, 1)
        assert window(b1, 1, 0) == (0, 1, 0, 0)
        assert window(b1, 0, 1) == (0, 0, 1, 0)
        assert window(b1, 1, 1) == (0, 0, 0, 1)
        assert window(b1, 2, 1) == (0, 0, 1, 1)
        assert window(b1, 1, 2) == (0, 1, 0, 1)

        # the checkerboard block's horizontal and vertical shifts
        b2 = (0, 1, 1, 0)
        assert window(b2, 1, 0) == (1, 1, 0, 1)
        assert window(b2, 0, 1) == (1, 0, 1, 1)

        # the diagonal block shifts identically along either axis
        b3 = (1, 0, 0, 1)
        assert window(b3, 1, 0) == window(b3, 0, 1) == (0, 1, 1, 1)

        matrix, det = generation_certificate()
        assert det in (1, -1)
        assert matrix[0] == [1, 0, 0, 0]


def test_criterion_5_generating_functions():
    with criterion(5, "generating function verification", 60.0):
        fib = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        assert verify_gf(fib, (20,))

        grid = MultiSequence(
            MultiSpec(ZZ, [(1, 1), (1, 3)]), Block(ZZ, (2, 2), [1, 1, 0, 1])
        )
        assert verify_gf(grid, (8, 8))

        rng = random.Random(271828)
        for trial in range(30):
            p = trial % 3 + 1
            orders = {1: (12,), 2: (6, 6), 3: (4, 4, 4)}[p]
            axes = []
            for _ in range(p):
                d = rng.randrange(1, 4)
                coeffs = [rng.randrange(-3, 4) for _ in range(d)]
                while coeffs[-1] == 0:
                    coeffs[-1] = rng.randrange(-3, 4)
                axes.append(coeffs)
            spec = MultiSpec(ZZ, axes)
            size = 1
            for d in spec.shape:
                size *= d
            block = Block(
                ZZ, spec.shape, [rng.randrange(-3, 4) for _ in range(size)]
            )
            assert verify_gf(MultiSequence(spec, block), orders)


def test_criterion_6_root_closed_forms():
    with criterion(6, "root closed forms", 60.0):
        pairs = [(1, 2), (2, 3), (-1, 3)]

        for r1, r2 in pairs:
            roots = RootPair(ZZ, r1, r2)
            rec = roots.recurrence()
            for i in (0, 1):
                for n in range(41):
                    assert R_poly(i, n, roots) == rec.basis_value(i, n)

        for r1, r2 in pairs:
            roots = RootPair(QQ, r1, r2)
            rec = roots.recurrence()
            for i in (0, 1):
                basis_seq = Sequence(
                    rec, [Fraction(1 if j == i else 0) for j in range(2)]
                )
                backward = basis_seq.extend_backward(10)
                for n in range(41):
                    assert R_rational(i, n, roots) == rec.basis_value(i, n)
                for step in range(1, 11):
                    assert R_rational(i, -step, roots) == backward[
                        step - 1
                    ].scalar()

        rng = random.Random(1618)
        for r1, r2 in pairs:
            roots = RootPair(ZZ, r1, r2)
            delta = roots.delta
            for p in (2, 3):
                spec = MultiSpec(ZZ, [[roots.a, roots.b]] * p)
                scale = delta
                for _ in range(p - 1):
                    scale = scale * delta
                for _ in range(3):
                    entries = [rng.randrange(-5, 6) for _ in range(2**p)]
                    seq = MultiSequence(spec, Block(ZZ, (2,) * p, entries))
                    for idx in box_indices((16,) * p):
                        lhs = term_via_roots(seq, roots, idx, division_free=True)
                        assert lhs == seq.term(idx).scale(scale)

        sym_ring = PolynomialRing(ZZ, ("r1", "r2"))
        g1, g2 = sym_ring.gens()
        sym_roots = RootPair(sym_ring, g1, g2)
        sym_rec = sym_roots.recurrence()
        for i in (0, 1):
            for n in range(13):
                assert R_poly(i, n, sym_roots) == sym_rec.basis_value(i, n)


def _fib_pair_mod(n: int, m: int):
    """Fast-doubling Fibonacci pair ``(F(n), F(n+1))`` modulo ``m``."""
    if n == 0:
        return 0, 1 % m
    a, b = _fib_pair_mod(n >> 1, m)
    c = (a * ((2 * b - a) % m)) % m
    d = (a * a + b * b) % m
    if n & 1:
        return d, (c + d) % m
    return c, d


def test_criterion_7_fast_term_equivalence():
    with criterion(7, "fast term equivalence and speed", 60.0):
        rng = random.Random(694201)
        rings = [ZZ, IntegerModRing(MERSENNE), IntegerModRing(97)]
        for trial in range(200):
            ring = rings[trial % 3]
            d = rng.randrange(1, 5)
            low, high = (-2, 3) if ring is ZZ else (0, 50)
            coeffs = [ring(rng.randrange(low, high)) for _ in range(d)]
            while coeffs[-1].is_zero():
                coeffs[-1] = ring(rng.randrange(low, high))
            seq = Sequence(
                Recurrence(ring, coeffs),
                [ring(rng.randrange(low, high)) for _ in range(d)],
            )
            rewriting = from_sequence(seq)
            for _ in range(3):
                n = rng.randrange(0, 2001)
                assert seq.term_fast(n) == seq.term(n)
                assert seq.term(n) == rewriting.term((n,))

        for trial in range(100):
            ring = rings[trial % 3]
            low, high = (-2, 3) if ring is ZZ else (0, 50)
            axes = []
            for _ in range(2):
                d = rng.randrange(1, 4)
                coeffs = [ring(rng.randrange(low, high)) for _ in range(d)]
                while coeffs[-1].is_zero():
                    coeffs[-1] = ring(rng.randrange(low, high))
                axes.append(coeffs)
            spec = MultiSpec(ring, axes)
            size = spec.shape[0] * spec.shape[1]
            block = Block(
                ring,
                spec.shape,
                [ring(rng.randrange(low, high)) for _ in range(size)],
            )
            seq = MultiSequence(spec, block)
            for _ in range(5):
                idx = (rng.randrange(0, 31), rng.randrange(0, 31))
                assert seq.term_fast(idx) == seq.term(idx)

        ring = IntegerModRing(MERSENNE)
        fib = MultiSequence(
            MultiSpec(ring, [(1, 1)]), Block(ring, (2,), [0, 1])
        )
        n = 10**9
        fib.term_fast((n,))  # warm caches before timing
        best = min(
            _timed(lambda: fib.term_fast((n,)))[1] for _ in range(3)
        )
        value = fib.term_fast((n,)).scalar().value
        assert value == _fib_pair_mod(n, MERSENNE)[0]
        assert best < 0.1, f"large-index evaluation took {best * 1000:.1f} ms"


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_criterion_8_construction_round_trips():
    with criterion(8, "construction round trips", 30.0):
        fib = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        lucas = Sequence(Recurrence(ZZ, [1, 1]), [2, 1])
        ratio = Sequence(
            Recurrence(QQ, [Fraction(1, 2), Fraction(3, 4)]),
            [Fraction(1), Fraction(1, 3)],
        )
        paired = Sequence(Recurrence(ZZ, [1, 1]), [[1, 0], [0, 1]])
        for seq in (fib, lucas, ratio, paired):
            again = Sequence(seq.recurrence, seq.decompose())
            for n in range(51):
                assert again.term(n) == seq.term(n)

        rank23_x = Sequence(Recurrence(ZZ, [1, 2]), [[1, 0], [2, 1]])
        rank23_y = Sequence(Recurrence(ZZ, [2, 1]), [[1, 1, 0], [0, 1, 3]])
        for x, y in ((fib, lucas), (rank23_x, rank23_y)):
            product = tensor_product(x, y)
            block = decompose_tensor(product)
            again = reconstruct(product.spec, block)
            for idx in box_indices((9, 9)):
                expected = x.term(idx[0]).kron(y.term(idx[1]))
                assert again.term(idx) == expected
                assert product.term(idx) == expected

        grid_spec = [(1, 1), (1, 3)]
        gx = MultiSequence(
            MultiSpec(ZZ, grid_spec), Block(ZZ, (2, 2), [1, 1, 0, 1])
        )
        gy = MultiSequence(
            MultiSpec(ZZ, grid_spec), Block(ZZ, (2, 2), [2, 0, 1, 5])
        )
        total = direct_sum(gx, gy)
        for idx in box_indices((6, 6)):
            value = total.term(idx)
            assert value.coords[: gx.rank] == gx.term(idx).coords
            assert value.coords[gx.rank :] == gy.term(idx).coords

        mixed = direct_sum_mixed(
            Sequence(Recurrence(ZZ, [1, 1]), [0, 1]),
            Sequence(Recurrence(ZZ, [1, 3]), [1, 1]),
        )
        assert isinstance(mixed.ring, ProductRing)
        assert mixed.recurrence.coeffs == (
            mixed.ring((1, 1)),
            mixed.ring((1, 3)),
        )
        window = [mixed.term(n) for n in range(12)]
        assert check_membership_1d(mixed.recurrence, window)

        qfib = Sequence(Recurrence(QQ, [1, 1]), [0, 1])
        qlucas = Sequence(Recurrence(QQ, [1, 1]), [2, 1])
        sym = symmetrize(qfib, qlucas)
        anti = antisymmetrize(qfib, qlucas)
        assert is_symmetric(sym)
        assert is_antisymmetric(anti)
        product = tensor_product(qfib, qlucas)
        for idx in box_indices((7, 7)):
            assert sym.term(idx) + anti.term(idx) == product.term(idx)


def test_criterion_9_axis_order_independence():
    with criterion(9, "axis-order independence", 30.0):
        rng = random.Random(55901)
        rings = [ZZ, IntegerModRing(97), QQ]
        orders = list(permutations((1, 2, 3)))
        for trial in range(50):
            ring = rings[trial % 3]
            axes = []
            for _ in range(3):
                d = rng.randrange(1, 3)
                coeffs = [ring(rng.randrange(-2, 3)) for _ in range(d)]
                while coeffs[-1].is_zero():
                    coeffs[-1] = ring(rng.randrange(-2, 3))
                axes.append(coeffs)
            spec = MultiSpec(ring, axes)
            size = 1
            for d in spec.shape:
                size *= d
            entries = [ring(rng.randrange(-2, 3)) for _ in range(size)]
            indices = [
                tuple(rng.randrange(0, 13) for _ in range(3))
                for _ in range(20)
            ]
            results = []
            for priority in orders:
                fresh = MultiSequence(spec, Block(ring, spec.shape, entries))
                results.append(
                    [fresh.term(idx, priority=priority) for idx in indices]
                )
            for other in results[1:]:
                assert other == results[0]
