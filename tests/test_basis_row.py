"""Basis rows ``x^n mod chi``: agreement with plain iteration on every ring
kind and access pattern, multiply counts, and sharing between threads."""

import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from linrec.errors import NotInvertibleError
from linrec.multiseq import Block, MultiSequence, MultiSpec, diagonal_check
from linrec.recurrence import Recurrence, Sequence
from linrec.rings import QQ, ZZ, IntegerModRing, PolynomialRing, ProductRing

MERSENNE = 2**61 - 1

# each ring with a pool of coefficient payloads and the largest |n| tested;
# values over Z, Q and Z[r1, r2] grow with n, so those spans are shorter
RINGS = [
    (ZZ, [-2, -1, 0, 1, 2, 3], 40),
    (QQ, [Fraction(-1, 2), Fraction(2, 3), 0, 1, 3], 30),
    (IntegerModRing(12), list(range(12)), 60),
    (IntegerModRing(MERSENNE), [0, 1, 5, MERSENNE - 2, 12345678901], 60),
    (
        ProductRing(IntegerModRing(10**9 + 7), IntegerModRing(12)),
        [(1, 1), (3, 5), (0, 7), (10**9, 11), (2, 0)],
        60,
    ),
    (
        PolynomialRing(ZZ, ("r1", "r2")),
        [{(1, 0): 1}, {(0, 1): 1}, 1, -1, {(1, 1): 2, (0, 0): -1}, 0],
        10,
    ),
]


def reference_rows(ring, coeffs, lo, hi):
    """Basis rows ``lo..hi`` by plain payload iteration: the rule forward
    from the identity segment, the reversed rule below zero."""
    a = [ring.coerce(c) for c in coeffs]
    d = len(a)
    one, zero = ring.payload_one(), ring.payload_zero()
    rows = {n: [one if i == n else zero for i in range(d)] for n in range(d)}
    for n in range(d, hi + 1):
        row = [zero] * d
        for j in range(1, d + 1):
            for i in range(d):
                row[i] = ring.add(row[i], ring.mul(a[j - 1], rows[n - j][i]))
        rows[n] = row
    if lo < 0:
        inv = ring.try_invert(a[-1])
        for n in range(-1, lo - 1, -1):
            # x[n] = a_d^-1 * (x[n+d] - a_1*x[n+d-1] - ... - a_(d-1)*x[n+1])
            row = list(rows[n + d])
            for j in range(1, d):
                for i in range(d):
                    row[i] = ring.sub(row[i], ring.mul(a[j - 1], rows[n + d - j][i]))
            rows[n] = [ring.mul(inv, v) for v in row]
    return rows


def access_orders(rng, lo, hi):
    span = list(range(lo, hi + 1))
    shuffled = [rng.randrange(lo, hi + 1) for _ in range(len(span))]
    return [
        span,
        span[::-1],
        [n for n in span for _ in range(2)],
        shuffled,
    ]


@pytest.mark.parametrize("ring, pool, span", RINGS, ids=[r.describe() for r, _, _ in RINGS])
def test_rows_match_plain_iteration(ring, pool, span):
    rng = random.Random(f"{ring.describe()}-rows")
    for d in range(1, 9):
        for _ in range(3):
            coeffs = [rng.choice(pool) for _ in range(d)]
            rec = Recurrence(ring, coeffs)
            lo = -span if ring.try_invert(rec.coeffs[-1].value) is not None else 0
            expect = reference_rows(ring, coeffs, lo, span)
            for order in access_orders(rng, lo, span):
                for n in order:
                    assert [v.value for v in rec.basis_row(n)] == expect[n], (coeffs, n)
                # a fresh rule reaches each index by powering alone
                n = rng.choice(order)
                assert [v.value for v in Recurrence(ring, coeffs).basis_row(n)] == expect[n]


@pytest.mark.parametrize(
    "ring, coeffs",
    [(ZZ, [1, 2]), (IntegerModRing(12), [5, 0, 3]), (ZZ, [0, 0])],
)
def test_descending_scan_with_non_unit_trailing(ring, coeffs):
    rec = Recurrence(ring, coeffs)
    expect = reference_rows(ring, coeffs, 0, 40)
    for n in range(40, -1, -1):
        assert [v.value for v in rec.basis_row(n)] == expect[n]


@pytest.mark.parametrize(
    "ring, coeffs, shown",
    [(ZZ, [1, 2], "2"), (IntegerModRing(12), [5, 0, 3], "3"), (ZZ, [1, 0], "0")],
)
def test_negative_index_with_non_unit_trailing(ring, coeffs, shown):
    message = (
        f"trailing coefficient {shown} is not a unit in {ring.describe()}; "
        "cannot step backward"
    )
    rec = Recurrence(ring, coeffs)
    for n in (-1, -2, -1000):
        with pytest.raises(NotInvertibleError, match=re.escape(message)):
            rec.basis_row(n)
    # a refused request leaves the rule usable
    assert [v.value for v in rec.basis_row(5)] == reference_rows(ring, coeffs, 0, 5)[5]


def counting_ring():
    """Z/(2^61-1) whose payload multiplies are counted."""
    ring = IntegerModRing(MERSENNE)
    calls = [0]
    mul = ring.mul

    def counted(x, y):
        calls[0] += 1
        return mul(x, y)

    ring.mul = counted
    return ring, calls


@pytest.mark.parametrize("d", range(1, 9))
def test_multiply_counts(d):
    ring, calls = counting_ring()
    coeffs = [(7 * j + 3) % 11 + 1 for j in range(d)]

    def bound(n):
        return 2 * d * d * abs(n).bit_length() + d

    for n in (1, 2, 3, 7, 100, 4097, 5000, -1, -2, -4097, -5000):
        rec = Recurrence(ring, coeffs)
        calls[0] = 0
        rec.basis_row(n)
        assert calls[0] <= bound(n), (n, calls[0])

    # a far lookup: rows, then d more to combine them with the initial values
    seq = Sequence(Recurrence(ring, coeffs), list(range(1, d + 1)))
    calls[0] = 0
    seq.term_fast(10**18)
    assert calls[0] <= bound(10**18) + d

    # dense scans step once per row in either direction
    rec = Recurrence(ring, coeffs)
    for n in list(range(1, 301)) + list(range(299, -301, -1)):
        calls[0] = 0
        rec.basis_row(n)
        assert calls[0] <= d, (n, calls[0])


def test_diagonal_check_cost_does_not_depend_on_position():
    # the relation's weights at the origin certify every position, so a
    # far position costs no basis-row powering
    ring, calls = counting_ring()
    counts = []
    for n in (0, 10**18):
        spec = MultiSpec(ring, [(1, 1), (1, 1)])
        seq = MultiSequence(spec, Block(ring, (2, 2), [1, 2, 3, 4]))
        calls[0] = 0
        assert diagonal_check(seq, n, n)
        counts.append(calls[0])
    assert counts[0] == counts[1]


def test_threads_sharing_a_rule_get_correct_rows():
    ring = IntegerModRing(MERSENNE)
    coeffs = [3, 1, 4, 1]
    span = range(-300, 1801)
    expect = dict(zip(span, _scan(Recurrence(ring, coeffs), span)))
    shared = Recurrence(ring, coeffs)
    scans = [
        range(-300, 1801),
        range(1800, -301, -1),
        range(200, 1801),
        range(1300, -301, -1),
    ]
    results = [None] * len(scans)
    start = threading.Barrier(len(scans))

    def work(k):
        start.wait(timeout=60)
        results[k] = _scan(shared, scans[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(scans))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for scan, rows in zip(scans, results):
        for n, row in zip(scan, rows):
            assert row == expect[n], n


def _scan(rec, indices):
    return [rec.basis_row(n) for n in indices]
