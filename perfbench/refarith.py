"""Reference answers computed without linrec.

Everything here works on raw payloads (ints, Fractions, pairs, dicts) with
arithmetic written out below, so a fault in linrec's rings, basis rows,
contraction or formatting cannot also hide in the reference.  Terms come
from plain iteration of the defining rules over a contiguous index range,
or, for a single far index, from powering ``x^n`` modulo the characteristic
polynomial.  Negative indices use the reversed rule.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product

# one far index is powered rather than iterated beyond this many steps
ITERATE_LIMIT = 512


class Arith:
    """Payload arithmetic of one ring, parsed from its JSON description.

    ``add``, ``mul``, ``neg`` and ``inv`` are bound per ring kind when the
    ring is read, so each op is one plain function call."""

    def __init__(self, desc):
        if desc in ("Z", "Q"):
            self.kind = desc
            self.add, self.mul, self.neg = _plus, _times, _minus
            if desc == "Z":
                self.from_int, self.parse, self.inv = int, int, _int_inverse
            else:
                self.from_int, self.parse, self.inv = Fraction, _fraction, _reciprocal
        elif isinstance(desc, str):
            self.kind = "mod"
            m = self.modulus = int(desc[2:])
            self.add = lambda x, y: (x + y) % m
            self.mul = lambda x, y: x * y % m
            self.neg = lambda x: -x % m
            self.inv = lambda x: pow(x, -1, m)
            self.from_int = lambda n: n % m
            self.parse = lambda obj: int(obj) % m
        elif desc["kind"] == "product":
            self.kind = "product"
            left, right = Arith(desc["left"]), Arith(desc["right"])
            self.add = lambda x, y: (left.add(x[0], y[0]), right.add(x[1], y[1]))
            self.mul = lambda x, y: (left.mul(x[0], y[0]), right.mul(x[1], y[1]))
            self.neg = lambda x: (left.neg(x[0]), right.neg(x[1]))
            self.inv = lambda x: (left.inv(x[0]), right.inv(x[1]))
            self.from_int = lambda n: (left.from_int(n), right.from_int(n))
            self.parse = lambda obj: (left.parse(obj[0]), right.parse(obj[1]))
        else:
            self.kind = "poly"
            self.base = Arith(desc["base"])
            self.nvars = len(desc["variables"])
            self.add, self.mul, self.neg = self._poly_add, self._poly_mul, self._poly_neg
            self.inv, self.from_int, self.parse = self._poly_inv, self._poly_const, self._poly_parse
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    def _poly_const(self, n):
        c = self.base.from_int(n)
        return {(0,) * self.nvars: c} if c != self.base.zero else {}

    def _poly_parse(self, obj):
        out = {}
        for key, val in obj.items():
            c = self.base.parse(val)
            if c != self.base.zero:
                out[tuple(int(e) for e in key.split(","))] = c
        return out

    def _poly_add(self, x, y):
        base = self.base
        out = dict(x)
        for e, c in y.items():
            s = base.add(out.get(e, base.zero), c)
            if s == base.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def _poly_neg(self, x):
        return {e: self.base.neg(c) for e, c in x.items()}

    def _poly_mul(self, x, y):
        base = self.base
        out = {}
        for ex, cx in x.items():
            for ey, cy in y.items():
                e = tuple(a + b for a, b in zip(ex, ey))
                out[e] = base.add(out.get(e, base.zero), base.mul(cx, cy))
        return {e: c for e, c in out.items() if c != base.zero}

    def _poly_inv(self, x):
        if len(x) == 1 and all(e == 0 for e in next(iter(x))):
            (e, c), = x.items()
            return {e: self.base.inv(c)}
        raise ZeroDivisionError("only constant units invert in a polynomial ring")

    def sum_products(self, xs, ys):
        add, mul = self.add, self.mul
        total = self.zero
        for x, y in zip(xs, ys):
            total = add(total, mul(x, y))
        return total


def _plus(x, y):
    return x + y


def _times(x, y):
    return x * y


def _minus(x):
    return -x


def _int_inverse(x):
    if x not in (1, -1):
        raise ZeroDivisionError(f"{x} is not a unit of Z")
    return x


def _reciprocal(x):
    return 1 / x


def _fraction(obj):
    num, _, den = str(obj).partition("/")
    return Fraction(int(num), int(den or 1))


def _reversed_rule(A: Arith, coeffs):
    """Coefficients of ``y[k] = x[d-1-k]``, the rule read backwards."""
    d = len(coeffs)
    inv = A.inv(coeffs[-1])
    out = [None] * d
    for j in range(1, d):
        out[d - j - 1] = A.neg(A.mul(coeffs[j - 1], inv))
    out[d - 1] = inv
    return out


def basis_rows(A: Arith, coeffs, lo: int, hi: int) -> dict[int, list]:
    """Canonical-solution rows ``(B_0[n], ..., B_{d-1}[n])`` for every
    ``lo <= n <= hi``, by plain iteration outward from the defining rows."""
    d = len(coeffs)
    rows = {n: [A.one if i == n else A.zero for i in range(d)] for n in range(d)}
    for n in range(d, hi + 1):
        prev = [rows[n - j] for j in range(1, d + 1)]
        rows[n] = [A.sum_products(coeffs, [r[i] for r in prev]) for i in range(d)]
    if lo < 0:
        back = _reversed_rule(A, coeffs)
        for n in range(-1, lo - 1, -1):
            later = [rows[n + j] for j in range(1, d + 1)]
            rows[n] = [A.sum_products(back, [r[i] for r in later]) for i in range(d)]
    return {n: rows[n] for n in range(lo, hi + 1)}


def _power_row(A: Arith, coeffs, n: int) -> list:
    """Coefficients of ``x^n mod (x^d - a_1 x^{d-1} - ... - a_d)``, which
    are the canonical-solution values at ``n >= 0``."""
    d = len(coeffs)

    add, mul = A.add, A.mul

    def mulmod(p, q):
        prod_ = [A.zero] * (2 * d - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                prod_[i + j] = add(prod_[i + j], mul(pi, qj))
        for k in range(2 * d - 2, d - 1, -1):
            top = prod_[k]
            for j, a in enumerate(coeffs, start=1):
                prod_[k - j] = add(prod_[k - j], mul(top, a))
        return prod_[:d]

    result = [A.one] + [A.zero] * (d - 1)
    base = [A.zero] * d
    if d == 1:
        base = [coeffs[0]]
    else:
        base[1] = A.one
    while n:
        if n & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        n >>= 1
    return result


def basis_row(A: Arith, coeffs, n: int) -> list:
    """One canonical-solution row at any integer ``n``."""
    if abs(n) <= ITERATE_LIMIT:
        return basis_rows(A, coeffs, min(n, 0), max(n, 0))[n]
    if n > 0:
        return _power_row(A, coeffs, n)
    d = len(coeffs)
    row = _power_row(A, _reversed_rule(A, coeffs), d - 1 - n)
    return row[::-1]


def box(shape):
    """Index tuples of a box, first axis fastest (linrec's flat order)."""
    return [tuple(reversed(t)) for t in product(*(range(s) for s in reversed(shape)))]


class Spec:
    """A spec JSON object read into raw payloads."""

    def __init__(self, obj):
        self.A = Arith(obj["ring"])
        self.rank = obj["module_rank"]
        self.coeffs = [[self.A.parse(c) for c in ax["coeffs"]] for ax in obj["axes"]]
        self.shape = tuple(len(c) for c in self.coeffs)
        data = obj["initial"]["data"]
        if self.rank == 1:
            data = [[e] for e in data]
        self.block = [[self.A.parse(c) for c in e] for e in data]

    def contract(self, rows) -> list:
        """``x[index]`` from one canonical-solution row per axis."""
        A = self.A
        total = [A.zero] * self.rank
        for flat, j in enumerate(box(self.shape)):
            w = A.one
            for axis, ji in enumerate(j):
                w = A.mul(w, rows[axis][ji])
            total = [A.add(t, A.mul(w, v)) for t, v in zip(total, self.block[flat])]
        return total

    def term(self, index) -> list:
        return self.contract(
            [basis_row(self.A, c, n) for c, n in zip(self.coeffs, index)]
        )

    def window(self, origin, shape) -> list[list]:
        """Terms over the box at ``origin``, first axis fastest."""
        per_axis = [
            basis_rows(self.A, c, o, o + s - 1)
            for c, o, s in zip(self.coeffs, origin, shape)
        ]
        return [
            self.contract([per_axis[a][o + j] for a, (o, j) in enumerate(zip(origin, idx))])
            for idx in box(shape)
        ]


def fib_grid(block, bound: int):
    """Integer double sequence seeded by a 2x2 block under both-axis
    Fibonacci rules, on ``0..bound+1`` in each index."""
    size = bound + 2
    g = [[0] * size for _ in range(size)]
    x00, x10, x01, x11 = block
    g[0][0], g[1][0], g[0][1], g[1][1] = x00, x10, x01, x11
    for k in (0, 1):
        for n in range(2, size):
            g[n][k] = g[n - 1][k] + g[n - 2][k]
    for n in range(size):
        for k in range(2, size):
            g[n][k] = g[n][k - 1] + g[n][k - 2]
    return g


@functools.lru_cache(maxsize=None)
def orbit_census(bound: int):
    """Orbits of the sixteen binary blocks: ``[(primitive index, [(member
    index, (i, j)), ...]), ...]`` with members by smallest shift."""
    blocks = [tuple((b >> s) & 1 for s in range(4)) for b in range(16)]

    def index(b):
        return b[0] + 2 * b[1] + 4 * b[2] + 8 * b[3]

    def partition(bd):
        reach = {}
        for b in blocks:
            g = fib_grid(b, bd)
            found = {}
            for i in range(bd + 1):
                for j in range(bd + 1):
                    w = (g[i][j], g[i + 1][j], g[i][j + 1], g[i + 1][j + 1])
                    if all(v in (0, 1) for v in w):
                        key = (i + j, i, j)
                        if w not in found or key < found[w]:
                            found[w] = key
            reach[b] = found
        prims = [b for b in blocks if not any(b in reach[o] for o in blocks if o != b)]
        out = []
        for p in prims:
            members = sorted(reach[p].items(), key=lambda kv: kv[1])
            out.append((index(p), [(index(m), (k[1], k[2])) for m, k in members]))
        return out

    first = partition(bound)
    wider = partition(bound + 2)
    if [(p, sorted(m for m, _ in ms)) for p, ms in first] != [
        (p, sorted(m for m, _ in ms)) for p, ms in wider
    ]:
        raise ValueError("census changes with the bound")
    return first


def shift_name(i: int, j: int) -> str:
    if not (i or j):
        return "id"
    h = "" if not i else ("H" if i == 1 else f"H^{i}")
    v = "" if not j else ("V" if j == 1 else f"V^{j}")
    return h + v


def determinant(rows) -> Fraction:
    rows = [[Fraction(v) for v in r] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def determines(spec: Spec, positions) -> bool:
    """Whether values at ``positions`` pin down a scalar two-axis sequence."""
    c1, c2 = spec.coeffs
    rows = []
    for n, k in positions:
        r1, r2 = basis_row(spec.A, c1, n), basis_row(spec.A, c2, k)
        rows.append([r1[j[0]] * r2[j[1]] for j in box(spec.shape)])
    return determinant(rows) != 0
