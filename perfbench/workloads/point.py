"""``point``: sparse, far single-term lookups on freshly built sequences.

Almost all of the work is basis rows (``recurrence``), payload ring ops
(``rings``) and point contraction (``multiseq``); no box is swept.  Each
lookup queries its own sequence object once, so no memo carries over.
"""

from __future__ import annotations

import random
from fractions import Fraction

from linrec import closedform, jsonio
from linrec.recurrence import Sequence

import refarith
from workloads.specs import MERSENNE, homogeneous, spec, weighted_schedule

# operations prepared per second of run (above the rate at the seed, so
# the pool is not replayed), and operations per second of run when traced
POOL_PER_SECOND = 150
TRACE_PER_SECOND = 20

# index ranges for rings whose values grow with n, per order
_GROWING_MAX = {
    "integer": {2: 10_000, 3: 3_000, 4: 2_000, 8: 500, 16: 200},
    "rational": {2: 300, 3: 200, 4: 150, 8: 60},
    "polynomial": {2: 40, 3: 24},
}

# (weight, ring kind, call, per-axis orders); weights fall as order rises
CLASSES = [
    (110, "mod", "seq.term_fast", (2,)),
    (70, "mod", "seq.term_fast", (3,)),
    (55, "mod", "seq.term_fast", (4,)),
    (25, "mod", "seq.term_fast", (6,)),
    (16, "mod", "seq.term_fast", (8,)),
    (8, "mod", "multi.term_fast", (12,)),
    (2, "mod", "multi.term_fast", (16,)),
    (45, "product", "seq.term_fast", (2,)),
    (30, "product", "multi.term_fast", (3,)),
    (20, "product", "seq.term_fast", (4,)),
    (6, "product", "seq.term_fast", (8,)),
    (55, "integer", "seq.term_fast", (2,)),
    (30, "integer", "multi.term_fast", (3,)),
    (25, "integer", "seq.term_fast", (4,)),
    (10, "integer", "seq.term_fast", (8,)),
    (3, "integer", "seq.term_fast", (16,)),
    (45, "rational", "seq.term_fast", (2,)),
    (25, "rational", "multi.term_fast", (3,)),
    (15, "rational", "seq.term_fast", (4,)),
    (5, "rational", "seq.term_fast", (8,)),
    (25, "polynomial", "seq.term_fast", (2,)),
    (8, "polynomial", "multi.term_fast", (3,)),
    (60, "mod", "multi.term_fast", (2, 2)),
    (35, "mod", "multi.term_fast", (3, 2)),
    (20, "mod", "multi.term_fast", (4, 3)),
    (25, "mod", "multi.term_fast", (2, 2, 2)),
    (10, "mod", "multi.term_fast", (3, 2, 3)),
    (20, "product", "multi.term_fast", (2, 2)),
    (15, "integer", "multi.term_fast", (2, 3)),
    (10, "rational", "multi.term_fast", (2, 2)),
    (5, "polynomial", "multi.term_fast", (2, 2)),
    (50, "mod", "roots.term", (2,)),
    (25, "mod", "roots.term", (2, 2)),
    (15, "rational", "roots.term", (2,)),
    (35, "mod", "multi.term", (2, 2)),
    (20, "integer", "multi.term", (2, 2)),
]


def _index(rng, kind: str, call: str, orders, negative: bool) -> list[int]:
    if call == "multi.term":
        return [rng.randint(100, 300) for _ in orders]
    out = []
    for d in orders:
        if kind in ("mod", "product"):
            n = rng.randrange(1, 2**62)
        else:
            top = _GROWING_MAX[kind][d]
            if len(orders) > 1:
                top //= 4
            n = rng.randint(top // 2, top)
        out.append(-n if negative else n)
    return out


def _roots_spec(rng, kind: str, ndim: int) -> dict:
    """A spec whose every axis rule is ``(r1+r2, -r1*r2)`` for stored roots."""
    if kind == "mod":
        r1, r2 = rng.sample(range(1, MERSENNE), 2)
        a, b = str((r1 + r2) % MERSENNE), str(-r1 * r2 % MERSENNE)
        roots = [str(r1), str(r2)]
    else:
        r1 = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        r2 = r1 + rng.choice([k for k in (1, 2, 3) if r1 + k != 0])
        a, b, roots = (
            _frac(r1 + r2),
            _frac(-r1 * r2),
            [_frac(r1), _frac(r2)],
        )
    obj = spec(rng, kind, (2,) * ndim, coeffs=[[a, b]] * ndim)
    obj["roots"] = roots
    return obj


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def generate(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    schedule = weighted_schedule([(w, rest) for w, *rest in CLASSES], count)
    out = []
    for kind, call, orders in schedule:
        # every generated rule has a unit trailing coefficient; backward
        # polynomial values grow too fast to keep lookups comparable
        negative = (
            call != "multi.term" and kind != "polynomial" and rng.random() < 0.25
        )
        if call == "roots.term":
            obj = _roots_spec(rng, kind, len(orders))
        elif kind == "polynomial":
            rules = [[homogeneous(rng, j) for j in range(1, d + 1)] for d in orders]
            obj = spec(rng, kind, orders, coeffs=rules)
        else:
            obj = spec(rng, kind, orders)
        index = _index(rng, kind, call, orders, negative)
        out.append({"kind": kind, "call": call, "spec": obj, "index": index})
    return out


def prepare(desc: dict, ctx=None):
    loaded = jsonio.spec_from_json(desc["spec"])
    mseq = loaded.sequence
    index = tuple(desc["index"])
    call = desc["call"]
    if call == "seq.term_fast":
        rec = mseq.spec.axes[0]
        seq = Sequence(rec, [mseq.block.at((j,)) for j in range(rec.order)])
        n = index[0]
        return lambda: seq.term_fast(n)
    if call == "multi.term_fast":
        return lambda: mseq.term_fast(index)
    if call == "multi.term":
        return lambda: mseq.term(index)
    pair = closedform.RootPair(mseq.ring, *loaded.roots)
    return lambda: closedform.term_via_roots(mseq, pair, index)


def check(desc: dict, result) -> bool:
    got = [c.value for c in result.coords]
    return got == refarith.Spec(desc["spec"]).term(desc["index"])


def props(desc: dict) -> dict:
    orders = [len(ax["coeffs"]) for ax in desc["spec"]["axes"]]
    return {
        "ring": desc["kind"],
        "order": str(max(orders)),
        "axes": str(len(orders)),
        "negative": str(any(n < 0 for n in desc["index"])).lower(),
        "call": desc["call"],
    }
