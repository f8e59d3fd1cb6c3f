"""``box``: dense contiguous regions and certificates on fresh objects.

The same ``recurrence`` and ``multiseq`` layers as ``point`` are used
densely: the work sits in the term memo, the basis-row cache, the step
loops, ``RationalGF.expand`` and ``orbits``, with almost no powering.
Some row tables run past row 4095, where ``Recurrence`` stops caching and
every further row re-walks from the cap, so a dense table turns quadratic;
``recurrence.row.self_ms`` carries that cost.
"""

from __future__ import annotations

import random

from linrec import genfun, jsonio, multiseq, orbits
from linrec.recurrence import Sequence
from linrec.rings import ModuleElement

import refarith
from workloads.specs import spec, weighted_schedule

POOL_PER_SECOND = 45
TRACE_PER_SECOND = 6

CACHE_ROWS = 4096  # rows 0..4095 (and -1..-4096) are cached by Recurrence

# Sizes are fixed per class and the seed draws only values, origins and
# rules, so that every class costs about the same on every seed.
_BOX_SHAPES = {1: (600,), 2: (26, 26), 3: (8, 8, 8)}
_ROWS = {
    "rows": 2500,
    "rows.negative": -2500,
    "rows.past_cap": CACHE_ROWS - 1 + 200,
    "rows.negative_past_cap": -(CACHE_ROWS + 200),
}
_SERIES_ORDERS = {
    ("verify_gf", 1): (200,),
    ("verify_gf", 2): (18, 18),
    ("gf.expand", 1): (300,),
    ("gf.expand", 2): (22, 22),
}

# (weight, operation, ring kind, per-axis orders)
CLASSES = [
    (40, "window", "mod", (2,)),
    (20, "window", "integer", (3,)),
    (15, "window", "rational", (2,)),
    (40, "window", "mod", (2, 2)),
    (25, "window", "product", (2, 3)),
    (20, "window", "integer", (2, 2)),
    (15, "window", "rational", (2, 2)),
    (20, "window", "mod", (2, 2, 2)),
    (20, "window.json", "mod", (2, 2)),
    (15, "window.json", "integer", (3,)),
    (20, "shift", "mod", (3, 2)),
    (40, "rows", "mod", (3,)),
    (20, "rows", "integer", (2,)),
    (20, "rows.negative", "mod", (2,)),
    (12, "rows.past_cap", "mod", (3,)),
    (6, "rows.negative_past_cap", "mod", (2,)),
    (30, "iter_terms", "mod", (4,)),
    (15, "iter_terms", "rational", (2,)),
    (25, "extend_backward", "mod", (3,)),
    (15, "extend_backward", "integer", (2,)),
    (25, "verify_gf", "integer", (2,)),
    (25, "verify_gf", "mod", (2, 2)),
    (20, "gf.expand", "mod", (2, 3)),
    (15, "gf.expand", "rational", (3,)),
    (25, "diagonal", "integer", (2, 2)),
    (20, "diagonal", "mod", (2, 2)),
    (25, "membership", "mod", (2, 2)),
    (10, "membership.bad", "integer", (2, 2)),
    (15, "orbits", None, ()),
    (25, "determine", "integer", (2, 2)),
    (10, "determine", "rational", (2, 3)),
]


def _diagonal_rules(rng, kind: str):
    """Order-2 rules ``(a, b), (c, d)`` with ``a^2 d = b c^2``; one in three
    are both Fibonacci, which also runs ``diagonal_identity_fib``."""
    if rng.random() < 1 / 3:
        return [["1", "1"], ["1", "1"]]
    a, c, t = (rng.choice((1, -1, 2)) for _ in range(3))
    if kind == "mod":
        a, c, t = (rng.randrange(1, 1000) for _ in range(3))
    return [[str(a), str(a * a * t)], [str(c), str(c * c * t)]]


def _op(rng, name: str, kind: str, orders) -> dict:
    ndim = len(orders)
    desc = {"op": name, "kind": kind}
    if name == "orbits":
        desc["bound"] = 4
        return desc
    if name == "diagonal":
        desc["spec"] = spec(rng, kind, orders, coeffs=_diagonal_rules(rng, kind))
        desc["size"] = 6
        return desc
    if kind == "integer" and name.startswith(("rows", "extend_backward", "iter_terms")):
        # roots of absolute value phi for every seed: integer values grow at
        # one rate, so time and memory do not hinge on the drawn rule
        rules = [[rng.choice(("1", "-1")), "1"] for _ in orders]
        desc["spec"] = spec(rng, kind, orders, coeffs=rules)
    else:
        desc["spec"] = spec(rng, kind, orders)
    if name in ("window", "window.json", "membership", "membership.bad"):
        desc["shape"] = list(_BOX_SHAPES[ndim])
        negative = name == "window" and rng.random() < 0.3
        desc["origin"] = [rng.randint(-40, -1) if negative else rng.randint(0, 40) for _ in orders]
    elif name == "shift":
        desc["offsets"] = [rng.randint(36, 44) for _ in orders]
    elif name.startswith("rows"):
        desc["rows"] = _ROWS[name]
    elif name == "iter_terms":
        desc["start"] = rng.randint(-20, 20)
        desc["count"] = 1000
    elif name == "extend_backward":
        desc["steps"] = 800
    elif name in ("verify_gf", "gf.expand"):
        desc["orders"] = list(_SERIES_ORDERS[name, ndim])
    elif name == "determine":
        cells = [(n, k) for n in range(8) for k in range(8)]
        desc["positions"] = rng.sample(cells, orders[0] * orders[1])
    return desc


def generate(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    schedule = weighted_schedule([(w, rest) for w, *rest in CLASSES], count)
    return [_op(rng, name, kind, orders) for name, kind, orders in schedule]


def _entries(block) -> list:
    return [[c.value for c in e.coords] for e in block.entries]


def prepare(desc: dict, ctx=None):
    name = desc["op"]
    if name == "orbits":
        bound = desc["bound"]
        return lambda: orbits.classify_orbits(bound)
    mseq = jsonio.spec_from_json(desc["spec"]).sequence
    if name == "window":
        origin, shape = desc["origin"], desc["shape"]
        return lambda: _entries(mseq.window(origin, shape))
    if name == "window.json":
        origin, shape = desc["origin"], desc["shape"]
        return lambda: jsonio.block_to_json(mseq.window(origin, shape))
    if name == "shift":
        offsets = desc["offsets"]
        return lambda: _entries(mseq.shift(offsets).block)
    if name.startswith("membership"):
        origin, shape = desc["origin"], desc["shape"]
        bad = name == "membership.bad"
        return lambda: _membership(mseq, origin, shape, bad)
    if name == "diagonal":
        return lambda: _diagonal(mseq, desc["size"])
    if name == "verify_gf":
        orders = desc["orders"]
        return lambda: genfun.verify_gf(mseq, orders)
    if name == "gf.expand":
        orders = desc["orders"]
        return lambda: genfun.gf(mseq).expand(orders).coeffs
    if name == "determine":
        positions = desc["positions"]
        return lambda: orbits.positions_determine(mseq.spec, positions)
    rec = mseq.spec.axes[0]
    if name.startswith("rows"):
        rows = desc["rows"]
        span = range(rows + 1) if rows >= 0 else range(-1, rows - 1, -1)
        return lambda: [rec.basis_row(n) for n in span]
    seq = Sequence(rec, [mseq.block.at((j,)) for j in range(rec.order)])
    if name == "iter_terms":
        start, count = desc["start"], desc["count"]
        return lambda: _take(seq.iter_terms(start), count)
    steps = desc["steps"]
    return lambda: seq.extend_backward(steps)


def _take(iterator, count: int) -> list:
    return [next(iterator) for _ in range(count)]


def _membership(mseq, origin, shape, corrupt: bool) -> bool:
    block = mseq.window(origin, shape)
    if corrupt:
        entries = list(block.entries)
        last = entries[-1]
        entries[-1] = last + ModuleElement(last.ring, [last.ring.one] * last.rank)
        block = multiseq.Block(block.ring, block.shape, entries)
    return multiseq.check_membership(mseq.spec, block)


def _diagonal(mseq, size: int) -> bool:
    fib = all(
        [c.value for c in rec.coeffs] == [1, 1] for rec in mseq.spec.axes
    )
    for n in range(size):
        for k in range(size):
            if not multiseq.diagonal_check(mseq, n, k):
                return False
            if fib and not multiseq.diagonal_identity_fib(mseq, n, k):
                return False
    return True


def check(desc: dict, result) -> bool:
    name = desc["op"]
    if name == "orbits":
        return _census(result) == refarith.orbit_census(desc["bound"])
    if name in ("verify_gf", "diagonal", "membership"):
        # theorems: every sequence matches its generating function, rules
        # with a^2 d = b c^2 satisfy the cross-diagonal relation, and every
        # window of a sequence satisfies its rules
        return result is True
    if name == "membership.bad":
        return result is False
    ref = refarith.Spec(desc["spec"])
    if name == "determine":
        return result == refarith.determines(ref, desc["positions"])
    if name in ("window", "window.json"):
        want = ref.window(desc["origin"], desc["shape"])
        if name == "window.json":
            return result["shape"] == desc["shape"] and [
                [ref.A.parse(c) for c in (e if ref.rank > 1 else [e])] for e in result["data"]
            ] == want
        return result == want
    if name == "shift":
        return result == ref.window(desc["offsets"], ref.shape)
    if name == "gf.expand":
        shape = [o + 1 for o in desc["orders"]]
        return [c.value for c in result] == [v[0] for v in ref.window([0] * len(shape), shape)]
    coeffs = ref.coeffs[0]
    if name.startswith("rows"):
        rows = desc["rows"]
        lo, hi = (0, rows) if rows >= 0 else (rows, -1)
        table = refarith.basis_rows(ref.A, coeffs, lo, hi)
        order = range(lo, hi + 1) if rows >= 0 else range(-1, rows - 1, -1)
        return [[v.value for v in r] for r in result] == [table[n] for n in order]
    if name == "iter_terms":
        want = ref.window([desc["start"]], [desc["count"]])
    else:
        steps = desc["steps"]
        want = ref.window([-steps], [steps])[::-1]
    return [[c.value for c in t.coords] for t in result] == want


def _census(found) -> list:
    return [
        (orbits.block_index(o.primitive), [(orbits.block_index(m), tuple(s)) for m, s in o.members])
        for o in found
    ]


def cells(desc: dict) -> int:
    """Values an operation produces or checks."""
    name = desc["op"]
    if name == "orbits":
        return 16 * (desc["bound"] + 1) ** 2  # 16 blocks, (bound+1)^2 windows each
    if name == "diagonal":
        return desc["size"] ** 2
    if name == "shift":
        return _size(len(ax["coeffs"]) for ax in desc["spec"]["axes"])
    if name == "determine":
        return len(desc["positions"])
    if "shape" in desc:
        return _size(desc["shape"])
    if "orders" in desc:
        return _size(o + 1 for o in desc["orders"])
    return abs(desc.get("rows") or desc.get("count") or desc["steps"])


def props(desc: dict) -> dict:
    past_cap = "rows" in desc and not -CACHE_ROWS <= desc["rows"] < CACHE_ROWS
    n = cells(desc)
    return {
        "op": desc["op"],
        "past_cache_cap": str(past_cap).lower(),
        "cells_le": str(next(b for b in (100, 1000, 10_000, 10**9) if n <= b)),
    }


def _size(shape) -> int:
    out = 1
    for s in shape:
        out *= s
    return out
