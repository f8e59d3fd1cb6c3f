"""Seeded spec-file construction shared by the workloads."""

from __future__ import annotations

MERSENNE = 2**61 - 1
P1 = 10**9 + 7

RINGS = {
    "integer": "Z",
    "rational": "Q",
    "mod": f"Z/{MERSENNE}",
    "product": {"kind": "product", "left": f"Z/{P1}", "right": f"Z/{MERSENNE}"},
    "polynomial": {"kind": "polynomial", "base": "Z", "variables": ["r1", "r2"]},
}


def element(rng, kind: str, unit: bool = False):
    """A random element in JSON form; ``unit`` asks for an invertible one."""
    if kind == "integer":
        return str(rng.choice((1, -1))) if unit else str(rng.randint(-2, 2))
    if kind == "rational":
        num = rng.choice((-3, -2, -1, 1, 2, 3)) if unit else rng.randint(-3, 3)
        return f"{num}/{rng.randint(1, 4)}"
    if kind == "mod":
        return str(rng.randrange(1 if unit else 0, MERSENNE))
    if kind == "product":
        lo = 1 if unit else 0
        return [str(rng.randrange(lo, P1)), str(rng.randrange(lo, MERSENNE))]
    if unit:
        return {"0,0": str(rng.choice((1, -1)))}
    terms = {}
    for exps in rng.sample(["0,0", "1,0", "0,1"], rng.randint(1, 2)):
        terms[exps] = str(rng.choice((-2, -1, 1, 2)))
    return terms


def homogeneous(rng, degree: int) -> dict:
    """A random polynomial in ``r1, r2`` with every term of one degree, so
    that sequence values keep ``O(n)`` terms instead of ``O(n^2)``."""
    terms = {}
    for i in rng.sample(range(degree + 1), min(2, degree + 1)):
        terms[f"{i},{degree - i}"] = str(rng.choice((-2, -1, 1, 2)))
    return terms


def spec(rng, kind: str, orders, rank: int = 1, coeffs=None):
    """A spec object and a random initial block.  Unless ``coeffs`` gives
    the rules, each axis gets a random rule whose trailing coefficient is a
    unit, so that every generated sequence extends to negative indices."""
    if coeffs is None:
        coeffs = [[element(rng, kind, unit=j == d - 1) for j in range(d)] for d in orders]
    size = 1
    for d in orders:
        size *= d

    def entry():
        if rank == 1:
            return element(rng, kind)
        return [element(rng, kind) for _ in range(rank)]

    return {
        "ring": RINGS[kind],
        "module_rank": rank,
        "axes": [{"coeffs": c} for c in coeffs],
        "initial": {"shape": list(orders), "data": [entry() for _ in range(size)]},
    }


def weighted_schedule(classes, count: int):
    """``count`` picks from ``(weight, item)`` pairs by smooth weighted
    round robin: every prefix holds each item close to its weight share,
    so runs that stop at different points see the same mix."""
    total = sum(w for w, _ in classes)
    current = [0] * len(classes)
    out = []
    for _ in range(count):
        for i, (w, _) in enumerate(classes):
            current[i] += w
        best = max(range(len(classes)), key=current.__getitem__)
        current[best] -= total
        out.append(classes[best][1])
    return out
