"""``cli``: one ``python -m linrec`` process per request, one at a time.

Interpreter start, ``import linrec``, argparse, ``load_spec`` and output
formatting dominate here; the in-process workloads hide them in set-up.
Set-up writes each request's spec file into the run's scratch directory.
About one request in nine must fail with a documented exit code: 2 for
unreadable or malformed input, 3 for a failed mathematical precondition.

Each answer is parsed from stdout and compared with the reference; exit
codes are compared exactly.  A traced run starts each child through
``cli_child.py``, which wraps the same functions before calling
``linrec.cli.main``.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import refarith
from workloads.specs import spec, weighted_schedule

POOL_PER_SECOND = 10
TRACE_PER_SECOND = 1.5
WORK_IN_CHILDREN = True  # peak memory is that of the largest child
CHILD_TIMEOUT_S = 60

CHILD = Path(__file__).resolve().parents[1] / "cli_child.py"

# (weight, request class)
CLASSES = [
    (10, "term"),
    (10, "term.far"),
    (6, "window.grid"),
    (3, "window.grid3"),
    (5, "window.csv"),
    (5, "window.json"),
    (5, "genfun"),
    (4, "genfun.stored_roots"),
    (3, "genfun.roots"),
    (3, "genfun.rank2"),
    (6, "basis"),
    (5, "diag-check"),
    (4, "orbits.grid"),
    (3, "orbits.json"),
    (5, "determine"),
    (6, "bench"),
    (6, "bench.check"),
    (2, "error.invalid_json"),
    (2, "error.missing_field"),
    (2, "error.shape"),
    (2, "error.negative_nonunit"),
    (2, "error.hypothesis"),
    (2, "error.roots"),
]


def _idx(values) -> str:
    return ",".join(str(v) for v in values)


def _request(rng, name: str) -> dict:
    """Arguments and spec (or raw file text) of one request."""
    if name == "term":
        obj = spec(rng, "integer", (2, 2))
        return {"spec": obj, "argv": ["term", "--", _idx(rng.randint(-8, 30) for _ in range(2))]}
    if name == "term.far":
        obj = spec(rng, "mod", (2,))
        return {"spec": obj, "argv": ["term", str(rng.randint(18_000, 20_000))]}
    if name.startswith("window"):
        ndim = 3 if name == "window.grid3" else rng.choice((1, 2))
        kind = rng.choice(("integer", "mod"))
        obj = spec(rng, kind, (2,) * ndim)
        lengths = {1: (10, 40), 2: (4, 10), 3: (3, 5)}[ndim]
        origin = [rng.randint(-5, 20) for _ in range(ndim)]
        shape = [rng.randint(*lengths) for _ in range(ndim)]
        fmt = name.split(".")[1].rstrip("3")
        return {"spec": obj, "argv": ["window", "--format", fmt, "--", _idx(origin), _idx(shape)]}
    if name == "genfun":
        return {"spec": spec(rng, "integer", (rng.choice((2, 3)), 2)), "argv": ["genfun"]}
    if name in ("genfun.stored_roots", "genfun.roots"):
        r1 = rng.randint(-3, 3)
        r2 = r1 + rng.randint(1, 3)
        obj = spec(rng, "integer", (2,), coeffs=[[str(r1 + r2), str(-r1 * r2)]])
        if name == "genfun.stored_roots":
            obj["roots"] = [str(r1), str(r2)]
            return {"spec": obj, "argv": ["genfun"]}
        return {"spec": obj, "argv": ["genfun", f"--roots={r1},{r2}"]}
    if name == "genfun.rank2":
        return {"spec": spec(rng, "integer", (2,), rank=2), "argv": ["genfun"]}
    if name == "basis":
        # integer rows grow with N, so long integer tables would make the
        # largest child's memory depend on the seed's growth rate
        if rng.random() < 0.5:
            obj, last = spec(rng, "integer", (rng.choice((2, 3)),)), rng.randint(100, 300)
        else:
            obj, last = spec(rng, "mod", (rng.choice((2, 3)),)), rng.randint(500, 2000)
        return {"spec": obj, "argv": ["basis", str(last)]}
    if name == "diag-check":
        a, c, t = (rng.choice((1, -1, 2)) for _ in range(3))
        rules = [[str(a), str(a * a * t)], [str(c), str(c * c * t)]]
        obj = spec(rng, "integer", (2, 2), coeffs=rules)
        return {"spec": obj, "argv": ["diag-check", str(rng.randint(3, 6))]}
    if name.startswith("orbits"):
        return {"argv": ["orbits", "--bound", str(rng.randint(3, 5)), "--format", name[7:]]}
    if name == "determine":
        obj = spec(rng, "integer", (2, 2))
        cells = rng.sample([(n, k) for n in range(-2, 6) for k in range(-2, 6)], 4)
        return {"spec": obj, "argv": ["determine", ";".join(f"({n},{k})" for n, k in cells)]}
    if name in ("bench", "bench.check"):
        if name == "bench":
            obj = spec(rng, "mod", (rng.choice((2, 3, 4)),))
            index = rng.randrange(10**17, 10**18)
            return {"spec": obj, "argv": ["bench", str(index)]}
        # a Fibonacci-type rule keeps the values' size the same for every seed
        obj = spec(rng, "integer", (2,), coeffs=[[rng.choice(("1", "-1")), "1"]])
        return {"spec": obj, "argv": ["bench", "--check", str(rng.randint(9_000, 10_000))]}
    if name == "error.invalid_json":
        text = json.dumps(spec(rng, "integer", (2,)))
        return {"text": text[: rng.randint(5, len(text) - 2)], "argv": ["term", "3"]}
    if name == "error.missing_field":
        obj = spec(rng, "integer", (2,))
        del obj[rng.choice(("ring", "axes", "initial", "module_rank"))]
        return {"spec": obj, "argv": ["term", "3"]}
    if name == "error.shape":
        obj = spec(rng, "integer", (2, 2))
        obj["initial"] = {"shape": [2, 3], "data": ["1"] * 6}
        return {"spec": obj, "argv": ["term", "3,3"]}
    if name == "error.negative_nonunit":
        obj = spec(rng, "integer", (2,), coeffs=[[str(rng.randint(-2, 2)), rng.choice(("2", "-2", "3"))]])
        return {"spec": obj, "argv": ["term", "--", str(-rng.randint(1, 30))]}
    if name == "error.hypothesis":
        rules = [[str(rng.randint(1, 3)), "1"], [str(rng.randint(1, 3)), "2"]]
        obj = spec(rng, "integer", (2, 2), coeffs=rules)
        return {"spec": obj, "argv": ["diag-check", "3"]}
    # roots that do not solve the stored rule
    r1 = rng.randint(1, 3)
    obj = spec(rng, "integer", (2,), coeffs=[[str(2 * r1 + 3), str(-r1 * (r1 + 2))]])
    return {"spec": obj, "argv": ["genfun", f"--roots={r1},{r1 + 2}"]}


def generate(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for name in weighted_schedule(CLASSES, count):
        desc = _request(rng, name)
        desc["request"] = name
        out.append(desc)
    return out


def prepare(desc: dict, ctx):
    argv = list(desc["argv"])
    if "spec" in desc or "text" in desc:
        fd, path = tempfile.mkstemp(suffix=".json", dir=ctx.scratch)
        text = desc["text"] if "text" in desc else json.dumps(desc["spec"], indent=2)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv[1:1] = ["--spec", path]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ctx.root / "src"), env.get("PYTHONPATH")) if p
    )
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "linrec", *argv]
        return lambda: _spawn(cmd, env, ctx.root)
    trace_file = ctx.scratch / "child-trace.json"
    cmd = [sys.executable, str(CHILD), str(trace_file), *argv]

    def traced():
        ctx.tracer.enter("cli.process")
        try:
            result = _spawn(cmd, env, ctx.root)
            with open(trace_file, encoding="utf-8") as fh:
                ctx.tracer.absorb(json.load(fh))
            trace_file.unlink()
        finally:
            ctx.tracer.exit()
        return result

    return traced


def _spawn(cmd, env, cwd) -> tuple[int, str]:
    proc = subprocess.run(
        cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return proc.returncode, proc.stdout


def props(desc: dict) -> dict:
    name = desc["request"]
    return {
        "command": desc["argv"][0],
        "request": name,
        "expected_error": str(name.startswith("error.")).lower(),
    }


# ---------------------------------------------------------------------------
# checking


def check(desc: dict, result) -> bool:
    code, out = result
    name = desc["request"]
    if name.startswith("error."):
        if name in ("error.invalid_json", "error.missing_field", "error.shape"):
            return code == 2 and out == ""
        if name == "error.hypothesis":
            return code == 3 and out == "HYPOTHESIS VIOLATED\n"
        return code == 3 and out == ""
    if code != 0:
        return False
    command = desc["argv"][0]
    return _CHECKS[command](desc, out)


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.replace(",", " ").split()]


def _positional(desc) -> list[str]:
    args = desc["argv"]
    return args[args.index("--") + 1 :] if "--" in args else args[1:]


def _check_term(desc, out) -> bool:
    ref = refarith.Spec(desc["spec"])
    index = [int(v) for v in _positional(desc)[0].split(",")]
    return _ints(out) == ref.term(index)


def _check_window(desc, out) -> bool:
    ref = refarith.Spec(desc["spec"])
    fmt = desc["argv"][2]
    origin, shape = ([int(v) for v in a.split(",")] for a in _positional(desc))
    want = [v[0] for v in ref.window(origin, shape)]
    if fmt == "json":
        got = json.loads(out)
        return got["origin"] == origin and got["shape"] == shape and [
            ref.A.parse(v) for v in got["data"]
        ] == want
    if fmt == "csv" or len(shape) == 1:
        return _ints(out) == want
    # grid: each slice of the first two axes prints the second axis top down
    rows = [
        _ints(line)
        for line in out.splitlines()
        if line.strip() and not line.startswith("slice")
    ]
    got = {}
    per_slice = shape[1]
    for r, row in enumerate(rows):
        tail_pos, k = divmod(r, per_slice)
        for j, v in enumerate(row):
            got[(j, shape[1] - 1 - k, tail_pos)] = v
    tails = refarith.box(shape[2:]) if len(shape) > 2 else [()]
    flat = [
        got.get((idx[0], idx[1], tails.index(tuple(idx[2:]))))
        for idx in refarith.box(shape)
    ]
    return flat == want


def _parse_poly(text: str, names) -> dict:
    """A printed polynomial over Z as ``{exponents: coefficient}``."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")") and text.count("(") == 1:
        text = text[1:-1]
    tokens = re.split(r" ([+-]) ", text)
    out = {}
    sign = 1
    for i, tok in enumerate(tokens):
        if i % 2:
            sign = 1 if tok == "+" else -1
            continue
        neg = tok.startswith("-")
        m = re.fullmatch(r"(\d*)(.*)", tok.lstrip("-"))
        coeff = int(m.group(1)) if m.group(1) else 1
        exps = [0] * len(names)
        for factor in filter(None, m.group(2).split("*")):
            name, _, e = factor.partition("^")
            exps[names.index(name)] += int(e) if e else 1
        out[tuple(exps)] = sign * (-coeff if neg else coeff)
    return out


def _poly_mul(x: dict, y: dict) -> dict:
    out = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            e = tuple(a + b for a, b in zip(ex, ey))
            out[e] = out.get(e, 0) + cx * cy
    return {e: c for e, c in out.items() if c}


def _check_gf_line(ref, line: str, coord: int) -> bool:
    """``N / (factors)``: every axis's factors multiply to ``1 - a_1 t -
    ... - a_d t^d``, and the terms times the denominator give ``N``."""
    names = ("t",) if len(ref.shape) == 1 else ("t", "s")
    num_text, _, den_text = line.partition(" / ")
    numerator = _parse_poly(num_text, names)
    factors = [_parse_poly(f, names) for f in den_text.strip("()").split(")(")] if den_text else []
    denominator = {(0,) * len(names): 1}
    for f in factors:
        denominator = _poly_mul(denominator, f)
    want = {(0,) * len(names): 1}
    for axis, coeffs in enumerate(ref.coeffs):
        q = {tuple(0 for _ in names): 1}
        for j, a in enumerate(coeffs, start=1):
            if a:
                q[tuple(j if i == axis else 0 for i in range(len(names)))] = -a
        want = _poly_mul(want, q)
    if denominator != want:
        return False
    box = [d + 3 for d in ref.shape]
    terms = ref.window([0] * len(box), box)
    series = {idx: terms[flat][coord] for flat, idx in enumerate(refarith.box(box))}
    product = _poly_mul(series, denominator)
    return all(product.get(idx, 0) == numerator.get(idx, 0) for idx in refarith.box(box))


def _check_genfun(desc, out) -> bool:
    ref = refarith.Spec(desc["spec"])
    lines = out.splitlines()
    if ref.rank == 1:
        return len(lines) == 1 and _check_gf_line(ref, lines[0], 0)
    return len(lines) == ref.rank and all(
        line.startswith(f"coordinate {c}: ") and _check_gf_line(ref, line.split(": ", 1)[1], c)
        for c, line in enumerate(lines)
    )


def _check_basis(desc, out) -> bool:
    ref = refarith.Spec(desc["spec"])
    last = int(desc["argv"][1])
    table = refarith.basis_rows(ref.A, ref.coeffs[0], 0, last)
    return [_ints(line) for line in out.splitlines()] == [table[n] for n in range(last + 1)]


def _check_diag(desc, out) -> bool:
    top = int(desc["argv"][1])
    return out == f"OK ({(top + 1) ** 2} checks)\n"


def _check_orbits(desc, out) -> bool:
    bound = int(desc["argv"][2])
    want = [
        (p, [(refarith.shift_name(*s), m, s) for m, s in members])
        for p, members in refarith.orbit_census(bound)
    ]
    if desc["argv"][4] == "json":
        got = [
            (
                o["index"],
                [(m["operator"], m["index"], tuple(m["shift"])) for m in o["members"]],
            )
            for o in json.loads(out)["orbits"]
            if o["size"] == len(o["members"])
        ]
        return got == want
    lines = out.splitlines()
    if lines[0] != f"{len(want)} primitive orbits":
        return False
    got = []
    for line in lines[1:]:
        head = re.fullmatch(r"block (\d+) \[.*\]  size (\d+)", line)
        if head:
            got.append((int(head.group(1)), []))
            continue
        member = re.fullmatch(r"\s*(\S+) -> block (\d+) \[.*\]", line)
        if member is None or not got:
            return False
        got[-1][1].append((member.group(1), int(member.group(2))))
    return got == [(p, [(name, m) for name, m, _ in ms]) for p, ms in want]


def _check_determine(desc, out) -> bool:
    ref = refarith.Spec(desc["spec"])
    cells = [tuple(int(v) for v in c.strip("()").split(",")) for c in desc["argv"][1].split(";")]
    return out == ("DETERMINING\n" if refarith.determines(ref, cells) else "NOT DETERMINING\n")


def _check_bench(desc, out) -> bool:
    ref = refarith.Spec(desc["spec"])
    n = int(desc["argv"][-1])
    text = str(ref.term([n])[0])
    if len(text) > 80:
        text = f"{text[:40]}...{text[-20:]} ({len(text)} digits)"
    lines = out.splitlines()
    want = [f"term({n}) = {text}"]
    ok = lines[:1] == want and re.fullmatch(r"elapsed: \d+\.\d{3} ms", lines[1]) is not None
    if "--check" in desc["argv"]:
        return ok and lines[2:] == ["check: OK"]
    return ok and len(lines) == 2


_CHECKS = {
    "term": _check_term,
    "window": _check_window,
    "genfun": _check_genfun,
    "basis": _check_basis,
    "diag-check": _check_diag,
    "orbits": _check_orbits,
    "determine": _check_determine,
    "bench": _check_bench,
}
