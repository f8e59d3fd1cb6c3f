"""Command-line front end.

Every command reads a JSON sequence description (see :mod:`linrec.jsonio`)
and prints exact results to stdout; diagnostics go to stderr.  Exit codes:
0 on success, 2 for unreadable input or schema violations, 3 for any other
:class:`~linrec.errors.LinrecError`, a failed mathematical precondition
(non-unit division, mismatched roots, violated coefficient hypothesis).
Any other exception is a bug and keeps its traceback.  Results are printed
in full, however many digits they have.

Commands:

    term        one entry of the sequence
    window      a box of entries as a grid, CSV, or JSON
    genfun      the rational generating function (optionally root-factored)
    basis       rows of the canonical solutions of one axis rule
    diag-check  verify the cross-diagonal relation on a square of positions
    orbits      census of binary 2x2 starting blocks under both-axis
                Fibonacci rules
    determine   do given positions pin down a scalar double sequence?
    bench       time the logarithmic evaluation of one entry

``term`` and ``bench`` contract the initial block against per-axis basis
rows, so their cost is logarithmic in each index.  ``bench --check``
recomputes the entry from the generating function alone, by Bostan-Mori
halving (:func:`linrec.genfun.coefficient`), which is also logarithmic and
shares no code with the basis rows.

Grids put the first axis left to right and the second axis bottom to top,
so the row closest to the reader is index (*, 0).  Indices on the command
line are comma-separated ("3,3"); position lists for ``determine`` are
semicolon-separated pairs "(0,0);(1,0);(0,1);(1,1)".
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from math import prod

from .closedform import RootPair, gf_via_roots
from .errors import HypothesisError, LinrecError, SchemaError
from .genfun import coefficient, gf
from .jsonio import block_to_json, element_from_json, load_spec
from .multiseq import box_indices, diagonal_check
from .orbits import (
    block_index,
    classify_orbits,
    format_block,
    format_shift,
    positions_determine,
)

__all__ = ["main"]

#: Largest box ``window`` builds; it holds every cell before printing any.
WINDOW_CELL_LIMIT = 10**6


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _unlimited_int_digits():
            return args.handler(args)
    except LinrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SchemaError) else 3


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int/str digit limit (3.10.7 and later) for one call,
    so that exact results of any size can be printed."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrec",
        description="Exact multi-axis linear recurrence sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "term", "Print one entry of the sequence.")
    _spec_flag(p)
    p.add_argument("index", help="comma-separated index, one entry per axis")
    p.set_defaults(handler=_cmd_term)

    p = _command(sub, "window", "Print a box of entries.")
    _spec_flag(p)
    p.add_argument("origin", help="comma-separated lower corner")
    p.add_argument(
        "shape",
        help="comma-separated box extents (all >= 1, at most "
        f"{WINDOW_CELL_LIMIT} cells in all)",
    )
    _format_flag(p)
    p.set_defaults(handler=_cmd_window)

    p = _command(sub, "genfun", "Print the rational generating function.")
    _spec_flag(p)
    p.add_argument(
        "--roots",
        metavar="R1,R2",
        help="factor each axis denominator as (1 - r1 t)(1 - r2 t); "
        "overrides roots stored in the spec file",
    )
    p.set_defaults(handler=_cmd_genfun)

    p = _command(
        sub,
        "basis",
        "Print rows 0..N of the canonical solutions of one axis rule "
        "(row n lists the d solutions' values at n).",
    )
    _spec_flag(p)
    p.add_argument("count", type=int, metavar="N", help="last row to print")
    p.add_argument(
        "--axis", type=int, default=1, help="1-based axis to use (default 1)"
    )
    p.set_defaults(handler=_cmd_basis)

    p = _command(
        sub,
        "diag-check",
        "Verify the cross-diagonal relation at every position up to MAX.",
    )
    _spec_flag(p)
    p.add_argument("max_index", type=int, metavar="MAX")
    p.set_defaults(handler=_cmd_diag_check)

    p = _command(
        sub,
        "orbits",
        "Census of the sixteen binary 2x2 starting blocks under "
        "both-axis Fibonacci rules.",
    )
    p.add_argument(
        "--bound",
        type=int,
        default=4,
        help="largest per-axis shift searched (>= 2, default 4)",
    )
    _format_flag(p)
    p.set_defaults(handler=_cmd_orbits)

    p = _command(
        sub,
        "determine",
        "Decide whether values at the given positions pin down a scalar "
        "double sequence of this spec, over any ring.",
    )
    _spec_flag(p)
    p.add_argument(
        "positions", help='semicolon-separated pairs "(n,k);(n,k);..."'
    )
    p.set_defaults(handler=_cmd_determine)

    p = _command(sub, "bench", "Time the logarithmic evaluation of one entry.")
    _spec_flag(p)
    p.add_argument("index", help="comma-separated index, one entry per axis")
    p.add_argument(
        "--check",
        action="store_true",
        help="recompute from the generating function by Bostan-Mori "
        "halving (logarithmic in the index, no basis rows) and compare",
    )
    p.set_defaults(handler=_cmd_bench)

    return parser


def _command(sub, name: str, help_text: str):
    return sub.add_parser(name, help=help_text, description=help_text)


def _spec_flag(p):
    p.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="JSON sequence description",
    )


def _format_flag(p):
    p.add_argument(
        "--format",
        choices=("grid", "csv", "json"),
        default="grid",
        help="output style (default grid)",
    )


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_index(text: str, ndim: int, what: str = "index") -> tuple[int, ...]:
    cleaned = text.strip().strip("()")
    parts = [p.strip() for p in cleaned.split(",") if p.strip() != ""]
    try:
        index = tuple(int(p) for p in parts)
    except ValueError:
        raise SchemaError(f"bad {what} {text!r}: entries must be integers") from None
    if len(index) != ndim:
        raise SchemaError(
            f"bad {what} {text!r}: expected {ndim} entries, got {len(index)}"
        )
    return index


def _parse_positions(text: str) -> list[tuple[int, int]]:
    positions = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        positions.append(_parse_index(token, 2, what="position"))
    if not positions:
        raise SchemaError("no positions given")
    return positions


def _parse_roots(ring, text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise SchemaError(
            f"--roots needs two comma-separated values, got {text!r}"
        )
    return tuple(
        element_from_json(ring, tok, f"--roots token {tok!r}") for tok in parts
    )


# ---------------------------------------------------------------------------
# output helpers


def _entry_str(entry) -> str:
    if entry.rank == 1:
        return str(entry.coords[0])
    return "(" + ", ".join(str(c) for c in entry.coords) + ")"


def _print_aligned(rows: list[list[str]]):
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for row in rows:
        print(" ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _print_block_grid(block):
    shape = block.shape
    if len(shape) == 1:
        _print_aligned([[_entry_str(block.at((j,))) for j in range(shape[0])]])
        return
    tails = list(box_indices(shape[2:])) if len(shape) > 2 else [()]
    for pos, tail in enumerate(tails):
        if len(shape) > 2:
            if pos:
                print()
            label = ", ".join(str(j) for j in tail)
            print(f"slice (*, *, {label})")
        rows = []
        for k in reversed(range(shape[1])):
            rows.append(
                [_entry_str(block.at((j, k) + tail)) for j in range(shape[0])]
            )
        _print_aligned(rows)


def _print_block_csv(block):
    shape = block.shape
    for tail in box_indices(shape[1:]):
        print(
            ",".join(
                _entry_str(block.at((j,) + tail)) for j in range(shape[0])
            )
        )


def _abbreviate(text: str, limit: int = 80) -> str:
    if len(text) <= limit:
        return text
    return f"{text[:40]}...{text[-20:]} ({len(text)} digits)"


# ---------------------------------------------------------------------------
# commands


def _cmd_term(args) -> int:
    seq = load_spec(args.spec).sequence
    index = _parse_index(args.index, seq.ndim)
    print(_entry_str(seq.term_fast(index)))
    return 0


def _cmd_window(args) -> int:
    seq = load_spec(args.spec).sequence
    origin = _parse_index(args.origin, seq.ndim, what="origin")
    shape = _parse_index(args.shape, seq.ndim, what="shape")
    if any(d < 1 for d in shape):
        raise SchemaError(f"bad shape {args.shape!r}: extents must be >= 1")
    if prod(shape) > WINDOW_CELL_LIMIT:
        raise SchemaError(
            f"bad shape {args.shape!r}: {prod(shape)} cells exceed the limit "
            f"of {WINDOW_CELL_LIMIT}"
        )
    block = seq.window(origin, shape)
    if args.format == "grid":
        _print_block_grid(block)
    elif args.format == "csv":
        _print_block_csv(block)
    else:
        payload = {"origin": list(origin)}
        payload.update(block_to_json(block))
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_genfun(args) -> int:
    loaded = load_spec(args.spec)
    seq = loaded.sequence
    roots = _parse_roots(seq.ring, args.roots) if args.roots else loaded.roots
    if roots is not None:
        pair = RootPair(seq.ring, roots[0], roots[1])
        pair.require_match(seq)
        series = lambda coord: gf_via_roots(seq, pair, coordinate=coord)
    else:
        series = lambda coord: gf(seq, coordinate=coord)
    if seq.rank == 1:
        print(series(None))
    else:
        for coord in range(seq.rank):
            print(f"coordinate {coord}: {series(coord)}")
    return 0


def _cmd_basis(args) -> int:
    seq = load_spec(args.spec).sequence
    if not 1 <= args.axis <= seq.ndim:
        raise SchemaError(
            f"--axis {args.axis} out of range for {seq.ndim} axes"
        )
    if args.count < 0:
        raise SchemaError("N must be >= 0")
    rec = seq.spec.axes[args.axis - 1]
    rows = [
        [str(v) for v in rec.basis_row(n)] for n in range(args.count + 1)
    ]
    _print_aligned(rows)
    return 0


def _cmd_diag_check(args) -> int:
    seq = load_spec(args.spec).sequence
    if args.max_index < 0:
        raise SchemaError("MAX must be >= 0")
    try:
        for n in range(args.max_index + 1):
            for k in range(args.max_index + 1):
                if not diagonal_check(seq, n, k):
                    print(f"FAILED at ({n}, {k})")
                    return 3
    except HypothesisError as exc:
        print("HYPOTHESIS VIOLATED")
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"OK ({(args.max_index + 1) ** 2} checks)")
    return 0


def _inline_block(block) -> str:
    return format_block(block).replace("\n", " / ")


def _cmd_orbits(args) -> int:
    if args.bound < 2:
        raise SchemaError("--bound must be >= 2")
    orbits = classify_orbits(args.bound)
    if args.format == "json":
        payload = {
            "orbits": [
                {
                    "primitive": list(o.primitive),
                    "index": block_index(o.primitive),
                    "size": o.size,
                    "members": [
                        {
                            "block": list(m),
                            "index": block_index(m),
                            "shift": list(s),
                            "operator": format_shift(s),
                        }
                        for m, s in o.members
                    ],
                }
                for o in orbits
            ]
        }
        print(json.dumps(payload, indent=2))
        return 0
    if args.format == "csv":
        raise SchemaError("orbits prints as grid or json, not csv")
    print(f"{len(orbits)} primitive orbits")
    for o in orbits:
        head = _inline_block(o.primitive)
        print(f"block {block_index(o.primitive)} [{head}]  size {o.size}")
        for member, shift in o.members:
            name = format_shift(shift)
            print(
                f"  {name:>6} -> block {block_index(member)}"
                f" [{_inline_block(member)}]"
            )
    return 0


def _cmd_determine(args) -> int:
    seq = load_spec(args.spec).sequence
    positions = _parse_positions(args.positions)
    ok = positions_determine(seq.spec, positions)
    print("DETERMINING" if ok else "NOT DETERMINING")
    return 0


def _cmd_bench(args) -> int:
    seq = load_spec(args.spec).sequence
    index = _parse_index(args.index, seq.ndim)
    start = time.perf_counter()
    value = seq.term_fast(index)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"term({', '.join(str(i) for i in index)}) = "
          f"{_abbreviate(_entry_str(value))}")
    print(f"elapsed: {elapsed_ms:.3f} ms")
    if args.check:
        expected = [coefficient(gf(seq, coord), index) for coord in range(seq.rank)]
        if list(value.coords) != expected:
            print("check: MISMATCH", file=sys.stderr)
            return 3
        print("check: OK")
    return 0
