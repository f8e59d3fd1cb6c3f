"""JSON serialization for rings, blocks, and sequence descriptions.

A sequence description ("spec file") captures everything needed to rebuild a
multi-axis sequence:

    {
      "ring": "Z",
      "module_rank": 1,
      "axes": [{"coeffs": ["1", "1"]}, {"coeffs": ["1", "3"]}],
      "initial": {"shape": [2, 2], "data": ["1", "1", "0", "1"]},
      "roots": ["1", "2"]            // optional
    }

Ring descriptions are the strings "Z", "Q", "Z/m", or objects
{"kind": "integer" | "rational" | "mod" | "product" | "polynomial", ...}.
Elements use the per-ring encoding: integers and residues as decimal
strings, rationals as "p/q", pairs as 2-arrays, polynomials as
{"e1,e2,...": coefficient} maps.  Initial data is listed with the first
axis varying fastest.  Rank-1 entries appear bare; higher ranks as arrays
of coordinates.

All malformed input is reported as SchemaError carrying the path of the
offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

from .errors import SchemaError
from .multiseq import Block, MultiSequence, MultiSpec
from .rings import (
    QQ,
    ZZ,
    IntegerModRing,
    IntegerRing,
    ModuleElement,
    PolynomialRing,
    ProductRing,
    RationalRing,
    Ring,
    RingElement,
)

__all__ = [
    "SpecFile",
    "ring_to_json",
    "ring_from_json",
    "element_to_json",
    "element_from_json",
    "block_to_json",
    "block_from_json",
    "sequence_to_json",
    "spec_from_json",
    "dump_spec",
    "load_spec",
    "save_spec",
]


def ring_to_json(ring: Ring):
    if isinstance(ring, IntegerRing):
        return "Z"
    if isinstance(ring, RationalRing):
        return "Q"
    if isinstance(ring, IntegerModRing):
        return f"Z/{ring.modulus}"
    if isinstance(ring, ProductRing):
        return {
            "kind": "product",
            "left": ring_to_json(ring.left),
            "right": ring_to_json(ring.right),
        }
    if isinstance(ring, PolynomialRing):
        return {
            "kind": "polynomial",
            "base": ring_to_json(ring.base),
            "variables": list(ring.variables),
        }
    raise SchemaError(f"no JSON form for ring {ring.describe()}")


def ring_from_json(obj, path: str = "ring") -> Ring:
    if isinstance(obj, str):
        if obj == "Z":
            return ZZ
        if obj == "Q":
            return QQ
        if obj.startswith("Z/"):
            try:
                modulus = int(obj[2:])
            except ValueError:
                raise SchemaError(f"{path}: bad modulus in {obj!r}") from None
            return _mod_ring(modulus, path)
        raise SchemaError(f"{path}: unknown ring {obj!r}")
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind == "integer":
            return ZZ
        if kind == "rational":
            return QQ
        if kind == "mod":
            modulus = obj.get("modulus")
            if not _is_int(modulus):
                raise SchemaError(f"{path}.modulus: expected an integer")
            return _mod_ring(modulus, f"{path}.modulus")
        if kind == "product":
            return ProductRing(
                ring_from_json(_get(obj, "left", path), f"{path}.left"),
                ring_from_json(_get(obj, "right", path), f"{path}.right"),
            )
        if kind == "polynomial":
            variables = _get(obj, "variables", path)
            if (
                not isinstance(variables, list)
                or not variables
                or not all(isinstance(v, str) and v for v in variables)
                or len(set(variables)) != len(variables)
            ):
                raise SchemaError(
                    f"{path}.variables: expected a non-empty list of distinct names"
                )
            return PolynomialRing(
                ring_from_json(_get(obj, "base", path), f"{path}.base"),
                tuple(variables),
            )
        raise SchemaError(f"{path}.kind: unknown ring kind {kind!r}")
    raise SchemaError(f"{path}: expected a ring description, got {obj!r}")


def _mod_ring(modulus: int, path: str) -> IntegerModRing:
    if modulus < 2:
        raise SchemaError(f"{path}: modulus must be >= 2, got {modulus}")
    return IntegerModRing(modulus)


def element_to_json(element: RingElement):
    return element.ring.to_json(element.value)


def element_from_json(ring: Ring, obj, path: str = "element") -> RingElement:
    if not isinstance(obj, str) and _has_bool(obj):
        raise SchemaError(f"{path}: true and false are not ring elements")
    try:
        return RingElement(ring, ring.from_json(obj))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: cannot read {obj!r} as {ring.describe()}: {exc}") from None


def _entry_to_json(entry: ModuleElement):
    if entry.rank == 1:
        return element_to_json(entry.coords[0])
    return [element_to_json(c) for c in entry.coords]


def _entry_from_json(ring: Ring, rank: int, obj, path: str) -> ModuleElement:
    if rank == 1:
        return ModuleElement(ring, (element_from_json(ring, obj, path),))
    if not isinstance(obj, list) or len(obj) != rank:
        raise SchemaError(f"{path}: expected an array of {rank} coordinates")
    coords = [
        element_from_json(ring, c, f"{path}[{i}]") for i, c in enumerate(obj)
    ]
    return ModuleElement(ring, coords)


def block_to_json(block: Block) -> dict:
    return {
        "shape": list(block.shape),
        "data": [_entry_to_json(e) for e in block.entries],
    }


def block_from_json(ring: Ring, obj, rank: int, path: str = "block") -> Block:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object with shape and data")
    shape = _get(obj, "shape", path)
    if not isinstance(shape, list) or not shape or not all(
        _is_int(d) and d >= 1 for d in shape
    ):
        raise SchemaError(f"{path}.shape: expected positive integers, one per axis")
    data = _get(obj, "data", path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}.data: expected an array")
    size = prod(shape)
    if len(data) != size:
        raise SchemaError(
            f"{path}.data: shape {shape} needs {size} entries, got {len(data)}"
        )
    entries = [
        _entry_from_json(ring, rank, e, f"{path}.data[{i}]")
        for i, e in enumerate(data)
    ]
    return Block(ring, tuple(shape), entries)


@dataclass(frozen=True)
class SpecFile:
    """A sequence plus an optional pair of roots attached to it."""

    sequence: MultiSequence
    roots: tuple[RingElement, RingElement] | None = None


def sequence_to_json(seq: MultiSequence, roots=None) -> dict:
    """Full JSON description of a sequence (one-axis or multi-axis)."""
    out = {
        "ring": ring_to_json(seq.ring),
        "module_rank": seq.rank,
        "axes": [
            {"coeffs": [element_to_json(c) for c in rec.coeffs]}
            for rec in seq.spec.axes
        ],
        "initial": block_to_json(seq.block),
    }
    if roots is not None:
        r1, r2 = roots
        out["roots"] = [element_to_json(r1), element_to_json(r2)]
    return out


def spec_from_json(obj) -> SpecFile:
    if not isinstance(obj, dict):
        raise SchemaError("spec: expected a JSON object")
    ring = ring_from_json(_get(obj, "ring", "spec"), "spec.ring")
    rank = _get(obj, "module_rank", "spec")
    if not _is_int(rank) or rank < 1:
        raise SchemaError("spec.module_rank: expected a positive integer")
    axes_json = _get(obj, "axes", "spec")
    if not isinstance(axes_json, list) or not axes_json:
        raise SchemaError("spec.axes: expected a non-empty array")
    axis_coeffs = []
    for i, axis in enumerate(axes_json):
        path = f"spec.axes[{i}]"
        if not isinstance(axis, dict):
            raise SchemaError(f"{path}: expected an object with coeffs")
        coeffs_json = _get(axis, "coeffs", path)
        if not isinstance(coeffs_json, list) or not coeffs_json:
            raise SchemaError(f"{path}.coeffs: expected a non-empty array")
        axis_coeffs.append(
            [
                element_from_json(ring, c, f"{path}.coeffs[{j}]")
                for j, c in enumerate(coeffs_json)
            ]
        )
    spec = MultiSpec(ring, axis_coeffs)
    block = block_from_json(ring, _get(obj, "initial", "spec"), rank, "spec.initial")
    if block.shape != spec.shape:
        raise SchemaError(
            f"spec.initial.shape: expected {list(spec.shape)} to match the "
            f"axis orders, got {list(block.shape)}"
        )
    roots = None
    if "roots" in obj:
        roots_json = obj["roots"]
        if not isinstance(roots_json, list) or len(roots_json) != 2:
            raise SchemaError("spec.roots: expected an array of two elements")
        roots = (
            element_from_json(ring, roots_json[0], "spec.roots[0]"),
            element_from_json(ring, roots_json[1], "spec.roots[1]"),
        )
    return SpecFile(MultiSequence(spec, block), roots)


def dump_spec(seq, roots=None) -> str:
    return json.dumps(sequence_to_json(seq, roots), indent=2) + "\n"


def load_spec(path) -> SpecFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    return spec_from_json(obj)


def save_spec(path, seq, roots=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_spec(seq, roots))


def _is_int(value) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _has_bool(obj) -> bool:
    if isinstance(obj, bool):
        return True
    if isinstance(obj, list):
        return any(_has_bool(v) for v in obj)
    if isinstance(obj, dict):
        return any(_has_bool(v) for v in obj.values())
    return False


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing")
    return obj[key]
