"""Exact linear recurrences in one and several dimensions over commutative rings.

Each public name is imported from its submodule on first use (PEP 562), so
``import linrec`` loads no submodule until a caller touches one of its names.
"""

from importlib import import_module

#: submodule -> the public names it defines; ``__all__`` lists them in order
_EXPORTS = {
    "errors": (
        "AmbiguousOrbitError", "HypothesisError", "LinrecError",
        "NotInvertibleError", "RingMismatchError", "SchemaError",
        "SpecMismatchError",
    ),
    "rings": (
        "QQ", "ZZ", "IntegerModRing", "IntegerRing", "ModuleElement",
        "PolynomialRing", "ProductRing", "RationalRing", "Ring", "RingElement",
        "as_module_element",
    ),
    "recurrence": ("Recurrence", "check_membership", "reconstruct"),
    "multiseq": (
        "Sequence", "Block", "MultiSequence", "MultiSpec", "antisymmetrize",
        "box_indices", "decompose_tensor", "diagonal_check",
        "diagonal_identity_fib", "direct_sum", "direct_sum_mixed",
        "from_sequence", "is_antisymmetric", "is_symmetric", "symmetrize",
        "tensor_product",
    ),
    "genfun": ("RationalGF", "TruncatedSeries", "gf", "verify_gf"),
    "closedform": (
        "RootPair", "R_poly", "R_rational", "S_value", "gf_via_roots",
        "term_via_roots",
    ),
    "orbits": (
        "Orbit", "block_index", "block_sequence", "classify_orbits",
        "enumerate_blocks", "format_block", "format_shift",
        "generation_certificate", "positions_determine",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
