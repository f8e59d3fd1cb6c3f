"""Serialization: ring descriptions, blocks, and full sequence files."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from linrec.errors import SchemaError
from linrec.jsonio import (
    SpecFile,
    block_from_json,
    block_to_json,
    dump_spec,
    element_from_json,
    element_to_json,
    load_spec,
    ring_from_json,
    ring_to_json,
    save_spec,
    sequence_to_json,
    spec_from_json,
)
from linrec.multiseq import Block, MultiSequence, MultiSpec, box_indices
from linrec.recurrence import Recurrence, Sequence
from linrec.rings import QQ, ZZ, IntegerModRing, PolynomialRing, ProductRing

DATA = Path(__file__).parent / "data"

RINGS = [
    ZZ,
    QQ,
    IntegerModRing(7),
    IntegerModRing(2305843009213693951),
    ProductRing(ZZ, IntegerModRing(5)),
    PolynomialRing(ZZ, ("t",)),
    PolynomialRing(QQ, ("t", "s")),
    ProductRing(QQ, PolynomialRing(ZZ, ("u",))),
]


class TestRingDescriptions:
    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.describe())
    def test_round_trip(self, ring):
        assert ring_from_json(ring_to_json(ring)) == ring

    def test_shorthand_strings(self):
        assert ring_from_json("Z") == ZZ
        assert ring_from_json("Q") == QQ
        assert ring_from_json("Z/97") == IntegerModRing(97)

    def test_object_forms(self):
        assert ring_from_json({"kind": "integer"}) == ZZ
        assert ring_from_json({"kind": "rational"}) == QQ
        assert ring_from_json({"kind": "mod", "modulus": 12}) == IntegerModRing(12)

    def test_unknown_string_refused(self):
        with pytest.raises(SchemaError):
            ring_from_json("R")

    def test_bad_modulus_refused(self):
        with pytest.raises(SchemaError):
            ring_from_json("Z/pi")
        with pytest.raises(SchemaError):
            ring_from_json({"kind": "mod", "modulus": "7"})

    def test_unknown_kind_names_the_path(self):
        with pytest.raises(SchemaError, match="ring.kind"):
            ring_from_json({"kind": "field"})


class TestElements:
    def test_integers_as_decimal_strings(self):
        assert element_to_json(ZZ(-3)) == "-3"
        assert element_from_json(ZZ, "-3") == ZZ(-3)
        big = 10**40 + 7
        assert element_from_json(ZZ, str(big)) == ZZ(big)

    def test_rationals_as_fraction_strings(self):
        assert element_to_json(QQ(Fraction(2, 3))) == "2/3"
        assert element_from_json(QQ, "2/3") == QQ(Fraction(2, 3))

    def test_residues_canonical(self):
        ring = IntegerModRing(7)
        assert element_to_json(ring(5)) == "5"
        assert element_from_json(ring, "12") == ring(5)

    def test_pairs_as_two_arrays(self):
        ring = ProductRing(ZZ, IntegerModRing(5))
        elt = ring((3, 9))
        assert element_to_json(elt) == ["3", "4"]
        assert element_from_json(ring, ["3", "4"]) == elt

    def test_polynomials_as_coefficient_maps(self):
        ring = PolynomialRing(ZZ, ("t", "s"))
        t, s = ring.gens()
        poly = ring.one - t + 2 * s * t
        encoded = element_to_json(poly)
        assert encoded == {"0,0": "1", "1,0": "-1", "1,1": "2"}
        assert element_from_json(ring, encoded) == poly

    def test_bad_element_reports_path(self):
        with pytest.raises(SchemaError, match=r"data\[2\]"):
            block_from_json(ZZ, {"shape": [3], "data": ["1", "2", "x"]}, 1)


class TestBlocks:
    def test_round_trip_scalar(self):
        block = Block(ZZ, (2, 2), [1, 1, 0, 1])
        again = block_from_json(ZZ, block_to_json(block), 1)
        assert again == block

    def test_round_trip_vector_entries(self):
        block = Block(ZZ, (2,), [[1, 0], [0, 1]])
        encoded = block_to_json(block)
        assert encoded["data"] == [["1", "0"], ["0", "1"]]
        assert block_from_json(ZZ, encoded, 2) == block

    def test_pair_entries_stay_rank_one(self):
        ring = ProductRing(ZZ, ZZ)
        block = Block(ring, (2,), [ring((1, 2)), ring((3, 4))])
        encoded = block_to_json(block)
        again = block_from_json(ring, encoded, 1)
        assert again == block
        assert again.rank == 1

    def test_length_mismatch_refused(self):
        with pytest.raises(SchemaError, match="needs 4 entries"):
            block_from_json(ZZ, {"shape": [2, 2], "data": ["1", "2"]}, 1)


class TestSpecFiles:
    def round_trip(self, seq):
        loaded = spec_from_json(json.loads(dump_spec(seq)))
        return loaded.sequence

    def test_grid_round_trip(self):
        spec = MultiSpec(ZZ, [(1, 1), (1, 3)])
        seq = MultiSequence(spec, Block(ZZ, (2, 2), [1, 1, 0, 1]))
        again = self.round_trip(seq)
        assert again.spec == seq.spec
        for idx in box_indices((5, 5)):
            assert again.term(idx) == seq.term(idx)

    def test_one_axis_sequence_accepted(self):
        seq = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        again = self.round_trip(seq)
        assert again.ndim == 1
        assert again.term((10,)).scalar().value == 55

    def test_vector_valued_round_trip(self):
        seq = Sequence(Recurrence(QQ, [Fraction(1, 2), 1]), [[1, 0], [0, 1]])
        again = self.round_trip(seq)
        assert again.rank == 2
        assert again.term((6,)) == seq.term(6)

    def test_roots_attached(self):
        seq = Sequence(Recurrence(ZZ, [3, -2]), [0, 1])
        text = dump_spec(seq, roots=(ZZ(1), ZZ(2)))
        loaded = spec_from_json(json.loads(text))
        assert loaded.roots == (ZZ(1), ZZ(2))

    def test_record_fields(self):
        seq = Sequence(Recurrence(ZZ, [3, -2]), [0, 1])
        assert SpecFile(seq).roots is None
        loaded = SpecFile(sequence=seq, roots=(ZZ(1), ZZ(2)))
        assert loaded.sequence is seq
        assert loaded.roots == (ZZ(1), ZZ(2))
        assert loaded == SpecFile(seq, (ZZ(1), ZZ(2)))
        assert SpecFile(seq) == SpecFile(seq, None)
        with pytest.raises(AttributeError):
            loaded.roots = None
        with pytest.raises(AttributeError):
            loaded.extra = 1

    def test_load_intro_grid(self):
        loaded = load_spec(DATA / "grid_intro.json")
        assert loaded.roots is None
        assert loaded.sequence.term((3, 3)).scalar().value == 17

    def test_load_roots_file(self):
        loaded = load_spec(DATA / "fibonacci_roots.json")
        assert loaded.roots == (ZZ(1), ZZ(2))
        assert loaded.sequence.term((5,)).scalar().value == 31

    def test_save_then_load(self, tmp_path):
        seq = Sequence(Recurrence(IntegerModRing(97), [1, 1]), [0, 1])
        target = tmp_path / "spec.json"
        save_spec(target, seq)
        loaded = load_spec(target)
        assert loaded.sequence.term((30,)) == seq.term(30)


class TestSchemaErrors:
    def base(self):
        return json.loads(dump_spec(
            MultiSequence(
                MultiSpec(ZZ, [(1, 1), (1, 3)]),
                Block(ZZ, (2, 2), [1, 1, 0, 1]),
            )
        ))

    def test_missing_field_names_path(self):
        obj = self.base()
        del obj["axes"]
        with pytest.raises(SchemaError, match="spec.axes"):
            spec_from_json(obj)

    def test_shape_must_match_axis_orders(self):
        obj = self.base()
        obj["initial"]["shape"] = [2, 3]
        obj["initial"]["data"].extend(["0", "0"])
        with pytest.raises(SchemaError, match="match the axis orders"):
            spec_from_json(obj)

    def test_bad_rank_refused(self):
        obj = self.base()
        obj["module_rank"] = 0
        with pytest.raises(SchemaError, match="module_rank"):
            spec_from_json(obj)

    def test_bad_coefficient_names_position(self):
        obj = self.base()
        obj["axes"][1]["coeffs"][0] = "three"
        with pytest.raises(SchemaError, match=r"axes\[1\].coeffs\[0\]"):
            spec_from_json(obj)

    def test_invalid_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ring": "Z",\n  broken\n}')
        with pytest.raises(SchemaError, match="line 2"):
            load_spec(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_spec(tmp_path / "absent.json")
