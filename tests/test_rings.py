"""Ring tower: axioms, canonical forms, inversion, formatting, JSON payloads."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AXIOM_RINGS, elements, residues
from linrec.errors import NotInvertibleError, RingMismatchError, SchemaError
from linrec.rings import (
    QQ,
    ZZ,
    IntegerModRing,
    ModuleElement,
    PolynomialRing,
    ProductRing,
    as_module_element,
)


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=lambda r: r.describe())
class TestRingAxioms:
    @given(data=st.data())
    def test_add_commutes_and_associates(self, ring, data):
        x = data.draw(elements(ring))
        y = data.draw(elements(ring))
        z = data.draw(elements(ring))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)

    @given(data=st.data())
    def test_additive_identity_and_inverse(self, ring, data):
        x = data.draw(elements(ring))
        assert x + ring.zero == x
        assert x + (-x) == ring.zero
        assert x - x == ring.zero

    @given(data=st.data())
    def test_mul_commutes_and_associates(self, ring, data):
        x = data.draw(elements(ring))
        y = data.draw(elements(ring))
        z = data.draw(elements(ring))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)

    @given(data=st.data())
    def test_multiplicative_identity(self, ring, data):
        x = data.draw(elements(ring))
        assert x * ring.one == x
        assert x * ring.zero == ring.zero

    @given(data=st.data())
    def test_distributivity(self, ring, data):
        x = data.draw(elements(ring))
        y = data.draw(elements(ring))
        z = data.draw(elements(ring))
        assert x * (y + z) == x * y + x * z

    @given(data=st.data())
    def test_try_invert_is_exact(self, ring, data):
        x = data.draw(elements(ring))
        inv = x.try_invert()
        if inv is not None:
            assert x * inv == ring.one

    @given(data=st.data())
    def test_json_payload_round_trip(self, ring, data):
        x = data.draw(elements(ring))
        assert ring.from_json(ring.to_json(x.value)) == x.value


class TestCanonicalForms:
    def test_mod_residues_are_canonical(self):
        R = IntegerModRing(7)
        assert R(-1).value == 6
        assert R(14).value == 0
        assert R(9).value == 2

    def test_mod_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            IntegerModRing(1)

    def test_rationals_are_reduced(self):
        x = QQ(Fraction(6, 4))
        assert (x.value.numerator, x.value.denominator) == (3, 2)
        y = QQ("2/-4")
        assert (y.value.numerator, y.value.denominator) == (-1, 2)

    def test_polynomials_drop_zero_coefficients(self):
        R = PolynomialRing(ZZ, ("t",))
        t = R.variable("t")
        assert (t - t).value == {}
        p = R({(2,): 3}) + R({(2,): -3, (0,): 1})
        assert p.value == {(0,): 1}

    def test_bool_is_not_special_cased(self):
        assert ZZ(True).value == 1


class TestInversion:
    def test_integers(self):
        assert ZZ(1).try_invert() == ZZ(1)
        assert ZZ(-1).try_invert() == ZZ(-1)
        assert ZZ(2).try_invert() is None

    def test_rationals(self):
        assert QQ(Fraction(2, 3)).try_invert() == QQ(Fraction(3, 2))
        assert QQ(0).try_invert() is None

    def test_mod_prime_and_composite(self):
        assert IntegerModRing(7)(3).try_invert().value == 5
        assert IntegerModRing(12)(2).try_invert() is None
        assert IntegerModRing(12)(5).try_invert().value == 5

    def test_product_needs_both_components(self):
        R = ProductRing(ZZ, IntegerModRing(5))
        assert R((1, 2)).try_invert().value == (1, 3)
        assert R((2, 2)).try_invert() is None

    def test_polynomial_constants_only(self):
        R = PolynomialRing(QQ, ("t",))
        c = R.constant(Fraction(2, 3))
        assert c.try_invert() == R.constant(Fraction(3, 2))
        assert R.variable("t").try_invert() is None
        assert R(0).try_invert() is None

    def test_inverse_raises_for_non_units(self):
        with pytest.raises(NotInvertibleError):
            ZZ(2).inverse()


class TestZeroDivisors:
    """``is_zero_divisor(xs)``: one nonzero ``c`` kills every payload."""

    def test_domains_kill_only_zero(self):
        assert ZZ.is_zero_divisor([0])
        assert not ZZ.is_zero_divisor([2])
        assert not ZZ.is_zero_divisor([0, -3])
        assert QQ.is_zero_divisor([Fraction(0)])
        assert not QQ.is_zero_divisor([Fraction(1, 3)])

    def test_residues(self):
        R = IntegerModRing(12)
        assert R.is_zero_divisor([0])
        assert R.is_zero_divisor([4])
        assert R.is_zero_divisor([4, 8])
        assert not R.is_zero_divisor([5])
        # 3 kills 4 and 4 kills 3, but nothing nonzero kills both
        assert not R.is_zero_divisor([4, 3])

    def test_product_either_side(self):
        R = ProductRing(IntegerModRing(2), IntegerModRing(3))
        assert R.is_zero_divisor([(1, 0)])
        assert R.is_zero_divisor([(0, 2), (0, 1)])
        assert not R.is_zero_divisor([(1, 1)])
        assert not R.is_zero_divisor([(1, 0), (0, 1)])

    def test_polynomials_by_content(self):
        R = PolynomialRing(IntegerModRing(6), ("r",))
        r = R.variable("r")
        assert not R.is_zero_divisor([(2 + 3 * r).value])
        assert R.is_zero_divisor([(2 + 4 * r).value])
        assert R.is_zero_divisor([R(0).value])
        assert not PolynomialRing(ZZ, ("r",)).is_zero_divisor([{(1,): 2}])

    @pytest.mark.parametrize(
        "ring",
        [IntegerModRing(12), ProductRing(IntegerModRing(2), IntegerModRing(3))],
        ids=lambda r: r.describe(),
    )
    def test_matches_brute_force(self, ring):
        values = residues(ring)
        zero = ring.payload_zero()
        killers = [c for c in values if c != zero]
        for xs in [[x] for x in values] + [[x, y] for x in values for y in values]:
            expected = any(
                all(ring.mul(c, x) == zero for x in xs) for c in killers
            )
            assert ring.is_zero_divisor(xs) == expected, xs

    def test_polynomials_match_brute_force(self):
        # every a + b*r over Z/6 against every nonzero killer of degree <= 1
        R = PolynomialRing(IntegerModRing(6), ("r",))
        polys = [R({(0,): a, (1,): b}).value for a in range(6) for b in range(6)]
        killers = [c for c in polys if c]
        for x in polys:
            expected = any(not R.mul(c, x) for c in killers)
            assert R.is_zero_divisor([x]) == expected, x


class TestArithmeticSpotValues:
    def test_mod_add(self):
        R = IntegerModRing(7)
        assert R(5) + R(4) == R(2)

    def test_rational_mul(self):
        assert QQ(Fraction(1, 2)) * QQ(Fraction(2, 3)) == QQ(Fraction(1, 3))

    def test_int_mixing(self):
        assert ZZ(5) + 1 == ZZ(6)
        assert 2 * QQ(Fraction(1, 2)) == QQ(1)
        assert 1 - IntegerModRing(5)(3) == IntegerModRing(5)(3)

    def test_powers(self):
        assert ZZ(2) ** 10 == ZZ(1024)
        assert IntegerModRing(7)(3) ** -1 == IntegerModRing(7)(5)
        assert QQ(Fraction(2, 3)) ** -2 == QQ(Fraction(9, 4))
        assert ZZ(5) ** 0 == ZZ(1)

    def test_mixed_rings_refuse(self):
        with pytest.raises(RingMismatchError):
            ZZ(1) + QQ(1)
        with pytest.raises(RingMismatchError):
            IntegerModRing(5)(1) * IntegerModRing(7)(1)


class TestPolynomials:
    def test_gens_and_constant(self):
        R = PolynomialRing(ZZ, ("t", "s"))
        t, s = R.gens()
        assert t.value == {(1, 0): 1}
        assert s.value == {(0, 1): 1}
        assert R.constant(5).value == {(0, 0): 5}
        assert R.constant(0).value == {}

    @given(data=st.data())
    @settings(max_examples=40)
    def test_evaluate_is_a_homomorphism(self, data):
        R = PolynomialRing(QQ, ("t", "s"))
        p = data.draw(elements(R))
        q = data.draw(elements(R))
        vals = (
            data.draw(elements(QQ, 5)),
            data.draw(elements(QQ, 5)),
        )
        ev = lambda poly: R.evaluate(poly, vals)
        assert ev(p + q) == ev(p) + ev(q)
        assert ev(p * q) == ev(p) * ev(q)
        assert ev(R.one) == QQ(1)

    def test_degree(self):
        R = PolynomialRing(ZZ, ("t", "s"))
        t, s = R.gens()
        assert R.degree((t * t * s + s).value) == 3
        assert R.degree(R(0).value) == -1
        assert R.degree(R(7).value) == 0

    def test_evaluate_spot_value(self):
        R = PolynomialRing(ZZ, ("t",))
        t = R.variable("t")
        p = 1 - t - t * t
        assert R.evaluate(p, (ZZ(2),)) == ZZ(-5)


class TestFormatting:
    def test_one_variable(self):
        R = PolynomialRing(ZZ, ("t",))
        t = R.variable("t")
        assert str(1 - t - t * t) == "1 - t - t^2"
        assert str(2 * t) == "2t"
        assert str(R(0)) == "0"
        assert str(-t) == "-t"
        assert str(t ** 3 - 2 * t + 5) == "5 - 2t + t^3"

    def test_two_variables(self):
        R = PolynomialRing(ZZ, ("t", "s"))
        t, s = R.gens()
        assert str(1 - s + t * s) == "1 - s + t*s"
        assert str(3 * s * s) == "3s^2"
        assert str(t * t * s) == "t^2*s"

    def test_rational_coefficients_get_parens(self):
        R = PolynomialRing(QQ, ("t",))
        t = R.variable("t")
        p = R.constant(Fraction(1, 2)) * t
        assert str(p) == "(1/2)t"

    def test_scalar_formats(self):
        assert str(QQ(Fraction(-1, 2))) == "-1/2"
        assert str(IntegerModRing(7)(3)) == "3"
        assert str(ProductRing(ZZ, ZZ)((1, -2))) == "(1, -2)"


class TestModuleElements:
    def test_add_and_scale(self):
        v = ModuleElement(ZZ, (1, 2, 3))
        w = ModuleElement(ZZ, (10, 20, 30))
        assert (v + w).coords == (ZZ(11), ZZ(22), ZZ(33))
        assert v.scale(2).coords == (ZZ(2), ZZ(4), ZZ(6))
        assert (2 * v) == v.scale(2)
        assert (-v).coords == (ZZ(-1), ZZ(-2), ZZ(-3))

    def test_rank_mismatch_refused(self):
        v = ModuleElement(ZZ, (1, 2))
        w = ModuleElement(ZZ, (1, 2, 3))
        with pytest.raises(RingMismatchError):
            v + w

    def test_kron_first_factor_fastest(self):
        a = ModuleElement(ZZ, (2, 3))
        b = ModuleElement(ZZ, (5, 7))
        assert a.kron(b).coords == (ZZ(10), ZZ(15), ZZ(14), ZZ(21))

    def test_concat(self):
        a = ModuleElement(ZZ, (1,))
        b = ModuleElement(ZZ, (2, 3))
        assert a.concat(b).coords == (ZZ(1), ZZ(2), ZZ(3))
        assert a.concat(b).rank == 3

    def test_zero_constructor(self):
        z = ModuleElement.zero(QQ, 4)
        assert z.rank == 4
        assert all(c.is_zero() for c in z.coords)

    def test_as_module_element(self):
        assert as_module_element(ZZ, 5).coords == (ZZ(5),)
        assert as_module_element(ZZ, [1, 2]).rank == 2
        assert as_module_element(ZZ, ZZ(3), rank=1).coords == (ZZ(3),)
        with pytest.raises(RingMismatchError):
            as_module_element(ZZ, [1, 2], rank=3)


class TestRingDescriptors:
    def test_equality_is_structural(self):
        assert IntegerModRing(7) == IntegerModRing(7)
        assert IntegerModRing(7) != IntegerModRing(11)
        assert PolynomialRing(ZZ, ("t",)) == PolynomialRing(ZZ, ("t",))
        assert PolynomialRing(ZZ, ("t",)) != PolynomialRing(ZZ, ("s",))
        assert ProductRing(ZZ, QQ) == ProductRing(ZZ, QQ)
        assert ProductRing(ZZ, QQ) != ProductRing(QQ, ZZ)

    def test_describe(self):
        assert ZZ.describe() == "Z"
        assert QQ.describe() == "Q"
        assert IntegerModRing(97).describe() == "Z/97"
        assert ProductRing(ZZ, IntegerModRing(5)).describe() == "(Z x Z/5)"
        assert PolynomialRing(QQ, ("t", "s")).describe() == "Q[t, s]"

    def test_elements_are_hashable(self):
        seen = {ZZ(3), ZZ(3), QQ(Fraction(1, 2))}
        assert len(seen) == 2

    def test_bad_input_raises_schema_error(self):
        with pytest.raises(SchemaError):
            ZZ(3.5)
        with pytest.raises(SchemaError):
            QQ("not-a-number")
