"""Binary block census: orbits, primitives, certificates, determination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements, injective, residues, value_matrix
from linrec import orbits as orbits_module
from linrec.errors import AmbiguousOrbitError, HypothesisError
from linrec.multiseq import Block, MultiSequence, MultiSpec, charpoly, reduce_relation
from linrec.orbits import (
    Orbit,
    block_index,
    block_sequence,
    classify_orbits,
    enumerate_blocks,
    format_block,
    format_shift,
    generation_certificate,
    positions_determine,
)
from linrec.rings import QQ, ZZ, IntegerModRing, PolynomialRing, ProductRing


@pytest.fixture(scope="module")
def orbits():
    return classify_orbits()


class TestEnumeration:
    def test_sixteen_blocks(self):
        blocks = enumerate_blocks()
        assert len(blocks) == 16
        assert len(set(blocks)) == 16

    def test_counting_order(self):
        blocks = enumerate_blocks()
        assert blocks[0] == (0, 0, 0, 0)
        assert blocks[1] == (1, 0, 0, 0)
        assert blocks[2] == (0, 1, 0, 0)
        assert blocks[15] == (1, 1, 1, 1)

    def test_index_round_trip(self):
        for i, b in enumerate(enumerate_blocks()):
            assert block_index(b) == i


class TestCensus:
    def test_five_orbits(self, orbits):
        assert len(orbits) == 5

    def test_sizes(self, orbits):
        assert sorted(o.size for o in orbits) == [1, 1, 2, 3, 9]

    def test_partition_covers_everything(self, orbits):
        seen = []
        for o in orbits:
            seen.extend(o.blocks())
        assert sorted(block_index(b) for b in seen) == list(range(16))

    def test_primitive_indices(self, orbits):
        assert [block_index(o.primitive) for o in orbits] == [0, 1, 6, 7, 9]

    def test_member_sets(self, orbits):
        by_primitive = {block_index(o.primitive): o for o in orbits}
        expected = {
            0: {0},
            1: {1, 2, 3, 4, 5, 8, 10, 12, 15},
            6: {6, 11, 13},
            7: {7},
            9: {9, 14},
        }
        for prim, indices in expected.items():
            got = {block_index(b) for b in by_primitive[prim].blocks()}
            assert got == indices

    def test_zero_block_is_alone(self, orbits):
        zero = orbits[0]
        assert zero.primitive == (0, 0, 0, 0)
        assert zero.size == 1

    def test_known_shifts(self, orbits):
        by_primitive = {block_index(o.primitive): o for o in orbits}
        b1 = dict(by_primitive[1].members)
        assert b1[(1, 0, 0, 0)] == (0, 0)
        assert b1[(0, 1, 0, 0)] == (1, 0)
        assert b1[(0, 0, 1, 0)] == (0, 1)
        assert b1[(0, 0, 0, 1)] == (1, 1)
        assert b1[(0, 0, 1, 1)] == (2, 1)
        assert b1[(0, 1, 0, 1)] == (1, 2)
        assert b1[(1, 1, 1, 1)] == (2, 2)
        b2 = dict(by_primitive[6].members)
        assert b2[(1, 1, 0, 1)] == (1, 0)
        assert b2[(1, 0, 1, 1)] == (0, 1)
        b3 = dict(by_primitive[9].members)
        assert b3[(0, 1, 1, 1)] in ((1, 0), (0, 1))

    def test_shifts_reproduce_members(self, orbits):
        for o in orbits:
            seq = block_sequence(o.primitive)
            for block, (i, j) in o.members:
                window = (
                    seq.term((i, j)).scalar().value,
                    seq.term((i + 1, j)).scalar().value,
                    seq.term((i, j + 1)).scalar().value,
                    seq.term((i + 1, j + 1)).scalar().value,
                )
                assert window == block

    def test_stable_under_larger_bound(self, orbits):
        wider = classify_orbits(search_bound=6)
        assert [(o.primitive, o.blocks()) for o in wider] == [
            (o.primitive, o.blocks()) for o in orbits
        ]

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            classify_orbits(search_bound=1)

    def test_same_census_at_every_bound(self, orbits):
        # binary windows occur only at shifts of at most 2 per axis, so the
        # members and their smallest shifts do not depend on the bound
        least = classify_orbits(search_bound=2)
        assert least == orbits
        for bound in range(3, 13):
            assert classify_orbits(search_bound=bound) == least


def rule_sequences(rule):
    """A stand-in for ``block_sequence`` with the same rule on both axes."""
    spec = MultiSpec(ZZ, [rule, rule])
    return lambda block: MultiSequence(spec, Block(ZZ, (2, 2), list(block)))


class TestAmbiguousCensus:
    def test_block_reachable_from_two_primitives(self, monkeypatch):
        monkeypatch.setattr(orbits_module, "block_sequence", rule_sequences((0, 0)))
        with pytest.raises(AmbiguousOrbitError, match="reachable from two primitives"):
            classify_orbits()

    def test_block_in_no_orbit(self, monkeypatch):
        monkeypatch.setattr(orbits_module, "block_sequence", rule_sequences((0, 1)))
        with pytest.raises(AmbiguousOrbitError, match="belong to no primitive's orbit"):
            classify_orbits()


class TestOrbitRecord:
    MEMBERS = (((1, 1, 0, 1), (0, 0)), ((1, 2, 1, 3), (1, 0)))

    def test_fields_size_and_blocks(self):
        o = Orbit(primitive=(1, 1, 0, 1), members=self.MEMBERS)
        assert o.primitive == (1, 1, 0, 1)
        assert o.members == self.MEMBERS
        assert o.size == 2
        assert o.blocks() == frozenset({(1, 1, 0, 1), (1, 2, 1, 3)})

    def test_equality_and_hashing(self):
        a = Orbit((1, 1, 0, 1), self.MEMBERS)
        b = Orbit(primitive=(1, 1, 0, 1), members=self.MEMBERS)
        c = Orbit((1, 1, 0, 1), self.MEMBERS[:1])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_census_orbits_hash(self, orbits):
        assert len(set(orbits)) == len(orbits)

    def test_immutable(self):
        o = Orbit((1, 1, 0, 1), self.MEMBERS)
        with pytest.raises(AttributeError):
            o.primitive = (0, 0, 0, 0)
        with pytest.raises(AttributeError):
            o.extra = 1


class TestFormatting:
    def test_block_prints_second_row_on_top(self):
        assert format_block((1, 0, 0, 0)) == "0 0\n1 0"
        assert format_block((0, 1, 1, 0)) == "1 0\n0 1"

    def test_shift_names(self):
        assert format_shift((0, 0)) == "id"
        assert format_shift((1, 0)) == "H"
        assert format_shift((0, 1)) == "V"
        assert format_shift((1, 1)) == "HV"
        assert format_shift((2, 1)) == "H^2V"
        assert format_shift((1, 2)) == "HV^2"
        assert format_shift((2, 2)) == "H^2V^2"


class TestGenerationCertificate:
    def test_identity_matrix(self):
        matrix, det = generation_certificate()
        assert matrix == [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        assert det == 1


class TestPositionsDetermine:
    @pytest.fixture
    def fib_spec(self):
        return MultiSpec(ZZ, [(1, 1), (1, 1)])

    def test_initial_block_positions(self, fib_spec):
        assert positions_determine(
            fib_spec, [(0, 0), (1, 0), (0, 1), (1, 1)]
        )

    def test_diagonal_fails(self, fib_spec):
        assert not positions_determine(
            fib_spec, [(0, 0), (1, 1), (2, 2), (3, 3)]
        )

    def test_mixed_set_succeeds(self, fib_spec):
        assert positions_determine(
            fib_spec, [(0, 0), (1, 0), (0, 1), (2, 2)]
        )

    def test_permutation_invariance(self, fib_spec):
        base = [(0, 0), (1, 0), (0, 1), (2, 2)]
        import itertools

        results = {
            positions_determine(fib_spec, list(p))
            for p in itertools.permutations(base)
        }
        assert results == {True}

    def test_duplicates_refused(self, fib_spec):
        with pytest.raises(HypothesisError):
            positions_determine(fib_spec, [(0, 0), (0, 0), (0, 1), (1, 1)])

    def test_wrong_count_refused(self, fib_spec):
        with pytest.raises(HypothesisError):
            positions_determine(fib_spec, [(0, 0), (1, 0), (0, 1)])

    def test_needs_two_axes(self):
        spec = MultiSpec(ZZ, [(1, 1)])
        with pytest.raises(HypothesisError):
            positions_determine(spec, [(0, 0), (1, 0)])

    def test_rational_spec_allowed(self):
        spec = MultiSpec(QQ, [(1, 1), (1, 1)])
        assert positions_determine(spec, [(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_works_for_larger_orders(self):
        spec = MultiSpec(ZZ, [(1, 1, 1), (2, 1)])
        positions = [(n, k) for n in range(3) for k in range(2)]
        assert positions_determine(spec, positions)


def eliminate(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals: the reference
    for :func:`charpoly` on integer and rational matrices."""
    n = len(rows)
    rows = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [
                    a - factor * b for a, b in zip(rows[r], rows[col])
                ]
    return det


def draw_square(data, ring, max_size) -> list:
    """A payload matrix of size 1..max_size; now and then its last row
    repeats its first, so that singular matrices come up."""
    n = data.draw(st.integers(1, max_size))
    entry = elements(ring, 6).map(lambda e: e.value)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


Z4 = IntegerModRing(4)
Z12 = IntegerModRing(12)
Z2xZ3 = ProductRing(IntegerModRing(2), IntegerModRing(3))
Z4R = PolynomialRing(Z4, ("r",))
Z6R = PolynomialRing(IntegerModRing(6), ("r",))


class TestCharpoly:
    @pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_determinant_matches_elimination(self, ring, data):
        rows = draw_square(data, ring, 6)
        poly = charpoly(ring, rows)
        n = len(rows)
        assert len(poly) == n + 1 and poly[n] == 1
        # the next coefficient is minus the trace
        assert poly[n - 1] == -sum(rows[i][i] for i in range(n))
        assert (-1) ** n * poly[0] == eliminate(rows)

    @pytest.mark.parametrize("ring", [Z12, Z2xZ3, Z4R], ids=lambda r: r.describe())
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cayley_hamilton(self, ring, data):
        rows = draw_square(data, ring, 4)
        n = len(rows)
        matrix = [[ring(v) for v in r] for r in rows]

        def times_matrix(x):
            return [
                [
                    sum((x[i][l] * matrix[l][j] for l in range(n)), ring.zero)
                    for j in range(n)
                ]
                for i in range(n)
            ]

        # p(M) by Horner's rule is the zero matrix
        acc = [[ring.zero] * n for _ in range(n)]
        for c in reversed(charpoly(ring, rows)):
            acc = times_matrix(acc)
            for i in range(n):
                acc[i][i] = acc[i][i] + ring(c)
        assert all(v.is_zero() for row in acc for v in row)

    def test_empty_matrix(self):
        assert charpoly(ZZ, []) == [1]


def draw_determine_case(data, ring):
    """A two-axis spec with unit trailing coefficients (orders 2 and 1-2)
    and ``d_1 * d_2`` distinct positions in ``[-3, 4]^2``.  The positions
    come from three strata, so that both answers occur: a shifted initial
    box always determines, random positions mostly do not, and a box with
    one position moved does either."""
    units = [x for x in residues(ring) if ring.try_invert(x) is not None]
    rules = []
    for low in (2, 1):
        d = data.draw(st.integers(low, 2))
        head = [data.draw(st.sampled_from(residues(ring))) for _ in range(d - 1)]
        rules.append(head + [data.draw(st.sampled_from(units))])
    spec = MultiSpec(ring, rules)
    d1, d2 = spec.shape
    needed = d1 * d2
    point = st.tuples(st.integers(-3, 4), st.integers(-3, 4))
    kind = data.draw(st.sampled_from(["box", "moved", "random"]))
    if kind == "random":
        positions = data.draw(
            st.lists(point, min_size=needed, max_size=needed, unique=True)
        )
    else:
        n0 = data.draw(st.integers(-3, 5 - d1))
        k0 = data.draw(st.integers(-3, 5 - d2))
        positions = [(n0 + i, k0 + j) for j in range(d2) for i in range(d1)]
        if kind == "moved":
            moved = data.draw(point.filter(lambda p: p not in positions))
            positions[data.draw(st.integers(0, needed - 1))] = moved
    return spec, positions


class TestDeterminationOverRings:
    """``positions_determine`` against brute-force injectivity of the map
    from initial blocks to the values at the positions."""

    @pytest.mark.parametrize("ring", [Z12, Z2xZ3], ids=lambda r: r.describe())
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, ring, data):
        spec, positions = draw_determine_case(data, ring)
        expected = injective(ring, value_matrix(spec, positions))
        assert positions_determine(spec, positions) == expected

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_constant_rules_over_polynomials(self, data):
        # with constant rules the map acts on each coefficient of r
        # separately, so it is injective over Z/4[r] exactly when it is
        # over Z/4
        spec, positions = draw_determine_case(data, Z4)
        lifted = MultiSpec(
            Z4R, [[c.value for c in ax.coeffs] for ax in spec.axes]
        )
        expected = injective(Z4, value_matrix(spec, positions))
        assert positions_determine(lifted, positions) == expected

    def test_non_constant_rule_not_determining(self):
        r = Z4R.variable("r")
        spec = MultiSpec(Z4R, [(r, 1), (1, 1)])
        positions = [(1, -1), (0, 1), (-2, 4), (-3, 1)]
        matrix = [
            [w.value for w in reduce_relation(spec, {p: 1})] for p in positions
        ]
        # det = 2 + 2r^4 is not zero, but 2 kills it
        assert Z4R.format(charpoly(Z4R, matrix)[0]) == "2 + 2r^4"
        assert not positions_determine(spec, positions)
        # two sequences whose blocks differ by 2 at (0, 0) agree there
        first = MultiSequence(spec, Block(Z4R, (2, 2), [1, r, 0, 3]))
        second = MultiSequence(spec, Block(Z4R, (2, 2), [3, r, 0, 3]))
        assert first != second
        assert [first.term(p) for p in positions] == [
            second.term(p) for p in positions
        ]

    def test_integer_answers_differ_from_residues(self):
        # det 4 is nonzero over Z but a zero divisor mod 12
        positions = [(0, 0), (1, 0), (0, 1), (3, 3)]
        assert positions_determine(MultiSpec(ZZ, [(1, 1), (1, 1)]), positions)
        spec = MultiSpec(Z12, [(1, 1), (1, 1)])
        assert not positions_determine(spec, positions)
        assert not injective(Z12, value_matrix(spec, positions))
