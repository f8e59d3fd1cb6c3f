"""Command-line behavior: golden outputs, formats, exit codes."""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linrec.cli as cli
from conftest import injective, value_matrix
from linrec.cli import WINDOW_CELL_LIMIT, main
from linrec.errors import RingMismatchError
from linrec.jsonio import block_from_json, load_spec, save_spec
from linrec.multiseq import (
    Block,
    MultiSequence,
    MultiSpec,
    box_indices,
    tensor_product,
)
from linrec.recurrence import Recurrence, Sequence
from linrec.rings import ZZ, IntegerModRing

DATA = Path(__file__).parent / "data"
GRID = str(DATA / "grid_intro.json")
FIB = str(DATA / "fibonacci.json")
FIB_ROOTS = str(DATA / "fibonacci_roots.json")
DIAG = str(DATA / "diag_fixture.json")
MERSENNE = str(DATA / "fib_mod_mersenne.json")
GOLDEN = DATA / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


P = 2**61 - 1
FAR_RULES = [(1, 1), (2, 7, 1), (5, 9)]
FAR_CASES = [
    (ndim, sign) for ndim in (1, 2, 3) for sign in (1, -1)
]


def far_spec(tmp_path, ndim):
    """A Z/(2^61-1) spec with ``ndim`` axes; every rule has a unit ``a_d``."""
    ring = IntegerModRing(P)
    spec = MultiSpec(ring, FAR_RULES[:ndim])
    size = 1
    for d in spec.shape:
        size *= d
    entries = [3 * i + 1 for i in range(size)]
    path = tmp_path / f"far{ndim}.json"
    save_spec(path, MultiSequence(spec, Block(ring, spec.shape, entries)))
    return str(path), entries


def x_power_mod(coeffs, n):
    """Coefficients of ``x^n`` modulo ``x^d - a_1 x^(d-1) - ... - a_d`` over
    Z/P by schoolbook products; ``x^-1`` is ``a_d^-1 (x^(d-1) - a_1 x^(d-2)
    - ... - a_(d-1))``."""
    d = len(coeffs)

    def mul_mod(u, v):
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] = (prod[i + j] + a * b) % P
        for k in range(2 * d - 2, d - 1, -1):
            top, prod[k] = prod[k], 0
            for j, a in enumerate(coeffs, start=1):
                prod[k - j] = (prod[k - j] + top * a) % P
        return prod[:d]

    if n >= 0:
        base = [0, 1] + [0] * (d - 2) if d > 1 else [coeffs[0] % P]
    else:
        inv = pow(coeffs[-1], -1, P)
        base = [-inv * a % P for a in coeffs[-2::-1]] + [inv]
    row = [1] + [0] * (d - 1)
    for bit in bin(abs(n))[2:]:
        row = mul_mod(row, row)
        if bit == "1":
            row = mul_mod(row, base)
    return row


def far_value(ndim, entries, index) -> int:
    rules = FAR_RULES[:ndim]
    rows = [x_power_mod(rule, n) for rule, n in zip(rules, index)]
    total = 0
    for entry, j in zip(entries, box_indices([len(r) for r in rules])):
        for row, i in zip(rows, j):
            entry = entry * row[i] % P
        total += entry
    return total % P


def far_index(ndim, sign):
    return tuple(sign * (10**18 + k) for k in (0, -1, 3)[:ndim])


def fib_pair(n):
    """``(F(n), F(n + 1))`` by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def decimal(n: int) -> str:
    """``str(n)`` at any size, leaving the interpreter's digit limit as it was."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestTerm:
    def test_grid_corner(self, capsys):
        code, out, _ = run(capsys, "term", "--spec", GRID, "3,3")
        assert code == 0
        assert out == "17\n"

    def test_initial_entry(self, capsys):
        code, out, _ = run(capsys, "term", "--spec", GRID, "0,0")
        assert code == 0
        assert out == "1\n"

    def test_negative_index(self, capsys):
        code, out, _ = run(capsys, "term", "--spec", FIB, "--", "-3")
        assert code == 0
        assert out == "2\n"

    def test_wrong_arity_is_input_error(self, capsys):
        code, _, err = run(capsys, "term", "--spec", GRID, "3")
        assert code == 2
        assert "expected 2 entries" in err

    def test_malformed_json_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ring": "Z"\n "axes": []}')
        code, _, err = run(capsys, "term", "--spec", str(bad), "0")
        assert code == 2
        assert "line 2" in err

    def test_nonunit_backward_step_fails(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        save_spec(spec, Sequence(Recurrence(ZZ, [1, 2]), [0, 1]))
        code, _, err = run(capsys, "term", "--spec", str(spec), "--", "-1")
        assert code == 3
        assert "not invertible" in err.lower() or "unit" in err.lower()

    @pytest.mark.parametrize("ndim, sign", FAR_CASES)
    def test_far_index_matches_independent_powering(self, capsys, tmp_path, ndim, sign):
        path, entries = far_spec(tmp_path, ndim)
        index = far_index(ndim, sign)
        code, out, _ = run(
            capsys, "term", "--spec", path, "--", ",".join(map(str, index))
        )
        assert code == 0
        assert out == f"{far_value(ndim, entries, index)}\n"

    def test_missing_spec_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["term", "3,3"])
        assert exc.value.code == 2


class TestExactOutput:
    def test_term_prints_every_digit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "term", "--spec", FIB, "25000")
        assert code == 0
        assert out == decimal(fib_pair(25000)[0]) + "\n"
        assert sys.get_int_max_str_digits() == limit

    def test_basis_prints_every_digit(self, capsys):
        # at the default limit of 4300 digits this needs `basis 21000`,
        # whose quadratic int-to-str conversions take seconds; the lowest
        # limit Python allows, 640 digits, is passed from row 3065 on
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, "basis", "--spec", FIB, "3100")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3101
        # row n is (F(n-1), F(n)); the last row is the widest
        for n in (1, 640, 3065, 3100):
            assert lines[n].split() == [decimal(v) for v in fib_pair(n - 1)]
        assert lines[-1] == " ".join(decimal(v) for v in fib_pair(3099))

    def test_limit_restored_after_an_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, _ = run(capsys, "term", "--spec", FIB, "--", "1,2")
        assert code == 2
        assert sys.get_int_max_str_digits() == limit


class TestExitCodes:
    def test_other_linrec_errors_exit_3(self, capsys, monkeypatch):
        def fail(path):
            raise RingMismatchError("refused")

        monkeypatch.setattr("linrec.cli.load_spec", fail)
        assert run(capsys, "term", "--spec", FIB, "3") == (3, "", "error: refused\n")

    @pytest.mark.parametrize("error", [ValueError, IndexError])
    def test_other_errors_are_not_disguised(self, monkeypatch, error):
        def fail(path):
            raise error("a bug")

        monkeypatch.setattr("linrec.cli.load_spec", fail)
        with pytest.raises(error):
            main(["term", "--spec", FIB, "3"])


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("ring", "Z/1"),
            ("ring", "Z/0"),
            ("ring", "Z/-7"),
            ("ring", {"kind": "mod", "modulus": 1}),
            ("ring", {"kind": "mod", "modulus": True}),
            ("ring", {"kind": "polynomial", "base": "Z", "variables": ["r", "r"]}),
            ("ring", {"kind": "polynomial", "base": "Z", "variables": []}),
            ("module_rank", True),
        ],
        ids=[
            "Z/1", "Z/0", "Z/-7", "mod-1", "mod-true",
            "duplicate-variables", "no-variables", "rank-true",
        ],
    )
    def test_exit_2(self, capsys, tmp_path, field, value):
        obj = json.loads(Path(FIB).read_text())
        obj[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        code, out, err = run(capsys, "term", "--spec", str(spec), "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: spec.")

    @pytest.mark.parametrize(
        "changes, named",
        [
            # an order-1 rule, so that a shape of [true] would match it
            ({"axes": [{"coeffs": ["2"]}], "initial": {"shape": [True], "data": ["5"]}}, "shape"),
            ({"axes": [{"coeffs": ["1", True]}]}, "coeffs"),
        ],
        ids=["shape-true", "coefficient-true"],
    )
    def test_booleans_are_not_integers(self, capsys, tmp_path, changes, named):
        obj = json.loads(Path(FIB).read_text())
        obj.update(changes)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        code, _, err = run(capsys, "term", "--spec", str(spec), "3")
        assert code == 2
        assert named in err


class TestWindow:
    def test_grid_rows_bottom_up(self, capsys):
        code, out, _ = run(capsys, "window", "--spec", GRID, "0,0", "4,4")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows == [
            ["3", "7", "10", "17"],
            ["3", "4", "7", "11"],
            ["0", "1", "1", "2"],
            ["1", "1", "2", "3"],
        ]

    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "window", "--spec", GRID, "3,3", "1,1")
        assert code == 0
        assert out == "17\n"

    @pytest.mark.parametrize("shape", ["100000,100000", "1000,1001"])
    def test_box_above_the_cell_limit_is_refused(self, capsys, monkeypatch, shape):
        def build(*args):
            raise AssertionError("the box was built")

        monkeypatch.setattr(MultiSequence, "window", build)
        code, out, err = run(capsys, "window", "--spec", GRID, "0,0", shape)
        assert (code, out) == (2, "")
        assert f"limit of {WINDOW_CELL_LIMIT}" in err

    def test_csv_matches_terms(self, capsys, tmp_path):
        fib = Sequence(Recurrence(ZZ, [1, 1]), [0, 1])
        square = tensor_product(fib, fib)
        spec = tmp_path / "square.json"
        save_spec(spec, square)
        code, out, _ = run(
            capsys, "window", "--spec", str(spec), "0,0", "3,3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        values = [v for line in lines for v in line.split(",")]
        assert len(values) == 9
        expected = {
            (n, k): square.term((n, k)).scalar().value
            for n in range(3)
            for k in range(3)
        }
        for k, line in enumerate(lines):
            assert [int(v) for v in line.split(",")] == [
                expected[(n, k)] for n in range(3)
            ]

    def test_json_round_trips_as_initial_block(self, capsys):
        code, out, _ = run(
            capsys, "window", "--spec", GRID, "1,2", "2,2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["origin"] == [1, 2]
        grid = load_spec(GRID).sequence
        block = block_from_json(grid.ring, payload, grid.rank)
        shifted = MultiSequence(grid.spec, block)
        for idx in box_indices((4, 4)):
            target = (idx[0] + 1, idx[1] + 2)
            assert shifted.term(idx) == grid.term(target)

    def test_zero_extent_refused(self, capsys):
        code, _, err = run(capsys, "window", "--spec", GRID, "0,0", "0,2")
        assert code == 2
        assert "extents" in err


class TestGenfun:
    def test_fibonacci(self, capsys):
        code, out, _ = run(capsys, "genfun", "--spec", FIB)
        assert code == 0
        assert out == "t / (1 - t - t^2)\n"

    def test_grid_numerator(self, capsys):
        code, out, _ = run(capsys, "genfun", "--spec", GRID)
        assert code == 0
        assert out == "(1 - s + t*s) / (1 - t - t^2)(1 - s - 3s^2)\n"

    def test_roots_from_file_factor_denominator(self, capsys):
        code, out, _ = run(capsys, "genfun", "--spec", FIB_ROOTS)
        assert code == 0
        assert out == "t / (1 - t)(1 - 2t)\n"

    def test_roots_flag(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        save_spec(spec, Sequence(Recurrence(ZZ, [3, -2]), [0, 1]))
        code, out, _ = run(
            capsys, "genfun", "--spec", str(spec), "--roots", "1,2"
        )
        assert code == 0
        assert out == "t / (1 - t)(1 - 2t)\n"

    def test_mismatched_roots_fail(self, capsys):
        code, _, err = run(capsys, "genfun", "--spec", FIB, "--roots", "1,2")
        assert code == 3
        assert "differ" in err

    def test_bad_root_token_named(self, capsys):
        code, _, err = run(capsys, "genfun", "--spec", FIB, "--roots", "1,x")
        assert code == 2
        assert "'x'" in err

    def test_vector_valued_prints_each_coordinate(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        save_spec(spec, Sequence(Recurrence(ZZ, [1, 1]), [[1, 0], [0, 1]]))
        code, out, _ = run(capsys, "genfun", "--spec", str(spec))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "coordinate 0: (1 - t) / (1 - t - t^2)",
            "coordinate 1: t / (1 - t - t^2)",
        ]


class TestBasis:
    def test_fibonacci_rows(self, capsys):
        code, out, _ = run(capsys, "basis", "--spec", FIB, "8")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        fib = [0, 1, 1, 2, 3, 5, 8, 13, 21]
        for n, row in enumerate(rows):
            assert int(row[1]) == fib[n]
            assert int(row[0]) == (1 if n == 0 else fib[n - 1])

    def test_second_axis(self, capsys):
        code, out, _ = run(capsys, "basis", "--spec", GRID, "3", "--axis", "2")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows == [["1", "0"], ["0", "1"], ["3", "1"], ["3", "4"]]

    def test_axis_out_of_range(self, capsys):
        code, _, err = run(capsys, "basis", "--spec", FIB, "3", "--axis", "2")
        assert code == 2
        assert "out of range" in err


class TestDiagCheck:
    def test_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "diag-check", "--spec", DIAG, "10")
        assert code == 0
        assert out == "OK (121 checks)\n"

    def test_violated_hypothesis(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        ms = MultiSpec(ZZ, [(1, 1), (2, 1)])
        save_spec(spec, MultiSequence(ms, Block(ZZ, (2, 2), [1, 0, 0, 1])))
        code, out, _ = run(capsys, "diag-check", "--spec", str(spec), "5")
        assert code == 3
        assert "HYPOTHESIS VIOLATED" in out

    def test_zero_block_passes(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        ms = MultiSpec(ZZ, [(1, 1), (1, 1)])
        save_spec(spec, MultiSequence(ms, Block(ZZ, (2, 2), [0, 0, 0, 0])))
        code, out, _ = run(capsys, "diag-check", "--spec", str(spec), "4")
        assert code == 0
        assert out == "OK (25 checks)\n"

    @staticmethod
    def count_calls(monkeypatch, answer=None):
        calls = []
        real = cli.diagonal_check

        def counted(seq, n, k):
            calls.append((n, k))
            return real(seq, n, k) if answer is None else answer

        monkeypatch.setattr(cli, "diagonal_check", counted)
        return calls

    def test_one_reduction_decides_the_square(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch)
        code, out, _ = run(capsys, "diag-check", "--spec", DIAG, "30")
        assert (code, out) == (0, "OK (961 checks)\n")
        assert calls == [(0, 0)]

    def test_failure_reported_at_the_origin(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, answer=False)
        code, out, _ = run(capsys, "diag-check", "--spec", DIAG, "30")
        assert (code, out) == (3, "FAILED at (0, 0)\n")
        assert calls == [(0, 0)]

    def test_violated_hypothesis_text(self, capsys, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch)
        spec = tmp_path / "spec.json"
        ms = MultiSpec(ZZ, [(1, 1), (2, 1)])
        save_spec(spec, MultiSequence(ms, Block(ZZ, (2, 2), [1, 0, 0, 1])))
        code, out, err = run(capsys, "diag-check", "--spec", str(spec), "30")
        assert (code, out) == (3, "HYPOTHESIS VIOLATED\n")
        assert err == "error: coefficient relation a^2*d = b*c^2 does not hold\n"
        assert calls == [(0, 0)]


class TestOrbits:
    def test_five_primitives_listed(self, capsys):
        code, out, _ = run(capsys, "orbits")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "5 primitive orbits"
        assert sum(1 for l in lines if l.startswith("block ")) == 5
        assert any("H^2V^2 -> block 15" in l for l in lines)

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "orbits", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        orbits = payload["orbits"]
        assert len(orbits) == 5
        assert sorted(o["size"] for o in orbits) == [1, 1, 2, 3, 9]
        covered = sorted(m["index"] for o in orbits for m in o["members"])
        assert covered == list(range(16))

    # the goldens were written at the default bound 4; every bound of at
    # least 2 prints the same census
    @pytest.mark.parametrize(
        "fmt, golden, bound",
        [
            pytest.param(
                fmt, golden, bound, id=f"{fmt}-{golden}" + (f"-bound{bound}" if bound else "")
            )
            for fmt, golden in [("grid", "orbits_grid.out"), ("json", "orbits_json.out")]
            for bound in (None, "2", "3", "5", "9")
        ],
    )
    def test_output_matches_golden(self, capsys, fmt, golden, bound):
        argv = ["orbits", "--format", fmt] + (["--bound", bound] if bound else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_csv_refused(self, capsys):
        code, _, err = run(capsys, "orbits", "--format", "csv")
        assert code == 2
        assert "csv" in err

    @pytest.mark.parametrize("bound", ["1", "0", "-3"])
    def test_bound_below_two_is_input_error(self, capsys, bound):
        code, out, err = run(capsys, "orbits", "--bound", bound)
        assert code == 2
        assert out == ""
        assert err == "error: --bound must be >= 2\n"


class TestDetermine:
    def test_initial_block_determines(self, capsys):
        code, out, _ = run(
            capsys, "determine", "--spec", DIAG, "(0,0);(1,0);(0,1);(1,1)"
        )
        assert code == 0
        assert out == "DETERMINING\n"

    def test_diagonal_does_not(self, capsys):
        code, out, _ = run(
            capsys, "determine", "--spec", DIAG, "(0,0);(1,1);(2,2);(3,3)"
        )
        assert code == 0
        assert out == "NOT DETERMINING\n"

    @pytest.mark.parametrize(
        "positions, answer",
        [
            ([(0, 0), (1, 0), (0, 1), (2, 2)], "DETERMINING"),
            # the integer determinant is 4, a zero divisor mod 12
            ([(0, 0), (1, 0), (0, 1), (3, 3)], "NOT DETERMINING"),
        ],
    )
    def test_residue_spec(self, capsys, tmp_path, positions, answer):
        ring = IntegerModRing(12)
        ms = MultiSpec(ring, [(1, 1), (1, 1)])
        spec = tmp_path / "spec.json"
        save_spec(spec, MultiSequence(ms, Block(ring, (2, 2), [1, 2, 3, 4])))
        text = ";".join(f"({n},{k})" for n, k in positions)
        code, out, err = run(capsys, "determine", "--spec", str(spec), text)
        assert (code, out, err) == (0, f"{answer}\n", "")
        # the answer printed is the brute-force one
        expected = injective(ring, value_matrix(ms, positions))
        assert expected == (answer == "DETERMINING")

    def test_wrong_count_is_precondition_failure(self, capsys):
        code, _, err = run(capsys, "determine", "--spec", DIAG, "(0,0);(1,1)")
        assert code == 3
        assert "4 positions" in err

    def test_bad_token_is_input_error(self, capsys):
        code, _, err = run(capsys, "determine", "--spec", DIAG, "(0,0);(a,b)")
        assert code == 2
        assert "position" in err


class TestBench:
    def test_large_index_completes(self, capsys):
        code, out, _ = run(capsys, "bench", "--spec", MERSENNE, "1000000000")
        assert code == 0
        assert "elapsed:" in out
        assert "ms" in out

    def test_check_agrees_with_iteration(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--spec", MERSENNE, "100000", "--check"
        )
        assert code == 0
        assert "check: OK" in out

    @pytest.mark.parametrize("ndim, sign", FAR_CASES)
    def test_check_at_far_indices(self, capsys, tmp_path, ndim, sign):
        path, _ = far_spec(tmp_path, ndim)
        index = ",".join(map(str, far_index(ndim, sign)))
        code, out, _ = run(capsys, "bench", "--spec", path, "--check", "--", index)
        assert code == 0
        assert out.endswith("check: OK\n")

    @pytest.mark.parametrize(
        "spec, index",
        [(MERSENNE, "1000"), (GRID, "5,6"), (MERSENNE, "-1000"), (3, "-40,7,1000")],
        ids=["one-axis", "two-axes", "negative", "three-axes"],
    )
    def test_check_catches_wrong_basis_rows(
        self, capsys, monkeypatch, tmp_path, spec, index
    ):
        if spec == 3:
            spec, _ = far_spec(tmp_path, 3)
        original = Recurrence.basis_row

        def corrupted(rec, n):
            row = original(rec, n)
            return row if 0 <= n < rec.order else tuple(v + 1 for v in row)

        monkeypatch.setattr(Recurrence, "basis_row", corrupted)
        code, out, err = run(capsys, "bench", "--spec", spec, "--check", "--", index)
        assert code == 3
        assert "check: MISMATCH" in err
        assert "check: OK" not in out


# ---------------------------------------------------------------------------
# fuzzing: mutated spec files under every command


FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(
        [2**61 - 1, 10**30, 1.5, float("nan"), "", "x", "-1", "1/2", "1/0",
         "Z", "Q", "Z/1", "Z/12", "r", [], {}, ["1"], [0, 1], {"kind": "mod"},
         {"kind": "polynomial", "base": "Z", "variables": ["r"]}]
    ),
)
FUZZ_INDEX = st.sampled_from(["3", "2,2", "1,-1", "-2", "-1,-1,0", "0,0", "a", ""])
FUZZ_COMMANDS = [
    lambda d: ["term", "--", d.draw(FUZZ_INDEX)],
    lambda d: ["window", "--", d.draw(FUZZ_INDEX), d.draw(FUZZ_INDEX)],
    lambda d: ["window", "--format", "csv", "--", d.draw(FUZZ_INDEX), "2,1"],
    lambda d: ["window", "--format", "json", "--", d.draw(FUZZ_INDEX), "1,2"],
    lambda d: ["genfun"],
    lambda d: ["genfun", "--roots", d.draw(st.sampled_from(["1,2", "2", "x,1", "0,0"]))],
    lambda d: ["basis", "--", str(d.draw(st.integers(-1, 6)))],
    lambda d: ["basis", "--axis", str(d.draw(st.integers(-1, 3))), "4"],
    lambda d: ["diag-check", "--", str(d.draw(st.integers(-1, 3)))],
    lambda d: ["determine", d.draw(st.sampled_from(
        ["(0,0);(1,0);(0,1);(1,1)", "(0,0);(0,0);(1,1);(2,2)", "(0,0)", "x;"]))],
    lambda d: ["bench", "--", d.draw(FUZZ_INDEX)],
    lambda d: ["bench", "--check", "--", d.draw(FUZZ_INDEX)],
    lambda d: ["orbits", "--bound", str(d.draw(st.integers(-1, 3))),
               "--format", d.draw(st.sampled_from(["grid", "json", "csv"]))],
]


def _json_paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ()
    )
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _mutate(data, obj):
    """Replace or delete one node of a JSON tree (not the root)."""
    paths = list(_json_paths(obj))[1:]
    path = data.draw(st.sampled_from(paths))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        # a copy, so that later mutations leave the pool of values alone
        parent[path[-1]] = copy.deepcopy(data.draw(FUZZ_VALUES))


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_exit_codes_and_messages(self, data, tmp_path_factory):
        """A mutated or truncated copy of a golden spec, under any command,
        exits 0, 2 or 3 with a short message and never a traceback."""
        obj = json.loads(data.draw(st.sampled_from(sorted(DATA.glob("*.json")))).read_text())
        for _ in range(data.draw(st.integers(0, 3))):
            _mutate(data, obj)
        text = json.dumps(obj)
        if data.draw(st.integers(0, 9)) == 0:
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        spec = tmp_path_factory.getbasetemp() / "fuzz_spec.json"
        spec.write_text(text)
        argv = data.draw(st.sampled_from(FUZZ_COMMANDS))(data)
        if argv[0] != "orbits":
            argv[1:1] = ["--spec", str(spec)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse refuses the command line
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3), (argv, text, code, err)
        assert "Traceback" not in err
        assert len(err) < 600 and err.count("\n") <= 3, err
