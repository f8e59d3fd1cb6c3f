"""Command-line behavior: golden outputs, formats, exit codes."""

import json
from pathlib import Path

import pytest

from linrec.cli import main
from linrec.jsonio import block_from_json, load_spec, save_spec
from linrec.multiseq import (
    Block,
    MultiSequence,
    MultiSpec,
    box_indices,
    tensor_product,
)
from linrec.recurrence import Recurrence, Sequence
from linrec.rings import ZZ

DATA = Path(__file__).parent / "data"
GRID = str(DATA / "grid_intro.json")
FIB = str(DATA / "fibonacci.json")
FIB_ROOTS = str(DATA / "fibonacci_roots.json")
DIAG = str(DATA / "diag_fixture.json")
MERSENNE = str(DATA / "fib_mod_mersenne.json")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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

    def test_missing_spec_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["term", "3,3"])
        assert exc.value.code == 2


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

    def test_csv_refused(self, capsys):
        code, _, err = run(capsys, "orbits", "--format", "csv")
        assert code == 2
        assert "csv" in err


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

    @pytest.mark.parametrize(
        "spec, index", [(MERSENNE, "1000"), (GRID, "5,6")], ids=["one-axis", "two-axes"]
    )
    def test_check_catches_wrong_basis_rows(self, capsys, monkeypatch, spec, index):
        original = Recurrence.basis_row

        def corrupted(rec, n):
            row = original(rec, n)
            return row if n < rec.order else tuple(v + 1 for v in row)

        monkeypatch.setattr(Recurrence, "basis_row", corrupted)
        code, out, err = run(capsys, "bench", "--spec", spec, index, "--check")
        assert code == 3
        assert "check: MISMATCH" in err
        assert "check: OK" not in out
