"""Self-tests of the benchmark: its checker, its reference and its contract.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import refarith  # noqa: E402
import worker  # noqa: E402
from linrec.rings import ModuleElement  # noqa: E402
from workloads import load  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bump(result):
    """A wrong answer of the same shape as a point lookup's result."""
    first = result.coords[0]
    return ModuleElement(first.ring, [first + 1] + list(result.coords[1:]))


def test_corrupted_point_answer_is_counted(tmp_path):
    wl = load("point")
    descs = wl.generate(5, 6)
    tally = worker.run_loop(
        wl, descs, worker.Context(tmp_path), count=6,
        corrupt=lambda i, r: _bump(r) if i == 3 else r,
    )
    assert tally["attempted"] == 6 and tally["failed"] == 1
    assert [f["op"] for f in tally["failures"]] == [3]
    assert worker.end_to_end(tally, 1.0)["error_rate"] == pytest.approx(1 / 6)


def test_correct_answers_pass_on_every_workload(tmp_path):
    for name, count in (("point", 40), ("box", 35), ("cli", 24)):
        wl = load(name)
        tally = worker.run_loop(wl, wl.generate(9, count), worker.Context(tmp_path), count=count)
        assert tally["failed"] == 0, name


def test_corrupted_cli_stdout_and_exit_code_are_counted(tmp_path):
    wl = load("cli")
    descs = wl.generate(4, 23)  # one full round of request classes
    wrong = {
        1: lambda code, out: (code, out.replace("1", "2", 1) + "0\n"),
        2: lambda code, out: (3 if code == 0 else 0, out),
    }
    tally = worker.run_loop(
        wl, descs, worker.Context(tmp_path), count=len(descs),
        corrupt=lambda i, r: wrong[i](*r) if i in wrong else r,
    )
    assert tally["failed"] == 2


def test_expected_failures_need_their_exit_code():
    wl = load("cli")
    desc = next(d for d in wl.generate(1, 100) if d["request"] == "error.shape")
    assert wl.check(desc, (2, ""))
    assert not wl.check(desc, (3, ""))
    assert not wl.check(desc, (0, "17\n"))


@pytest.mark.parametrize("kind", ["integer", "rational", "mod", "product", "polynomial"])
def test_reference_powering_agrees_with_iteration(kind):
    from workloads.specs import RINGS, element

    rng = random.Random(kind)
    A = refarith.Arith(RINGS[kind])
    for d in (1, 2, 3, 5):
        coeffs = [A.parse(element(rng, kind, unit=j == d - 1)) for j in range(d)]
        rows = refarith.basis_rows(A, coeffs, -12, 40)
        for n in (0, 1, d, 17, 40):
            assert refarith._power_row(A, coeffs, n) == rows[n]
        back = refarith._reversed_rule(A, coeffs)
        for n in (-1, -5, -12):
            assert refarith._power_row(A, back, d - 1 - n)[::-1] == rows[n]


def test_reference_fibonacci_and_census():
    A = refarith.Arith("Z")
    assert [refarith.basis_row(A, [1, 1], n)[1] for n in (10, -10, 600)] == [
        55, -55, refarith.basis_rows(A, [1, 1], 0, 600)[600][1]
    ]
    census = refarith.orbit_census(4)
    assert sorted(m for _, members in census for m, _ in members) == list(range(16))


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if not k.endswith(".self_ms")}


@pytest.mark.parametrize("workload", ["point", "box", "cli"])
def test_traced_counts_repeat_exactly_for_a_seed(workload):
    first, again, other = (
        result_line(run_bench("--workload", workload, "--seed", seed, "--seconds", "2", "--trace", "1"))
        for seed in ("3", "3", "4")
    )
    assert first["correct"] and again["correct"] and other["correct"]
    assert _counts(first["metrics"]) == _counts(again["metrics"])
    assert _counts(first["metrics"]) != _counts(other["metrics"])
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_bench("--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0")
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
