"""The demo scripts run to completion and print what they promise."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script, line",
    [
        (
            "grid_walk.py",
            "Lucas numbers as a one-axis grid: "
            "['2', '1', '3', '4', '7', '11', '18', '29']",
        ),
        ("orbit_census.py", "census: 5 orbits, sizes [1, 1, 2, 3, 9]"),
    ],
)
def test_demo_prints(capsys, script, line):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert line in capsys.readouterr().out.splitlines()


def test_orbit_census_output_is_unchanged(capsys):
    runpy.run_path(str(DEMOS / "orbit_census.py"), run_name="__main__")
    golden = DEMOS.parent / "tests" / "data" / "golden" / "orbit_census.out"
    assert capsys.readouterr().out == golden.read_text()
