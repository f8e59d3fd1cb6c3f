"""Every submodule can be imported first, and the one-axis names that
``linrec.recurrence`` exports still resolve afterwards.  The package
namespace loads each submodule on first use, and each CLI command imports
only the modules it runs."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import linrec

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(linrec.__path__) if m.name != "__main__"
)
SRC = str(Path(linrec.__file__).resolve().parents[1])
DATA = Path(__file__).parent / "data"


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name", SUBMODULES)
def test_recurrence_names_resolve_whichever_module_comes_first(name):
    # one fresh interpreter per case; pytest runs the cases one after another
    code = (
        f"import linrec.{name}\n"
        "from linrec.recurrence import Sequence, check_membership, reconstruct\n"
        "import linrec\n"
        "assert Sequence is linrec.Sequence\n"
        "assert issubclass(Sequence, linrec.MultiSequence)\n"
    )
    done = run_python(code)
    assert done.returncode == 0, done.stderr


def test_unknown_name_is_an_attribute_error():
    import linrec.recurrence

    with pytest.raises(AttributeError):
        linrec.recurrence.NoSuchName


class TestLazyNamespace:
    def test_import_loads_no_submodule(self):
        done = run_python(
            "import sys, linrec\n"
            "print(sorted(m for m in sys.modules if m.startswith('linrec.')))\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize("name", linrec.__all__)
    def test_name_is_the_submodule_object(self, name):
        source = f"linrec.{linrec._SOURCE[name]}"
        obj = getattr(linrec, name)
        assert obj is getattr(importlib.import_module(source), name)
        assert obj.__module__ == source

    def test_names_are_listed_once(self):
        listed = [name for names in linrec._EXPORTS.values() for name in names]
        assert sorted(listed) == sorted(linrec.__all__)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from linrec import *", namespace)
        for name in linrec.__all__:
            assert namespace[name] is getattr(linrec, name)

    def test_dir_lists_every_name(self):
        assert set(linrec.__all__) <= set(dir(linrec))
        assert "__version__" in dir(linrec)

    def test_version_is_a_plain_attribute(self):
        assert vars(linrec)["__version__"] == "0.1.0"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="NoSuchName"):
            linrec.NoSuchName
        with pytest.raises(ImportError):
            exec("from linrec import NoSuchName", {})


# after the command, print its exit code and the modules it loaded
PROBE = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "from linrec.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
)
OPTIONAL = {"linrec.genfun", "linrec.closedform", "linrec.orbits"}
GRID = str(DATA / "grid_intro.json")
COMMANDS = {
    "term": (["term", "--spec", GRID, "3,3"], set()),
    "window": (["window", "--spec", GRID, "0,0", "3,3"], set()),
    "basis": (["basis", "--spec", GRID, "4"], set()),
    "diag-check": (
        ["diag-check", "--spec", str(DATA / "diag_fixture.json"), "30"], set()
    ),
    "bench": (["bench", "--spec", GRID, "40,40"], set()),
    "bench --check": (["bench", "--check", "--spec", GRID, "40,40"], {"linrec.genfun"}),
    "genfun": (["genfun", "--spec", GRID], {"linrec.genfun"}),
    "genfun roots": (
        ["genfun", "--spec", str(DATA / "fibonacci_roots.json")],
        {"linrec.genfun", "linrec.closedform"},
    ),
    "orbits": (["orbits", "--bound", "2"], {"linrec.orbits"}),
    "determine": (
        ["determine", "--spec", GRID, "(0,0);(1,0);(0,1);(1,1)"], {"linrec.orbits"}
    ),
}


@pytest.mark.parametrize("argv, wanted", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_loads_only_what_it_runs(argv, wanted):
    done = run_python(PROBE, *argv)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert OPTIONAL & set(loaded) == wanted
    assert not {"dataclasses", "inspect"} & set(loaded)
