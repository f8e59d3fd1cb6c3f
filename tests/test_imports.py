"""Every submodule can be imported first, and the one-axis names that
``linrec.recurrence`` exports still resolve afterwards."""

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_unknown_name_is_an_attribute_error():
    import linrec.recurrence

    with pytest.raises(AttributeError):
        linrec.recurrence.NoSuchName
