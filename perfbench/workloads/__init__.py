"""The benchmark's workloads.

Each workload module exposes the same four functions:

- ``generate(seed, count)``: ``count`` operation descriptions, plain JSON
  data made from the seed alone;
- ``prepare(desc, ctx)``: set-up for one operation (linrec objects built
  through ``jsonio.spec_from_json``, or a spec file written for the CLI),
  returning a thunk that performs the timed call;
- ``check(desc, result)``: whether the result equals the reference answer
  computed independently of linrec (see ``refarith``);
- ``props(desc)``: the input properties whose shares the run records.
"""

import importlib

NAMES = ("point", "box", "cli")


def load(name: str):
    """The module of one workload."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return importlib.import_module(f"workloads.{name}")
