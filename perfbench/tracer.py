"""Spans and exact op counts around linrec's public functions.

Nothing in linrec changes: ``Tracer.install`` replaces public functions
and methods with wrappers defined here.  Every call of a wrapped function
opens a span named after its *role*, a layer of the program named after
its module.  A role maps onto whichever of its candidate functions exist,
so a metric keeps its name when functions are merged or renamed.

Payload ring ops (``mul``, ``add``, ``neg``, ``try_invert`` of each ring
class) and ``RingElement`` constructions are counted per ring kind and
charged to the innermost open span.  A nested payload op (a product ring's
``mul`` calls ``mul`` on both component rings) counts once at each level.

Spans stay in memory; ``dump`` returns them with the totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

clock = time.monotonic

# role -> (module, qualified name) of every public function it covers
ROLES = {
    "recurrence.row": [
        ("linrec.recurrence", "Recurrence.basis_row"),
        ("linrec.recurrence", "Recurrence.basis_row_fast"),
        ("linrec.recurrence", "Recurrence.basis_value"),
    ],
    "recurrence.term": [
        ("linrec.recurrence", "Sequence.term"),
        ("linrec.recurrence", "Sequence.term_fast"),
        ("linrec.recurrence", "Sequence.extend_backward"),
        ("linrec.recurrence", "Sequence.iter_terms"),
    ],
    "multiseq.point": [
        ("linrec.multiseq", "MultiSequence.term"),
        ("linrec.multiseq", "MultiSequence.term_fast"),
    ],
    "multiseq.box": [
        ("linrec.multiseq", "MultiSequence.window"),
        ("linrec.multiseq", "MultiSequence.shift"),
    ],
    "multiseq.identity": [
        ("linrec.multiseq", "diagonal_check"),
        ("linrec.multiseq", "diagonal_identity_fib"),
        ("linrec.multiseq", "check_membership"),
    ],
    "genfun.gf": [("linrec.genfun", "gf")],
    "genfun.expand": [("linrec.genfun", "RationalGF.expand")],
    "genfun.verify": [("linrec.genfun", "verify_gf")],
    "closedform.term": [("linrec.closedform", "term_via_roots")],
    "closedform.gf": [("linrec.closedform", "gf_via_roots")],
    "orbits.census": [("linrec.orbits", "classify_orbits")],
    "orbits.determine": [("linrec.orbits", "positions_determine")],
    "jsonio.load": [
        ("linrec.jsonio", "spec_from_json"),
        ("linrec.jsonio", "load_spec"),
    ],
    "jsonio.dump": [
        ("linrec.jsonio", "block_to_json"),
        ("linrec.jsonio", "dump_spec"),
    ],
    "cli.main": [("linrec.cli", "main")],
}

# spans the benchmark opens itself: child process spawn to exit, and the
# child's ``import linrec.cli``
OWN_ROLES = ["cli.process", "cli.import"]

RING_CLASSES = {
    "integer": "IntegerRing",
    "rational": "RationalRing",
    "mod": "IntegerModRing",
    "product": "ProductRing",
    "polynomial": "PolynomialRing",
}
RING_OPS = {"mul": "mul", "add": "add", "neg": "neg", "inv": "try_invert"}

ROLE_FIELDS = ("calls", "self_ms", "ring_mul", "elements")


def metric_names() -> list[str]:
    """Every per-layer metric, in a fixed order."""
    names = []
    for role in list(ROLES) + OWN_ROLES:
        names += [f"{role}.{field}" for field in ROLE_FIELDS]
    for kind in RING_CLASSES:
        names += [f"rings.{kind}.{op}" for op in RING_OPS]
    names.append("rings.elements")
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, role, start, end, op)
        self.stack = []  # open frames: [id, role, start, child seconds]
        self.top = None  # role of the innermost open span
        self.op = None  # index of the operation being run
        self.totals = {name: 0 for name in metric_names()}
        self.self_s = {role: 0.0 for role in list(ROLES) + OWN_ROLES}
        self._next_id = 0

    # spans -------------------------------------------------------------
    def enter(self, role: str):
        self._next_id += 1
        self.stack.append([self._next_id, role, clock(), 0.0])
        self.top = role

    def exit(self):
        end = clock()
        sid, role, start, child = self.stack.pop()
        self.top = self.stack[-1][1] if self.stack else None
        self._finish(sid, role, start, end, child)

    def record(self, role: str, start: float, end: float):
        """A finished span measured outside the tracer (no children)."""
        self._next_id += 1
        self._finish(self._next_id, role, start, end, 0.0)

    def _finish(self, sid, role, start, end, child):
        dur = end - start
        self.self_s[role] += dur - child
        self.totals[f"{role}.calls"] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else None, role, start, end, self.op))

    def absorb(self, dump: dict):
        """Add a child process's totals, charging its top-level spans as
        children of the innermost open span here."""
        for name, value in dump["totals"].items():
            if not name.endswith(".self_ms"):
                self.totals[name] += value
        for role, seconds in dump["self_s"].items():
            self.self_s[role] += seconds
        if self.stack:
            self.stack[-1][3] += sum(
                end - start for _, parent, _, start, end, _ in dump["spans"] if parent is None
            )
        base = self._next_id
        outer = self.stack[-1][0] if self.stack else None
        for sid, parent, role, start, end, _ in dump["spans"]:
            self.spans.append(
                (base + sid, base + parent if parent else outer, role, start, end, self.op)
            )
            self._next_id = max(self._next_id, base + sid)

    def dump(self) -> dict:
        return {"totals": self.metrics(), "self_s": self.self_s, "spans": self.spans}

    def metrics(self) -> dict:
        out = dict(self.totals)
        for role, seconds in self.self_s.items():
            out[f"{role}.self_ms"] = seconds * 1000.0
        return out

    # installation ------------------------------------------------------
    def install(self):
        """Wrap every role's functions and every ring's payload ops.  The
        wrappers stay for the life of the process."""
        import linrec  # noqa: F401  (loads every submodule)
        from linrec import rings

        for role, targets in ROLES.items():
            for module_name, qualname in targets:
                owner, attr, original = _resolve(module_name, qualname)
                if original is None:
                    continue
                wrapper = self._span_wrapper(role, original)
                setattr(owner, attr, wrapper)
                if inspect.ismodule(owner):
                    _rebind_everywhere(original, wrapper)

        totals = self.totals
        for kind, class_name in RING_CLASSES.items():
            cls = getattr(rings, class_name)
            for op, method in RING_OPS.items():
                original = cls.__dict__.get(method)
                if original is not None:
                    setattr(cls, method, self._op_wrapper(original, f"rings.{kind}.{op}", op == "mul"))

        init = rings.RingElement.__init__

        @functools.wraps(init)
        def counted_init(element, ring, value):
            totals["rings.elements"] += 1
            if self.top is not None:
                totals[f"{self.top}.elements"] += 1
            init(element, ring, value)

        rings.RingElement.__init__ = counted_init

    def _op_wrapper(self, original, key, is_mul):
        totals = self.totals

        if is_mul:

            @functools.wraps(original)
            def counted(*args):
                totals[key] += 1
                if self.top is not None:
                    totals[f"{self.top}.ring_mul"] += 1
                return original(*args)

        else:

            @functools.wraps(original)
            def counted(*args):
                totals[key] += 1
                return original(*args)

        return counted

    def _span_wrapper(self, role, original):
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def traced_generator(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    self.enter(role)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    yield value

            return traced_generator

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.enter(role)
            try:
                return original(*args, **kwargs)
            finally:
                self.exit()

        return traced


def _resolve(module_name: str, qualname: str):
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return None, None, None
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = owner.__dict__.get(attr) if not inspect.ismodule(owner) else getattr(owner, attr, None)
    return owner, attr, original


def _rebind_everywhere(original, wrapper):
    """Point every linrec module's name for ``original`` at ``wrapper``,
    since ``from .x import f`` copies the binding."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "linrec" or name.startswith("linrec.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
