"""Exact commutative rings and free modules over them.

Every ring is a descriptor object (``IntegerRing``, ``RationalRing``,
``IntegerModRing``, ``ProductRing``, ``PolynomialRing``) that knows how to
operate on raw payload values; ``RingElement`` tags a payload with its ring
and provides the usual operators.  All arithmetic is exact: integers are
arbitrary precision, rationals are stored reduced with positive denominator,
modular residues are canonical in ``[0, m)``, and sparse polynomials never
keep a zero coefficient.  Values are immutable after construction and safe
to share between threads.

``try_invert`` reports non-units by returning ``None``; it is a normal
outcome, not an error.  Helpers that *require* a unit raise
:class:`~linrec.errors.NotInvertibleError` instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotInvertibleError, RingMismatchError, SchemaError


class Ring:
    """Abstract commutative ring operating on raw payload values."""

    def __call__(self, value) -> RingElement:
        """Coerce a raw Python value into an element of this ring."""
        if isinstance(value, RingElement) and value.ring == self:
            return value
        return RingElement(self, self.coerce(value))

    # payload-level interface implemented by subclasses
    def coerce(self, value):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def try_invert(self, x):
        """Return a payload ``y`` with ``x*y = 1``, or ``None`` if ``x`` is not a unit."""
        raise NotImplementedError

    def from_int(self, n: int):
        """Payload for the image of the integer ``n`` in this ring."""
        raise NotImplementedError

    def payload_zero(self):
        return self.from_int(0)

    def payload_one(self):
        return self.from_int(1)

    def sort_key(self, x):
        """Canonical hashable key; equal payloads get equal keys."""
        return x

    def format(self, x) -> str:
        raise NotImplementedError

    def format_signed(self, x):
        """Split a payload into (is_negative, absolute payload) for display.

        Rings without a usable sign return ``(False, x)``.
        """
        return False, x

    def to_json(self, x):
        return self.format(x)

    def from_json(self, obj):
        return self.coerce(obj)

    def is_zero_divisor(self, xs) -> bool:
        """Whether one nonzero ``c`` has ``c*x = 0`` for every payload ``x``
        in ``xs``; this default suits integral domains, where only zeros
        are killed.  A polynomial is a zero divisor exactly when its list
        of coefficients is (McCoy), which is why this takes a list."""
        zero = self.payload_zero()
        return all(x == zero for x in xs)

    def describe(self) -> str:
        raise NotImplementedError

    @property
    def zero(self) -> RingElement:
        return RingElement(self, self.payload_zero())

    @property
    def one(self) -> RingElement:
        return RingElement(self, self.payload_one())

    def __repr__(self):
        return self.describe()


class IntegerRing(Ring):
    """The ring of arbitrary-precision integers."""

    def coerce(self, value):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            return int(value)
        raise SchemaError(f"cannot interpret {value!r} as an integer")

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def try_invert(self, x):
        return x if x in (1, -1) else None

    def from_int(self, n):
        return n

    def format(self, x):
        return str(x)

    def format_signed(self, x):
        return x < 0, abs(x)

    def describe(self):
        return "Z"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class RationalRing(Ring):
    """The field of rationals, stored as reduced fractions."""

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, str):
            try:
                if "/" in value:
                    num, _, den = value.partition("/")
                    return Fraction(int(num), int(den))
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"cannot interpret {value!r} as a rational") from exc
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return Fraction(int(value[0]), int(value[1]))
        raise SchemaError(f"cannot interpret {value!r} as a rational")

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def try_invert(self, x):
        return None if x == 0 else 1 / x

    def from_int(self, n):
        return Fraction(n)

    def format(self, x):
        return f"{x.numerator}/{x.denominator}"

    def format_signed(self, x):
        return x < 0, abs(x)

    def describe(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("Q")


class IntegerModRing(Ring):
    """Integers modulo ``m`` (``m >= 2``), canonical residues in ``[0, m)``."""

    def __init__(self, modulus: int):
        modulus = int(modulus)
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus

    def coerce(self, value):
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, str):
            value = int(value)
        if not isinstance(value, int):
            raise SchemaError(f"cannot interpret {value!r} as a residue")
        return value % self.modulus

    def add(self, x, y):
        return (x + y) % self.modulus

    def neg(self, x):
        return (-x) % self.modulus

    def mul(self, x, y):
        return (x * y) % self.modulus

    def try_invert(self, x):
        try:
            return pow(x, -1, self.modulus)
        except ValueError:
            return None

    def from_int(self, n):
        return n % self.modulus

    def is_zero_divisor(self, xs):
        return gcd(self.modulus, *xs) > 1

    def format(self, x):
        return str(x)

    def describe(self):
        return f"Z/{self.modulus}"

    def __eq__(self, other):
        return isinstance(other, IntegerModRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Zmod", self.modulus))


class ProductRing(Ring):
    """Componentwise product of two rings; payloads are pairs."""

    def __init__(self, left: Ring, right: Ring):
        self.left = left
        self.right = right

    def coerce(self, value):
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return (self.left.coerce(value[0]), self.right.coerce(value[1]))
        if isinstance(value, int) and not isinstance(value, bool):
            return self.from_int(value)
        raise SchemaError(f"cannot interpret {value!r} as a pair")

    def add(self, x, y):
        return (self.left.add(x[0], y[0]), self.right.add(x[1], y[1]))

    def neg(self, x):
        return (self.left.neg(x[0]), self.right.neg(x[1]))

    def mul(self, x, y):
        return (self.left.mul(x[0], y[0]), self.right.mul(x[1], y[1]))

    def try_invert(self, x):
        a = self.left.try_invert(x[0])
        if a is None:
            return None
        b = self.right.try_invert(x[1])
        if b is None:
            return None
        return (a, b)

    def from_int(self, n):
        return (self.left.from_int(n), self.right.from_int(n))

    def is_zero_divisor(self, xs):
        # (c, 0) or (0, c) with c nonzero
        if self.left.is_zero_divisor([x[0] for x in xs]):
            return True
        return self.right.is_zero_divisor([x[1] for x in xs])

    def sort_key(self, x):
        return (self.left.sort_key(x[0]), self.right.sort_key(x[1]))

    def format(self, x):
        return f"({self.left.format(x[0])}, {self.right.format(x[1])})"

    def to_json(self, x):
        return [self.left.to_json(x[0]), self.right.to_json(x[1])]

    def from_json(self, obj):
        if not isinstance(obj, (tuple, list)) or len(obj) != 2:
            raise SchemaError(f"pair element must be a 2-array, got {obj!r}")
        return (self.left.from_json(obj[0]), self.right.from_json(obj[1]))

    def describe(self):
        return f"({self.left.describe()} x {self.right.describe()})"

    def __eq__(self, other):
        return (
            isinstance(other, ProductRing)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("Product", self.left, self.right))


class PolynomialRing(Ring):
    """Sparse multivariate polynomials over a base ring.

    Payloads are dicts mapping exponent tuples (one entry per variable, all
    nonnegative) to nonzero base-ring payloads.  The variable ordering is
    fixed by the descriptor, and display order is graded: ascending total
    degree, then by exponent tuple.
    """

    def __init__(self, base: Ring, variables):
        names = tuple(variables)
        if not names:
            raise ValueError("polynomial ring needs at least one variable")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError(f"variable names must be distinct and nonempty: {names}")
        self.base = base
        self.variables = names
        self.nvars = len(names)

    def variable(self, name: str) -> RingElement:
        """The generator with the given name, as an element."""
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return RingElement(self, {exps: self.base.payload_one()})

    def gens(self) -> tuple[RingElement, ...]:
        return tuple(self.variable(n) for n in self.variables)

    def constant(self, value) -> RingElement:
        """Embed a base-ring element (or raw value) as a constant polynomial."""
        if isinstance(value, RingElement):
            if value.ring != self.base:
                raise RingMismatchError(
                    f"constant from {value.ring.describe()} into {self.describe()}"
                )
            payload = value.value
        else:
            payload = self.base.coerce(value)
        return RingElement(self, self._from_const(payload))

    def _from_const(self, c):
        if c == self.base.payload_zero():
            return {}
        return {(0,) * self.nvars: c}

    def coerce(self, value):
        if isinstance(value, dict):
            out = {}
            zero = self.base.payload_zero()
            for exps, coeff in value.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise SchemaError(f"bad exponent vector {exps} for {self.describe()}")
                c = coeff.value if isinstance(coeff, RingElement) else self.base.coerce(coeff)
                if c != zero:
                    out[exps] = c
            return out
        if isinstance(value, int) and not isinstance(value, bool):
            return self.from_int(value)
        if isinstance(value, RingElement) and value.ring == self.base:
            return self._from_const(value.value)
        raise SchemaError(f"cannot interpret {value!r} as a polynomial")

    def add(self, x, y):
        out = dict(x)
        base = self.base
        zero = base.payload_zero()
        for exps, c in y.items():
            s = base.add(out.get(exps, zero), c)
            if s == zero:
                out.pop(exps, None)
            else:
                out[exps] = s
        return out

    def neg(self, x):
        base = self.base
        return {exps: base.neg(c) for exps, c in x.items()}

    def mul(self, x, y):
        base = self.base
        zero = base.payload_zero()
        out = {}
        for ex, cx in x.items():
            for ey, cy in y.items():
                exps = tuple(a + b for a, b in zip(ex, ey))
                p = base.mul(cx, cy)
                s = base.add(out.get(exps, zero), p)
                if s == zero:
                    out.pop(exps, None)
                else:
                    out[exps] = s
        return out

    def try_invert(self, x):
        # only constant-coefficient units are recognized
        if len(x) == 0:
            return None
        if len(x) == 1:
            (exps, c), = x.items()
            if all(e == 0 for e in exps):
                inv = self.base.try_invert(c)
                if inv is not None:
                    return {exps: inv}
        return None

    def evaluate(self, poly: RingElement, values) -> RingElement:
        """Substitute one base-ring element per variable; a ring homomorphism."""
        if not isinstance(poly, RingElement) or poly.ring != self:
            raise RingMismatchError("evaluate expects an element of this polynomial ring")
        values = tuple(values)
        if len(values) != self.nvars:
            raise ValueError(
                f"expected {self.nvars} values for {self.variables}, got {len(values)}"
            )
        vals = []
        for v in values:
            v = v if isinstance(v, RingElement) else self.base(v)
            if v.ring != self.base:
                raise RingMismatchError("substitution values must lie in the base ring")
            vals.append(v)
        total = self.base.zero
        for exps, c in poly.value.items():
            term = RingElement(self.base, c)
            for v, e in zip(vals, exps):
                if e:
                    term = term * (v ** e)
            total = total + term
        return total

    def degree(self, x) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in x), default=-1)

    def from_int(self, n):
        return self._from_const(self.base.from_int(n))

    def is_zero_divisor(self, xs):
        # a nonzero polynomial kills them all exactly when a nonzero
        # constant does (McCoy), so ask the base ring about every coefficient
        return self.base.is_zero_divisor([c for x in xs for c in x.values()])

    def sort_key(self, x):
        return tuple(sorted((exps, self.base.sort_key(c)) for exps, c in x.items()))

    def _term_str(self, exps, coeff) -> str:
        neg, mag = self.base.format_signed(coeff)
        if all(e == 0 for e in exps):
            body = self.base.format(mag)
        else:
            varpart = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            )
            if mag == self.base.payload_one():
                body = varpart
            else:
                cs = self.base.format(mag)
                if ("/" in cs or " " in cs or "+" in cs) and not (
                    cs.startswith("(") and cs.endswith(")")
                ):
                    cs = f"({cs})"
                body = cs + varpart
        return ("-" if neg else "") + body

    def format(self, x):
        if not x:
            return "0"
        parts = []
        for exps in sorted(x, key=lambda e: (sum(e), e)):
            term = self._term_str(exps, x[exps])
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f" - {term[1:]}")
            else:
                parts.append(f" + {term}")
        return "".join(parts)

    def to_json(self, x):
        return {
            ",".join(str(e) for e in exps): self.base.to_json(c)
            for exps, c in sorted(x.items())
        }

    def from_json(self, obj):
        if not isinstance(obj, dict):
            raise SchemaError(f"polynomial element must be an object, got {obj!r}")
        out = {}
        for key, val in obj.items():
            try:
                exps = tuple(int(p) for p in key.split(","))
            except ValueError as exc:
                raise SchemaError(f"bad exponent key {key!r}") from exc
            out[exps] = val
        return self.coerce(out)

    def describe(self):
        return f"{self.base.describe()}[{', '.join(self.variables)}]"

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.base == self.base
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash(("Poly", self.base, self.variables))


#: Shared descriptors for the two parameter-free rings.
ZZ = IntegerRing()
QQ = RationalRing()


class RingElement:
    """A payload tagged with its ring; supports +, -, *, ** and mixing with ints."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        self.ring = ring
        self.value = value

    def _lift(self, other):
        if isinstance(other, RingElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingMismatchError(
                f"mixed rings: {self.ring.describe()} vs {other.ring.describe()}"
            )
        if isinstance(other, int) and not isinstance(other, bool):
            return RingElement(self.ring, self.ring.from_int(other))
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(self.value, other.value))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(other.value, self.value))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value))

    def __mul__(self, other):
        if isinstance(other, ModuleElement):
            return NotImplemented
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.value, other.value))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        result = self.ring.one
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def try_invert(self) -> RingElement | None:
        """Inverse element, or ``None`` when this is not a unit."""
        inv = self.ring.try_invert(self.value)
        return None if inv is None else RingElement(self.ring, inv)

    def inverse(self) -> RingElement:
        inv = self.try_invert()
        if inv is None:
            raise NotInvertibleError(f"{self} is not a unit in {self.ring.describe()}")
        return inv

    def is_zero(self) -> bool:
        return self.value == self.ring.payload_zero()

    def is_one(self) -> bool:
        return self.value == self.ring.payload_one()

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == self.ring.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.ring.sort_key(self.value)))

    def __str__(self):
        return self.ring.format(self.value)

    def __repr__(self):
        return self.ring.format(self.value)


class ModuleElement:
    """An element of a free module of finite rank: a coordinate vector."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: Ring, coords):
        coords = tuple(
            c if isinstance(c, RingElement) else ring(c) for c in coords
        )
        if not coords:
            raise ValueError("module elements need rank >= 1")
        for c in coords:
            if c.ring != ring:
                raise RingMismatchError("coordinates must share the module's ring")
        self.ring = ring
        self.coords = coords

    @classmethod
    def zero(cls, ring: Ring, rank: int) -> ModuleElement:
        return cls(ring, (ring.zero,) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check(self, other):
        if not isinstance(other, ModuleElement):
            raise RingMismatchError(f"expected a module element, got {other!r}")
        if other.ring != self.ring or other.rank != self.rank:
            raise RingMismatchError(
                f"mixed modules: rank {self.rank} over {self.ring.describe()} "
                f"vs rank {other.rank} over {other.ring.describe()}"
            )

    def __add__(self, other):
        self._check(other)
        return ModuleElement(self.ring, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return ModuleElement(self.ring, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return ModuleElement(self.ring, tuple(-a for a in self.coords))

    def scale(self, scalar) -> ModuleElement:
        scalar = scalar if isinstance(scalar, RingElement) else self.ring(scalar)
        if scalar.ring != self.ring:
            raise RingMismatchError("scalar must lie in the module's ring")
        return ModuleElement(self.ring, tuple(scalar * c for c in self.coords))

    def __rmul__(self, scalar):
        if isinstance(scalar, (RingElement, int)) and not isinstance(scalar, bool):
            return self.scale(scalar)
        return NotImplemented

    __mul__ = __rmul__

    def kron(self, other: ModuleElement) -> ModuleElement:
        """Kronecker product of coordinate vectors; this factor varies fastest."""
        if not isinstance(other, ModuleElement) or other.ring != self.ring:
            raise RingMismatchError("tensor factors must share a ring")
        coords = []
        for b in other.coords:
            for a in self.coords:
                coords.append(a * b)
        return ModuleElement(self.ring, tuple(coords))

    def concat(self, other: ModuleElement) -> ModuleElement:
        """Direct-sum concatenation; ranks add."""
        if not isinstance(other, ModuleElement) or other.ring != self.ring:
            raise RingMismatchError("summands must share a ring")
        return ModuleElement(self.ring, self.coords + other.coords)

    def __getitem__(self, i) -> RingElement:
        return self.coords[i]

    def scalar(self) -> RingElement:
        """The sole coordinate of a rank-1 element."""
        if self.rank != 1:
            raise ValueError(f"rank {self.rank} element is not a scalar")
        return self.coords[0]

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.ring == other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, tuple(self.ring.sort_key(c.value) for c in self.coords)))

    def __str__(self):
        if self.rank == 1:
            return str(self.coords[0])
        return "[" + ", ".join(str(c) for c in self.coords) + "]"

    __repr__ = __str__


def as_module_element(ring: Ring, value, rank: int | None = None) -> ModuleElement:
    """Coerce a value (module element, ring element, raw scalar, or vector)
    into a module element over ``ring``, optionally enforcing a rank."""
    if isinstance(value, ModuleElement):
        out = value
        if out.ring != ring:
            raise RingMismatchError("module element belongs to a different ring")
    elif isinstance(value, RingElement):
        if value.ring != ring:
            raise RingMismatchError("element belongs to a different ring")
        out = ModuleElement(ring, (value,))
    elif isinstance(value, (list, tuple)):
        out = ModuleElement(ring, value)
    else:
        out = ModuleElement(ring, (ring(value),))
    if rank is not None and out.rank != rank:
        raise RingMismatchError(f"expected rank {rank}, got rank {out.rank}")
    return out
