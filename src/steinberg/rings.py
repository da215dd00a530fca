"""Exact commutative ring arithmetic.

Supported rings: the integers, integers mod n, prime fields, and towers of
multivariate polynomial and one-variable Laurent rings over any of these.
A tower such as Z[r^+-1][t] names each variable once and is stored as one
ring in all of its variables, innermost first: its descriptor derives `names` (r, t), `laurent` (which of
them may carry a negative exponent) and its scalar ring `scalar` with
`modulus` (None for Z).  Every element is kept in a canonical form so that
equality is representation equality and printing is byte-stable:

* a scalar is an int, a residue its least nonnegative representative,
* an element of a tower is the sorted tuple of its terms
  (exponents over `names`, nonzero scalar),
* printed monomials are ordered graded-lexicographically over all variables
  in declaration order, innermost ring first.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Iterator


class UnsupportedModelError(ValueError):
    """A configuration the toolkit does not cover exactly (CLI exit code 3)."""


# --------------------------------------------------------------------------
# descriptors


class Record:
    """An immutable record, equal by value to a record of its own class only
    and hashed as the tuple of its fields, which ``_fields`` names.  The
    fields live in ``__dict__``, which ``__init__`` fills past the refusing
    ``__setattr__``; a subclass may write its own ``__init__`` and hash."""

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        # written out, as in dataclasses: __eq__ then runs as fast as one
        # written by hand, where comparing attrgetter tuples takes twice as long
        super().__init_subclass__(**kwargs)
        values = "".join(f"self.{name}, " for name in cls._fields)
        equal = " and ".join(f"self.{name} == other.{name}" for name in cls._fields)
        exec(f"def _values(self):\n    return {values}\n"
             f"def __eq__(self, other):\n"
             f"    if other.__class__ is not self.__class__:\n        return NotImplemented\n"
             f"    return self is other or {equal}\n", namespace := {})
        cls._values, cls.__eq__ = namespace["_values"], namespace["__eq__"]

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class RingDescriptor(Record):
    """Identifies a ring; `params` depends on `kind`.

    kind: "Z" | "Zmod" | "GF" | "poly" | "laurent"
    params: () for Z, (n,) for Zmod, (p,) for GF,
            (base, vars_tuple) for poly, (base, var) for laurent.

    Derived from these (see the module docstring): names, laurent, scalar,
    modulus.  A Record of the fields kind and params.
    """

    _fields = ("kind", "params")

    def __init__(self, kind: str, params: tuple):
        if kind in ("poly", "laurent"):
            base, new = params
            new = new if kind == "poly" else (new,)
            derived = dict(names=base.names + new,
                           laurent=base.laurent + (kind == "laurent",) * len(new),
                           scalar=base.scalar, modulus=base.modulus)
        else:
            derived = dict(names=(), laurent=(), scalar=self,
                           modulus=params[0] if params else None)
        # the hash is computed once: every element hash hashes the descriptor
        self.__dict__.update(kind=kind, params=params, _hash=hash((kind, params)), **derived)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Zmod":
            return f"Z/{self.params[0]}"
        if self.kind == "GF":
            return f"GF({self.params[0]})"
        if self.kind == "poly":
            base, names = self.params
            return f"{base}[{','.join(names)}]"
        if self.kind == "laurent":
            base, name = self.params
            return f"{base}[{name}^+-1]"
        raise ValueError(f"unknown ring kind {self.kind!r}")


def integers() -> RingDescriptor:
    return RingDescriptor("Z", ())


def integers_mod(n: int) -> RingDescriptor:
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return RingDescriptor("Zmod", (n,))


def prime_field(p: int) -> RingDescriptor:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return RingDescriptor("GF", (p,))


def _check_new_names(base: RingDescriptor, names) -> None:
    # a tower names each variable once: parse_element reads a name as one variable
    for name in names:
        if name in base.names:
            raise ValueError(f"variable {name!r} is already a variable of {base}")


def polynomial_ring(base: RingDescriptor, names) -> RingDescriptor:
    names = tuple(names)
    if len(set(names)) != len(names) or not names:
        raise ValueError("polynomial variables must be distinct and nonempty")
    _check_new_names(base, names)
    return RingDescriptor("poly", (base, names))


def laurent_ring(base: RingDescriptor, name: str) -> RingDescriptor:
    _check_new_names(base, (name,))
    return RingDescriptor("laurent", (base, name))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


_DESCRIPTOR_RE = re.compile(
    r"^(Z|Z/(\d+)|GF\((\d+)\))"  # base
    r"((\[[^\[\]]+\])*)$"  # bracketed extensions
)


def parse_descriptor(text: str) -> RingDescriptor:
    """Parse ring names like ``Z``, ``Z/6``, ``GF(7)``, ``Z[t,u]``, ``Z/5[t^+-1]``."""
    text = text.strip().replace(" ", "")
    m = _DESCRIPTOR_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse ring descriptor {text!r}")
    if m.group(2) is not None:
        desc = integers_mod(int(m.group(2)))
    elif m.group(3) is not None:
        desc = prime_field(int(m.group(3)))
    else:
        desc = integers()
    for ext in re.findall(r"\[([^\[\]]+)\]", m.group(4) or ""):
        laurent = re.fullmatch(r"(.*)\^(?:\+-|±)1", ext)
        names = [laurent.group(1)] if laurent else ext.split(",")
        if not all(name.isidentifier() for name in names):
            raise ValueError(f"cannot parse ring descriptor {text!r}")
        desc = laurent_ring(desc, names[0]) if laurent else polynomial_ring(desc, names)
    return desc


# --------------------------------------------------------------------------
# canonical data layer (plain hashable python data, dispatched on descriptor)


def _reduce(desc: RingDescriptor, c: int) -> int:
    return c if desc.modulus is None else c % desc.modulus


def _term(desc: RingDescriptor, exps: tuple, c: int):
    """The data of the scalar c times the monomial with exponents exps."""
    c = _reduce(desc, c)
    if not desc.names:
        return c
    return ((exps, c),) if c else ()


def _one(desc: RingDescriptor):
    return _term(desc, (0,) * len(desc.names), 1)


def _canonical(desc: RingDescriptor, acc: dict) -> tuple:
    """The terms of acc, exponents -> scalar, reduced, without zeros, sorted."""
    n = desc.modulus
    if n is not None:
        acc = {k: v % n for k, v in acc.items()}
    return tuple(sorted(kv for kv in acc.items() if kv[1]))


def _add(desc: RingDescriptor, a, b):
    if not desc.names:
        return _reduce(desc, a + b)
    acc = dict(a)
    for k, v in b:
        acc[k] = acc.get(k, 0) + v
    return _canonical(desc, acc)


def _neg(desc: RingDescriptor, a):
    if not desc.names:
        return _reduce(desc, -a)
    return tuple((k, _reduce(desc, -v)) for k, v in a)


def _mul(desc: RingDescriptor, a, b):
    if not desc.names:
        return _reduce(desc, a * b)
    acc: dict = {}
    for k1, v1 in a:
        for k2, v2 in b:
            k = tuple(map(operator.add, k1, k2))
            acc[k] = acc.get(k, 0) + v1 * v2
    return _canonical(desc, acc)


# --------------------------------------------------------------------------
# elements


class RingElement:
    """Immutable ring element in canonical form, equal by value to another
    element only.  Not a Record: it is the most often built record, and two
    slots, filled by their own setters, build it faster and smaller than a
    ``__dict__``."""

    __slots__ = ("desc", "data")

    def __init__(self, desc: RingDescriptor, data: object):
        _set_desc(self, desc)
        _set_data(self, data)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not RingElement:
            return NotImplemented
        return (self.desc, self.data) == (other.desc, other.data)

    def __hash__(self) -> int:
        return hash((self.desc, self.data))

    def _check(self, other: "RingElement") -> None:
        if self.desc != other.desc:
            raise ValueError(f"ring mismatch: {self.desc} vs {other.desc}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.desc, _add(self.desc, self.data, other.data))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(
            self.desc, _add(self.desc, self.data, _neg(self.desc, other.data))
        )

    def __neg__(self) -> "RingElement":
        return RingElement(self.desc, _neg(self.desc, self.data))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.desc, _mul(self.desc, self.data, other.data))

    def is_zero(self) -> bool:
        return not self.data

    def scale(self, k: int) -> "RingElement":
        return self if k == 1 else from_int(self.desc, k) * self

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        return f"<{self.desc}: {render_element(self)}>"


# the slots' own setters, which bypass the refusing __setattr__ (the cheapest
# way to fill the two fields of the most often built record)
_set_desc = RingElement.desc.__set__
_set_data = RingElement.data.__set__


def zero(desc: RingDescriptor) -> RingElement:
    return RingElement(desc, () if desc.names else 0)


def one(desc: RingDescriptor) -> RingElement:
    return RingElement(desc, _one(desc))


def from_int(desc: RingDescriptor, k: int) -> RingElement:
    return RingElement(desc, _term(desc, (0,) * len(desc.names), k))


def variable(desc: RingDescriptor, name: str) -> RingElement:
    """The generator `name` of a polynomial or Laurent ring, at any level of
    a tower."""
    if name not in desc.names:
        raise ValueError(f"{name!r} is not a variable of {desc}")
    return _parse_term(desc, 1, name)


def units(desc: RingDescriptor) -> list[RingElement]:
    """Complete unit list of a finite ring."""
    n = desc.modulus
    if desc.names or n is None:
        raise ValueError(f"units({desc}): ring is not finite")
    return [RingElement(desc, a) for a in range(1, n) if math.gcd(a, n) == 1]


def inverse(a: RingElement) -> RingElement:
    """Multiplicative inverse; raises ValueError on non-units.  The units
    are the single terms whose scalar is a unit and whose polynomial (not
    Laurent) variables all have exponent 0."""
    desc, n = a.desc, a.desc.modulus
    terms = a.data if desc.names else [((), a.data)]
    if len(terms) == 1:
        (exps, c), = terms
        unit = c in (1, -1) if n is None else math.gcd(c, n) == 1
        if unit and not any(e for e, laurent in zip(exps, desc.laurent) if not laurent):
            c = c if n is None else pow(c, -1, n)
            return RingElement(desc, _term(desc, tuple(-e for e in exps), c))
    raise ValueError(f"{render_element(a)} is not a unit of {desc}")


def power(a: RingElement, k: int) -> RingElement:
    """a**k with negative k allowed for units."""
    if k < 0:
        a = inverse(a)
        k = -k
    result = one(a.desc)
    for _ in range(k):
        result = result * a
    return result


def elements(desc: RingDescriptor) -> Iterator[RingElement]:
    """All elements of a finite ring, in residue order."""
    if desc.names or desc.modulus is None:
        raise ValueError(f"cannot enumerate elements of {desc}")
    yield from (RingElement(desc, a) for a in range(desc.modulus))


# --------------------------------------------------------------------------
# printing


def _monomial_str(names: tuple[str, ...], exps) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render_element(a: RingElement) -> str:
    """a in expanded form, as in t*r + r for (t + 1) r in Z[t][r^+-1].  The
    terms are ordered graded-lexicographically over all variables of a
    tower, innermost ring first."""
    if not a.desc.names:
        return str(a.data)
    out = []
    for exps, coeff in sorted(a.data, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        mstr = _monomial_str(a.desc.names, exps)
        body = str(abs(coeff))
        if mstr:
            body = mstr if body == "1" else f"{body}*{mstr}"
        if out:
            out.append(("- " if coeff < 0 else "+ ") + body)
        else:
            out.append(("-" if coeff < 0 else "") + body)
    return " ".join(out) if out else "0"


# --------------------------------------------------------------------------
# element parsing (grammar documented in the README)

def parse_element(desc: RingDescriptor, text: str) -> RingElement:
    """Parse an element per the file/CLI grammar, e.g. ``3*t^2*u - t + 1``."""
    text = text.strip()
    if not desc.names:
        return from_int(desc, int(text))
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty ring element")
    pieces: list[tuple[int, str]] = []
    sign = 1
    buf = ""
    i = 0
    while i < len(compact):
        ch = compact[i]
        if ch in "+-" and buf and buf[-1] not in "*^+-":
            pieces.append((sign, buf))
            sign = -1 if ch == "-" else 1
            buf = ""
        elif ch in "+-" and not buf:
            sign = sign * (-1 if ch == "-" else 1)
        else:
            buf += ch
        i += 1
    if not buf:
        raise ValueError(f"cannot parse element {text!r}")
    pieces.append((sign, buf))

    total = zero(desc)
    for sgn, term in pieces:
        total = total + _parse_term(desc, sgn, term)
    return total


def _parse_term(desc: RingDescriptor, sign: int, term: str) -> RingElement:
    position = {name: k for k, name in enumerate(desc.names)}
    coeff = sign
    exps = [0] * len(desc.names)
    for factor in term.split("*"):
        if not factor:
            raise ValueError(f"bad term {term!r}")
        if factor[0].isdigit():
            coeff *= int(factor)
            continue
        if "^" in factor:
            var, _, etext = factor.partition("^")
            e = int(etext)
        else:
            var, e = factor, 1
        if var not in position:
            raise ValueError(f"unknown variable {var!r} for {desc}")
        if e < 0 and not desc.laurent[position[var]]:
            raise ValueError("negative exponents only in Laurent rings")
        exps[position[var]] += e
    return RingElement(desc, _term(desc, tuple(exps), coeff))
