"""Exact commutative ring arithmetic.

Supported rings: the integers, integers mod n, prime fields, multivariate
polynomial rings over any of these, and Laurent polynomial rings in one
variable.  Every element is kept in a canonical form so that equality is
representation equality and printing is byte-stable:

* residues are stored as least nonnegative representatives,
* polynomial coefficient maps never store zeros,
* monomials are ordered graded-lexicographically by variable-name order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator


class UnsupportedModelError(ValueError):
    """A configuration the toolkit does not cover exactly (CLI exit code 3)."""


# --------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class RingDescriptor:
    """Identifies a ring; `params` depends on `kind`.

    kind: "Z" | "Zmod" | "GF" | "poly" | "laurent"
    params: () for Z, (n,) for Zmod, (p,) for GF,
            (base, vars_tuple) for poly, (base, var) for laurent.
    """

    kind: str
    params: tuple

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


def polynomial_ring(base: RingDescriptor, names) -> RingDescriptor:
    names = tuple(names)
    if len(set(names)) != len(names) or not names:
        raise ValueError("polynomial variables must be distinct and nonempty")
    return RingDescriptor("poly", (base, names))


def laurent_ring(base: RingDescriptor, name: str) -> RingDescriptor:
    if base.kind == "laurent" and base.params[1] == name:
        raise ValueError(f"base ring is already Laurent in {name!r}")
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
        if ext.endswith("^+-1") or ext.endswith("^±1"):
            var = ext.split("^")[0]
            desc = laurent_ring(desc, var)
        else:
            desc = polynomial_ring(desc, ext.split(","))
    return desc


# --------------------------------------------------------------------------
# canonical data layer (plain hashable python data, dispatched on descriptor)


def _zero(desc: RingDescriptor):
    if desc.kind in ("Z", "Zmod", "GF"):
        return 0
    return ()


def _one(desc: RingDescriptor):
    if desc.kind in ("Z", "Zmod", "GF"):
        return 1 % desc.params[0] if desc.kind != "Z" else 1
    base = desc.params[0]
    if desc.kind == "poly":
        nvars = len(desc.params[1])
        return (((0,) * nvars, _one(base)),)
    return ((0, _one(base)),)


def _from_int(desc: RingDescriptor, k: int):
    if desc.kind == "Z":
        return k
    if desc.kind in ("Zmod", "GF"):
        return k % desc.params[0]
    base = desc.params[0]
    c = _from_int(base, k)
    if _data_is_zero(base, c):
        return ()
    if desc.kind == "poly":
        return (((0,) * len(desc.params[1]), c),)
    return ((0, c),)


def _data_is_zero(desc: RingDescriptor, a) -> bool:
    return a == 0 if desc.kind in ("Z", "Zmod", "GF") else a == ()


def _trim(desc: RingDescriptor, mapping: dict):
    base = desc.params[0]
    items = [(k, v) for k, v in mapping.items() if not _data_is_zero(base, v)]
    items.sort(key=lambda kv: kv[0])
    return tuple(items)


def _add(desc: RingDescriptor, a, b):
    if desc.kind == "Z":
        return a + b
    if desc.kind in ("Zmod", "GF"):
        return (a + b) % desc.params[0]
    base = desc.params[0]
    acc = dict(a)
    for k, v in b:
        acc[k] = _add(base, acc.get(k, _zero(base)), v)
    return _trim(desc, acc)


def _neg(desc: RingDescriptor, a):
    if desc.kind == "Z":
        return -a
    if desc.kind in ("Zmod", "GF"):
        return (-a) % desc.params[0]
    base = desc.params[0]
    return tuple((k, _neg(base, v)) for k, v in a)


def _mul(desc: RingDescriptor, a, b):
    if desc.kind == "Z":
        return a * b
    if desc.kind in ("Zmod", "GF"):
        return (a * b) % desc.params[0]
    base = desc.params[0]
    acc: dict = {}
    for k1, v1 in a:
        for k2, v2 in b:
            if desc.kind == "poly":
                k = tuple(x + y for x, y in zip(k1, k2))
            else:
                k = k1 + k2
            prod = _mul(base, v1, v2)
            if k in acc:
                acc[k] = _add(base, acc[k], prod)
            else:
                acc[k] = prod
    return _trim(desc, acc)


# --------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class RingElement:
    """Immutable ring element in canonical form."""

    desc: RingDescriptor
    data: object

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
        return _data_is_zero(self.desc, self.data)

    def is_one(self) -> bool:
        return self.data == _one(self.desc)

    def scale(self, k: int) -> "RingElement":
        return from_int(self.desc, k) * self

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        return f"<{self.desc}: {render_element(self)}>"


def zero(desc: RingDescriptor) -> RingElement:
    return RingElement(desc, _zero(desc))


def one(desc: RingDescriptor) -> RingElement:
    return RingElement(desc, _one(desc))


def from_int(desc: RingDescriptor, k: int) -> RingElement:
    return RingElement(desc, _from_int(desc, k))


def variable(desc: RingDescriptor, name: str) -> RingElement:
    """The generator `name` of a polynomial or Laurent ring."""
    if desc.kind == "poly":
        base, names = desc.params
        if name not in names:
            raise ValueError(f"{name!r} is not a variable of {desc}")
        exps = tuple(1 if v == name else 0 for v in names)
        return RingElement(desc, ((exps, _one(base)),))
    if desc.kind == "laurent":
        base, var = desc.params
        if name != var:
            raise ValueError(f"{name!r} is not the variable of {desc}")
        return RingElement(desc, ((1, _one(base)),))
    raise ValueError(f"{desc} has no variables")


def laurent_monomial(desc: RingDescriptor, k: int) -> RingElement:
    if desc.kind != "laurent":
        raise ValueError("laurent_monomial requires a Laurent ring")
    return RingElement(desc, ((k, _one(desc.params[0])),))


def laurent_shift(a: RingElement, k: int) -> RingElement:
    """Multiply a Laurent element exactly by t^k."""
    if a.desc.kind != "laurent":
        raise ValueError("laurent_shift requires a Laurent ring element")
    return RingElement(a.desc, tuple((e + k, c) for e, c in a.data))


def units(desc: RingDescriptor) -> list[RingElement]:
    """Complete unit list of a finite ring."""
    if desc.kind == "Zmod":
        n = desc.params[0]
        return [RingElement(desc, a) for a in range(1, n) if math.gcd(a, n) == 1]
    if desc.kind == "GF":
        p = desc.params[0]
        return [RingElement(desc, a) for a in range(1, p)]
    raise ValueError(f"units({desc}): ring is not finite")


def inverse(a: RingElement) -> RingElement:
    """Multiplicative inverse; raises ValueError on non-units."""
    desc = a.desc
    if desc.kind == "Z":
        if a.data in (1, -1):
            return a
        raise ValueError(f"{a.data} is not a unit of Z")
    if desc.kind in ("Zmod", "GF"):
        n = desc.params[0]
        try:
            return RingElement(desc, pow(a.data, -1, n))
        except ValueError:
            raise ValueError(f"{a.data} is not a unit of {desc}") from None
    if desc.kind == "poly":
        base = desc.params[0]
        nvars = len(desc.params[1])
        if len(a.data) == 1 and a.data[0][0] == (0,) * nvars:
            c = inverse(RingElement(base, a.data[0][1]))
            return RingElement(desc, (((0,) * nvars, c.data),))
        raise ValueError("non-constant polynomial is not a unit")
    if desc.kind == "laurent":
        base = desc.params[0]
        if len(a.data) == 1:
            e, c = a.data[0]
            cinv = inverse(RingElement(base, c))
            return RingElement(desc, ((-e, cinv.data),))
        raise ValueError("Laurent element with several terms is not a unit")
    raise ValueError(f"unknown ring kind {desc.kind!r}")


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
    if desc.kind in ("Zmod", "GF"):
        for a in range(desc.params[0]):
            yield RingElement(desc, a)
    else:
        raise ValueError(f"cannot enumerate elements of {desc}")


def exact_div_int(a: RingElement, k: int) -> RingElement:
    """Divide by a nonzero integer, asserting exactness (used over Z-based rings)."""
    if k == 0:
        raise ZeroDivisionError
    desc = a.desc

    def div(d: RingDescriptor, data):
        if d.kind == "Z":
            if data % k != 0:
                raise ValueError(f"{data} not divisible by {k}")
            return data // k
        if d.kind in ("Zmod", "GF"):
            n = d.params[0]
            return (data * pow(k, -1, n)) % n
        base = d.params[0]
        return tuple((m, div(base, c)) for m, c in data)

    return RingElement(desc, div(desc, a.data))


def substitute(a: RingElement, assignment: dict) -> RingElement:
    """Evaluate a polynomial by substituting ring elements for variables.

    The result lives in the ring of the substituted values; integer base
    coefficients are mapped there canonically.
    """
    if a.desc.kind != "poly":
        raise ValueError("substitute requires a polynomial element")
    base, names = a.desc.params
    missing = [v for v in names if v not in assignment]
    if missing:
        raise ValueError(f"no value given for {missing}")
    target = next(iter(assignment.values())).desc
    if any(v.desc != target for v in assignment.values()):
        raise ValueError("substituted values must share one ring")

    def into_target(coeff) -> RingElement:
        if base == target:
            return RingElement(target, coeff)
        if base.kind == "Z":
            return from_int(target, coeff)
        raise ValueError(f"cannot map {base} coefficients into {target}")

    total = zero(target)
    for exps, coeff in a.data:
        term = into_target(coeff)
        for name, e in zip(names, exps):
            term = term * power(assignment[name], e)
        total = total + term
    return total


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
    desc = a.desc
    if desc.kind in ("Z", "Zmod", "GF"):
        return str(a.data)
    base = desc.params[0]
    if desc.kind == "poly":
        names = desc.params[1]
        terms = sorted(a.data, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        key = lambda exps: _monomial_str(names, exps)
    else:
        name = desc.params[1]
        terms = sorted(a.data, key=lambda kv: kv[0], reverse=True)
        key = lambda e: "" if e == 0 else (name if e == 1 else f"{name}^{e}")
    if not terms:
        return "0"
    out = []
    for mono, coeff in terms:
        cstr = render_element(RingElement(base, coeff))
        mstr = key(mono)
        negative = cstr.startswith("-")
        body = cstr[1:] if negative else cstr
        if mstr:
            piece = mstr if body == "1" else f"{body}*{mstr}"
        else:
            piece = body
        if not out:
            out.append(("-" if negative else "") + piece)
        else:
            out.append(("- " if negative else "+ ") + piece)
    return " ".join(out)


# --------------------------------------------------------------------------
# element parsing (grammar documented in the README)

def parse_element(desc: RingDescriptor, text: str) -> RingElement:
    """Parse an element per the file/CLI grammar, e.g. ``3*t^2*u - t + 1``."""
    text = text.strip()
    if desc.kind in ("Z", "Zmod", "GF"):
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
    base = desc.params[0]
    if desc.kind == "poly":
        names = desc.params[1]
    else:
        names = (desc.params[1],)
    coeff = 1
    exps = {name: 0 for name in names}
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
        if var not in exps:
            raise ValueError(f"unknown variable {var!r} for {desc}")
        if e < 0 and desc.kind != "laurent":
            raise ValueError("negative exponents only in Laurent rings")
        exps[var] += e
    cdata = _from_int(base, sign * coeff)
    if _data_is_zero(base, cdata):
        return zero(desc)
    if desc.kind == "poly":
        mono = tuple(exps[name] for name in names)
        return RingElement(desc, ((mono, cdata),))
    return RingElement(desc, ((exps[names[0]], cdata),))
