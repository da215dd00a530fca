"""Generators S_i, X_i(t), the relation families, derived torus/Weyl words,
the rank-at-most-two amalgam, and deterministic file emission.

Relations are kept as (left, right) word pairs rather than single relators,
which preserves the displayed shapes for diffing.  Concrete presentations
(finite rings) enumerate every instance; symbolic presentations carry one
schema per family.  Both are built by the same ring arithmetic: a schema's
parameters are elements of SCHEMA_RING = Z[r^+-1][t][u^+-1][v^+-1], where t
and u are the Chevalley/additivity parameters, r is the torus unit, and u
and v are the Kac-Moody torus units.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

from . import diagrams, rings
from .diagrams import GeneralizedCartanMatrix


SCHEMA_RING = rings.parse_descriptor("Z[r^+-1][t][u^+-1][v^+-1]")


@lru_cache(maxsize=None)
def _render(a: rings.RingElement) -> str:
    return rings.render_element(a).replace(" ", "")


class Generator(NamedTuple):
    kind: str  # "S" | "X"
    node: int
    param: rings.RingElement | None = None  # in the ring, or in SCHEMA_RING

    def render(self) -> str:
        if self.kind == "S":
            return f"S{self.node}"
        return f"X{self.node}({_render(self.param)})"


Word = tuple  # of (Generator, +-1)


def S(i: int) -> Generator:
    return Generator("S", i)


def X(i: int, param) -> Generator:
    return Generator("X", i, param)


def word(*letters) -> Word:
    return tuple(
        (item, 1) if isinstance(item, Generator) else item for item in letters
    )


def winv(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def conj(outer: Word, inner: Word) -> Word:
    return outer + inner + winv(outer)


def commutator_word(a: Word, b: Word) -> Word:
    return a + b + winv(a) + winv(b)


def render_word(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(g.render() + ("^-1" if e < 0 else "") for g, e in w)


def stilde(i: int, u: rings.RingElement) -> Word:
    """X_i(u) S_i X_i(1/u) S_i^-1 X_i(u); defined for units only."""
    try:
        u_inv = rings.inverse(u)
    except ValueError:
        raise ValueError("stilde is undefined for a non-unit parameter") from None
    return word(X(i, u), S(i), X(i, u_inv), (S(i), -1), X(i, u))


def htilde(i: int, u: rings.RingElement) -> Word:
    return stilde(i, u) + stilde(i, -rings.one(u.desc))


class Relator(NamedTuple):
    family: str
    nodes: tuple
    params: tuple  # ((name, value), ...)
    left: Word
    right: Word

    def render_params(self) -> list[str]:
        return [f"{name}={_render(value)}" for name, value in self.params]


class PresentationOptions(NamedTuple):
    include_torus_action: bool | None = None  # None: omit iff 2-spherical, no A_1
    include_kacmoody_torus: bool = False


class Presentation(NamedTuple):
    gcm: GeneralizedCartanMatrix
    ring: rings.RingDescriptor
    symbolic: bool
    generators: tuple
    relators: tuple
    options: PresentationOptions = PresentationOptions()


FAMILY_ORDER = [
    "additivity", "s-defining", "s2-on-s", "s2-on-x",
    "artin-2", "interaction-2", "chevalley-2",
    "artin-3", "interaction-3", "chevalley-3-close", "chevalley-3-distant",
    "artin-4", "interaction-4", "chevalley-4-close",
    "chevalley-4-orthogonal-long", "chevalley-4-orthogonal-short",
    "chevalley-4-distant",
    "artin-6", "interaction-6", "chevalley-6-close-long",
    "chevalley-6-adjacent", "chevalley-6-orthogonal",
    "chevalley-6-distant-long", "chevalley-6-close-short",
    "chevalley-6-distant-short", "chevalley-6-distant",
    "torus-action-1", "torus-action-2", "torus",
]

TORUS_ACTION_FAMILIES = {"torus-action-1", "torus-action-2"}

_FAMILY_INDEX = {name: k for k, name in enumerate(FAMILY_ORDER)}


# ---------------------------------------------------------------------------
# the relation families


def _short_long(a: GeneralizedCartanMatrix, i: int, j: int) -> tuple[int, int]:
    """(short node, long node) on an m = 4 or 6 edge: the symmetrized form
    gives the shorter root the pairing entry of larger magnitude."""
    if abs(a.rows[i][j]) > abs(a.rows[j][i]):
        return i, j
    return j, i


def unit_parameter(family: str, name: str) -> bool:
    """Whether a family's parameter ranges over the units, as the torus unit
    r and the Kac-Moody torus units u and v do, rather than every element."""
    return name == "r" or family == "torus"


def _mono(k: int, *factors: rings.RingElement) -> rings.RingElement:
    """k times the product of the factors."""
    out = rings.from_int(factors[0].desc, k)
    for f in factors:
        out = out * f
    return out


def _family_instances(a, ring, symbolic, nodes, include_torus, include_km_torus):
    if symbolic:
        ring = SCHEMA_RING
        r, t, u, v = (rings.parse_element(ring, name) for name in "rtuv")
        t_values = [t]
        tu_values = [(t, u)]
        r_values = [r]
        unit_pairs = [(u, v)]
    else:
        elems = list(rings.elements(ring))
        units_list = rings.units(ring)
        t_values = elems
        tu_values = [(t, u) for t in elems for u in elems]
        r_values = units_list
        unit_pairs = [(u, v) for u in units_list for v in units_list]

    for i in nodes:
        for t, u in tu_values:
            yield Relator(
                "additivity", (i,), (("t", t), ("u", u)),
                word(X(i, t), X(i, u)),
                word(X(i, t + u)),
            )
        one = rings.one(ring)
        yield Relator(
            "s-defining", (i,), (),
            word(S(i)),
            word(X(i, one), S(i), X(i, one), (S(i), -1), X(i, one)),
        )

    for i in nodes:
        for j in nodes:
            sign = 1 if a.rows[i][j] % 2 == 0 else -1
            yield Relator(
                "s2-on-s", (i, j), (),
                word(S(i), S(i), S(j), (S(i), -1), (S(i), -1)),
                word((S(j), sign)),
            )
            for t in t_values:
                yield Relator(
                    "s2-on-x", (i, j), (("t", t),),
                    word(S(i), S(i), X(j, t), (S(i), -1), (S(i), -1)),
                    word(X(j, _mono(sign, t))),
                )

    for i in nodes:
        for j in nodes:
            if i >= j:
                continue
            m = diagrams.coxeter_order(a, i, j)
            if m is diagrams.INFINITE:
                if not symbolic:
                    raise rings.UnsupportedModelError(
                        "no relation family exists for an m = infinity edge"
                    )
                continue
            yield from _edge_families(a, i, j, m, t_values, tu_values)

    if include_torus:
        for i in nodes:
            # each htilde_i(r) and its inverse are built once and shared by
            # every instance that conjugates by them
            conjugators = []
            for r in r_values:
                h = htilde(i, r)
                conjugators.append((r, h, winv(h)))
            for j in nodes:
                aij = a.rows[i][j]
                sj, sj_inv = word(S(j)), word((S(j), -1))
                for r, h, h_inv in conjugators:
                    # r^(+-a_ij) is taken once per unit
                    scale_1, scale_2 = rings.power(r, aij), rings.power(r, -aij)
                    for t in t_values:
                        xt = word(X(j, t))
                        yield Relator(
                            "torus-action-1", (i, j), (("r", r), ("t", t)),
                            h + xt + h_inv,
                            word(X(j, scale_1 * t)),
                        )
                        yield Relator(
                            "torus-action-2", (i, j), (("r", r), ("t", t)),
                            h + sj + xt + sj_inv + h_inv,
                            sj + word(X(j, scale_2 * t)) + sj_inv,
                        )

    if include_km_torus:
        for i in nodes:
            for u, v in unit_pairs:
                yield Relator(
                    "torus", (i,), (("u", u), ("v", v)),
                    htilde(i, u) + htilde(i, v),
                    htilde(i, _mono(1, u, v)),
                )


def _edge_families(a, i, j, m, t_values, tu_values):
    if m == 2:
        yield Relator("artin-2", (i, j), (), word(S(i), S(j)), word(S(j), S(i)))
        for x, y in ((i, j), (j, i)):
            for t in t_values:
                yield Relator(
                    "interaction-2", (x, y), (("t", t),),
                    word(S(x), X(y, t)), word(X(y, t), S(x)),
                )
        for t, u in tu_values:
            yield Relator(
                "chevalley-2", (i, j), (("t", t), ("u", u)),
                word(X(i, t), X(j, u)), word(X(j, u), X(i, t)),
            )
        return

    if m == 3:
        yield Relator(
            "artin-3", (i, j), (),
            word(S(i), S(j), S(i)), word(S(j), S(i), S(j)),
        )
        for x, y in ((i, j), (j, i)):
            for t in t_values:
                yield Relator(
                    "interaction-3", (x, y), (("t", t),),
                    word(S(y), S(x), X(y, t)),
                    word(X(x, t), S(y), S(x)),
                )
            for t, u in tu_values:
                close = conj(word(S(x)), word(X(y, u)))
                yield Relator(
                    "chevalley-3-close", (x, y), (("t", t), ("u", u)),
                    word(X(x, t)) + close, close + word(X(x, t)),
                )
                yield Relator(
                    "chevalley-3-distant", (x, y), (("t", t), ("u", u)),
                    commutator_word(word(X(x, t)), word(X(y, u))),
                    conj(word(S(x)), word(X(y, _mono(1, t, u)))),
                )
        return

    s, l = _short_long(a, i, j)
    ws, wl = word(S(s)), word(S(l))
    wsl, wls = word(S(s), S(l)), word(S(l), S(s))

    if m == 4:
        yield Relator(
            "artin-4", (i, j), (),
            word(S(i), S(j), S(i), S(j)), word(S(j), S(i), S(j), S(i)),
        )
        for x, y in ((i, j), (j, i)):
            braid = word(S(x), S(y), S(x))
            for t in t_values:
                yield Relator(
                    "interaction-4", (x, y), (("t", t),),
                    braid + word(X(y, t)), word(X(y, t)) + braid,
                )
        for t, u in tu_values:
            lhs, rhs = conj(ws, word(X(l, t))), conj(wl, word(X(s, u)))
            yield Relator(
                "chevalley-4-close", (s, l), (("t", t), ("u", u)),
                lhs + rhs, rhs + lhs,
            )
            lhs, rhs = word(X(l, t)), conj(ws, word(X(l, u)))
            yield Relator(
                "chevalley-4-orthogonal-long", (s, l), (("t", t), ("u", u)),
                lhs + rhs, rhs + lhs,
            )
            yield Relator(
                "chevalley-4-orthogonal-short", (s, l), (("t", t), ("u", u)),
                commutator_word(word(X(s, t)), conj(wl, word(X(s, u)))),
                conj(ws, word(X(l, _mono(-2, t, u)))),
            )
            yield Relator(
                "chevalley-4-distant", (s, l), (("t", t), ("u", u)),
                commutator_word(word(X(s, t)), word(X(l, u))),
                conj(wl, word(X(s, _mono(-1, t, u))))
                + conj(ws, word(X(l, _mono(1, t, t, u)))),
            )
        return

    # m == 6
    yield Relator(
        "artin-6", (i, j), (),
        word(S(i), S(j), S(i), S(j), S(i), S(j)),
        word(S(j), S(i), S(j), S(i), S(j), S(i)),
    )
    for x, y in ((i, j), (j, i)):
        braid = word(S(x), S(y), S(x), S(y), S(x))
        for t in t_values:
            yield Relator(
                "interaction-6", (x, y), (("t", t),),
                braid + word(X(y, t)), word(X(y, t)) + braid,
            )
    for t, u in tu_values:
        lhs, rhs = word(X(l, t)), conj(wls, word(X(l, u)))
        yield Relator(
            "chevalley-6-close-long", (s, l), (("t", t), ("u", u)),
            lhs + rhs, rhs + lhs,
        )
        lhs, rhs = conj(wsl, word(X(s, t))), conj(wls, word(X(l, u)))
        yield Relator(
            "chevalley-6-adjacent", (s, l), (("t", t), ("u", u)),
            lhs + rhs, rhs + lhs,
        )
        lhs, rhs = conj(ws, word(X(l, t))), conj(wl, word(X(s, u)))
        yield Relator(
            "chevalley-6-orthogonal", (s, l), (("t", t), ("u", u)),
            lhs + rhs, rhs + lhs,
        )
        yield Relator(
            "chevalley-6-distant-long", (s, l), (("t", t), ("u", u)),
            commutator_word(word(X(l, t)), conj(ws, word(X(l, u)))),
            conj(wls, word(X(l, _mono(1, t, u)))),
        )
        yield Relator(
            "chevalley-6-close-short", (s, l), (("t", t), ("u", u)),
            commutator_word(word(X(s, t)), conj(wsl, word(X(s, u)))),
            conj(ws, word(X(l, _mono(3, t, u)))),
        )
        yield Relator(
            "chevalley-6-distant-short", (s, l), (("t", t), ("u", u)),
            commutator_word(word(X(s, t)), conj(wl, word(X(s, u)))),
            conj(wsl, word(X(s, _mono(-2, t, u))))
            + conj(ws, word(X(l, _mono(-3, t, t, u))))
            + conj(wls, word(X(l, _mono(-3, t, u, u)))),
        )
        yield Relator(
            "chevalley-6-distant", (s, l), (("t", t), ("u", u)),
            commutator_word(word(X(s, t)), word(X(l, u))),
            conj(wsl, word(X(s, _mono(1, t, t, u))))
            + conj(wl, word(X(s, _mono(-1, t, u))))
            + conj(ws, word(X(l, _mono(1, t, t, t, u))))
            + conj(wls, word(X(l, _mono(-1, t, t, t, u, u)))),
        )


# ---------------------------------------------------------------------------
# presentations


def _is_finite_ring(ring: rings.RingDescriptor) -> bool:
    return ring.kind in ("Zmod", "GF")


def _relator_sort_key(rel: Relator):
    return (
        _FAMILY_INDEX[rel.family],
        rel.nodes,
        tuple(rel.render_params()),
        render_word(rel.left),
        render_word(rel.right),
    )


def _sorted_relators(rels) -> list:
    """rels sorted by _relator_sort_key.  Words are rendered only within runs
    that agree on family, nodes and parameters, which the families hardly
    ever produce: rendering every word was most of the cost of the sort."""
    rels = list(rels)
    heads = [(_FAMILY_INDEX[r.family], r.nodes, tuple(r.render_params())) for r in rels]
    out = []
    for _, run in groupby(sorted(range(len(rels)), key=heads.__getitem__), heads.__getitem__):
        run = [rels[k] for k in run]
        out += sorted(run, key=_relator_sort_key) if len(run) > 1 else run
    return out


def _generators(ring, symbolic, nodes):
    values = [rings.parse_element(SCHEMA_RING, "t")] if symbolic else list(rings.elements(ring))
    return tuple([S(i) for i in nodes] + [X(i, t) for i in nodes for t in values])


def _resolve_torus_flag(a, options: PresentationOptions) -> bool:
    if options.include_torus_action is not None:
        return options.include_torus_action
    return not diagrams.two_spherical_no_a1(a)


def relators_for(
    a: GeneralizedCartanMatrix,
    ring: rings.RingDescriptor,
    options: PresentationOptions = PresentationOptions(),
) -> Presentation:
    """Every relation-family instance of the presentation on the diagram.

    Concrete mode (finite rings) enumerates all parameters; other rings give
    the symbolic schema form.
    """
    symbolic = not _is_finite_ring(ring)
    include_torus = _resolve_torus_flag(a, options)
    nodes = range(a.rank)
    rels = _sorted_relators(
        _family_instances(
            a, ring, symbolic, nodes, include_torus, options.include_kacmoody_torus
        )
    )
    return Presentation(a, ring, symbolic, _generators(ring, symbolic, nodes), tuple(rels), options)


def amalgam(
    a: GeneralizedCartanMatrix,
    ring: rings.RingDescriptor,
    options: PresentationOptions = PresentationOptions(),
) -> Presentation:
    """Union of the presentations of all rank-1 and rank-2 subdiagrams, with
    generators identified across subdiagrams by node label.  The torus-action
    families never appear here: the amalgamated presentation is the direct
    limit one, in which they are consequences."""
    symbolic = not _is_finite_ring(ring)
    seen = set()
    rels = []
    pieces = [(i,) for i in range(a.rank)]
    pieces += [(i, j) for i in range(a.rank) for j in range(i + 1, a.rank)]
    for nodes in pieces:
        for rel in _family_instances(
            a, ring, symbolic, nodes, False, options.include_kacmoody_torus
        ):
            if rel not in seen:
                seen.add(rel)
                rels.append(rel)
    rels = _sorted_relators(rels)
    return Presentation(
        a, ring, symbolic, _generators(ring, symbolic, range(a.rank)), tuple(rels), options
    )


# ---------------------------------------------------------------------------
# emission and parsing


def emit(p: Presentation, fmt: str = "native") -> str:
    if fmt == "native":
        return _emit_native(p)
    if fmt == "gap":
        return _emit_gap(p)
    if fmt == "json":
        return _emit_json(p)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_json(p: Presentation) -> str:
    import json

    payload = {
        "ring": str(p.ring),
        "symbolic": p.symbolic,
        "cartan": [list(row) for row in p.gcm.rows],
        "generators": [g.render() for g in p.generators],
        "relators": [
            {
                "family": rel.family,
                "nodes": list(rel.nodes),
                "params": rel.render_params(),
                "left": render_word(rel.left),
                "right": render_word(rel.right),
            }
            for rel in p.relators
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_native(p: Presentation) -> str:
    lines = [f"ring {p.ring}"]
    if p.symbolic:
        lines.append("symbolic")
    for i in range(p.gcm.rank):
        row = " ".join(str(x) for x in p.gcm.rows[i])
        lines.append(f"node {i} {row}")
    for g in p.generators:
        if g.kind == "S":
            lines.append(f"gen S {g.node}")
        else:
            lines.append(f"gen X {g.node} {_render(g.param)}")
    for rel in p.relators:
        nodes = " ".join(str(n) for n in rel.nodes)
        params = " ".join(rel.render_params())
        head = " ".join(x for x in (rel.family, nodes, params) if x)
        lines.append(f"rel {head} : {render_word(rel.left)} = {render_word(rel.right)}")
    return "\n".join(lines) + "\n"


def _gap_name(g: Generator) -> str:
    if g.kind == "S":
        return f"S{g.node}"
    return f"X{g.node}_{g.param.data}"


def _emit_gap(p: Presentation) -> str:
    if p.symbolic:
        raise ValueError("the gap-flavored format requires a concrete presentation")
    names = [_gap_name(g) for g in p.generators]
    lines = [
        "# free-group presentation, GAP-flavored",
        "F := FreeGroup(" + ", ".join(f'"{n}"' for n in names) + ");",
        "AssignGeneratorVariables(F);",
        "rels := [",
    ]
    for rel in p.relators:
        left = "*".join(
            _gap_name(g) + ("^-1" if e < 0 else "") for g, e in rel.left
        ) or "One(F)"
        right_inv = "*".join(
            _gap_name(g) + ("^-1" if e > 0 else "") for g, e in reversed(rel.right)
        ) or "One(F)"
        lines.append(f"  {left}*{right_inv},")
    lines.append("];")
    lines.append("G := F / rels;")
    return "\n".join(lines) + "\n"


_LETTER_ERR = "cannot parse word letter {!r}"


def _parse_letter(token: str, ring):
    exp = 1
    if token.endswith("^-1"):
        exp = -1
        token = token[:-3]
    if token.startswith("S"):
        return (S(int(token[1:])), exp)
    if token.startswith("X"):
        node_text, _, rest = token.partition("(")
        if not rest.endswith(")"):
            raise ValueError(_LETTER_ERR.format(token))
        return (X(int(node_text[1:]), rings.parse_element(ring, rest[:-1])), exp)
    raise ValueError(_LETTER_ERR.format(token))


def parse_native(text: str) -> Presentation:
    """Parse the native format; symbolic parameters are read in SCHEMA_RING."""
    ring = param_ring = None
    symbolic = False
    rows = {}
    gens = []
    rels = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "ring":
            ring = rings.parse_descriptor(rest.strip())
            param_ring = SCHEMA_RING if symbolic else ring
        elif head == "symbolic":
            symbolic = True
            param_ring = SCHEMA_RING
        elif head == "node":
            parts = rest.split()
            rows[int(parts[0])] = [int(x) for x in parts[1:]]
        elif head == "gen":
            parts = rest.split()
            if parts[0] == "S":
                gens.append(S(int(parts[1])))
            else:
                gens.append(X(int(parts[1]), rings.parse_element(param_ring, parts[2])))
        elif head == "rel":
            header, _, body = rest.partition(":")
            tokens = header.split()
            family = tokens[0]
            nodes = tuple(int(x) for x in tokens[1:] if "=" not in x)
            params = []
            for tok in tokens[1:]:
                if "=" in tok:
                    name, _, value = tok.partition("=")
                    params.append((name, rings.parse_element(param_ring, value)))
            left_text, _, right_text = body.partition("=")
            left = tuple(_parse_letter(tok, param_ring) for tok in left_text.split())
            right = tuple(_parse_letter(tok, param_ring) for tok in right_text.split())
            rels.append(Relator(family, nodes, tuple(params), left, right))
        else:
            raise ValueError(f"unknown line {line!r}")
    matrix = diagrams.gcm([rows[i] for i in sorted(rows)])
    return Presentation(matrix, ring, symbolic, tuple(gens), tuple(rels))
