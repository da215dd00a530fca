"""Generators S_i, X_i(t), the relation families, derived torus/Weyl words,
the rank-at-most-two amalgam, and deterministic file emission.

Relations are kept as (left, right) word pairs rather than single relators,
which preserves the displayed shapes for diffing.  Each relation family is
one schema, a relator whose parameters are elements of SCHEMA_RING =
Z[r^+-1][t][u^+-1][v^+-1], where t and u are the Chevalley/additivity
parameters, r is the torus unit, and u and v are the Kac-Moody torus units.
Symbolic presentations carry the schemas.  The relators of a concrete
presentation (a finite ring) are the specialisations of the schemas, one per
binding of their parameters to ring elements (instance_domains, instances);
verify counts and enumerates instances through the same two functions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, groupby, product, repeat
from typing import NamedTuple

from . import diagrams, rings
from .diagrams import GeneralizedCartanMatrix


SCHEMA_RING = rings.parse_descriptor("Z[r^+-1][t][u^+-1][v^+-1]")
_NAMES = SCHEMA_RING.names  # ("r", "t", "u", "v")
_VARIABLE = {name: rings.parse_element(SCHEMA_RING, name) for name in _NAMES}


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


def _mono(k: int, *factors: rings.RingElement) -> rings.RingElement:
    """k times the product of the factors."""
    out = rings.from_int(factors[0].desc, k)
    for f in factors:
        out = out * f
    return out


def _schemas(a, nodes, include_torus, include_km_torus):
    """One schema per relation family on the nodes, with parameters in
    SCHEMA_RING."""
    r, t, u, v = _VARIABLE.values()
    one = rings.one(SCHEMA_RING)
    for i in nodes:
        yield Relator(
            "additivity", (i,), (("t", t), ("u", u)),
            word(X(i, t), X(i, u)),
            word(X(i, t + u)),
        )
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
            yield Relator(
                "s2-on-x", (i, j), (("t", t),),
                word(S(i), S(i), X(j, t), (S(i), -1), (S(i), -1)),
                word(X(j, _mono(sign, t))),
            )

    for i, j in combinations(nodes, 2):
        m = diagrams.coxeter_order(a, i, j)
        if m is not diagrams.INFINITE:
            yield from _edge_families(a, i, j, m, t, u)

    if include_torus:
        for i in nodes:
            h = htilde(i, r)
            for j in nodes:
                aij = a.rows[i][j]
                sj, sj_inv, xt = word(S(j)), word((S(j), -1)), word(X(j, t))
                yield Relator(
                    "torus-action-1", (i, j), (("r", r), ("t", t)),
                    h + xt + winv(h),
                    word(X(j, rings.power(r, aij) * t)),
                )
                yield Relator(
                    "torus-action-2", (i, j), (("r", r), ("t", t)),
                    h + sj + xt + sj_inv + winv(h),
                    sj + word(X(j, rings.power(r, -aij) * t)) + sj_inv,
                )

    if include_km_torus:
        for i in nodes:
            yield Relator(
                "torus", (i,), (("u", u), ("v", v)),
                htilde(i, u) + htilde(i, v),
                htilde(i, _mono(1, u, v)),
            )


def _alternating(x: int, y: int, length: int) -> Word:
    """S_x S_y S_x ..., with length letters."""
    return word(*(S((x, y)[k % 2]) for k in range(length)))


def _commuting(family, nodes, params, a: Word, b: Word) -> Relator:
    """The family a b = b a."""
    return Relator(family, nodes, params, a + b, b + a)


def _edge_families(a, i, j, m, t, u):
    """The families of the edge (i, j) of order m.  Artin-m is the braid
    relation; for m != 3, interaction-m says that the braid of length m - 1
    commutes with X_y(t)."""
    tu = (("t", t), ("u", u))
    yield Relator(f"artin-{m}", (i, j), (), _alternating(i, j, m), _alternating(j, i, m))
    for x, y in ((i, j), (j, i)):
        if m != 3:
            yield _commuting(f"interaction-{m}", (x, y), (("t", t),),
                             _alternating(x, y, m - 1), word(X(y, t)))
            continue
        yield Relator(
            "interaction-3", (x, y), (("t", t),),
            word(S(y), S(x), X(y, t)),
            word(X(x, t), S(y), S(x)),
        )
        yield _commuting("chevalley-3-close", (x, y), tu,
                         word(X(x, t)), conj(word(S(x)), word(X(y, u))))
        yield Relator(
            "chevalley-3-distant", (x, y), tu,
            commutator_word(word(X(x, t)), word(X(y, u))),
            conj(word(S(x)), word(X(y, _mono(1, t, u)))),
        )
    if m == 2:
        yield _commuting("chevalley-2", (i, j), tu, word(X(i, t)), word(X(j, u)))
    if m < 4:
        return

    s, l = _short_long(a, i, j)
    ws, wl = word(S(s)), word(S(l))
    wsl, wls = word(S(s), S(l)), word(S(l), S(s))

    if m == 4:
        yield _commuting("chevalley-4-close", (s, l), tu,
                         conj(ws, word(X(l, t))), conj(wl, word(X(s, u))))
        yield _commuting("chevalley-4-orthogonal-long", (s, l), tu,
                         word(X(l, t)), conj(ws, word(X(l, u))))
        yield Relator(
            "chevalley-4-orthogonal-short", (s, l), tu,
            commutator_word(word(X(s, t)), conj(wl, word(X(s, u)))),
            conj(ws, word(X(l, _mono(-2, t, u)))),
        )
        yield Relator(
            "chevalley-4-distant", (s, l), tu,
            commutator_word(word(X(s, t)), word(X(l, u))),
            conj(wl, word(X(s, _mono(-1, t, u))))
            + conj(ws, word(X(l, _mono(1, t, t, u)))),
        )
        return

    # m == 6
    yield _commuting("chevalley-6-close-long", (s, l), tu,
                     word(X(l, t)), conj(wls, word(X(l, u))))
    yield _commuting("chevalley-6-adjacent", (s, l), tu,
                     conj(wsl, word(X(s, t))), conj(wls, word(X(l, u))))
    yield _commuting("chevalley-6-orthogonal", (s, l), tu,
                     conj(ws, word(X(l, t))), conj(wl, word(X(s, u))))
    yield Relator(
        "chevalley-6-distant-long", (s, l), tu,
        commutator_word(word(X(l, t)), conj(ws, word(X(l, u)))),
        conj(wls, word(X(l, _mono(1, t, u)))),
    )
    yield Relator(
        "chevalley-6-close-short", (s, l), tu,
        commutator_word(word(X(s, t)), conj(wsl, word(X(s, u)))),
        conj(ws, word(X(l, _mono(3, t, u)))),
    )
    yield Relator(
        "chevalley-6-distant-short", (s, l), tu,
        commutator_word(word(X(s, t)), conj(wl, word(X(s, u)))),
        conj(wsl, word(X(s, _mono(-2, t, u))))
        + conj(ws, word(X(l, _mono(-3, t, t, u))))
        + conj(wls, word(X(l, _mono(-3, t, u, u)))),
    )
    yield Relator(
        "chevalley-6-distant", (s, l), tu,
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
    values = [_VARIABLE["t"]] if symbolic else list(rings.elements(ring))
    return tuple([S(i) for i in nodes] + [X(i, t) for i in nodes for t in values])


def relators_for(
    a: GeneralizedCartanMatrix,
    ring: rings.RingDescriptor,
    options: PresentationOptions = PresentationOptions(),
) -> Presentation:
    """Every relation-family instance of the presentation on the diagram:
    over a finite ring the instances of the schemas, over any other ring the
    schemas themselves (the symbolic form)."""
    torus = options.include_torus_action
    if torus is None:
        torus = not diagrams.two_spherical_no_a1(a)
    schemas = _schemas(a, range(a.rank), torus, options.include_kacmoody_torus)
    return _presentation(a, ring, list(schemas))


def amalgam(
    a: GeneralizedCartanMatrix,
    ring: rings.RingDescriptor,
    include_kacmoody_torus: bool = False,
) -> Presentation:
    """Union of the presentations of all rank-1 and rank-2 subdiagrams, with
    generators identified across subdiagrams by node label.  The torus-action
    families never appear here: the amalgamated presentation is the direct
    limit one, in which they are consequences."""
    pieces = [(i,) for i in range(a.rank)] + list(combinations(range(a.rank), 2))
    schemas = dict.fromkeys(
        schema for nodes in pieces
        for schema in _schemas(a, nodes, False, include_kacmoody_torus)
    )
    return _presentation(a, ring, list(schemas))


def _presentation(a, ring, schemas: list) -> Presentation:
    """The presentation with the schemas as relators, or over a finite ring
    their instances, in relator order."""
    symbolic = not _is_finite_ring(ring)
    rels = schemas if symbolic else [
        rel for schema, values in zip(schemas, instance_domains(a, ring, schemas))
        for rel in instances(ring, schema, values)]
    return Presentation(a, ring, symbolic, _generators(ring, symbolic, range(a.rank)),
                        tuple(_sorted_relators(rels)))


# ---------------------------------------------------------------------------
# instances over a finite ring


def instance_domains(a: GeneralizedCartanMatrix, ring: rings.RingDescriptor, schemas) -> list:
    """The value lists of the parameters of each schema over the finite ring
    (_domains): a family's instance count is the product of their sizes.
    Refuses a diagram with an m = infinity edge, on which no relation family
    exists."""
    if any(diagrams.coxeter_order(a, i, j) is diagrams.INFINITE
           for i, j in combinations(range(a.rank), 2)):
        raise rings.UnsupportedModelError("no relation family exists for an m = infinity edge")
    units, elements = rings.units(ring), list(rings.elements(ring))
    return [_domains(schema, units, elements) for schema in schemas]


def _domains(schema: Relator, units: list, elements: list) -> list:
    """The values of each parameter of a schema: the units for the torus unit
    r and the Kac-Moody torus units u and v, every element otherwise.

    Checks the precondition of specialisation (see instances): every
    parameter is the variable of its name, every variable of a letter is a
    parameter, and only a unit parameter has a negative exponent."""
    domains = {}
    for name, value in schema.params:
        if value != _VARIABLE[name]:
            raise ValueError(f"{schema.family}: parameter {name} is not the variable {name}")
        domains[name] = units if name == "r" or schema.family == "torus" else elements
    for gen, _ in schema.left + schema.right:
        support, terms = _polynomial(gen.param) if gen.kind == "X" else ((), ())
        for _, monomial in terms:
            for k, e in monomial:
                name = _NAMES[support[k]]
                if name not in domains or e < 0 and domains[name] is not units:
                    raise ValueError(f"{schema.family}: {name}^{e} in {gen.render()} lacks a value")
    return list(domains.values())


def instances(ring: rings.RingDescriptor, schema: Relator, domains: list) -> list:
    """The concrete relators of a schema over the finite ring, one per
    binding of its parameters to their values, in binding order.

    Each is the schema specialised: r, t, u, v go to the bound residues.
    Specialisation is a ring homomorphism from the polynomials whose negative
    exponents are of variables bound to units, which _domains checks.  Each
    distinct X letter is specialised once per residues of the parameters it
    reads, to a bound value where there is one: the rendering cache then
    finds it by identity."""
    names = [name for name, _ in schema.params]
    letters = list(dict.fromkeys(schema.left + schema.right))
    index = {letter: k for k, letter in enumerate(letters)}
    left, right = ([index[letter] for letter in w] for w in (schema.left, schema.right))
    n, residues = ring.params[0], [[value.data for value in values] for values in domains]
    bound = {value.data: value for values in domains for value in values}
    columns = []
    for gen, exp in letters:
        if gen.kind == "S":
            columns.append(repeat((gen, exp)))
            continue
        # the letter's column lists its instance for every binding, in
        # binding order: a table over the residues of the parameters it
        # reads, looked up along the product of the domains with the other
        # parameters masked to None
        support, terms = _polynomial(gen.param)
        reads = [names.index(_NAMES[j]) for j in support]
        axes = [r if k in reads else [None] for k, r in enumerate(residues)]
        table = {}
        for key in product(*axes):
            value = sum(c * math.prod([pow(key[reads[k]], e, n) for k, e in monomial])
                        for c, monomial in terms) % n
            table[key] = (X(gen.node, bound.get(value) or rings.from_int(ring, value)), exp)
        keys = product(*[r if k in reads else [None] * len(r) for k, r in enumerate(residues)])
        columns.append(map(table.__getitem__, keys))
    return [Relator(schema.family, schema.nodes, tuple(zip(names, values)),
                    tuple(map(row.__getitem__, left)), tuple(map(row.__getitem__, right)))
            for values, row in zip(product(*domains), zip(*columns))]


@lru_cache(maxsize=None)
def _polynomial(p: rings.RingElement) -> tuple:
    """(support, terms) of p in the schema ring: support the positions in
    _NAMES of its variables, and terms ((c, ((k, e), ...)), ...) its terms
    c * prod x_k^e, k indexing support."""
    support = tuple(j for j in range(len(_NAMES)) if any(exps[j] for exps, _ in p.data))
    return support, tuple((c, tuple((k, exps[j]) for k, j in enumerate(support) if exps[j]))
                          for exps, c in p.data)


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
    from .jsonout import dumps

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
    return dumps(payload) + "\n"


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
