"""References and conveniences that only the tests use.

The package holds only code that the command line reaches.  What the tests
need beyond it lives here: the independent references that the tests
compare the package against (the geometric and Weyl-search prenilpotence
criteria, evaluation by substitution, the native-format parser, the dense
adjoint matrix, the covering oracle's submatrix), and small wrappers over
the package (the prebuilt catalog, loop models, products and overrides in
the collection engine).  `test_surface.py` keeps them out of the package.
"""

from __future__ import annotations

from functools import lru_cache

from steinberg import collection, diagrams, loopmodel, rings
from steinberg import roots as R
from steinberg.collection import CaseData, NilpotentRootSet, NormalProduct
from steinberg.diagrams import DiagramClass, GeneralizedCartanMatrix
from steinberg.presentation import SCHEMA_RING, Presentation, Relator, S, X

# ---------------------------------------------------------------------------
# diagrams


def submatrix(a: GeneralizedCartanMatrix, nodes) -> GeneralizedCartanMatrix:
    nodes = tuple(nodes)
    return GeneralizedCartanMatrix(tuple(tuple(a.rows[i][j] for j in nodes) for i in nodes))


@lru_cache(maxsize=None)
def catalog(max_rank: int = 12) -> tuple[tuple[DiagramClass, GeneralizedCartanMatrix], ...]:
    """All irreducible finite and affine diagrams up to the given node count."""
    classes = diagrams._catalog_classes(max_rank)
    return tuple((cls, diagrams._catalog_matrix(cls)) for cls in classes)


# ---------------------------------------------------------------------------
# rings


def substitute(a: rings.RingElement, assignment: dict) -> rings.RingElement:
    """Evaluate an element of a polynomial or Laurent ring by substituting
    ring elements for its variables.

    The result lives in the ring of the substituted values; integer
    coefficients are mapped there canonically, residues only into their own
    ring.  A variable needs a value only where its exponent is nonzero, and
    a unit where it is negative.
    """
    if not assignment:
        raise ValueError("substitute needs at least one value")
    ring = next(iter(assignment.values())).desc
    if any(v.desc != ring for v in assignment.values()):
        raise ValueError("substituted values must share one ring")
    desc = a.desc
    if desc == ring:
        return a
    if desc.modulus is not None and desc.scalar != ring:
        raise ValueError(f"cannot map {desc.scalar} coefficients into {ring}")
    total = rings.zero(ring)
    for exps, c in a.data if desc.names else [((), a.data)]:
        term = rings.from_int(ring, c)
        for name, e in zip(desc.names, exps):
            if e:
                if name not in assignment:
                    raise ValueError(f"no value given for {name!r}")
                term = term * rings.power(assignment[name], e)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# roots: the two references of classify_pair's prenilpotence


def prenilpotent_geometric(ars: R.AffineRootSystem, a: R.AffineRoot, b: R.AffineRoot) -> bool:
    """Euclidean criterion: bounding hyperplanes non-parallel, or parallel
    with one open halfspace containing the other."""
    if a not in ars or b not in ars:
        raise ValueError("roots must lie in the system")
    q = R._proportionality(a.coords, b.coords)
    if q is None:
        return True  # hyperplanes cross: chambers on all four sides exist
    # parallel: halfspace of (coords, m) is {x : (coords, x) + m > 0}; for
    # b = (q*abar, m_b) the halfspace is {(abar, x) > -m_b/q}, same direction
    # as a's iff q > 0, in which case one threshold interval contains the other.
    return q[0] > 0


def prenilpotent_by_weyl_search(
    ars: R.AffineRootSystem, a: R.AffineRoot, b: R.AffineRoot, max_length: int = 8
):
    """Search the affine Weyl group for witnesses making both roots positive
    and both negative.  Returns True when both witnesses are found within the
    word-length bound and None otherwise (inconclusive: the bound was reached
    first); it never returns False."""
    simples = R.simple_affine_roots(ars)
    seen = {(a, b)}
    frontier = [(a, b)]
    found_pos = ars.positive(a) and ars.positive(b)
    found_neg = not ars.positive(a) and not ars.positive(b)
    for _ in range(max_length):
        nxt = []
        for x, y in frontier:
            for s in simples:
                img = (R.reflect(ars, x, s), R.reflect(ars, y, s))
                if img in seen:
                    continue
                seen.add(img)
                nxt.append(img)
                if ars.positive(img[0]) and ars.positive(img[1]):
                    found_pos = True
                if not ars.positive(img[0]) and not ars.positive(img[1]):
                    found_neg = True
                if found_pos and found_neg:
                    return True
        frontier = nxt
    return True if (found_pos and found_neg) else None


# ---------------------------------------------------------------------------
# chevalley


def adjoint_matrix(basis, gamma) -> tuple[tuple[int, ...], ...]:
    """Matrix of ad e_gamma on (h_1..h_r, e_delta...); columns act on basis.
    The dense form of the first divided power."""
    mat = [[0] * basis.dim for _ in range(basis.dim)]
    for (row, col), value in basis.divided_powers(gamma)[1].items():
        mat[row][col] = value
    return tuple(tuple(row) for row in mat)


# ---------------------------------------------------------------------------
# presentation: the native format read back


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


# ---------------------------------------------------------------------------
# collection


def with_tables(nrs: NilpotentRootSet, tables: dict) -> NilpotentRootSet:
    """The same set with other commutator tables."""
    return NilpotentRootSet(nrs.ars, nrs.roots, tables, nrs.commuting, nrs.names)


def multiply(nrs: NilpotentRootSet, a: NormalProduct, b: NormalProduct) -> NormalProduct:
    return collection.normal_product(nrs, list(a.factors) + list(b.factors))


def commutator(nrs: NilpotentRootSet, a: NormalProduct, b: NormalProduct) -> NormalProduct:
    word = (
        list(a.factors)
        + list(b.factors)
        + collection.inverse_word(a.factors)
        + collection.inverse_word(b.factors)
    )
    return collection.normal_product(nrs, word)


def override_coefficient(case: CaseData, pair_names: tuple[str, str], value: int) -> CaseData:
    """Copy a configuration with one single-entry table coefficient replaced
    (used by the negative controls)."""
    by_name = {case.nrs.name(r): r for r in case.nrs.roots}
    key = (by_name[pair_names[0]], by_name[pair_names[1]])
    if key not in case.nrs.tables or len(case.nrs.tables[key]) != 1:
        raise ValueError("override expects a single-entry table")
    g, _, ij = case.nrs.tables[key][0]
    tables = dict(case.nrs.tables)
    tables[key] = ((g, value, ij),)
    return case._replace(nrs=with_tables(case.nrs, tables))


# ---------------------------------------------------------------------------
# loop models


def build_model(a, ring: rings.RingDescriptor) -> loopmodel.LoopModel:
    if isinstance(a, str):
        a = diagrams.parse_diagram(a)
    return loopmodel.LoopModel(a, ring)


def model_for_system(ars: R.AffineRootSystem, ring: rings.RingDescriptor) -> loopmodel.LoopModel:
    """Model over a given affine system, keeping its own simple-root order."""
    a = diagrams.affine_cartan(ars.cls)
    return loopmodel.LoopModel(a, ring, ars=ars, node_map={i: i for i in range(a.rank)})
