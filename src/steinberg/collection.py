"""Symbolic collection in unipotent subgroups spanned by finitely many root
groups, and mechanical replays of the commutation arguments for prenilpotent
pairs that are not classically prenilpotent: the seven cases of the paper's
argument, and case 8, the 0mod3 variant of case 4.

A `NilpotentRootSet` fixes finitely many affine roots, a total order graded
by height in the case generators, and an integer commutator table per
interacting pair.  Words are collected to the ordered normal form by adjacent
swaps; corrections carry strictly larger grades, so collection terminates.

`CASES` declares each case once, as the paper displays it: its diagram, three
generators, every other root by name and decomposition over the generators,
its relations and the expansion of X_beta(u), all written with root names.
A display that two cases share is declared once: case 8 refers to case 4's
four-term relation and expansion, case 7 to case 6's (sigma, mu), (alpha,
sigma) and (sigma, beta) relations and expansion.
`case_configuration` builds every case from its declaration.  An untwisted
case draws its tables from the finite Chevalley constants, with a sign
choice solved to match the displayed relations.  A non-reduced or mod-3 case
declares its whole table: the displayed relations and the few remaining
entries, whose magnitudes come from root strings and whose signs are the
only ones that make collection associative; the configuration checks that
associativity when it is built.  The pair (alpha, beta) under scrutiny never
receives a table entry: its relation is exactly what a replay derives, and
`verdict` names it: COMMUTE, CONSTANT C=n for one factor X_gamma(n t u) (the
constant of case 4 under each sign choice), or NONTRIVIAL.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from . import chevalley, rings
from . import roots as R
from .roots import AffineRoot

_COLLECT_CAP = 500_000


class ConfigurationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# nilpotent root sets and the collection engine


class NilpotentRootSet(rings.Record):
    """Finitely many affine roots in collection order, with the commutator
    table of each interacting pair.  A Record of the fields below.

    ``tables``: (x, y) -> ((root, int, (i, j)), ...); ``commuting``: the
    frozensets {x, y} with empty commutator; ``names``: root -> display name.
    """

    _fields = ("ars", "roots", "tables", "commuting", "names")
    __hash__ = None  # the tables are dicts

    @cached_property
    def positions(self) -> dict:
        """Root -> its place in the collection order."""
        return {r: k for k, r in enumerate(self.roots)}

    def order(self, root: AffineRoot) -> int:
        return self.positions[root]

    def name(self, root: AffineRoot) -> str:
        return self.names.get(root, str(root))

    def commutator_word(self, x: AffineRoot, cx, y: AffineRoot, cy):
        """[x_x(cx), x_y(cy)] as a list of letters, in table order."""
        if x == y:
            return []
        if frozenset((x, y)) in self.commuting:
            return []
        if (x, y) in self.tables:
            return _corrections(self.tables[(x, y)], cx, cy)
        if (y, x) in self.tables:
            forward = _corrections(self.tables[(y, x)], cy, cx)
            return [(g, -c) for g, c in reversed(forward)]
        raise ConfigurationError(
            f"required commutator coefficient missing for pair "
            f"({self.name(x)}, {self.name(y)})"
        )


def _corrections(table, a, b) -> list:
    """(gamma, n a^i b^j) for each entry (gamma, n, (i, j)) of a commutator
    table, with each power of a and of b taken once."""
    powers_a = _powers(a, max((i for _, _, (i, _) in table), default=0))
    powers_b = _powers(b, max((j for _, _, (_, j) in table), default=0))
    return [(g, (powers_a[i] * powers_b[j]).scale(n)) for g, n, (i, j) in table]


def _powers(c, top: int) -> list:
    """[1, c, c^2, ..., c^top]."""
    out = [rings.one(c.desc), c]
    while len(out) <= top:
        out.append(out[-1] * c)
    return out


def collect(nrs: NilpotentRootSet, letters) -> tuple:
    """Deterministic collection of a word to the ordered normal form.

    Each step applies the first applicable rewrite: drop a zero letter, merge
    two letters of one root, or swap an out-of-order pair with its commutator
    correction.  A rewrite at position k leaves the letters before k alone,
    and none of the pairs before k - 1 had one to apply, so the next scan
    resumes at k - 1: the same rewrites as a rescan from the start, in the
    same order and the same number of steps."""
    word = list(letters)
    pos = nrs.positions
    steps = k = 0
    while True:
        steps += 1
        if steps > _COLLECT_CAP:
            raise ConfigurationError("collection did not terminate")
        while k < len(word):
            root, c = word[k]
            if c.is_zero():
                del word[k]
                break
            if k + 1 < len(word):
                r2, c2 = word[k + 1]
                if r2 == root:
                    word[k] = (root, c + c2)
                    del word[k + 1]
                    break
                if pos[root] > pos[r2]:
                    corr = nrs.commutator_word(root, c, r2, c2)
                    word[k : k + 2] = corr + [(r2, c2), (root, c)]
                    break
            k += 1
        else:
            return tuple(word)
        k = max(k - 1, 0)


def inverse_word(letters):
    return [(r, -c) for r, c in reversed(letters)]


class NormalProduct(rings.Record):
    """A product of root-group letters in the collection order of ``nrs``,
    with no zero coefficient.  A Record of the fields nrs and factors."""

    _fields = ("nrs", "factors")
    __hash__ = None  # the root set's tables are dicts

    def __init__(self, nrs: NilpotentRootSet, factors: tuple):
        last = -1
        for root, coeff in factors:
            k = nrs.order(root)
            if k <= last:
                raise ValueError("factors must be strictly increasing in the set order")
            last = k
            if coeff.is_zero():
                raise ValueError("zero coefficients are not stored")
        super().__init__(nrs, factors)

    def is_empty(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(f"X_{{{self.nrs.name(r)}}}({c})" for r, c in self.factors)


def normal_product(nrs: NilpotentRootSet, letters) -> NormalProduct:
    return NormalProduct(nrs, collect(nrs, letters))


# ---------------------------------------------------------------------------
# configuration scaffolding


def _build_nrs(ars, ordered, tables, names, excluded_pairs):
    """Finish a configuration of roots in collection order: mark commuting
    pairs, check closure and table coverage."""
    rootset = set(ordered)
    for x in ordered:
        for y in ordered:
            if x != y:
                s = ars.combine(1, x, 1, y)
                if s in ars and s not in rootset:
                    raise ConfigurationError(f"set is not closed: missing {s}")
    for pair, entries in tables.items():
        for g, _, _ in entries:
            if g not in rootset:
                raise ConfigurationError(f"table for {pair} leaves the set at {g}")
    commuting = set()
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            key = frozenset((a, b))
            if (a, b) in tables or (b, a) in tables or key in excluded_pairs:
                continue
            if R.root_combinations(ars, a, b):
                raise ConfigurationError(f"no table for interacting pair {a}, {b}")
            commuting.add(key)
    return NilpotentRootSet(ars, ordered, dict(tables), frozenset(commuting), dict(names))


class CaseData(NamedTuple):
    """A replay setup: the pair (alpha, beta), the expansion of X_beta(u) as a
    word in the other root groups, and the nilpotent root set carrying every
    relation the argument is allowed to use.

    The expansion is a sequence of items, each a plain letter
    ("x", (root, fn)) or a commutator ("comm", (root1, fn1), (root2, fn2));
    keeping the commutator structure matters, because conjugation respects it
    (the inverse half of a conjugated commutator is the free inverse of the
    conjugated first half)."""

    nrs: NilpotentRootSet
    alpha: AffineRoot
    beta: AffineRoot
    expansion: tuple
    signs: dict
    finite_basis: object | None


# ---------------------------------------------------------------------------
# untwisted configurations: tables from oriented Chevalley constants


def _chevalley_affine_table(basis, a, b, interior_order):
    """Commutator table of an untwisted affine pair, lifted from the finite
    constants, with the interior roots produced in the given order."""
    fin = basis.commutator_table(a.coords, b.coords, order=[g.coords for g in interior_order])
    out = []
    for (gcoords, n, (i, j)), g in zip(fin, interior_order):
        assert gcoords == g.coords
        out.append((g, n, (i, j)))
    return out


def _untwisted_tables(ars, basis, ordered, signs, excluded_pairs):
    """The table of every interacting pair of roots in collection order but
    the excluded ones, with the interior roots in collection order too."""
    position = {r: k for k, r in enumerate(ordered)}
    tables = {}
    for ai, a in enumerate(ordered):
        for b in ordered[ai + 1 :]:
            if frozenset((a, b)) in excluded_pairs:
                continue
            interiors = sorted(
                (g for _, _, g in R.root_combinations(ars, a, b)), key=position.__getitem__
            )
            if not interiors:
                continue
            raw = _chevalley_affine_table(basis, a, b, interiors)
            tables[(a, b)] = tuple(chevalley.apply_signs(raw, signs, a, b))
    return tables


def _solve_display_orientation(basis, targets):
    """Every choice of signs per affine root achieving the displayed tables.

    `targets`: dict pair -> list of (root, coeff, (i, j)) in display order.
    """
    raw_tables = {
        (a, b): _chevalley_affine_table(basis, a, b, [g for g, _, _ in want])
        for (a, b), want in targets.items()
    }
    try:
        return chevalley.solve_orientation(raw_tables, targets)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


# ---------------------------------------------------------------------------
# the associativity check of the twisted configurations


def _interesting_triples(nrs, probe_roots):
    interacting = set()
    for a, b in nrs.tables:
        interacting.add(frozenset((a, b)))
    out = []
    for x in probe_roots:
        for y in probe_roots:
            for z in probe_roots:
                pairs = [frozenset((x, y)), frozenset((x, z)), frozenset((y, z))]
                if any(p in interacting for p in pairs):
                    out.append((x, y, z))
    return out


def _associativity_holds(nrs, triples, coeffs) -> bool:
    """Whether x y z, (x y) z and x (y z) collect alike for every triple.
    `collect` depends only on its word, so each distinct word of the check
    is collected once."""
    collected = {}

    def normal(word: tuple) -> tuple:
        out = collected.get(word)
        if out is None:
            out = collected[word] = collect(nrs, word)
        return out

    a, b, c = coeffs
    try:
        for x, y, z in triples:
            whole = normal(((x, a), (y, b), (z, c)))
            left = normal(normal(((x, a), (y, b))) + ((z, c),))
            right = normal(((x, a),) + normal(((y, b), (z, c))))
            if not (whole == left == right):
                return False
    except ConfigurationError:
        return False
    return True


def _associative(nrs, probe_exclude) -> bool:
    """Whether collection in nrs is associative on every interacting triple
    of roots outside probe_exclude, for two integer coefficient triples and
    the symbolic one (a, b, c)."""
    zint = rings.integers()
    coeffs = [tuple(rings.from_int(zint, v) for v in vals) for vals in ((2, 3, 5), (-7, 11, -13))]
    sym_desc = rings.polynomial_ring(zint, ("a", "b", "c"))
    coeffs.append(tuple(rings.variable(sym_desc, v) for v in ("a", "b", "c")))
    triples = _interesting_triples(nrs, [r for r in nrs.roots if r not in probe_exclude])
    return all(_associativity_holds(nrs, triples, cs) for cs in coeffs)


# ---------------------------------------------------------------------------
# the case configurations


class CaseDeclaration(NamedTuple):
    """One case of the argument as the paper displays it, with named roots.

    ``generators``: name -> (coords, level) for the three generators, alpha
    first.  ``roots``: name -> decomposition over the generators for every
    other root, beta included; it fixes the root, and it orders the set by
    grade, then by decomposition.  ``relations``: (name, name) -> entries
    (name, n, (i, j)); for an untwisted case the displayed relations, which
    choose the signs of the Chevalley constants, for a twisted case the whole
    table.  ``expansion``: the displayed expression of X_beta(u), with root
    names in place of roots.  ``epsilons``: (name, name, n) for each pair
    whose single constant n the parameters eps and eps_prime scale."""

    label: str
    generators: dict
    roots: dict
    relations: dict
    expansion: tuple
    epsilons: tuple = ()


# the coefficients u and 1 of the expansions' letters
def _u(u):
    return u


def _one(u):
    return rings.one(u.desc)


# the displays that case 8 shares with case 4, and case 7 with case 6
_SIGMA_LAMBDA = (  # the four-term relation, in its displayed order
    ("2*sigma+lambda", 1, (2, 1)),
    ("beta", -1, (1, 1)),
    ("3*sigma+lambda", 1, (3, 1)),
    ("3*sigma+2*lambda", -1, (3, 2)),
)
_G2_EXPANSION = (
    ("x", ("3*sigma+lambda", _u)),
    ("x", ("3*sigma+2*lambda", lambda u: -(u * u))),
    ("comm", ("lambda", _u), ("sigma", _one)),
    ("x", ("2*sigma+lambda", _u)),
)
_SIGMA_MU = {
    ("sigma", "mu"): (("beta", -1, (1, 1)), ("2*sigma+mu", 1, (2, 1))),
    # the displayed relation is [X_alpha(t), X_sigma(u)] = X(-2tu)
    ("alpha", "sigma"): (("alpha+sigma", -2, (1, 1)),),
    # the remaining entry, magnitude 2 from the sigma-string
    ("sigma", "beta"): (("2*sigma+mu", -2, (1, 1)),),
}
_BC_EXPANSION = (("x", ("2*sigma+mu", _u)), ("comm", ("mu", _u), ("sigma", _one)))


CASES = {
    1: CaseDeclaration(
        "A~2",
        {"alpha": ((1, 1), 0), "gamma": ((1, 0), 0), "delta": ((0, 1), 1)},
        {"beta": (0, 1, 1)},
        {("gamma", "delta"): (("beta", 1, (1, 1)),)},
        (("comm", ("gamma", _u), ("delta", _one)),),
    ),
    2: CaseDeclaration(
        "B~2",
        {"alpha": ((1, 2), 0), "sigma": ((1, 1), 0), "lambda": ((-1, 0), 1)},
        {"sigma+lambda": (0, 1, 1), "beta": (0, 2, 1)},
        {("sigma", "lambda"): (("sigma+lambda", -1, (1, 1)), ("beta", 1, (2, 1)))},
        (("x", ("sigma+lambda", _u)), ("comm", ("sigma", _one), ("lambda", _u))),
    ),
    3: CaseDeclaration(
        "B~2",
        {"alpha": ((0, 1), 0), "sigma": ((1, 1), 0), "lambda": ((-1, 0), 1)},
        {"beta": (0, 1, 1), "2*sigma+lambda": (0, 2, 1), "alpha+sigma": (1, 1, 0)},
        {("sigma", "lambda"): (("beta", -1, (1, 1)), ("2*sigma+lambda", 1, (2, 1)))},
        (("comm", ("sigma", _one), ("lambda", lambda u: -u)), ("x", ("2*sigma+lambda", _u))),
    ),
    4: CaseDeclaration(
        "G~2",
        {"alpha": ((1, 1), 0), "sigma": ((1, 0), 0), "lambda": ((0, 1), 1)},
        {
            "beta": (0, 1, 1), "alpha+sigma": (1, 1, 0), "2*sigma+lambda": (0, 2, 1),
            "alpha+2*sigma": (1, 2, 0), "2*alpha+sigma": (2, 1, 0),
            "3*sigma+lambda": (0, 3, 1), "alpha+2*sigma+lambda": (1, 2, 1),
            "3*sigma+2*lambda": (0, 3, 2),
        },
        {
            ("sigma", "lambda"): _SIGMA_LAMBDA,
            ("alpha", "2*sigma+lambda"): (("alpha+2*sigma+lambda", 3, (1, 1)),),
            ("sigma", "alpha"): (
                ("alpha+sigma", -2, (1, 1)),
                ("alpha+2*sigma", -3, (2, 1)),
                ("2*alpha+sigma", -3, (1, 2)),
            ),
        },
        _G2_EXPANSION,
        # the displayed signs pin both constants; eps and eps_prime scale them
        (("sigma", "alpha+sigma", 3), ("lambda", "alpha+2*sigma", 1)),
    ),
    5: CaseDeclaration(
        "BC~2^odd",
        {"alpha": ((1, 1), 0), "mu": ((1, 0), 0), "lambda": ((0, 2), 1)},
        {"mu+lambda": (0, 1, 1), "beta": (0, 2, 1)},
        {
            ("mu", "lambda"): (("mu+lambda", -1, (1, 1)), ("beta", 1, (2, 1))),
            # the remaining entry, magnitude 2 from the mu-string
            ("mu", "mu+lambda"): (("beta", -2, (1, 1)),),
        },
        (("x", ("mu+lambda", _u)), ("comm", ("mu", _one), ("lambda", _u))),
    ),
    6: CaseDeclaration(
        "BC~2^odd",
        {"alpha": ((1, 1), 0), "sigma": ((0, 1), 1), "mu": ((1, 0), 0)},
        {
            "beta": (0, 1, 1), "alpha+sigma": (1, 1, 0), "2*sigma+mu": (0, 2, 1),
            "alpha+beta": (1, 1, 1),
        },
        {**_SIGMA_MU, ("mu", "alpha+sigma"): (("alpha+beta", -2, (1, 1)),)},
        _BC_EXPANSION,
    ),
    7: CaseDeclaration(
        "BC~2^odd",
        {"alpha": ((1, 1), 0), "sigma": ((0, 1), 2), "mu": ((1, 0), 0)},
        {"beta": (0, 1, 1), "alpha+sigma": (1, 1, 0), "2*sigma+mu": (0, 2, 1)},
        _SIGMA_MU,
        _BC_EXPANSION,
    ),
    # the 0mod3 variant of case 4
    8: CaseDeclaration(
        "G~2^0mod3",
        {"alpha": ((1, 1), 0), "sigma": ((1, 0), 1), "lambda": ((0, 1), 0)},
        {
            "beta": (0, 1, 1), "alpha+sigma": (1, 1, 0), "2*sigma+lambda": (0, 2, 1),
            "3*sigma+lambda": (0, 3, 1), "3*sigma+2*lambda": (0, 3, 2),
        },
        {
            ("sigma", "lambda"): _SIGMA_LAMBDA,
            # altered short-root relation: single term with coefficient 1
            ("sigma", "alpha"): (("alpha+sigma", 1, (1, 1)),),
            # the remaining entries: magnitudes p + 1 from the root strings;
            # a (2, 1) or (1, 2) term has half the product of the
            # magnitudes of its two single steps
            ("sigma", "beta"): (
                ("2*sigma+lambda", -2, (1, 1)),
                ("3*sigma+lambda", -3, (2, 1)),
                ("3*sigma+2*lambda", -3, (1, 2)),
            ),
            ("sigma", "2*sigma+lambda"): (("3*sigma+lambda", 3, (1, 1)),),
            ("lambda", "3*sigma+lambda"): (("3*sigma+2*lambda", 1, (1, 1)),),
            ("beta", "2*sigma+lambda"): (("3*sigma+2*lambda", 3, (1, 1)),),
        },
        _G2_EXPANSION,
    ),
}

CASE_IDS = tuple(CASES)


def _resolve_roots(case: CaseDeclaration) -> tuple[R.AffineRootSystem, dict]:
    """The case's system, and name -> root for every root of the case, in
    collection order."""
    ars = R.affine_system(case.label)
    a, b, c = (AffineRoot(*g) for g in case.generators.values())
    units = dict(zip(case.generators, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    decompositions = sorted((units | case.roots).items(), key=lambda kv: (sum(kv[1]), kv[1]))
    root = {}
    for name, (i, j, k) in decompositions:
        root[name] = ars.combine(1, ars.combine(i, a, j, b), k, c)
        if root[name] not in ars:
            raise ConfigurationError(f"{name} is not a root of {case.label}")
    return ars, root


def _resolve_relations(root: dict, relations: dict) -> dict:
    """Relations written with root names, as tables over the roots."""
    return {
        (root[x], root[y]): tuple((root[g], n, ij) for g, n, ij in entries)
        for (x, y), entries in relations.items()
    }


@lru_cache(maxsize=None)
def case_configuration(case_id: int, eps: int = 1, eps_prime: int = 1) -> CaseData:
    """The replay setup of a case.  An untwisted case takes the Chevalley
    constants under the first sign choice that reaches its displayed
    relations; a twisted case takes its declared table, and collection in it
    must be associative."""
    if case_id not in CASES:
        raise ValueError(f"unknown case id {case_id}")
    case = CASES[case_id]
    if not case.epsilons and (eps, eps_prime) != (1, 1):
        raise ValueError("sign parameters apply to case 4 only")
    if eps not in (1, -1) or eps_prime not in (1, -1):
        raise ValueError("sign parameters must be +1 or -1")
    ars, root = _resolve_roots(case)
    alpha, beta = root["alpha"], root["beta"]
    excluded = frozenset({frozenset((alpha, beta))})
    ordered = tuple(root.values())
    tables = _resolve_relations(root, case.relations)
    if ars.superscript is None:
        basis = chevalley.build_chevalley_basis(ars.finite)
        signs = _solve_display_orientation(basis, tables)[0]
        tables = _untwisted_tables(ars, basis, ordered, signs, excluded)
        for (x, y, n), factor in zip(case.epsilons, (eps, eps_prime)):
            ((g, m, ij),) = tables[root[x], root[y]]
            assert m == n
            tables[root[x], root[y]] = ((g, factor * m, ij),)
    else:
        basis, signs = None, {}
    nrs = _build_nrs(ars, ordered, tables, {r: name for name, r in root.items()}, excluded)
    if basis is None and not _associative(nrs, {alpha}):
        raise ConfigurationError(f"case {case_id}: collection is not associative")
    expansion = tuple(
        (kind, *((root[name], fn) for name, fn in letters)) for kind, *letters in case.expansion
    )
    return CaseData(nrs, alpha, beta, expansion, signs, basis)


# ---------------------------------------------------------------------------
# replay


def expansion_word(case: CaseData, u: rings.RingElement):
    word = []
    for kind, *letters in case.expansion:
        values = [(root, fn(u)) for root, fn in letters]
        if kind == "comm":
            values += [(root, -c) for root, c in values]
        word += values
    return word


def replay(case: CaseData) -> NormalProduct:
    """Collected value of [X_alpha(t), X_beta(u)], with X_beta expanded by the
    case's displayed expression.  The (alpha, beta) table is never consulted:
    alpha is eliminated by conjugating the expansion item by item.  A
    commutator item conjugates as the commutator of the conjugated halves, so
    its inverse half is the free inverse of the conjugated word."""
    desc = rings.polynomial_ring(rings.integers(), ("t", "u"))
    t = rings.variable(desc, "t")
    u = rings.variable(desc, "u")

    def conj_letter(root, coeff):
        return case.nrs.commutator_word(case.alpha, t, root, coeff) + [(root, coeff)]

    conjugated = []
    for kind, *letters in case.expansion:
        halves = [conj_letter(root, fn(u)) for root, fn in letters]
        if kind == "comm":
            halves += [inverse_word(half) for half in halves]
        for half in halves:
            conjugated += half
    return normal_product(case.nrs, conjugated + inverse_word(expansion_word(case, u)))


def replay_case(case_id: int, eps: int = 1, eps_prime: int = 1) -> NormalProduct:
    return replay(case_configuration(case_id, eps, eps_prime))


def verdict(result: NormalProduct) -> str:
    if result.is_empty():
        return "COMMUTE"
    if len(result.factors) == 1:
        _, coeff = result.factors[0]
        data = coeff.data
        if len(data) == 1 and data[0][0] == (1, 1):
            return f"CONSTANT C={data[0][1]}"
    return "NONTRIVIAL"
