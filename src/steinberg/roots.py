"""Finite and affine real root systems.

Roots are integer coordinate vectors in the simple-root basis of the finite
part, paired with an integer level for the affine systems.  All arithmetic is
exact; proportionality tests are done over the integers, never with floats.

`classify_pair` sorts a prenilpotent pair that is not classically
prenilpotent into one of the cases 1-7 of the paper's argument.  Each case's
auxiliary roots x, y satisfy c x + y = beta, and the top root i x + j y of the
case's display is a root; `_WITNESS_CASES` holds (c, (i, j)) per case, and
one search reads it.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import NamedTuple

from . import diagrams, rings
from .diagrams import GeneralizedCartanMatrix


class AffineRoot(NamedTuple):
    coords: tuple[int, ...]
    level: int


def _vec_add(x, y):
    return tuple(map(add, x, y))


def _vec_sub(x, y):
    return tuple(map(sub, x, y))


def _vec_scale(k, x):
    return tuple(k * a for a in x)


# --------------------------------------------------------------------------
# finite systems


class FiniteRootSystem(rings.Record):
    """The roots of a finite Cartan matrix (or BC_n, nonreduced), as a sorted
    tuple of coordinate tuples.  A Record; ``d`` is the symmetrizer,
    (alpha_i, alpha_j) = d_i A_ij."""

    _fields = ("cartan", "roots", "d", "nonreduced")

    @cached_property
    def _coroot_rows(self) -> dict:
        """Root coords -> (<x^vee, alpha_j>)_j, filled by pairing."""
        return {}

    @cached_property
    def _reflections(self) -> dict:
        """(in_root, x) -> (reflected x, <in_root^vee, x>), filled by _reflection."""
        return {}

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def simple(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def __contains__(self, coords) -> bool:
        return tuple(coords) in self._length_of

    @cached_property
    def _gram(self) -> tuple[tuple[int, ...], ...]:
        """(alpha_i, alpha_j) = d_i A_ij, an integer matrix."""
        return tuple(
            tuple(di * aij for aij in row) for di, row in zip(self.d, self.cartan.rows)
        )

    @cached_property
    def _norms(self) -> dict[tuple[int, ...], int]:
        """Root coords -> (x, x), so that norms of roots skip the form."""
        return {r: self.form(r, r) for r in self.roots}

    @cached_property
    def _norm_names(self) -> dict[int, str]:
        """Root norm -> length class name."""
        norms = sorted(set(self._norms.values()))
        if len(norms) == 1:
            names = ["long"]
        elif len(norms) == 2:
            names = ["short", "long"]
        elif len(norms) == 3:
            names = ["short", "middling", "long"]
        else:
            raise ValueError("more than three root lengths")
        return dict(zip(norms, names))

    @cached_property
    def _length_of(self) -> dict[tuple[int, ...], str]:
        """Root coords -> length class name; also the membership table."""
        names = self._norm_names
        return {r: names[norm] for r, norm in self._norms.items()}

    def form(self, x, y) -> int:
        total = 0
        for xi, row in zip(x, self._gram):
            if xi:
                for yj, bij in zip(y, row):
                    if yj:
                        total += xi * yj * bij
        return total

    def norm(self, x) -> int:
        norm = self._norms.get(tuple(x))
        return norm if norm is not None else self.form(x, x)

    def pairing(self, x, y) -> int:
        """<x^vee, y> = 2 (x,y) / (x,x); always an integer for roots x.

        For a root x this is sum_j y_j <x^vee, alpha_j>, from the row of x,
        kept once it is first used; any other x divides the form."""
        x = tuple(x)
        row = self._coroot_rows.get(x)
        if row is None:
            if x not in self._length_of:
                return self._divided_pairing(x, y)
            row = self._coroot_rows[x] = tuple(
                self._divided_pairing(x, self.simple(j)) for j in range(self.rank))
        return sum(map(mul, y, row))

    def _divided_pairing(self, x, y) -> int:
        value, remainder = divmod(2 * self.form(x, y), self.norm(x))
        if remainder:
            raise ValueError(f"non-integral pairing of {x} and {y}")
        return value

    def combine(self, i: int, x, j: int, y) -> tuple[int, ...]:
        """i x + j y."""
        return tuple(i * a + j * b for a, b in zip(x, y))

    def _reflection(self, x, in_root) -> tuple:
        """(x - p in_root, p) for p = <in_root^vee, x>: the image of x under
        the reflection in in_root, kept per pair."""
        found = self._reflections.get((in_root, x))
        if found is None:
            p = self.pairing(in_root, x)
            found = self._reflections[in_root, x] = (self.combine(1, x, -p, in_root), p)
        return found

    def positive(self, x) -> bool:
        return any(c > 0 for c in x)

    def height(self, x) -> int:
        return sum(x)

    def positive_roots(self) -> list[tuple[int, ...]]:
        return sorted(
            (r for r in self.roots if self.positive(r)),
            key=lambda r: (self.height(r), r),
        )

    def length_class(self, x) -> str:
        name = self._length_of.get(tuple(x))
        return name if name is not None else self._norm_names[self.norm(x)]


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den as a coprime pair (p, q) with q > 0."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _symmetrizer(a: GeneralizedCartanMatrix) -> tuple[int, ...]:
    n = a.rank
    d: list[tuple[int, int] | None] = [None] * n  # d_i as a ratio (p, q)
    for comp in a.components():
        d[comp[0]] = (1, 1)
        queue = [comp[0]]
        while queue:
            i = queue.pop()
            p, q = d[i]
            for j in range(n):
                if a.rows[i][j] != 0 and i != j and d[j] is None:
                    d[j] = _ratio(p * a.rows[i][j], q * a.rows[j][i])
                    queue.append(j)
    for i in range(n):
        for j in range(n):
            (pi, qi), (pj, qj) = d[i], d[j]
            if pi * a.rows[i][j] * qj != pj * a.rows[j][i] * qi:
                raise ValueError("Cartan matrix is not symmetrizable")
    lcm = math.lcm(*(q for _, q in d))
    ints = [p * (lcm // q) for p, q in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def enumerate_finite_roots(a: GeneralizedCartanMatrix) -> FiniteRootSystem:
    """All roots as the closure of the simple roots under simple reflections."""
    n = a.rank
    d = _symmetrizer(a)
    # no finite system of rank n has more roots.  An irreducible one of rank k
    # has at most 2 k^2 + 14 k: A_k to D_k have at most 2 k^2, and E_6, E_7,
    # E_8, F_4, G_2 have 72, 126, 240, 48, 12 (E_8 meets the bound).  The
    # bound adds up over the components of a reducible system.
    cap = 2 * n * n + 14 * n
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                pair = sum(a.rows[i][j] * r[j] for j in range(n))
                img = tuple(
                    c - pair if j == i else c for j, c in enumerate(r)
                )
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        if len(roots) > cap:
            raise ValueError("reflection closure did not stay finite; not finite type")
        frontier = nxt
    roots |= {tuple(-c for c in r) for r in roots}
    return FiniteRootSystem(a, tuple(sorted(roots)), d, False)


@lru_cache(maxsize=None)
def _finite_system(family: str, n: int) -> FiniteRootSystem:
    return enumerate_finite_roots(diagrams.finite_cartan(family, n))


@lru_cache(maxsize=None)
def _bc_system(n: int) -> FiniteRootSystem:
    """Non-reduced BC_n: the B_n roots (A_1 for n = 1) and their short doubles."""
    b = _finite_system("A" if n == 1 else "B", n)
    short_norm = min(b.norm(r) for r in b.roots)
    doubles = {_vec_scale(2, r) for r in b.roots if b.norm(r) == short_norm}
    roots = tuple(sorted(set(b.roots) | doubles))
    return FiniteRootSystem(b.cartan, roots, b.d, True)


# --------------------------------------------------------------------------
# affine systems


class AffineRootSystem(rings.Record):
    """The real roots of an affine diagram class; ``root in ars`` is root
    membership.  A Record of the fields below.

    ``finite`` carries the projections (BC_n for the odd case, with the
    simple roots of its level-zero subsystem B_n)."""

    _fields = ("cls", "finite")

    @property
    def superscript(self) -> str | None:
        return self.cls.superscript

    def _long_level_ok(self, level: int) -> bool:
        """Whether a long root of the finite part has a lift at this level."""
        if self.superscript is None:
            return True
        if self.superscript == "even":
            return level % 2 == 0
        if self.superscript == "odd":
            return level % 2 == 1
        return level % 3 == 0  # 0mod3

    def __contains__(self, root: AffineRoot) -> bool:
        name = self.finite._length_of.get(tuple(root.coords))
        return name is not None and (name != "long" or self._long_level_ok(root.level))

    def positive(self, root: AffineRoot) -> bool:
        if root.level != 0:
            return root.level > 0
        return self.finite.positive(root.coords)

    def combine(self, i: int, x: AffineRoot, j: int, y: AffineRoot) -> AffineRoot:
        """i x + j y."""
        return AffineRoot(self.finite.combine(i, x.coords, j, y.coords), i * x.level + j * y.level)


def affine_system(label) -> AffineRootSystem:
    """Build the real-root system of an affine label (string or DiagramClass)."""
    cls = diagrams.parse_label(label) if isinstance(label, str) else label
    if not cls.is_affine:
        raise ValueError(f"{cls} is not affine")
    if cls.superscript == "odd":
        return AffineRootSystem(cls, _bc_system(cls.n))
    return AffineRootSystem(cls, _finite_system(cls.family, cls.n))


def affine_system_for_matrix(a: GeneralizedCartanMatrix):
    """Recognize an affine Cartan matrix and return (system, node_map) where
    node_map[user node] = index into simple_affine_roots."""
    cls, perm = diagrams.classify_with_map(a)
    if not cls.is_affine:
        raise ValueError("matrix is not an affine diagram")
    ars = affine_system(cls)
    node_map = {perm[i]: i for i in range(len(perm))}
    return ars, node_map


def simple_affine_roots(ars: AffineRootSystem) -> list[AffineRoot]:
    """Simple roots of the level-zero subsystem (BC_n has those of B_n), then
    alpha_0 = delta - c beta at level one, with beta and c from the label's
    recipe (diagrams.affine_recipe): the lowest root, twice the lowest short
    root, or the lowest short root, according to the superscript."""
    _, beta, _, c = diagrams.affine_recipe(ars.cls)
    last = AffineRoot(_vec_scale(-c, beta), 1)
    assert last in ars
    return [AffineRoot(ars.finite.simple(i), 0) for i in range(ars.finite.rank)] + [last]


def real_roots_up_to_level(ars: AffineRootSystem, bound: int) -> list[AffineRoot]:
    out = [
        root
        for coords in ars.finite.roots
        for m in range(-bound, bound + 1)
        if (root := AffineRoot(coords, m)) in ars
    ]
    return sorted(out)


def reflect(ars: AffineRootSystem, x: AffineRoot, in_root: AffineRoot) -> AffineRoot:
    """Image of x under the reflection in `in_root` (affine action): the
    finite image of the projections, kept per pair by the finite system, at
    the level shifted by the same multiple of in_root's."""
    if x not in ars or in_root not in ars:
        raise ValueError("reflect requires roots of the system")
    coords, p = ars.finite._reflection(tuple(x.coords), tuple(in_root.coords))
    image = AffineRoot(coords, x.level - p * in_root.level)
    assert image in ars
    return image


# --------------------------------------------------------------------------
# pair classification (prenilpotent but not classically prenilpotent pairs)


class PairClassification(NamedTuple):
    kind: str  # "equal" | "classical" | "nonclassical" | "not-prenilpotent"
    case: int | None = None
    witnesses: tuple[AffineRoot, AffineRoot] | None = None


def _proportionality(x, y) -> tuple[int, int] | None:
    """y = (p/q) x as the coprime pair (p, q) with q > 0, or None if
    independent."""
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] * y[j] != x[j] * y[i]:
                return None
    for i in range(n):
        if x[i]:
            return _ratio(y[i], x[i])
    raise ValueError("zero vector is not a root")


def classify_pair(ars: AffineRootSystem, a: AffineRoot, b: AffineRoot) -> PairClassification:
    if a not in ars or b not in ars:
        raise ValueError("roots must lie in the system")
    if a == b:
        return PairClassification("equal")
    q = _proportionality(a.coords, b.coords)
    if q is None:
        return PairClassification("classical")
    if q[0] < 0:
        return PairClassification("not-prenilpotent")
    family = ars.cls.family
    length = ars.finite.length_class(a.coords)
    beta = a if q == (1, 2) else b  # case 5: the root over twice the other
    if q != (1, 1):
        if family != "BC":
            raise ValueError("proportional non-equal projections need BC type")
        case = 5
    elif family in ("A", "D", "E"):
        if family == "A" and ars.finite.rank < 2:
            raise ValueError("case analysis needs affine rank >= 3 or BC type")
        case = 1
    elif family == "G":
        case = 1 if length == "long" else 4
    elif family in ("B", "C", "F") or (family == "BC" and length != "short"):
        case = 2 if length == "long" else 3
    elif family == "BC":
        case = 6 if ars.combine(1, a, 1, b) in ars else 7
    else:
        raise ValueError(f"unsupported family {family!r}")
    return PairClassification("nonclassical", case, _witnesses(ars, case, beta))


# case -> (c, (i, j)): the witnesses x, y of a case satisfy c x + y = beta,
# and the top root of the case's display, i x + j y, is a root: x + y = beta
# (case 1), sigma + lambda (2, 5), 2 sigma + lambda (3), 3 sigma + lambda (4),
# 2 sigma + mu (6, 7; reported as (mu, sigma)).  The display's other clauses
# follow: gamma not proportional to alpha (1), sigma short, lambda long (4),
# alpha + sigma a root (6, 7), and alpha + v not a root for v = x, y (1);
# x, y, x + y (2, 5); y, 2x + y (3); y, 2x, 2x + y (6, 7).  All of these lie
# in the plane of alpha and xbar (ybar = beta - c xbar, beta = alpha or 2
# alpha), whose roots form a system of rank <= 2.  Two roots of a classical
# family involve at most 4 epsilon coordinates, so each such plane occurs at
# rank <= 4, and the census of tests/test_roots.py over A2-A6, B2-B5, C2-C5,
# D3-D6, E6-E8, F4, G2 and BC2-BC5 is exhaustive: there the one root accepts
# exactly the candidates that the full display accepts.
_WITNESS_CASES = {1: (1, (1, 1)), 2: (2, (1, 1)), 3: (1, (2, 1)), 4: (1, (3, 1)),
                  5: (2, (1, 1)), 6: (1, (2, 1)), 7: (1, (2, 1))}


def _witnesses(ars, case: int, beta: AffineRoot):
    """The auxiliary roots of a case, lifted from the first root xbar that
    _WITNESS_CASES admits; None in the rank-one BC tower (too small for it)."""
    phi = ars.finite
    if phi.rank < 2:
        return None
    c, (i, j) = _WITNESS_CASES[case]
    for xbar in phi.roots:
        ybar = phi.combine(1, beta.coords, -c, xbar)
        if ybar not in phi or phi.combine(i, xbar, j, ybar) not in phi:
            continue
        try:
            x, y = _lift(ars, beta, xbar, c)
        except ValueError:
            continue
        return (y, x) if case in (6, 7) else (x, y)
    raise ValueError(f"no case-{case} witness found")


def _lift(ars, beta: AffineRoot, xbar, cx: int):
    """Lifts (x, y) with x over xbar and y = beta - cx*x, both roots, with x
    at the first of the levels 0, 1, -1 that admits them.

    No other level can be needed.  Whether the lift at level k is a pair of
    roots depends only on k mod p, where p = 1, 2 or 3 is the period of
    _long_level_ok: a long root needs level 0 mod p for the even and 0mod3
    labels and 1 mod 2 for the odd ones, and any level otherwise, and y's
    level is beta.level - cx*k.  The levels 0, 1, -1 meet every residue mod
    p, so the first valid level of 0, 1, -1, 2, -2, ... is among them, and
    lifting y first and dividing for x finds no residue class they miss."""
    for k in (0, 1, -1):
        x = AffineRoot(xbar, k)
        y = ars.combine(1, beta, -cx, x)
        if x in ars and y in ars:
            return x, y
    raise ValueError("no lift found")


# --------------------------------------------------------------------------
# root strings


_COMBINATION_BOUND = 4  # longest finite root string (G_2) has coefficients <= 3


def root_combinations(system, x, y, lowest: int = 1):
    """(i, j, i x + j y) for lowest <= i, j <= 4, (i, j) != (0, 0), with
    i x + j y a root of `system` (a finite or an affine root system).  With
    lowest = 1 these are the roots of a commutator [x_x(t), x_y(u)]."""
    return [
        (i, j, gamma)
        for i in range(lowest, _COMBINATION_BOUND + 1)
        for j in range(lowest, _COMBINATION_BOUND + 1)
        if (i or j) and (gamma := system.combine(i, x, j, y)) in system
    ]


def string_length(system, x, y) -> int:
    """p = max k with y - k x a root of `system`; |N(x, y)| = p + 1."""
    p = 0
    while system.combine(1, y, -(p + 1), x) in system:
        p += 1
    return p


def theta(ars: AffineRootSystem, a: AffineRoot, b: AffineRoot) -> set[AffineRoot]:
    """(N a + N b) intersected with the root system; requires a prenilpotent
    pair (for the others the set is infinite)."""
    kind = classify_pair(ars, a, b).kind
    if kind == "not-prenilpotent":
        raise ValueError("theta is infinite for this pair")
    return {gamma for _, _, gamma in root_combinations(ars, a, b, lowest=0)}


# --------------------------------------------------------------------------
# JSON export


def root_json(ars: AffineRootSystem, root: AffineRoot) -> dict:
    return {
        "coords": list(root.coords),
        "level": root.level,
        "length": ars.finite.length_class(root.coords),
    }


def classification_json(ars, a: AffineRoot, b: AffineRoot) -> dict:
    c = classify_pair(ars, a, b)
    out = {
        "alpha": root_json(ars, a),
        "beta": root_json(ars, b),
        "kind": c.kind,
    }
    if c.case is not None:
        out["case"] = c.case
    if c.witnesses is not None:
        out["witnesses"] = [root_json(ars, w) for w in c.witnesses]
    return out
