"""Finite and affine real root systems.

Roots are integer coordinate vectors in the simple-root basis of the finite
part, paired with an integer level for the affine systems.  All arithmetic is
exact; proportionality tests are done over the integers, never with floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import diagrams
from .diagrams import DiagramClass, GeneralizedCartanMatrix

_CLOSURE_CAP = 1200


class AffineRoot(NamedTuple):
    coords: tuple[int, ...]
    level: int


def _vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _vec_scale(k, x):
    return tuple(k * a for a in x)


# --------------------------------------------------------------------------
# finite systems


@dataclass(frozen=True)
class FiniteRootSystem:
    cartan: GeneralizedCartanMatrix
    family: str | None
    roots: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]  # symmetrizer: (alpha_i, alpha_j) = d_i A_ij
    nonreduced: bool = False

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
    def _norm_names(self) -> dict[int, str]:
        """Root norm -> length class name."""
        norms = sorted({self.norm(r) for r in self.roots})
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
        return {r: names[self.norm(r)] for r in self.roots}

    def form(self, x, y) -> int:
        total = 0
        for xi, row in zip(x, self._gram):
            if xi:
                for yj, bij in zip(y, row):
                    if yj:
                        total += xi * yj * bij
        return total

    def norm(self, x) -> int:
        return self.form(x, x)

    def pairing(self, x, y) -> int:
        """<x^vee, y> = 2 (x,y) / (x,x); always an integer for roots x."""
        value, remainder = divmod(2 * self.form(x, y), self.norm(x))
        if remainder:
            raise ValueError(f"non-integral pairing of {x} and {y}")
        return value

    def combine(self, i: int, x, j: int, y) -> tuple[int, ...]:
        """i x + j y."""
        return tuple(i * a + j * b for a, b in zip(x, y))

    def reflect(self, x, in_root) -> tuple[int, ...]:
        return self.combine(1, x, -self.pairing(in_root, x), in_root)

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

    def length_classes(self) -> dict:
        return dict(self._norm_names)

    def highest_root(self) -> tuple[int, ...]:
        return max(self.roots, key=lambda r: (self.height(r), r))

    def highest_short_root(self) -> tuple[int, ...]:
        shortest = self._norm_names[min(self._norm_names)]
        return max(
            (r for r, name in self._length_of.items() if name == shortest),
            key=lambda r: (self.height(r), r),
        )


def _symmetrizer(a: GeneralizedCartanMatrix) -> tuple[int, ...]:
    n = a.rank
    d: list[Fraction | None] = [None] * n
    for comp in a.components():
        d[comp[0]] = Fraction(1)
        queue = [comp[0]]
        while queue:
            i = queue.pop()
            for j in range(n):
                if a.rows[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * a.rows[i][j] / a.rows[j][i]
                    queue.append(j)
    for i in range(n):
        for j in range(n):
            if d[i] * a.rows[i][j] != d[j] * a.rows[j][i]:
                raise ValueError("Cartan matrix is not symmetrizable")
    lcm = 1
    for x in d:
        lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in d]
    g = 0
    for x in ints:
        g = _gcd(g, x)
    return tuple(x // g for x in ints)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def enumerate_finite_roots(a: GeneralizedCartanMatrix, family: str | None = None) -> FiniteRootSystem:
    """All roots as the closure of the simple roots under simple reflections."""
    n = a.rank
    d = _symmetrizer(a)
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
        if len(roots) > _CLOSURE_CAP:
            raise ValueError("reflection closure did not stay finite; not finite type")
        frontier = nxt
    roots |= {tuple(-c for c in r) for r in roots}
    return FiniteRootSystem(a, family, tuple(sorted(roots)), d)


@lru_cache(maxsize=None)
def _finite_system(family: str, n: int) -> FiniteRootSystem:
    return enumerate_finite_roots(diagrams.finite_cartan(family, n), family)


def _b_or_a1(n: int) -> FiniteRootSystem:
    # B_1 degenerates to A_1; needed for the rank-one BC tower
    if n == 1:
        return _finite_system("A", 1)
    return _finite_system("B", n)


@lru_cache(maxsize=None)
def _bc_system(n: int) -> FiniteRootSystem:
    """Non-reduced BC_n: the B_n roots plus the doubles of the short roots."""
    b = _b_or_a1(n)
    short_norm = min(b.norm(r) for r in b.roots)
    doubles = {_vec_scale(2, r) for r in b.roots if b.norm(r) == short_norm}
    roots = tuple(sorted(set(b.roots) | doubles))
    return FiniteRootSystem(b.cartan, "BC", roots, b.d, nonreduced=True)


# --------------------------------------------------------------------------
# affine systems


@dataclass(frozen=True)
class AffineRootSystem:
    cls: DiagramClass
    finite: FiniteRootSystem  # carries the projections (BC_n for the odd case)
    phi0: FiniteRootSystem  # level-zero subsystem (B_n for the odd case)

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

    def level_condition(self, coords, level: int) -> bool:
        return self.finite.length_class(coords) != "long" or self._long_level_ok(level)

    def __contains__(self, root: AffineRoot) -> bool:
        name = self.finite._length_of.get(tuple(root.coords))
        return name is not None and (name != "long" or self._long_level_ok(root.level))

    def positive(self, root: AffineRoot) -> bool:
        if root.level != 0:
            return root.level > 0
        return self.finite.positive(root.coords)

    def pairing(self, x: AffineRoot, y: AffineRoot) -> int:
        return self.finite.pairing(x.coords, y.coords)

    def combine(self, i: int, x: AffineRoot, j: int, y: AffineRoot) -> AffineRoot:
        """i x + j y."""
        return AffineRoot(self.finite.combine(i, x.coords, j, y.coords), i * x.level + j * y.level)

    def length_class(self, root: AffineRoot) -> str:
        return self.finite.length_class(root.coords)


def affine_system(label) -> AffineRootSystem:
    """Build the real-root system of an affine label (string or DiagramClass)."""
    cls = diagrams.parse_label(label) if isinstance(label, str) else label
    if not cls.is_affine:
        raise ValueError(f"{cls} is not affine")
    if cls.superscript == "odd":
        phi0 = _b_or_a1(cls.n)
        finite = _bc_system(cls.n)
    else:
        finite = _finite_system(cls.family, cls.n)
        phi0 = finite
    return AffineRootSystem(cls, finite, phi0)


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
    """Simple roots of the level-zero subsystem plus the distinguished last
    root at level one (lowest root, twice the lowest short root, or lowest
    short root, according to the superscript)."""
    simples = [
        AffineRoot(ars.phi0.simple(i), 0) for i in range(ars.phi0.rank)
    ]
    if ars.superscript is None:
        extra = _vec_scale(-1, ars.phi0.highest_root())
    elif ars.superscript == "odd":
        extra = _vec_scale(-2, ars.phi0.highest_short_root())
    else:
        extra = _vec_scale(-1, ars.phi0.highest_short_root())
    last = AffineRoot(extra, 1)
    assert last in ars
    return simples + [last]


def real_roots_up_to_level(ars: AffineRootSystem, bound: int) -> list[AffineRoot]:
    out = [
        AffineRoot(coords, m)
        for coords in ars.finite.roots
        for m in range(-bound, bound + 1)
        if ars.level_condition(coords, m)
    ]
    return sorted(out)


def reflect(ars: AffineRootSystem, x: AffineRoot, in_root: AffineRoot) -> AffineRoot:
    """Image of x under the reflection in `in_root` (affine action)."""
    if x not in ars or in_root not in ars:
        raise ValueError("reflect requires roots of the system")
    image = ars.combine(1, x, -ars.pairing(in_root, x), in_root)
    assert image in ars
    return image


# --------------------------------------------------------------------------
# pair classification (prenilpotent but not classically prenilpotent pairs)


@dataclass(frozen=True)
class PairClassification:
    kind: str  # "equal" | "classical" | "nonclassical" | "not-prenilpotent"
    case: int | None = None
    witnesses: tuple[AffineRoot, AffineRoot] | None = None


def _proportionality(x, y) -> Fraction | None:
    """q with y = q*x, or None if independent."""
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] * y[j] != x[j] * y[i]:
                return None
    for i in range(n):
        if x[i]:
            return Fraction(y[i], x[i])
    raise ValueError("zero vector is not a root")


def prenilpotent_geometric(ars: AffineRootSystem, a: AffineRoot, b: AffineRoot) -> bool:
    """Euclidean criterion: bounding hyperplanes non-parallel, or parallel
    with one open halfspace containing the other."""
    if a not in ars or b not in ars:
        raise ValueError("roots must lie in the system")
    q = _proportionality(a.coords, b.coords)
    if q is None:
        return True  # hyperplanes cross: chambers on all four sides exist
    # parallel: halfspace of (coords, m) is {x : (coords, x) + m > 0}; for
    # b = (q*abar, m_b) the halfspace is {(abar, x) > -m_b/q}, same direction
    # as a's iff q > 0, in which case one threshold interval contains the other.
    return q > 0


def classify_pair(ars: AffineRootSystem, a: AffineRoot, b: AffineRoot) -> PairClassification:
    if a not in ars or b not in ars:
        raise ValueError("roots must lie in the system")
    if a == b:
        return PairClassification("equal")
    q = _proportionality(a.coords, b.coords)
    if q is None:
        return PairClassification("classical")
    if q < 0:
        return PairClassification("not-prenilpotent")
    family = ars.cls.family
    if q != 1:
        if family != "BC":
            raise ValueError("proportional non-equal projections need BC type")
        alpha, beta = (a, b) if q == 2 else (b, a)
        return PairClassification("nonclassical", 5, _witness(ars, _witness_case5, alpha, beta))
    length = ars.finite.length_class(a.coords)
    if family in ("A", "D", "E"):
        if family == "A" and ars.finite.rank < 2:
            raise ValueError("case analysis needs affine rank >= 3 or BC type")
        return PairClassification("nonclassical", 1, _witness(ars, _witness_case1, a, b))
    if family == "G":
        if length == "long":
            return PairClassification("nonclassical", 1, _witness(ars, _witness_case1, a, b))
        return PairClassification("nonclassical", 4, _witness(ars, _witness_case4, a, b))
    if family in ("B", "C", "F"):
        if length == "long":
            return PairClassification("nonclassical", 2, _witness(ars, _witness_case2, a, b))
        return PairClassification("nonclassical", 3, _witness(ars, _witness_case3, a, b))
    if family == "BC":
        if length == "long":
            return PairClassification("nonclassical", 2, _witness(ars, _witness_case2, a, b))
        if length == "middling":
            return PairClassification("nonclassical", 3, _witness(ars, _witness_case3, a, b))
        case = 6 if ars.combine(1, a, 1, b) in ars else 7
        return PairClassification("nonclassical", case, _witness(ars, _witness_case67, a, b))
    raise ValueError(f"unsupported family {family!r}")


def _witness(ars, finder, a, b):
    """Auxiliary roots for a case, or None when the finite part is too small
    to host the configuration (only the rank-one BC tower)."""
    if ars.finite.rank < 2:
        return None
    return finder(ars, a, b)


def _levels(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def _lift(ars, beta: AffineRoot, xbar, ybar, cx: int):
    """Lifts (x, y) with x over xbar, y over ybar and cx*x + y = beta."""
    span = abs(beta.level) + 4
    for k in _levels(span):
        x = AffineRoot(xbar, k)
        if x not in ars:
            continue
        y = ars.combine(1, beta, -cx, x)
        if y in ars:
            return x, y
    # second attempt: choose the y lift first and divide for x
    for k in _levels(span):
        y = AffineRoot(ybar, k)
        if y not in ars:
            continue
        lvl = beta.level - k
        if lvl % cx:
            continue
        x = AffineRoot(xbar, lvl // cx)
        if x in ars:
            return x, y
    raise ValueError("no lift found (level span exhausted)")


def _witness_case1(ars, alpha, beta):
    phi = ars.finite
    abar = alpha.coords
    for gbar in phi.roots:
        dbar = _vec_sub(beta.coords, gbar)
        if dbar not in phi:
            continue
        if _proportionality(gbar, abar) is not None:
            continue
        if _vec_add(abar, gbar) in phi or _vec_add(abar, dbar) in phi:
            continue
        try:
            return _lift(ars, beta, gbar, dbar, 1)
        except ValueError:
            continue
    raise ValueError("no case-1 witness found")


def _witness_case2(ars, alpha, beta):
    phi = ars.finite
    abar = alpha.coords
    for sbar in phi.roots:
        lbar = _vec_sub(beta.coords, _vec_scale(2, sbar))
        if lbar not in phi:
            continue
        if _vec_add(sbar, lbar) not in phi:
            continue
        bad = (
            _vec_add(abar, sbar) in phi
            or _vec_add(abar, lbar) in phi
            or _vec_add(abar, _vec_add(sbar, lbar)) in phi
        )
        if bad:
            continue
        try:
            return _lift(ars, beta, sbar, lbar, 2)
        except ValueError:
            continue
    raise ValueError("no case-2 witness found")


def _witness_case3(ars, alpha, beta):
    """Case 3: sigma + lambda = beta inside a B_2 configuration, with the
    alpha-interactions limited to the sigma direction."""
    phi = ars.finite
    abar = alpha.coords
    for sbar in phi.roots:
        lbar = _vec_sub(beta.coords, sbar)
        if lbar not in phi:
            continue
        if _vec_add(_vec_scale(2, sbar), lbar) not in phi:
            continue
        if _vec_add(abar, lbar) in phi:
            continue
        if _vec_add(abar, _vec_add(_vec_scale(2, sbar), lbar)) in phi:
            continue
        try:
            return _lift(ars, beta, sbar, lbar, 1)
        except ValueError:
            continue
    raise ValueError("no case-3 witness found")


def _witness_case4(ars, alpha, beta):
    """Case 4: beta = sigma + lambda with sigma short and lambda long in G_2."""
    phi = ars.finite
    for sbar in phi.roots:
        if phi.length_class(sbar) != "short":
            continue
        lbar = _vec_sub(beta.coords, sbar)
        if lbar not in phi or phi.length_class(lbar) != "long":
            continue
        try:
            return _lift(ars, beta, sbar, lbar, 1)
        except ValueError:
            continue
    raise ValueError("no case-4 witness found")


def _witness_case5(ars, alpha, beta):
    phi = ars.finite
    abar = alpha.coords
    for mbar in phi.roots:
        lbar = _vec_sub(beta.coords, _vec_scale(2, mbar))
        if lbar not in phi:
            continue
        if _vec_add(mbar, lbar) not in phi:
            continue
        bad = (
            _vec_add(abar, mbar) in phi
            or _vec_add(abar, lbar) in phi
            or _vec_add(abar, _vec_add(mbar, lbar)) in phi
        )
        if bad:
            continue
        try:
            return _lift(ars, beta, mbar, lbar, 2)
        except ValueError:
            continue
    raise ValueError("no case-5 witness found")


def _witness_case67(ars, alpha, beta):
    phi = ars.finite
    abar = alpha.coords
    for sbar in phi.roots:
        mbar = _vec_sub(beta.coords, sbar)
        if mbar not in phi:
            continue
        if _vec_add(_vec_scale(2, sbar), mbar) not in phi:
            continue
        if _vec_add(abar, sbar) not in phi:
            continue
        bad = (
            _vec_add(abar, mbar) in phi
            or _vec_add(abar, _vec_scale(2, sbar)) in phi
            or _vec_add(abar, _vec_add(_vec_scale(2, sbar), mbar)) in phi
        )
        if bad:
            continue
        try:
            mu_sigma = _lift(ars, beta, sbar, mbar, 1)
            return mu_sigma[1], mu_sigma[0]  # report as (mu, sigma)
        except ValueError:
            continue
    raise ValueError("no case-6/7 witness found")


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


def prenilpotent_by_weyl_search(
    ars: AffineRootSystem, a: AffineRoot, b: AffineRoot, max_length: int = 8
):
    """Search the affine Weyl group for witnesses making both roots positive
    and both negative.  Returns True when both witnesses are found within the
    word-length bound and None otherwise (inconclusive: the bound was reached
    first); it never returns False."""
    simples = simple_affine_roots(ars)
    seen = {(a, b)}
    frontier = [(a, b)]
    found_pos = ars.positive(a) and ars.positive(b)
    found_neg = not ars.positive(a) and not ars.positive(b)
    for _ in range(max_length):
        nxt = []
        for x, y in frontier:
            for s in simples:
                img = (reflect(ars, x, s), reflect(ars, y, s))
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
