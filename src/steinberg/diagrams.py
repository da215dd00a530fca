"""Generalized Cartan matrices and Dynkin diagram recognition.

Recognition works by graph-isomorphism against a generated catalog of the
finite and affine diagrams (the affine ones are produced from their
simple-root recipes, affine_recipe, by affine_cartan, with no root system
built; roots.simple_affine_roots reads alpha_0 from the same recipe).  It is
rank-local: only catalog entries with as many nodes as the input are built,
one at a time in catalog order until one matches, so the first match and
its node permutation are those of a scan over the full catalog.  The tests
still build and check the full catalog.  Also houses the Coxeter edge orders, the
affine naming table, and the hypothesis checks for finite presentability.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache
from typing import NamedTuple

INFINITE = math.inf

# canonical representatives of the duplicated diagrams: A~3 = D~3,
# C~2 = B~2, B~2^even = C~2^even (same convention as the usual tables),
# and finite A_3 = D_3, B_2 = C_2.
_SKIP_IN_CATALOG = {("B", 2, None, True), ("D", 3, None, True),
                    ("C", 2, "even", True), ("C", 2, None, False),
                    ("D", 3, None, False)}


class GeneralizedCartanMatrix(NamedTuple):
    rows: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def submatrix(self, nodes) -> "GeneralizedCartanMatrix":
        nodes = tuple(nodes)
        return GeneralizedCartanMatrix(
            tuple(tuple(self.rows[i][j] for j in nodes) for i in nodes),
            tuple(self.labels[i] for i in nodes),
        )

    def components(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        comps = []
        for start in range(self.rank):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(self.rank):
                    if j not in seen and self.rows[i][j] != 0:
                        seen.add(j)
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return comps


def gcm(rows, labels=None) -> GeneralizedCartanMatrix:
    """Validate and freeze a generalized Cartan matrix."""
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("Cartan matrix must be square")
    for i in range(n):
        if rows[i][i] != 2:
            raise ValueError(f"diagonal entry ({i},{i}) must be 2")
        for j in range(n):
            if i != j:
                if rows[i][j] > 0:
                    raise ValueError(f"off-diagonal entry ({i},{j}) must be <= 0")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) must vanish together")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return GeneralizedCartanMatrix(rows, tuple(labels))


def coxeter_order(a: GeneralizedCartanMatrix, i: int, j: int):
    """Order m_ij of the product of two Weyl generators: 2, 3, 4, 6 or infinity."""
    if i == j:
        raise ValueError("coxeter_order needs two distinct nodes")
    prod = a.rows[i][j] * a.rows[j][i]
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod, INFINITE)


def two_spherical_no_a1(a: GeneralizedCartanMatrix) -> bool:
    """All m_ij finite and no connected component is a single node."""
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            if coxeter_order(a, i, j) is INFINITE:
                return False
    return all(len(c) > 1 for c in a.components())


# --------------------------------------------------------------------------
# diagram classes and labels


class DiagramClass(NamedTuple):
    """Recognized diagram: a finite or affine family member, or Other."""

    kind: str  # "finite" | "affine-untwisted" | "affine-twisted" | "other"
    family: str | None = None  # "A".."G" or "BC"
    n: int | None = None
    superscript: str | None = None  # None | "even" | "odd" | "0mod3"
    rank: int = 0

    @property
    def is_affine(self) -> bool:
        return self.kind.startswith("affine")

    def label(self) -> str:
        if self.kind == "other":
            return "Other"
        mark = "~" if self.is_affine else ""
        sup = f"^{self.superscript}" if self.superscript else ""
        return f"{self.family}{mark}{self.n}{sup}"

    def __str__(self) -> str:
        return self.label()


_LABEL_RE = re.compile(r"^(BC|[A-G])(~?)(\d+)(?:\^(even|odd|0mod3))?$")


def is_label(text: str) -> bool:
    """Whether the text, stripped, has label syntax; it may still name no
    diagram (E9, A~0)."""
    return _LABEL_RE.match(text.strip()) is not None


def parse_label(text: str) -> DiagramClass:
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse diagram label {text!r}")
    family, tilde, n, sup = m.group(1), m.group(2), int(m.group(3)), m.group(4)
    if not tilde:
        if sup:
            raise ValueError("superscripts only occur on affine labels")
        _check_finite_conditions(family, n)
        return DiagramClass("finite", family, n, None, n)
    _check_affine_conditions(family, n, sup)
    kind = "affine-twisted" if sup else "affine-untwisted"
    return DiagramClass(kind, family, n, sup, n + 1)


def _check_finite_conditions(family: str, n: int) -> None:
    ok = {
        "A": n >= 1, "B": n >= 2, "C": n >= 2, "D": n >= 3,
        "E": n in (6, 7, 8), "F": n == 4, "G": n == 2, "BC": n >= 1,
    }.get(family, False)
    if not ok:
        raise ValueError(f"no finite diagram {family}{n}")


def _check_affine_conditions(family: str, n: int, sup: str | None) -> None:
    if sup is None:
        ok = {
            "A": n >= 1, "B": n >= 2, "C": n >= 2, "D": n >= 3,
            "E": n in (6, 7, 8), "F": n == 4, "G": n == 2,
        }.get(family, False)
    elif sup == "even":
        ok = (family in ("B", "C") and n >= 2) or (family, n) == ("F", 4)
    elif sup == "odd":
        ok = family == "BC" and n >= 1
    else:  # 0mod3
        ok = (family, n) == ("G", 2)
    if not ok:
        raise ValueError(f"no affine diagram {family}~{n}" + (f"^{sup}" if sup else ""))


# --------------------------------------------------------------------------
# finite Cartan matrix recipes (node orders documented in the README)


def finite_cartan(family: str, n: int) -> GeneralizedCartanMatrix:
    """Cartan matrix of the irreducible finite diagram.

    Chains are numbered 0..n-1.  B_n ends in the short root, C_n in the long
    root, D_n forks at node n-3, E_n attaches its last node to node 2,
    F_4 is long-long-short-short, G_2 is (short, long).
    """
    _check_finite_conditions(family, n)
    if family == "BC":
        raise ValueError("BC is not a Dynkin diagram family; use the B_n matrix")
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain_edge(i, j, aij=-1, aji=-1):
        rows[i][j], rows[j][i] = aij, aji

    if family == "A":
        for i in range(n - 1):
            chain_edge(i, i + 1)
    elif family == "B":
        for i in range(n - 2):
            chain_edge(i, i + 1)
        chain_edge(n - 2, n - 1, -1, -2)
    elif family == "C":
        for i in range(n - 2):
            chain_edge(i, i + 1)
        chain_edge(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 3):
            chain_edge(i, i + 1)
        chain_edge(n - 3, n - 2)
        chain_edge(n - 3, n - 1)
    elif family == "E":
        for i in range(n - 2):
            chain_edge(i, i + 1)
        chain_edge(2, n - 1)
    elif family == "F":
        chain_edge(0, 1)
        chain_edge(1, 2, -1, -2)
        chain_edge(2, 3)
    elif family == "G":
        chain_edge(0, 1, -3, -1)
    return gcm(rows)


@lru_cache(maxsize=None)
def affine_recipe(cls: DiagramClass) -> tuple:
    """(X, beta, beta^vee, c) of the affine label: alpha_0 = delta - c beta.

    X is the finite Cartan matrix of the level-zero system (B_1 = A_1 for
    BC~1^odd), and beta and beta^vee are in simple-root and simple-coroot
    coordinates of X (Kac, Infinite-Dimensional Lie Algebras, 3rd ed., Prop.
    6.4 and Tables Aff 1-3).  For an untwisted label (Aff 1) beta is theta,
    the highest root of X, and c = 1; for a twisted one beta is theta_s, the
    highest short root of X, with c = 1 for the even and 0mod3 labels (Aff 2
    and Aff 3) and c = 2 for the odd ones (A_2n^(2) in Aff 2).  No root
    system is built."""
    if not cls.is_affine:
        raise ValueError("an affine recipe needs an affine label")
    sup = cls.superscript
    x = finite_cartan("A", 1) if (cls.family, cls.n) == ("BC", 1) else finite_cartan(
        "B" if sup == "odd" else cls.family, cls.n)
    columns = tuple(zip(*x.rows))
    if x.rows == columns:
        # one root length: beta = theta, and its coroot has its coordinates
        beta = beta_vee = _dominant(x.rows, 0)
    else:
        # each chain of finite_cartan has a root of either length at an end;
        # theta is the higher of the two dominant roots, theta_s the lower
        (theta, k_long), (theta_s, k_short) = sorted(
            ((_dominant(x.rows, k), k) for k in (0, x.rank - 1)), key=lambda f: -sum(f[0]))
        beta, k = (theta, k_long) if sup is None else (theta_s, k_short)
        # the coroots form the system of the transposed matrix, in which
        # w(alpha_k^vee) = (w alpha_k)^vee, and beta^vee is dominant there
        beta_vee = _dominant(columns, k)
    return x, beta, beta_vee, 2 if sup == "odd" else 1


def affine_cartan(cls: DiagramClass) -> GeneralizedCartanMatrix:
    """Affine Cartan matrix of the label from its recipe: the nodes of X,
    then alpha_0.  The last row is <(-c beta)^vee, alpha_j> = -<beta^vee,
    alpha_j> / c and the last column <alpha_j^vee, -c beta> = -c sum_i X_ji
    beta_i, the pairings of roots.simple_affine_roots in its order."""
    x, beta, beta_vee, c = affine_recipe(cls)
    columns = zip(*x.rows)
    last = [-sum(map(operator.mul, beta_vee, column)) // c for column in columns]
    rows = [list(row) + [-c * sum(map(operator.mul, row, beta))] for row in x.rows]
    return gcm(rows + [last + [2]])


def _dominant(rows, k: int) -> tuple:
    """The dominant root of the Weyl orbit of the simple root k of the
    finite Cartan matrix rows, in simple-root coordinates: the highest root
    of its length.  Reflecting a root in a simple root it pairs negatively
    with raises its height, so the walk ends, at the one dominant root of
    the orbit."""
    n = len(rows)
    root = [0] * n
    root[k] = 1
    pairings = [row[k] for row in rows]  # <alpha_i^vee, root>
    i = 0
    while i < n:
        p = pairings[i]
        if p >= 0:
            i += 1
            continue
        root[i] -= p
        for j, row in enumerate(rows):
            pairings[j] -= p * row[i]
        i = 0
    return tuple(root)


# --------------------------------------------------------------------------
# catalog and recognition


@lru_cache(maxsize=None)
def _catalog_classes(max_rank: int) -> tuple[DiagramClass, ...]:
    """Classes of the catalog in recognition order: finite, then untwisted,
    then twisted affine; the canonical labels only."""
    chains = (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    exceptional = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    finite = [(f, n) for f, lo in chains for n in range(lo, max_rank + 1)] + exceptional
    untwisted = [(f, n) for f, lo in chains for n in range(lo, max_rank)] + exceptional
    twisted = ([("B", n, "even") for n in range(2, max_rank)]
               + [("C", n, "even") for n in range(2, max_rank)]
               + [("BC", n, "odd") for n in range(1, max_rank)]
               + [("F", 4, "even"), ("G", 2, "0mod3")])
    classes = ([DiagramClass("finite", f, n, None, n) for f, n in finite]
               + [DiagramClass("affine-untwisted", f, n, None, n + 1) for f, n in untwisted]
               + [DiagramClass("affine-twisted", f, n, sup, n + 1) for f, n, sup in twisted])
    return tuple(cls for cls in classes if cls.rank <= max_rank and
                 (cls.family, cls.n, cls.superscript, cls.is_affine) not in _SKIP_IN_CATALOG)


@lru_cache(maxsize=None)
def _catalog_matrix(cls: DiagramClass) -> GeneralizedCartanMatrix:
    if cls.is_affine:
        return affine_cartan(cls)
    return finite_cartan(cls.family, cls.n)


@lru_cache(maxsize=None)
def catalog(max_rank: int = 12) -> tuple[tuple[DiagramClass, GeneralizedCartanMatrix], ...]:
    """All irreducible finite and affine diagrams up to the given node count."""
    return tuple((cls, _catalog_matrix(cls)) for cls in _catalog_classes(max_rank))


def _node_invariants(a: GeneralizedCartanMatrix) -> list:
    inv = []
    for i in range(a.rank):
        pairs = sorted(
            (a.rows[i][j], a.rows[j][i]) for j in range(a.rank) if j != i and a.rows[i][j] != 0
        )
        inv.append(tuple(pairs))
    return inv


def isomorphism(a: GeneralizedCartanMatrix, b: GeneralizedCartanMatrix):
    """A permutation p with a[i][j] == b[p[i]][p[j]], or None."""
    if a.rank != b.rank:
        return None
    inv_a, inv_b = _node_invariants(a), _node_invariants(b)
    if sorted(inv_a) != sorted(inv_b):
        return None
    n = a.rank
    perm: list[int] = []
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or inv_a[i] != inv_b[cand]:
                continue
            ok = all(
                a.rows[i][k] == b.rows[cand][perm[k]] and a.rows[k][i] == b.rows[perm[k]][cand]
                for k in range(i)
            )
            if not ok:
                continue
            used[cand] = True
            perm.append(cand)
            if extend(i + 1):
                return True
            used[cand] = False
            perm.pop()
        return False

    return tuple(perm) if extend(0) else None


def classify_with_map(a: GeneralizedCartanMatrix):
    """Recognize a diagram; returns (DiagramClass, perm) where perm sends
    catalog node positions to positions in `a` (None for Other).  The search
    runs over the catalog classes of the diagram's own rank, so a diagram of
    any rank is recognised."""
    for cls in _catalog_classes(a.rank):
        if cls.rank != a.rank:
            continue
        perm = isomorphism(_catalog_matrix(cls), a)
        if perm is not None:
            return cls, perm
    return DiagramClass("other", rank=a.rank), None


def classify(a: GeneralizedCartanMatrix) -> DiagramClass:
    return classify_with_map(a)[0]


# --------------------------------------------------------------------------
# Table-1 name conversions


def name_conversions(cls: DiagramClass) -> tuple[str, str, str]:
    """(our name, Moody-Pianzola name, Kac name) for an affine label."""
    if not cls.is_affine:
        raise ValueError("name conversions are defined for affine labels only")
    fam, n, sup = cls.family, cls.n, cls.superscript
    if sup is None:
        mp = kac = f"{fam}_{n}^(1)"
    elif sup == "even":
        if fam == "B":
            mp, kac = f"B_{n}^(2)", f"D_{n + 1}^(2)"
        elif fam == "C":
            mp, kac = f"C_{n}^(2)", f"A_{2 * n - 1}^(2)"
        else:
            mp, kac = "F_4^(2)", "E_6^(2)"
    elif sup == "odd":
        mp, kac = f"BC_{n}^(2)", f"A_{2 * n}^(2)"
    else:
        mp, kac = "G_2^(3)", "D_4^(3)"
    return cls.label(), mp, kac


# --------------------------------------------------------------------------
# finite presentability hypotheses


class RingProfile(NamedTuple):
    """Caller-asserted ring facts (the toolkit does not decide these)."""

    finitely_generated_ring: bool = False
    module_finite_over_unit_subring: bool = False
    units_finitely_generated: bool = False


class PresentabilityVerdict(NamedTuple):
    verdict: str  # "FinitelyPresentedCase_i" | "FinitelyPresentedCase_ii" | "HypothesesNotMet"
    used_special_covering: bool


def spherical_covering_holds(a: GeneralizedCartanMatrix) -> bool:
    """True iff every unordered node pair lies in an irreducible finite-type
    full subdiagram on at least 3 nodes: a connected proper one, as every
    proper principal submatrix of an indecomposable affine matrix is of finite
    type (Kac, Infinite-Dimensional Lie Algebras, 3rd ed., Lemma 4.4)."""
    if not classify(a).is_affine:
        raise ValueError("covering predicate is defined for affine diagrams")
    n = a.rank
    good_subsets: list[frozenset[int]] = []
    for mask in range(1, (1 << n) - 1):
        nodes = [i for i in range(n) if mask >> i & 1]
        if len(nodes) >= 3 and len(a.submatrix(nodes).components()) == 1:
            good_subsets.append(frozenset(nodes))
    for i in range(n):
        for j in range(i + 1, n):
            if not any(i in s and j in s for s in good_subsets):
                return False
    return True


def finite_presentability_hypotheses(
    a: GeneralizedCartanMatrix, profile: RingProfile
) -> PresentabilityVerdict:
    cls = classify(a)
    if not cls.is_affine:
        raise ValueError("hypotheses apply to affine diagrams")
    if cls.rank < 3:
        raise ValueError("theorem hypotheses exclude rank 2")
    used_special = cls.rank > 3 and not spherical_covering_holds(a)
    if cls.rank > 3 and profile.finitely_generated_ring:
        verdict = "FinitelyPresentedCase_i"
    elif cls.rank == 3 and profile.module_finite_over_unit_subring:
        verdict = "FinitelyPresentedCase_ii"
    else:
        verdict = "HypothesesNotMet"
    return PresentabilityVerdict(verdict, used_special)


# --------------------------------------------------------------------------
# text input


def parse_matrix_text(text: str) -> GeneralizedCartanMatrix:
    """Parse the exchange format: line `rank n`, then n rows of n integers.
    `#` starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or not lines[0].lower().startswith("rank"):
        raise ValueError("diagram file must start with a `rank n` line")
    n = int(lines[0].split()[1])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = [[int(x) for x in line.split()] for line in lines[1:]]
    return gcm(rows)


def parse_diagram(text: str) -> GeneralizedCartanMatrix:
    """Accept either a family label (`A~2`, `BC~3^odd`, `B3`) or matrix text."""
    if is_label(text):
        # kept per class, so recognising the label's own matrix rebuilds nothing
        return _catalog_matrix(parse_label(text))
    return parse_matrix_text(text)
