"""Generalized Cartan matrices and Dynkin diagram recognition.

One table, _LABELS, says which labels exist and which are canonical.
Recognition is graph-isomorphism against the catalog of canonical diagrams,
whose affine matrices come from their simple-root recipes (affine_recipe,
which roots.simple_affine_roots also reads), with no root system built.
Only catalog entries with as many nodes as the input are built, in catalog
order until one matches.  Also houses the Coxeter edge orders, the affine
names, and the finite presentability hypotheses, whose covering predicate
is read off the diagram's shape.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache
from typing import NamedTuple

INFINITE = math.inf


class GeneralizedCartanMatrix(NamedTuple):
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

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


def gcm(rows) -> GeneralizedCartanMatrix:
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
    return GeneralizedCartanMatrix(rows)


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


# kind -> (family, superscript) -> (smallest n, largest n or None, smallest n
# in the catalog or None), in catalog order.  Below the third column a label
# repeats a canonical one (C2 = B2, D3 = A3, B~2 = C~2, D~3 = A~3, C~2^even =
# B~2^even); finite BC names no Dynkin diagram.
_LABELS = {
    "finite": {("A", None): (1, None, 1), ("B", None): (2, None, 2),
               ("C", None): (2, None, 3), ("D", None): (3, None, 4),
               ("E", None): (6, 8, 6), ("F", None): (4, 4, 4),
               ("G", None): (2, 2, 2), ("BC", None): (1, None, None)},
    "affine-untwisted": {("A", None): (1, None, 1), ("B", None): (2, None, 3),
                         ("C", None): (2, None, 2), ("D", None): (3, None, 4),
                         ("E", None): (6, 8, 6), ("F", None): (4, 4, 4),
                         ("G", None): (2, 2, 2)},
    "affine-twisted": {("B", "even"): (2, None, 2), ("C", "even"): (2, None, 3),
                       ("BC", "odd"): (1, None, 1), ("F", "even"): (4, 4, 4),
                       ("G", "0mod3"): (2, 2, 2)},
}

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
    if sup and not tilde:
        raise ValueError("superscripts only occur on affine labels")
    kind = "affine-twisted" if sup else "affine-untwisted" if tilde else "finite"
    return _checked(DiagramClass(kind, family, n, sup, n + 1 if tilde else n))


def _checked(cls: DiagramClass) -> DiagramClass:
    """The class, if _LABELS has its family and n."""
    row = _LABELS[cls.kind].get((cls.family, cls.superscript))
    if row is None or cls.n < row[0] or (row[1] is not None and cls.n > row[1]):
        kind = "affine" if cls.is_affine else "finite"
        raise ValueError(f"no {kind} diagram {cls.label()}")
    return cls


# --------------------------------------------------------------------------
# finite Cartan matrix recipes (node orders documented in the README)


def finite_cartan(family: str, n: int) -> GeneralizedCartanMatrix:
    """Cartan matrix of the irreducible finite diagram: the chain A_n on
    nodes 0..n-1, edges (i, j, a_ij, a_ji), with one edge changed.  B_n ends
    in the short root, C_n in the long root, D_n forks at node n-3, E_n
    attaches its last node to node 2, F_4 is long-long-short-short, G_2 is
    (short, long)."""
    _checked(DiagramClass("finite", family, n, None, n))
    if family == "BC":
        raise ValueError("BC is not a Dynkin diagram family; use the B_n matrix")
    edges = [(i, i + 1, -1, -1) for i in range(n - 1)]
    changed = {"B": (-1, (n - 2, n - 1, -1, -2)), "C": (-1, (n - 2, n - 1, -2, -1)),
               "D": (-1, (n - 3, n - 1, -1, -1)), "E": (-1, (2, n - 1, -1, -1)),
               "F": (1, (1, 2, -1, -2)), "G": (0, (0, 1, -3, -1))}
    if family in changed:
        k, edge = changed[family]
        edges[k] = edge
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in edges:
        rows[i][j], rows[j][i] = aij, aji
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
    """Classes of the catalog in recognition order: the canonical labels of
    _LABELS with at most max_rank nodes, in the table's order."""
    classes = []
    for kind, rows in _LABELS.items():
        extra = 0 if kind == "finite" else 1  # the affine node
        for (family, sup), (_, largest, first) in rows.items():
            if first is None:
                continue
            last = max_rank - extra if largest is None else min(largest, max_rank - extra)
            for n in range(first, last + 1):
                classes.append(DiagramClass(kind, family, n, sup, n + extra))
    return tuple(classes)


@lru_cache(maxsize=None)
def _catalog_matrix(cls: DiagramClass) -> GeneralizedCartanMatrix:
    if cls.is_affine:
        return affine_cartan(cls)
    return finite_cartan(cls.family, cls.n)


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


# the Kac name X_N^(order) of each twisted label, as X and N from n
_TWISTED_KAC = {("B", "even"): lambda n: ("D", n + 1), ("C", "even"): lambda n: ("A", 2 * n - 1),
                ("F", "even"): lambda n: ("E", 6), ("BC", "odd"): lambda n: ("A", 2 * n),
                ("G", "0mod3"): lambda n: ("D", 4)}


def name_conversions(cls: DiagramClass) -> tuple[str, str, str]:
    """(our name, Moody-Pianzola name, Kac name) for an affine label."""
    if not cls.is_affine:
        raise ValueError("name conversions are defined for affine labels only")
    sup = cls.superscript
    order = 1 if sup is None else 3 if sup == "0mod3" else 2
    mp = f"{cls.family}_{cls.n}^({order})"
    if order == 1:
        return cls.label(), mp, mp
    family, big_n = _TWISTED_KAC[cls.family, sup](cls.n)
    return cls.label(), mp, f"{family}_{big_n}^({order})"


# --------------------------------------------------------------------------
# finite presentability hypotheses


class RingProfile(NamedTuple):
    """Caller-asserted ring facts (the toolkit does not decide these)."""

    finitely_generated_ring: bool = False
    module_finite_over_unit_subring: bool = False


class PresentabilityVerdict(NamedTuple):
    verdict: str  # "FinitelyPresentedCase_i" | "FinitelyPresentedCase_ii" | "HypothesesNotMet"
    used_special_covering: bool
    spherical_covering_holds: bool


def spherical_covering_holds(a: GeneralizedCartanMatrix) -> bool:
    """Whether every node pair lies in a connected finite-type subdiagram of >= 3 nodes."""
    if not classify(a).is_affine:
        raise ValueError("covering predicate is defined for affine diagrams")
    return _covering_holds(a)


def _covering_holds(a: GeneralizedCartanMatrix) -> bool:
    """The covering predicate of an affine diagram: rank >= 4 and not a path.
    Every proper connected subdiagram of an affine diagram is of finite type
    (Kac, Infinite-Dimensional Lie Algebras, 3rd ed., Lemma 4.4).  A shortest
    path between i and j is a smallest connected subdiagram holding both: if
    it has >= 3 nodes and is proper, it covers the pair; if it has 2 and
    n >= 4, it grows by one neighbour into a cover.  It takes every node only
    if the diagram is that path (a chord would shorten it), and for n <= 3 no
    proper subset has 3 nodes.  A connected diagram is a path iff it has n - 1
    edges and no node of degree above 2."""
    degrees = [len(pairs) for pairs in _node_invariants(a)]  # one pair per neighbour
    is_path = sum(degrees) == 2 * (a.rank - 1) and max(degrees) <= 2
    return a.rank >= 4 and not is_path


def finite_presentability_hypotheses(a: GeneralizedCartanMatrix,
                                     profile: RingProfile) -> PresentabilityVerdict:
    cls = classify(a)
    if not cls.is_affine:
        raise ValueError("hypotheses apply to affine diagrams")
    if cls.rank < 3:
        raise ValueError("theorem hypotheses exclude rank 2")
    covering = _covering_holds(a)
    if cls.rank > 3 and profile.finitely_generated_ring:
        verdict = "FinitelyPresentedCase_i"
    elif cls.rank == 3 and profile.module_finite_over_unit_subring:
        verdict = "FinitelyPresentedCase_ii"
    else:
        verdict = "HypothesesNotMet"
    return PresentabilityVerdict(verdict, cls.rank > 3 and not covering, covering)


# --------------------------------------------------------------------------
# text input


def parse_matrix_text(text: str) -> GeneralizedCartanMatrix:
    """Parse the exchange format: line `rank n` with n >= 1, then n rows of
    n integers.  `#` starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    header = re.fullmatch(r"rank\s+\+?(\d+)", lines[0], re.IGNORECASE) if lines else None
    if header is None or int(header.group(1)) < 1:
        raise ValueError("diagram file must start with a `rank n` line")
    n = int(header.group(1))
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
