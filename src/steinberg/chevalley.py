"""Chevalley bases and structure constants for finite root systems.

The integer constants N(a, b) with [e_a, e_b] = N(a, b) e_{a+b} are built
deterministically: positive roots are ordered by (height, lex), each
non-simple positive root gets a positive constant on its extraspecial pair,
and every other constant follows from the Jacobi identity, antisymmetry and
the zero-sum-triple proportionality.  Commutator tables for root-group pairs
are then peeled off the exact commutator of exponentials in the adjoint
representation, never taken from closed-form coefficient formulas.

Everything here is exact over Python ints.  Matrices are sparse: a dict
{(row, col): value} of the nonzero entries.  ad e_gamma has about dim of
them and is nilpotent, so its divided powers and exponentials stay sparse.
The peeling runs at t = u = 1: the adjoint representation is graded by the
root lattice, so every entry of a matrix formed along the way is a single
monomial t^i u^j whose exponents its position already fixes (see
`ChevalleyBasis.commutator_table`).
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from .roots import (
    FiniteRootSystem, _vec_add, _vec_scale, _vec_sub, root_combinations, string_length,
)


class ChevalleyBasis:
    """Basis h_1..h_r, e_gamma (gamma over all roots) with integer brackets."""

    def __init__(self, system: FiniteRootSystem):
        self.system = system
        self.rank = system.rank
        positives = system.positive_roots()
        negatives = [_vec_scale(-1, r) for r in positives]
        self.positive_roots = positives
        self.roots_order = positives + negatives
        self.dim = self.rank + len(self.roots_order)
        self._root_index = {r: self.rank + k for k, r in enumerate(self.roots_order)}
        # the sign and the negation of a root, read off its roots_order position
        self._is_positive = dict.fromkeys(positives, True) | dict.fromkeys(negatives, False)
        self._negated = dict(zip(self.roots_order, negatives + positives))
        self._n: dict = {}
        self._complete_table(self._build_positive_table())
        self._powers_cache: dict = {}
        self._table_cache: dict = {}

    # -- construction ------------------------------------------------------

    def _build_positive_table(self) -> list:
        """N(a, b) for positive a before b with a + b a root; returns every
        such decomposition (a, b, a + b)."""
        sys = self.system
        order_pos = {r: k for k, r in enumerate(self.positive_roots)}
        found = []
        for gamma in self.positive_roots:
            decomps = []
            for a in self.positive_roots:
                if order_pos[a] >= order_pos[gamma]:
                    break
                b = _vec_sub(gamma, a)
                if order_pos[a] < order_pos.get(b, -1):  # b a positive root after a
                    decomps.append((a, b))
            if not decomps:
                continue
            a1, b1 = min(decomps, key=lambda ab: order_pos[ab[0]])
            self._n[(a1, b1)] = string_length(sys, a1, b1) + 1
            for a, b in decomps:
                if (a, b) != (a1, b1):
                    self._n[(a, b)] = self._special_pair_constant(a, b, a1, gamma)
                found.append((a, b, gamma))
        return found

    def _special_pair_constant(self, a, b, a1, gamma) -> int:
        sys = self.system
        total, neg_a1 = 0, self._negated[a1]
        xi = _vec_sub(b, a1)
        if xi in sys:
            total += self._n_resolve(b, neg_a1) * self._n_resolve(xi, a)
        eta = _vec_sub(a, a1)
        if eta in sys:
            total += self._n_resolve(neg_a1, a) * self._n_resolve(eta, b)
        denom = self._n_resolve(gamma, neg_a1)
        return _exact_div(-total, denom, "non-integral structure constant")

    def _n_resolve(self, x, y) -> int:
        """N(x, y) for roots x, y and x + y of arbitrary signs, reduced to the
        positive table."""
        sys, negated = self.system, self._negated
        xpos, ypos = self._is_positive[x], self._is_positive[y]
        if xpos and ypos:
            return self._n[(x, y)] if (x, y) in self._n else -self._n[(y, x)]
        if not xpos and not ypos:
            return -self._n_resolve(negated[x], negated[y])
        if not xpos:
            return -self._n_resolve(y, x)
        z = _vec_add(x, y)
        # x positive, y negative, z = x + y a root
        if self._is_positive[z]:
            num, den = -self._n_resolve(negated[y], z) * sys.norm(z), sys.norm(x)
        else:
            num, den = self._n_resolve(negated[z], x) * sys.norm(z), sys.norm(y)
        return _exact_div(num, den, "non-integral structure constant")

    def _complete_table(self, decompositions):
        """N(x, y) for every pair of roots with x + y a root, from the
        decompositions gamma = a + b into positive roots.

        Each decomposition gives the zero-sum triples {a, b, -gamma} and
        {-a, -b, gamma}.  The pairs (a, b), (a, -gamma) and (b, -gamma) are
        resolved; N(y, x) = N(-x, -y) = -N(x, y) and N(-y, -x) = N(x, y) fill
        in the three partners of each, which are the other ordered pairs of
        both triples.  These are all the pairs: if x + y = z is a root, then
        {x, y, -z} is a zero-sum triple, and the two of its roots with the
        sign that occurs twice are, up to negating the triple, positive
        roots a, b whose sum gamma is the third negated."""
        negated = self._negated
        table = {}
        for a, b, gamma in decompositions:
            for x, y in ((a, b), (a, negated[gamma]), (b, negated[gamma])):
                n = self._n_resolve(x, y)
                neg_x, neg_y = negated[x], negated[y]
                table[x, y], table[y, x] = n, -n
                table[neg_x, neg_y], table[neg_y, neg_x] = -n, n
        self._n = table

    # -- queries -----------------------------------------------------------

    def n(self, x, y) -> int:
        """Structure constant N(x, y); zero when x + y is not a root."""
        return self._n.get((tuple(x), tuple(y)), 0)

    def constants(self) -> list:
        """((x, y), N(x, y)) for every pair of roots with x + y a root, sorted
        by (x, y).  Each pair is keyed by the positions of x and y in the
        sorted root list, so no two coordinate tuples are compared per pair."""
        rank = {r: k for k, r in enumerate(sorted(self.roots_order))}
        size = len(rank)
        return sorted(self._n.items(), key=lambda item: rank[item[0][0]] * size + rank[item[0][1]])

    def coroot_vector(self, gamma) -> tuple[int, ...]:
        """Coefficients of gamma^vee in the simple coroots."""
        sys = self.system
        norm = sys.norm(gamma)
        return tuple(
            _exact_div(a * sys.norm(sys.simple(i)), norm, "non-integral coroot expansion")
            for i, a in enumerate(gamma)
        )

    @cached_property
    def _bracket_rows(self) -> dict:
        """gamma -> ((row of e_(gamma + delta), column of e_delta, N(gamma, delta)), ...)
        over the delta with gamma + delta a root: the root part of ad e_gamma,
        read off the constants table once for every gamma."""
        index, rows = self._root_index, {}
        for (x, y), n in self._n.items():
            rows.setdefault(x, []).append((index[_vec_add(x, y)], index[y], n))
        return rows

    def _adjoint_entries(self, gamma) -> dict:
        """ad e_gamma on (h_1..h_r, e_delta...) as the sparse matrix
        {(row, col): value}; columns act on the basis."""
        row = self._root_index[gamma]
        out = {}
        for i, cartan_row in enumerate(self.system.cartan.rows):
            # [e_gamma, h_i] = -<alpha_i^vee, gamma> e_gamma
            if c := -sum(map(mul, cartan_row, gamma)):
                out[row, i] = c
        col = self._root_index[self._negated[gamma]]
        for i, c in enumerate(self.coroot_vector(gamma)):
            if c:
                out[i, col] = c
        for target, source, n in self._bracket_rows.get(gamma, ()):
            out[target, source] = n
        return out

    def divided_powers(self, gamma) -> list[dict]:
        """(ad e_gamma)^k / k! for k = 0.. until zero, each as the sparse
        matrix {(row, col): value} of its nonzero entries.

        D_1 is ad e_gamma itself, and D_k = D_(k-1) ad e_gamma / k, each
        product walking one row index of ad e_gamma built for gamma; each
        division is checked to be exact.  ad e_gamma is nilpotent with
        (ad e_gamma)^4 = 0, because the sl_2 of gamma acts on the adjoint
        representation with strings of at most four weights.

        Not cached here: its two callers keep what they reuse, exp_matrix
        the powers that commutator tables multiply, and the loop model only
        their nonzero entries mod n.
        """
        ad = self._adjoint_entries(tuple(gamma))
        ad_rows = _row_index(ad)
        out = [_identity(self.dim)]
        power = ad
        while power:
            out.append(power)
            power = {key: _exact_div(value, len(out), "divided power is not integral")
                     for key, value in _matmul(power, ad_rows).items()}
        return out

    # -- commutator tables via exact peeling -------------------------------

    def exp_matrix(self, gamma, c: int) -> dict:
        """exp(c ad e_gamma) = sum_k c^k (ad e_gamma)^k / k! for c != 0, as a
        sparse matrix.  The k-th power raises weights by k gamma, so no two
        powers share a position and the sum only scales their entries."""
        gamma = tuple(gamma)
        powers = self._powers_cache.get(gamma)
        if powers is None:
            powers = self._powers_cache[gamma] = self.divided_powers(gamma)
        return {key: c**k * value for k, power in enumerate(powers) for key, value in power.items()}

    def commutator_table(self, a, b, order=None):
        """Coefficients of [x_a(t), x_b(u)] = prod_gamma x_gamma(N t^i u^j).

        The product is taken in ascending (i+j, i) order unless an explicit
        interior-root order is supplied.  Extraction is by peeling exponentials
        off the exact adjoint-representation commutator
        exp(ad e_a) exp(ad e_b) exp(-ad e_a) exp(-ad e_b); the final residue is
        asserted to be the identity matrix.

        Working at t = u = 1 is exact.  Over Z[t, u], a term t^i u^j of any of
        these matrices maps the weight space of lambda into that of
        lambda + i a + j b.  For independent a and b, an entry therefore is a
        single monomial whose exponents its position fixes, and setting
        t = u = 1 keeps its integer coefficient: each peeled coefficient is
        N t^i u^j with gamma = i a + j b, and the residue is the identity over
        Z[t, u] exactly when it is at t = u = 1.  For a = b the commutator is
        the identity and the table is empty.  Opposite roots are rejected.
        """
        a, b = tuple(a), tuple(b)
        if a == _vec_scale(-1, b):
            raise ValueError("commutator tables need non-opposite roots")
        key = (a, b, tuple(order) if order else None)
        cached = self._table_cache.get(key)
        if cached is not None:
            return cached
        interiors = root_combinations(self.system, a, b)
        by_root = {gamma: (i, j) for i, j, gamma in interiors}
        if order is None:
            ordered = [g for _, _, g in sorted(interiors, key=lambda t: (t[0] + t[1], t[0]))]
        else:
            ordered = [tuple(g) for g in order]
            if set(ordered) != set(by_root):
                raise ValueError("order must list exactly the interior roots")
        m = self.exp_matrix(a, 1)
        for factor in (self.exp_matrix(b, 1), self.exp_matrix(a, -1), self.exp_matrix(b, -1)):
            m = _matmul(m, _row_index(factor))
        entries = []
        for gamma in ordered:
            n = self._peel_coefficient(m, gamma)
            if n:
                m = _matmul(self.exp_matrix(gamma, -n), _row_index(m))
                entries.append((gamma, n, by_root[gamma]))
        if m != _identity(self.dim):
            raise ValueError("unipotent factorization failed in the given order")
        self._table_cache[key] = entries
        return entries

    def _peel_coefficient(self, m, gamma) -> int:
        """Coefficient of e_gamma in the leading factor, via the Cartan part
        of the image of e_{-gamma}."""
        col = self._root_index[self._negated[gamma]]
        hvec = self.coroot_vector(gamma)
        pivot = next(i for i, c in enumerate(hvec) if c)
        coeff = _exact_div(
            m.get((pivot, col), 0), hvec[pivot], "non-integral coefficient while peeling"
        )
        if any(m.get((i, col), 0) != coeff * c for i, c in enumerate(hvec)):
            raise ValueError("inconsistent Cartan component while peeling")
        return coeff


# ---------------------------------------------------------------------------
# helpers


def _exact_div(num: int, den: int, error: str) -> int:
    """num / den, raising ValueError(error) unless it is an integer."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ValueError(error)
    return quotient


def _identity(dim: int) -> dict:
    return {(i, i): 1 for i in range(dim)}


def _row_index(b: dict) -> dict:
    """mid -> [(col, value), ...] of the sparse matrix b, the index _matmul
    walks."""
    rows: dict = {}
    for (mid, col), value in b.items():
        rows.setdefault(mid, []).append((col, value))
    return rows


def _matmul(a: dict, b_rows: dict) -> dict:
    """The product of two sparse matrices {(row, col): value}, the right one
    given by its _row_index, zeros dropped."""
    out: dict = {}
    for (row, mid), value in a.items():
        for col, other in b_rows.get(mid, ()):
            out[row, col] = out.get((row, col), 0) + value * other
    return {key: value for key, value in out.items() if value}


def build_chevalley_basis(system: FiniteRootSystem) -> ChevalleyBasis:
    if system.nonreduced:
        raise ValueError("Chevalley bases are built for reduced finite systems")
    return ChevalleyBasis(system)


# ---------------------------------------------------------------------------
# sign choices


def apply_signs(entries, signs: dict, a, b):
    """Transform a commutator table under X'_r(t) = X_r(signs[r] * t)."""
    out = []
    sa, sb = signs.get(tuple(a), 1), signs.get(tuple(b), 1)
    for gamma, n, (i, j) in entries:
        s = signs.get(tuple(gamma), 1) * sa**i * sb**j
        out.append((gamma, s * n, (i, j)))
    return out


def solve_orientation(tables: dict, targets: dict) -> list[dict]:
    """Every choice of per-root signs making each table match its target.

    `tables` and `targets` map ordered pairs (a, b) to entry lists in the same
    interior order; the roots may be finite coordinate tuples or affine roots.
    Returns the dicts root -> +-1 in `product((1, -1), ...)` order over the
    sorted roots involved, or raises ValueError when no sign choice achieves
    the displayed constants.

    The search gives the sorted roots their signs depth-first, +1 before -1,
    and checks each table as soon as the last of its roots has a sign.  Every
    assignment it completes is then a solution.  Depth-first order with +1
    first is the lexicographic order of the sign tuples, which is the order
    of `product`, and a pruned branch holds no solution, since the table
    that failed fails for all of its completions.
    """
    involved = sorted(
        {r for pair in tables for r in pair}
        | {g for entries in tables.values() for g, _, _ in entries}
    )
    place = {r: k for k, r in enumerate(involved)}
    due = [[] for _ in involved]  # the pairs whose tables end at each root
    for pair, entries in tables.items():
        due[max(place[r] for r in (*pair, *(g for g, _, _ in entries)))].append(pair)
    wanted = {pair: [(tuple(g), n) for g, n, _ in want] for pair, want in targets.items()}
    solutions = []
    signs = {}

    def extend(depth: int) -> None:
        if depth == len(involved):
            solutions.append(dict(signs))
            return
        for sign in (1, -1):
            signs[involved[depth]] = sign
            if all(
                [(g, n) for g, n, _ in apply_signs(tables[pair], signs, *pair)] == wanted[pair]
                for pair in due[depth]
            ):
                extend(depth + 1)
        del signs[involved[depth]]

    extend(0)
    if not solutions:
        raise ValueError("no sign choice achieves the displayed constants")
    return solutions
