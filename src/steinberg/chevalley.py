"""Chevalley bases and structure constants for finite root systems.

The integer constants N(a, b) with [e_a, e_b] = N(a, b) e_{a+b} are built
deterministically: positive roots are ordered by (height, lex), each
non-simple positive root gets a positive constant on its extraspecial pair,
and every other constant follows from the Jacobi identity, antisymmetry and
the zero-sum-triple proportionality.  Commutator tables for root-group pairs
are then peeled off the exact commutator of exponentials in the adjoint
representation, never taken from closed-form coefficient formulas.  The
peeling runs on integer matrices at t = u = 1: the adjoint representation is
graded by the root lattice, so every entry of a matrix formed along the way
is a single monomial t^i u^j whose exponents its position already fixes
(see `ChevalleyBasis.commutator_table`).
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from .roots import (
    FiniteRootSystem, _vec_add, _vec_scale, _vec_sub, root_combinations, string_length,
)

if TYPE_CHECKING:
    import numpy as np


class ChevalleyBasis:
    """Basis h_1..h_r, e_gamma (gamma over all roots) with integer brackets."""

    def __init__(self, system: FiniteRootSystem):
        self.system = system
        self.rank = system.rank
        positives = system.positive_roots()
        self.positive_roots = positives
        self.roots_order = positives + [_vec_scale(-1, r) for r in positives]
        self.dim = self.rank + len(self.roots_order)
        self._root_index = {r: self.rank + k for k, r in enumerate(self.roots_order)}
        self._n: dict = {}
        self._build_positive_table()
        self._complete_table()
        self._adjoint_cache: dict = {}
        self._powers_cache: dict = {}
        self._table_cache: dict = {}

    # -- construction ------------------------------------------------------

    def _build_positive_table(self):
        sys = self.system
        order_pos = {r: k for k, r in enumerate(self.positive_roots)}
        for gamma in self.positive_roots:
            decomps = []
            for a in self.positive_roots:
                if order_pos[a] >= order_pos[gamma]:
                    break
                b = _vec_sub(gamma, a)
                if b in sys and sys.positive(b) and order_pos[a] < order_pos[b]:
                    decomps.append((a, b))
            if not decomps:
                continue
            a1, b1 = min(decomps, key=lambda ab: order_pos[ab[0]])
            self._n[(a1, b1)] = string_length(sys, a1, b1) + 1
            for a, b in decomps:
                if (a, b) == (a1, b1):
                    continue
                self._n[(a, b)] = self._special_pair_constant(a, b, a1, b1, gamma)

    def _special_pair_constant(self, a, b, a1, b1, gamma) -> int:
        sys = self.system
        total = 0
        xi = _vec_sub(b, a1)
        if xi in sys:
            total += self._n_resolve(b, _vec_scale(-1, a1)) * self._n_resolve(xi, a)
        eta = _vec_sub(a, a1)
        if eta in sys:
            total += self._n_resolve(_vec_scale(-1, a1), a) * self._n_resolve(eta, b)
        denom = self._n_resolve(gamma, _vec_scale(-1, a1))
        return _exact_div(-total, denom, "non-integral structure constant")

    def _n_resolve(self, x, y) -> int:
        """N(x, y) for arbitrary sign patterns, reduced to the positive table."""
        sys = self.system
        xpos, ypos = sys.positive(x), sys.positive(y)
        if xpos and ypos:
            return self._n[(x, y)] if (x, y) in self._n else -self._n[(y, x)]
        if not xpos and not ypos:
            return -self._n_resolve(_vec_scale(-1, x), _vec_scale(-1, y))
        if not xpos:
            return -self._n_resolve(y, x)
        z = _vec_add(x, y)
        # x positive, y negative, z = x + y a root
        if sys.positive(z):
            num, den = -self._n_resolve(_vec_scale(-1, y), z) * sys.norm(z), sys.norm(x)
        else:
            num, den = self._n_resolve(_vec_scale(-1, z), x) * sys.norm(z), sys.norm(y)
        return _exact_div(num, den, "non-integral structure constant")

    def _complete_table(self):
        sys = self.system
        table = {}
        for x in self.roots_order:
            for y in self.roots_order:
                if _vec_add(x, y) in sys:
                    table[(x, y)] = self._n_resolve(x, y)
        self._n = table

    # -- queries -----------------------------------------------------------

    def n(self, x, y) -> int:
        """Structure constant N(x, y); zero when x + y is not a root."""
        return self._n.get((tuple(x), tuple(y)), 0)

    def coroot_vector(self, gamma) -> tuple[int, ...]:
        """Coefficients of gamma^vee in the simple coroots."""
        sys = self.system
        norm = sys.norm(gamma)
        return tuple(
            _exact_div(a * sys.norm(sys.simple(i)), norm, "non-integral coroot expansion")
            for i, a in enumerate(gamma)
        )

    def pairing(self, x, y) -> int:
        return self.system.pairing(x, y)

    def adjoint_matrix(self, gamma) -> tuple[tuple[int, ...], ...]:
        """Matrix of ad e_gamma on (h_1..h_r, e_delta...); columns act on basis."""
        gamma = tuple(gamma)
        cached = self._adjoint_cache.get(gamma)
        if cached is not None:
            return cached
        sys = self.system
        n = self.dim
        mat = [[0] * n for _ in range(n)]
        for i in range(self.rank):
            # [e_gamma, h_i] = -<alpha_i^vee, gamma> e_gamma
            mat[self._root_index[gamma]][i] = -sys.pairing(sys.simple(i), gamma)
        for delta in self.roots_order:
            col = self._root_index[delta]
            if delta == _vec_scale(-1, gamma):
                for i, c in enumerate(self.coroot_vector(gamma)):
                    mat[i][col] = c
                continue
            total = _vec_add(gamma, delta)
            if total in sys:
                mat[self._root_index[total]][col] = self._n[(gamma, delta)]
        frozen = tuple(tuple(row) for row in mat)
        self._adjoint_cache[gamma] = frozen
        return frozen

    def divided_powers(self, gamma) -> list[np.ndarray]:
        """(ad e_gamma)^k / k! for k = 0.. until zero, as int64 arrays.

        Each division is checked to be exact.  int64 is exact here: ad e_gamma
        has entries of absolute value at most 6 (|N| and the Cartan pairings
        are at most 3, coroot coefficients at most 6, reached in E8), and it
        is nilpotent with (ad e_gamma)^4 = 0, because the sl_2 of gamma acts
        on the adjoint representation with strings of at most four weights.
        So every product formed below has entries under (6 dim)^4, which is
        below 2^63 for every dim under 9,000.

        Not cached: exp_matrix keeps the dense powers that commutator tables
        reuse, and the loop model keeps only their nonzero entries mod n.
        """
        import numpy as np

        ad = np.array(self.adjoint_matrix(tuple(gamma)), dtype=np.int64)
        rows, cols = np.nonzero(ad)  # about dim entries: multiply on those only
        out = [np.eye(self.dim, dtype=np.int64)]
        while True:
            product = np.zeros_like(ad)
            np.add.at(product, (slice(None), cols), out[-1][:, rows] * ad[rows, cols])
            power, remainder = np.divmod(product, len(out))
            if remainder.any():
                raise ValueError("divided power is not integral")
            if not power.any():
                break
            out.append(power)
        return out

    # -- commutator tables via exact peeling -------------------------------

    def exp_matrix(self, gamma, c: int) -> np.ndarray:
        """exp(c ad e_gamma) = sum_k c^k (ad e_gamma)^k / k!, over Python ints."""
        import numpy as np

        gamma = tuple(gamma)
        powers = self._powers_cache.get(gamma)
        if powers is None:
            powers = self._powers_cache[gamma] = self.divided_powers(gamma)
        out = np.zeros((self.dim, self.dim), dtype=object)
        for k, dk in enumerate(powers):
            out += c**k * dk.astype(object)
        return out

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
        import numpy as np

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
        m = (
            self.exp_matrix(a, 1) @ self.exp_matrix(b, 1)
            @ self.exp_matrix(a, -1) @ self.exp_matrix(b, -1)
        )
        entries = []
        for gamma in ordered:
            n = self._peel_coefficient(m, gamma)
            if n:
                m = self.exp_matrix(gamma, -n) @ m
                entries.append((gamma, n, by_root[gamma]))
        if not np.array_equal(m, np.eye(self.dim, dtype=np.int64)):
            raise ValueError("unipotent factorization failed in the given order")
        self._table_cache[key] = entries
        return entries

    def _peel_coefficient(self, m, gamma) -> int:
        """Coefficient of e_gamma in the leading factor, via the Cartan part
        of the image of e_{-gamma}."""
        col = self._root_index[_vec_scale(-1, gamma)]
        hvec = self.coroot_vector(gamma)
        pivot = next(i for i, c in enumerate(hvec) if c)
        coeff = _exact_div(m[pivot, col], hvec[pivot], "non-integral coefficient while peeling")
        if any(m[i, col] != coeff * c for i, c in enumerate(hvec)):
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
    """
    involved = sorted(
        {r for pair in tables for r in pair}
        | {g for entries in tables.values() for g, _, _ in entries}
    )
    wanted = {pair: [(tuple(g), n) for g, n, _ in want] for pair, want in targets.items()}
    solutions = []
    for bits in product((1, -1), repeat=len(involved)):
        signs = dict(zip(involved, bits))
        if all(
            [(g, n) for g, n, _ in apply_signs(entries, signs, *pair)] == wanted[pair]
            for pair, entries in tables.items()
        ):
            solutions.append(signs)
    if not solutions:
        raise ValueError("no sign choice achieves the displayed constants")
    return solutions
