"""Chevalley bases and structure constants for finite root systems.

The integer constants N(a, b) with [e_a, e_b] = N(a, b) e_{a+b} are built
deterministically: positive roots are ordered by (height, lex), each
non-simple positive root gets a positive constant on its extraspecial pair,
and every other constant follows from the Jacobi identity, antisymmetry and
the zero-sum-triple proportionality.  Commutator tables for root-group pairs
are then extracted from exact exponential computations in the adjoint
representation over Z[t, u], never from closed-form coefficient formulas.
"""

from __future__ import annotations

from itertools import product

from . import rings
from .roots import (
    FiniteRootSystem, _vec_add, _vec_scale, _vec_sub, root_combinations, string_length,
)


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

    def divided_powers(self, gamma) -> list[tuple[tuple[int, ...], ...]]:
        """(ad e_gamma)^k / k! for k = 0.. until zero; all integral."""
        gamma = tuple(gamma)
        cached = self._powers_cache.get(gamma)
        if cached is not None:
            return cached
        n = self.dim
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        ad = self.adjoint_matrix(gamma)
        out = [ident]
        current = ident
        k = 0
        while True:
            k += 1
            nxt = _int_mat_mul(current, ad)
            nxt = tuple(
                tuple(_exact_div(x, k, "divided power is not integral") for x in row)
                for row in nxt
            )
            if all(all(x == 0 for x in row) for row in nxt):
                break
            out.append(nxt)
            current = nxt
        self._powers_cache[gamma] = out
        return out

    # -- commutator tables via exact peeling -------------------------------

    def exp_matrix(self, gamma, coeff: rings.RingElement):
        """exp(coeff * ad e_gamma) over the coefficient's ring."""
        desc = coeff.desc
        powers = self.divided_powers(gamma)
        n = self.dim
        zero = rings.zero(desc)
        mat = [[zero for _ in range(n)] for _ in range(n)]
        term = rings.one(desc)
        for k, dk in enumerate(powers):
            if k:
                term = term * coeff
            for i in range(n):
                row = dk[i]
                for j in range(n):
                    if row[j]:
                        mat[i][j] = mat[i][j] + term.scale(row[j])
        return mat

    def commutator_table(self, a, b, order=None):
        """Coefficients of [x_a(t), x_b(u)] = prod_gamma x_gamma(N t^i u^j).

        The product is taken in ascending (i+j, i) order unless an explicit
        interior-root order is supplied.  Extraction is by peeling exponentials
        off the exact adjoint-representation commutator; the final residue is
        asserted to be the identity matrix.
        """
        a, b = tuple(a), tuple(b)
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
        desc = rings.polynomial_ring(rings.integers(), ("t", "u"))
        t = rings.variable(desc, "t")
        u = rings.variable(desc, "u")
        amat = self.exp_matrix(a, t)
        bmat = self.exp_matrix(b, u)
        ainv = self.exp_matrix(a, -t)
        binv = self.exp_matrix(b, -u)
        m = _mat_mul(_mat_mul(amat, bmat), _mat_mul(ainv, binv))
        entries = []
        for gamma in ordered:
            coeff = self._peel_coefficient(m, gamma)
            if not coeff.is_zero():
                m = _mat_mul(self.exp_matrix(gamma, -coeff), m)
                i, j = by_root[gamma]
                n_int = _monomial_int(coeff, (i, j))
                entries.append((gamma, n_int, (i, j)))
        if not _is_identity(m):
            raise ValueError("unipotent factorization failed in the given order")
        self._table_cache[key] = entries
        return entries

    def _peel_coefficient(self, m, gamma):
        """Coefficient of e_gamma in the leading factor, via the Cartan part
        of the image of e_{-gamma}."""
        col = self._root_index[_vec_scale(-1, gamma)]
        hvec = self.coroot_vector(gamma)
        pivot = next(i for i, c in enumerate(hvec) if c)
        coeff = rings.exact_div_int(m[pivot][col], hvec[pivot])
        for i, c in enumerate(hvec):
            expected = coeff.scale(c)
            if m[i][col] != expected:
                raise ValueError("inconsistent Cartan component while peeling")
        return coeff


# ---------------------------------------------------------------------------
# helpers


def _int_mat_mul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _exact_div(num: int, den: int, error: str) -> int:
    """num / den, raising ValueError(error) unless it is an integer."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ValueError(error)
    return quotient


def _mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                x = row_a[k]
                if x.is_zero():
                    continue
                y = b[k][j]
                if y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else rings.zero(row_a[0].desc))
        out.append(row)
    return out


def _is_identity(m) -> bool:
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if i == j:
                if not x.is_one():
                    return False
            elif not x.is_zero():
                return False
    return True


def _monomial_int(coeff: rings.RingElement, exps: tuple[int, int]) -> int:
    data = coeff.data
    if len(data) != 1 or data[0][0] != exps:
        raise ValueError(f"expected a monomial t^{exps[0]} u^{exps[1]}, got {coeff}")
    return data[0][1]


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
