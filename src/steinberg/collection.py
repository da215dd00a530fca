"""Symbolic collection in unipotent subgroups spanned by finitely many root
groups, and mechanical replays of the seven commutation arguments for
prenilpotent pairs that are not classically prenilpotent.

A `NilpotentRootSet` fixes finitely many affine roots, a total order graded
by height in the case generators, and an integer commutator table per
interacting pair.  Words are collected to the ordered normal form by adjacent
swaps; corrections carry strictly larger grades, so collection terminates.

Untwisted configurations draw their tables from the finite Chevalley
constants, with a sign choice solved to match the displayed relation forms.
The non-reduced and mod-3 configurations hard-code the displayed relations
and complete the few remaining entries by root-string magnitudes plus an
associativity search over the signs.  The pair (alpha, beta) under scrutiny
never receives a table entry: its relation is exactly what a replay derives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

from . import chevalley, diagrams, rings
from . import roots as R
from .roots import AffineRoot

_COLLECT_CAP = 500_000

CASE_IDS = (1, 2, 3, 4, 5, 6, 7, 8)  # 8 = the 0mod3 variant of case 4


class ConfigurationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# nilpotent root sets and the collection engine


@dataclass(frozen=True)
class NilpotentRootSet:
    ars: R.AffineRootSystem
    roots: tuple[AffineRoot, ...]  # collection order
    tables: dict  # (x, y) -> ((root, int, (i, j)), ...)
    commuting: frozenset  # frozensets {x, y} with empty commutator
    names: dict

    def order(self, root: AffineRoot) -> int:
        return self.roots.index(root)

    def name(self, root: AffineRoot) -> str:
        return self.names.get(root, str(root))

    def commutator_word(self, x: AffineRoot, cx, y: AffineRoot, cy):
        """[x_x(cx), x_y(cy)] as a list of letters, in table order."""
        if x == y:
            return []
        if frozenset((x, y)) in self.commuting:
            return []
        if (x, y) in self.tables:
            return [
                (g, rings.power(cx, i) * rings.power(cy, j) * rings.from_int(cx.desc, n))
                for g, n, (i, j) in self.tables[(x, y)]
            ]
        if (y, x) in self.tables:
            forward = [
                (g, rings.power(cy, i) * rings.power(cx, j) * rings.from_int(cx.desc, n))
                for g, n, (i, j) in self.tables[(y, x)]
            ]
            return [(g, -c) for g, c in reversed(forward)]
        raise ConfigurationError(
            f"required commutator coefficient missing for pair "
            f"({self.name(x)}, {self.name(y)})"
        )


def collect(nrs: NilpotentRootSet, letters) -> tuple:
    """Deterministic collection of a word to the ordered normal form."""
    word = list(letters)
    pos = {r: k for k, r in enumerate(nrs.roots)}
    steps = 0
    while True:
        steps += 1
        if steps > _COLLECT_CAP:
            raise ConfigurationError("collection did not terminate")
        changed = False
        k = 0
        while k < len(word):
            root, c = word[k]
            if c.is_zero():
                del word[k]
                changed = True
                break
            if k + 1 < len(word):
                r2, c2 = word[k + 1]
                if r2 == root:
                    word[k] = (root, c + c2)
                    del word[k + 1]
                    changed = True
                    break
                if pos[root] > pos[r2]:
                    corr = nrs.commutator_word(root, c, r2, c2)
                    word[k : k + 2] = corr + [(r2, c2), (root, c)]
                    changed = True
                    break
            k += 1
        if not changed:
            return tuple(word)


def inverse_word(letters):
    return [(r, -c) for r, c in reversed(letters)]


@dataclass(frozen=True)
class NormalProduct:
    nrs: NilpotentRootSet
    factors: tuple

    def __post_init__(self):
        last = -1
        for root, coeff in self.factors:
            k = self.nrs.order(root)
            if k <= last:
                raise ValueError("factors must be strictly increasing in the set order")
            last = k
            if coeff.is_zero():
                raise ValueError("zero coefficients are not stored")

    def is_empty(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(f"X_{{{self.nrs.name(r)}}}({c})" for r, c in self.factors)


def normal_product(nrs: NilpotentRootSet, letters) -> NormalProduct:
    return NormalProduct(nrs, collect(nrs, letters))


def multiply(nrs: NilpotentRootSet, a: NormalProduct, b: NormalProduct) -> NormalProduct:
    return normal_product(nrs, list(a.factors) + list(b.factors))


def commutator(nrs: NilpotentRootSet, a: NormalProduct, b: NormalProduct) -> NormalProduct:
    word = (
        list(a.factors)
        + list(b.factors)
        + inverse_word(a.factors)
        + inverse_word(b.factors)
    )
    return normal_product(nrs, word)


# ---------------------------------------------------------------------------
# configuration scaffolding


def _mag11(ars, x, y) -> int:
    return R.string_length(ars, x, y) + 1


def _build_nrs(ars, decomp, tables, names, excluded_pairs):
    """Finish a configuration: order roots by (grade, generator coords), mark
    commuting pairs, check closure and table coverage."""
    ordered = tuple(r for r, _ in sorted(decomp.items(), key=lambda kv: (sum(kv[1]), kv[1])))
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


@dataclass(frozen=True)
class CaseData:
    """A replay setup: the pair (alpha, beta), the expansion of X_beta(u) as a
    word in the other root groups, and the nilpotent root set carrying every
    relation the argument is allowed to use.

    The expansion is a sequence of items, each a plain letter
    ("x", root, fn) or a commutator ("comm", (root1, fn1), (root2, fn2));
    keeping the commutator structure matters, because conjugation respects it
    (the inverse half of a conjugated commutator is the free inverse of the
    conjugated first half)."""

    case_id: int
    nrs: NilpotentRootSet
    alpha: AffineRoot
    beta: AffineRoot
    expansion: tuple
    signs: dict
    finite_basis: object | None


# ---------------------------------------------------------------------------
# untwisted configurations: tables from oriented Chevalley constants


@lru_cache(maxsize=None)
def _basis(family: str, n: int) -> chevalley.ChevalleyBasis:
    return chevalley.build_chevalley_basis(
        R.enumerate_finite_roots(diagrams.finite_cartan(family, n), family)
    )


def _chevalley_affine_table(ars, basis, a, b, interior_order):
    """Commutator table of an untwisted affine pair, lifted from the finite
    constants, with the interior roots produced in the given order."""
    fin = basis.commutator_table(a.coords, b.coords, order=[g.coords for g in interior_order])
    out = []
    for (gcoords, n, (i, j)), g in zip(fin, interior_order):
        assert gcoords == g.coords
        out.append((g, n, (i, j)))
    return out


def _untwisted_tables(ars, basis, decomp, signs, epsilon_factors, excluded_pairs):
    ordered = [r for r, _ in sorted(decomp.items(), key=lambda kv: (sum(kv[1]), kv[1]))]
    tables = {}
    for ai, a in enumerate(ordered):
        for b in ordered[ai + 1 :]:
            if frozenset((a, b)) in excluded_pairs:
                continue
            interiors = sorted(
                (g for _, _, g in R.root_combinations(ars, a, b)),
                key=lambda g: (sum(decomp[g]), decomp[g]),
            )
            if not interiors:
                continue
            raw = _chevalley_affine_table(ars, basis, a, b, interiors)
            factor = epsilon_factors.get((a, b), 1)
            tables[(a, b)] = tuple(
                (g, factor * n, ij) for g, n, ij in chevalley.apply_signs(raw, signs, a, b)
            )
    return tables


def _solve_display_orientation(ars, basis, targets):
    """Every choice of signs per affine root achieving the displayed tables.

    `targets`: dict pair -> list of (root, coeff, (i, j)) in display order.
    """
    raw_tables = {
        (a, b): _chevalley_affine_table(ars, basis, a, b, [g for g, _, _ in want])
        for (a, b), want in targets.items()
    }
    try:
        return chevalley.solve_orientation(raw_tables, targets)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


# ---------------------------------------------------------------------------
# associativity search used by the twisted configurations


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
    try:
        for x, y, z in triples:
            a, b, c = coeffs
            whole = collect(nrs, [(x, a), (y, b), (z, c)])
            left = collect(nrs, list(collect(nrs, [(x, a), (y, b)])) + [(z, c)])
            right = collect(nrs, [(x, a)] + list(collect(nrs, [(y, b), (z, c)])))
            if not (whole == left == right):
                return False
    except ConfigurationError:
        return False
    return True


def _resolve_signs(ars, decomp, names, fixed_tables, unknown_slots, probe_exclude, excluded_pairs):
    """Try every sign assignment for the unknown table entries; keep those
    whose collection is associative on the probe subset.  Returns the list of
    completed table dicts that pass (deterministic order)."""
    zint = rings.integers()
    int_coeffs = [
        tuple(rings.from_int(zint, v) for v in vals)
        for vals in ((2, 3, 5), (-7, 11, -13))
    ]
    sym_desc = rings.polynomial_ring(rings.integers(), ("a", "b", "c"))
    sym_coeffs = tuple(rings.variable(sym_desc, v) for v in ("a", "b", "c"))

    survivors = []
    for bits in product((1, -1), repeat=len(unknown_slots)):
        tables = dict(fixed_tables)
        for sign, (pair, entry) in zip(bits, unknown_slots):
            g, mag, ij = entry
            tables.setdefault(pair, [])
            tables[pair] = tuple(list(tables[pair]) + [(g, sign * mag, ij)])
        nrs = _build_nrs(ars, decomp, tables, names, excluded_pairs)
        probe = [r for r in nrs.roots if r not in probe_exclude]
        triples = _interesting_triples(nrs, probe)
        if all(_associativity_holds(nrs, triples, cs) for cs in int_coeffs):
            if _associativity_holds(nrs, triples, sym_coeffs):
                survivors.append(tables)
    if not survivors:
        raise ConfigurationError("no sign assignment is associative")
    return survivors


# ---------------------------------------------------------------------------
# the case configurations


def _case_untwisted(case_id: int):
    if case_id == 1:
        ars = R.affine_system("A~2")
        gamma = AffineRoot((1, 0), 0)
        delta = AffineRoot((0, 1), 1)
        alpha = AffineRoot((1, 1), 0)
        beta = AffineRoot((1, 1), 1)
        decomp = {alpha: (1, 0, 0), gamma: (0, 1, 0), delta: (0, 0, 1), beta: (0, 1, 1)}
        names = {alpha: "alpha", beta: "beta", gamma: "gamma", delta: "delta"}
        targets = {(gamma, delta): [(beta, 1, (1, 1))]}
        expansion = [
            ("comm", (gamma, lambda u: u), (delta, lambda u: rings.one(u.desc))),
        ]
        return ars, _basis("A", 2), alpha, beta, decomp, names, targets, expansion, {}

    if case_id in (2, 3):
        ars = R.affine_system("B~2")
        basis = _basis("B", 2)
        sigma = AffineRoot((1, 1), 0)  # e_1, short
        lam = AffineRoot((-1, 0), 1)  # e_2 - e_1, long
        sig_lam = AffineRoot((0, 1), 1)
        two_sig_lam = AffineRoot((1, 2), 1)
        if case_id == 2:
            alpha = AffineRoot((1, 2), 0)
            beta = two_sig_lam
            decomp = {
                alpha: (1, 0, 0), sigma: (0, 1, 0), lam: (0, 0, 1),
                sig_lam: (0, 1, 1), beta: (0, 2, 1),
            }
            names = {
                alpha: "alpha", beta: "beta", sigma: "sigma", lam: "lambda",
                sig_lam: "sigma+lambda",
            }
            targets = {
                (sigma, lam): [(sig_lam, -1, (1, 1)), (beta, 1, (2, 1))]
            }
            one = lambda u: rings.one(u.desc)
            expansion = [
                ("x", sig_lam, lambda u: u),
                ("comm", (sigma, one), (lam, lambda u: u)),
            ]
            return ars, basis, alpha, beta, decomp, names, targets, expansion, {}
        alpha = AffineRoot((0, 1), 0)
        beta = sig_lam  # (e_2, 1) = sigma + lambda
        alpha_sigma = AffineRoot((1, 2), 0)
        decomp = {
            alpha: (1, 0, 0), sigma: (0, 1, 0), lam: (0, 0, 1),
            beta: (0, 1, 1), two_sig_lam: (0, 2, 1), alpha_sigma: (1, 1, 0),
        }
        names = {
            alpha: "alpha", beta: "beta", sigma: "sigma", lam: "lambda",
            two_sig_lam: "2*sigma+lambda", alpha_sigma: "alpha+sigma",
        }
        targets = {
            (sigma, lam): [(beta, -1, (1, 1)), (two_sig_lam, 1, (2, 1))]
        }
        one = lambda u: rings.one(u.desc)
        expansion = [
            ("comm", (sigma, one), (lam, lambda u: -u)),
            ("x", two_sig_lam, lambda u: u),
        ]
        return ars, basis, alpha, beta, decomp, names, targets, expansion, {}

    # case 4: G~2, alpha = beta projection a short root
    ars = R.affine_system("G~2")
    basis = _basis("G", 2)
    sigma = AffineRoot((1, 0), 0)
    lam = AffineRoot((0, 1), 1)
    alpha = AffineRoot((1, 1), 0)
    beta = AffineRoot((1, 1), 1)
    alpha_sigma = AffineRoot((2, 1), 0)
    two_sig_lam = AffineRoot((2, 1), 1)
    alpha_2sigma = AffineRoot((3, 1), 0)
    three_sig_lam = AffineRoot((3, 1), 1)
    two_alpha_sigma = AffineRoot((3, 2), 0)
    alpha_2sig_lam = AffineRoot((3, 2), 1)
    three_sig_2lam = AffineRoot((3, 2), 2)
    decomp = {
        alpha: (1, 0, 0), sigma: (0, 1, 0), lam: (0, 0, 1),
        beta: (0, 1, 1), alpha_sigma: (1, 1, 0), two_sig_lam: (0, 2, 1),
        alpha_2sigma: (1, 2, 0), two_alpha_sigma: (2, 1, 0),
        three_sig_lam: (0, 3, 1), alpha_2sig_lam: (1, 2, 1),
        three_sig_2lam: (0, 3, 2),
    }
    names = {
        alpha: "alpha", sigma: "sigma", lam: "lambda", beta: "beta",
        alpha_sigma: "alpha+sigma", two_sig_lam: "2*sigma+lambda",
        alpha_2sigma: "alpha+2*sigma", two_alpha_sigma: "2*alpha+sigma",
        three_sig_lam: "3*sigma+lambda", alpha_2sig_lam: "alpha+2*sigma+lambda",
        three_sig_2lam: "3*sigma+2*lambda",
    }
    targets = {
        # displayed in the order 2s+l, s+l, 3s+l, 3s+2l
        (sigma, lam): [
            (two_sig_lam, 1, (2, 1)),
            (beta, -1, (1, 1)),
            (three_sig_lam, 1, (3, 1)),
            (three_sig_2lam, -1, (3, 2)),
        ],
        (alpha, two_sig_lam): [(alpha_2sig_lam, 3, (1, 1))],
        (sigma, alpha): [
            (alpha_sigma, -2, (1, 1)),
            (alpha_2sigma, -3, (2, 1)),
            (two_alpha_sigma, -3, (1, 2)),
        ],
    }
    one = lambda u: rings.one(u.desc)
    expansion = [
        ("x", three_sig_lam, lambda u: u),
        ("x", three_sig_2lam, lambda u: -(u * u)),
        ("comm", (lam, lambda u: u), (sigma, one)),
        ("x", two_sig_lam, lambda u: u),
    ]
    eps_pairs = {"eps": (sigma, alpha_sigma), "eps_prime": (lam, alpha_2sigma)}
    return ars, basis, alpha, beta, decomp, names, targets, expansion, eps_pairs


def _case_config_untwisted(case_id: int, eps: int, eps_prime: int) -> CaseData:
    ars, basis, alpha, beta, decomp, names, targets, expansion, eps_pairs = _case_untwisted(case_id)
    signs = _solve_display_orientation(ars, basis, targets)[0]
    factors = {}
    if eps_pairs:
        factors[eps_pairs["eps"]] = eps
        factors[eps_pairs["eps_prime"]] = eps_prime
    excluded = frozenset({frozenset((alpha, beta))})
    tables = _untwisted_tables(ars, basis, decomp, signs, factors, excluded)
    if eps_pairs:
        # the display normalization pins both remaining signs to +1; the
        # epsilon parameters then scale those two entries
        s_entry = tables[eps_pairs["eps"]]
        l_entry = tables[eps_pairs["eps_prime"]]
        assert [n for _, n, _ in s_entry] == [3 * eps]
        assert [n for _, n, _ in l_entry] == [eps_prime]
    nrs = _build_nrs(ars, decomp, tables, names, excluded)
    return CaseData(case_id, nrs, alpha, beta, tuple(expansion), signs, basis)


def _case_config_twisted(case_id: int) -> CaseData:
    one = lambda u: rings.one(u.desc)
    if case_id in (5, 6, 7):
        ars = R.affine_system("BC~2^odd")
        if case_id == 5:
            mu = AffineRoot((1, 0), 0)
            lam = AffineRoot((0, 2), 1)
            mu_lam = AffineRoot((1, 2), 1)
            alpha = AffineRoot((1, 1), 0)
            beta = AffineRoot((2, 2), 1)
            decomp = {
                alpha: (1, 0, 0), mu: (0, 1, 0), lam: (0, 0, 1),
                mu_lam: (0, 1, 1), beta: (0, 2, 1),
            }
            names = {
                alpha: "alpha", beta: "beta", mu: "mu", lam: "lambda",
                mu_lam: "mu+lambda",
            }
            fixed = {
                (mu, lam): ((mu_lam, -1, (1, 1)), (beta, 1, (2, 1))),
            }
            unknown = [((mu, mu_lam), (beta, _mag11(ars, mu, mu_lam), (1, 1)))]
            expansion = [
                ("x", mu_lam, lambda u: u),
                ("comm", (mu, one), (lam, lambda u: u)),
            ]
        else:
            level = 1 if case_id == 6 else 2
            sigma = AffineRoot((0, 1), level)
            mu = AffineRoot((1, 0), 0)
            alpha = AffineRoot((1, 1), 0)
            beta = AffineRoot((1, 1), level)
            alpha_sigma = AffineRoot((1, 2), level)
            two_sig_mu = AffineRoot((1, 2), 2 * level)
            decomp = {
                alpha: (1, 0, 0), sigma: (0, 1, 0), mu: (0, 0, 1),
                beta: (0, 1, 1), alpha_sigma: (1, 1, 0), two_sig_mu: (0, 2, 1),
            }
            names = {
                alpha: "alpha", beta: "beta", sigma: "sigma", mu: "mu",
                alpha_sigma: "alpha+sigma", two_sig_mu: "2*sigma+mu",
            }
            fixed = {
                (sigma, mu): ((beta, -1, (1, 1)), (two_sig_mu, 1, (2, 1))),
                # the displayed relation is [X_alpha(t), X_sigma(u)] = X(-2tu);
                # stored in (sigma, alpha) direction, whence the sign flip
                (alpha, sigma): ((alpha_sigma, -2, (1, 1)),),
            }
            if case_id == 6:
                eta = AffineRoot((2, 2), 1)
                decomp[eta] = (1, 1, 1)
                names[eta] = "alpha+beta"
                fixed[(mu, alpha_sigma)] = ((eta, -2, (1, 1)),)
            unknown = [((sigma, beta), (two_sig_mu, _mag11(ars, sigma, beta), (1, 1)))]
            expansion = [
                ("x", two_sig_mu, lambda u: u),
                ("comm", (mu, lambda u: u), (sigma, one)),
            ]
    else:  # case 8: the G~2^0mod3 variant of case 4
        ars = R.affine_system("G~2^0mod3")
        sigma = AffineRoot((1, 0), 1)
        lam = AffineRoot((0, 1), 0)
        alpha = AffineRoot((1, 1), 0)
        beta = AffineRoot((1, 1), 1)
        alpha_sigma = AffineRoot((2, 1), 1)
        two_sig_lam = AffineRoot((2, 1), 2)
        three_sig_lam = AffineRoot((3, 1), 3)
        three_sig_2lam = AffineRoot((3, 2), 3)
        decomp = {
            alpha: (1, 0, 0), sigma: (0, 1, 0), lam: (0, 0, 1),
            beta: (0, 1, 1), alpha_sigma: (1, 1, 0), two_sig_lam: (0, 2, 1),
            three_sig_lam: (0, 3, 1), three_sig_2lam: (0, 3, 2),
        }
        names = {
            alpha: "alpha", beta: "beta", sigma: "sigma", lam: "lambda",
            alpha_sigma: "alpha+sigma", two_sig_lam: "2*sigma+lambda",
            three_sig_lam: "3*sigma+lambda", three_sig_2lam: "3*sigma+2*lambda",
        }
        fixed = {
            # the four-term relation, in its displayed order
            (sigma, lam): (
                (two_sig_lam, 1, (2, 1)),
                (beta, -1, (1, 1)),
                (three_sig_lam, 1, (3, 1)),
                (three_sig_2lam, -1, (3, 2)),
            ),
            # altered short-root relation: single term with coefficient 1
            (sigma, alpha): ((alpha_sigma, 1, (1, 1)),),
        }
        m21 = (_mag11(ars, sigma, beta) * _mag11(ars, sigma, two_sig_lam)) // 2
        m12 = (_mag11(ars, beta, sigma) * _mag11(ars, beta, two_sig_lam)) // 2
        unknown = [
            ((sigma, beta), (two_sig_lam, _mag11(ars, sigma, beta), (1, 1))),
            ((sigma, beta), (three_sig_lam, m21, (2, 1))),
            ((sigma, beta), (three_sig_2lam, m12, (1, 2))),
            ((sigma, two_sig_lam), (three_sig_lam, _mag11(ars, sigma, two_sig_lam), (1, 1))),
            ((lam, three_sig_lam), (three_sig_2lam, _mag11(ars, lam, three_sig_lam), (1, 1))),
            ((beta, two_sig_lam), (three_sig_2lam, _mag11(ars, beta, two_sig_lam), (1, 1))),
        ]
        expansion = [
            ("x", three_sig_lam, lambda u: u),
            ("x", three_sig_2lam, lambda u: -(u * u)),
            ("comm", (lam, lambda u: u), (sigma, one)),
            ("x", two_sig_lam, lambda u: u),
        ]

    excluded = frozenset({frozenset((alpha, beta))})
    survivors = _resolve_signs(ars, decomp, names, fixed, unknown, {alpha}, excluded)
    if len(survivors) != 1:
        raise ConfigurationError(
            f"case {case_id}: sign search found {len(survivors)} consistent assignments"
        )
    nrs = _build_nrs(ars, decomp, survivors[0], names, excluded)
    return CaseData(case_id, nrs, alpha, beta, tuple(expansion), {}, None)


@lru_cache(maxsize=None)
def case_configuration(case_id: int, eps: int = 1, eps_prime: int = 1) -> CaseData:
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown case id {case_id}")
    if case_id == 4:
        if eps not in (1, -1) or eps_prime not in (1, -1):
            raise ValueError("sign parameters must be +1 or -1")
        return _case_config_untwisted(4, eps, eps_prime)
    if (eps, eps_prime) != (1, 1):
        raise ValueError("sign parameters apply to case 4 only")
    if case_id in (1, 2, 3):
        return _case_config_untwisted(case_id, 1, 1)
    return _case_config_twisted(case_id)


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
    nrs = replace(case.nrs, tables=tables)
    return replace(case, nrs=nrs)


# ---------------------------------------------------------------------------
# replay


def expansion_word(case: CaseData, u: rings.RingElement):
    word = []
    for item in case.expansion:
        if item[0] == "x":
            _, root, fn = item
            word.append((root, fn(u)))
        else:
            _, (r1, f1), (r2, f2) = item
            a, b = (r1, f1(u)), (r2, f2(u))
            word += [a, b, (r1, -a[1]), (r2, -b[1])]
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

    word = []
    conjugated = []
    for item in case.expansion:
        if item[0] == "x":
            _, root, fn = item
            coeff = fn(u)
            word.append((root, coeff))
            conjugated += conj_letter(root, coeff)
        else:
            _, (r1, f1), (r2, f2) = item
            a, b = (r1, f1(u)), (r2, f2(u))
            word += [a, b, (r1, -a[1]), (r2, -b[1])]
            ca, cb = conj_letter(*a), conj_letter(*b)
            conjugated += ca + cb + inverse_word(ca) + inverse_word(cb)
    return normal_product(case.nrs, conjugated + inverse_word(word))


def replay_case(case_id: int, eps: int = 1, eps_prime: int = 1) -> NormalProduct:
    return replay(case_configuration(case_id, eps, eps_prime))


def case4_constant(eps: int, eps_prime: int) -> int:
    """The coefficient C with [X_alpha(t), X_beta(u)] = X_{alpha+2 sigma+lambda}(C t u)."""
    result = replay_case(4, eps, eps_prime)
    if result.is_empty():
        return 0
    if len(result.factors) != 1:
        raise ConfigurationError(f"unexpected replay value {result}")
    root, coeff = result.factors[0]
    if case_configuration(4, eps, eps_prime).nrs.name(root) != "alpha+2*sigma+lambda":
        raise ConfigurationError(f"unexpected replay root {result}")
    data = coeff.data
    if len(data) != 1 or data[0][0] != (1, 1):
        raise ConfigurationError(f"coefficient is not a multiple of t*u: {coeff}")
    return data[0][1]


def verdict(result: NormalProduct) -> str:
    if result.is_empty():
        return "COMMUTE"
    if len(result.factors) == 1:
        _, coeff = result.factors[0]
        data = coeff.data
        if len(data) == 1 and data[0][0] == (1, 1):
            return f"CONSTANT C={data[0][1]}"
    return "NONTRIVIAL"
