"""Exact matrix realization of untwisted affine root groups inside the
adjoint Chevalley group over Laurent polynomials.

A LoopMatrix is a dim x dim matrix over (Z/n)[t, t^-1], kept as the dict
{(row, col, degree): value} of its nonzero entries: value, in 1..n-1, is the
coefficient of t^degree at (row, col).  This is the sparse form of the
Chevalley layer with the degree added.  It fits the letters of the relators:
a root-group letter X_i(u) is the identity plus the few entries of the
divided powers of ad e_beta, and a Weyl letter S_i is a signed permutation on
most of the basis, so the products along a word stay sparse as well.

The product is the only kernel of word evaluation.  It walks the entries of
the left factor against a row index of the right factor, built once per
value, and reduces the sums mod n when the product is done.  A right factor
that differs from the identity in fewer entries than it has, such as a
root-group letter I + N, is indexed by those entries instead: the product
is then the left factor plus its product with N.  Entries are
Python ints, which cannot overflow, so every product is exact for every n;
exponentials use the integral divided powers of the adjoint basis, so no
division mod n ever happens.  The model still refuses rings with
dim (n - 1)^2 >= 2^63 (exit 3): a failing relation is decided instance by
instance, over the n^2 parameter pairs of its two-parameter families, so
such a ring could not be checked anyway.

verify_presentation decides each relation family from its schema, the
relator of presentation.relators_for over Z with parameters in
presentation.SCHEMA_RING = Z[r^+-1][t][u^+-1][v^+-1].  Each side is evaluated
once over (Z/n)[z^(+-1)][r^(+-1), t, u^(+-1), v^(+-1)], z the loop variable
(the t above, renamed): a letter X_i(p) is I + sum_k p^k z^(k m) D_k, p^k
computed in the schema ring, and a balanced Kronecker substitution
(_Packing) packs each monomial into the one integer degree, so the product
above is also the kernel of these formal words.  Equal formal values pass
every instance of the family (verify_presentation says why this is exact);
only a schema whose values differ has its instances enumerated and decided
by plain products.  A leading htilde_i(p) or S_i S_i and a trailing
htilde_i(p)^-1 or S_i^-1 S_i^-1 are kept by the packing under their letters,
so the conjugators of the torus-action and s2 families are multiplied out
once per node, not once per (i, j).  They are torus elements, diagonal with
one term per row, so only the run of letters between them is multiplied
out, and the kept head scales the rows of that product and the kept tail
its columns, both in a single pass over its entries (_scaled).  A run of
two or more letters that two or more words of one verify_relators call
share, such as the S_j X_j(t) S_j^-1 of torus-action-2 for every i, is
multiplied out once and kept by the packing beside its letters (runs).

The Weyl and torus actions on root groups are proved on the coefficients of
u, by conjugating divided powers entry by entry (see verify_morita_rehmann).
That work grows with the finite roots, not with the affine roots up to the
level bound.  t is central in the Laurent matrix ring, so conjugating
t^(k m) D_k is conjugating D_k and shifting every degree by k m; the verdict
of (beta, m) is that of (beta, 0) against the image shifted down by m.  It
depends only on beta, the image's finite root, the image's level offset and
the candidate coefficients, and each such key is proved once per
conjugator.  The torus action is proved once per node, with
the formal htilde_i(r) kept by the packing as the conjugator: it is diagonal
over (Z/n)[r^(+-1)], and r^<alpha_i^vee, beta> is a shift of the packed
degree, so no unit is ever substituted unless that proof fails.  Being
diagonal, it is proved on its diagonal and that of its inverse, entry by
entry of each D_k, with no conjugate built (_torus_proven).  The term
dicts c^k t^(k m) D_k of each (root, candidate) are built once per model.

The root group of (beta, m) goes to exp(u t^m ad e_beta), a quotient by a
central kernel: a relation that fails in the model fails in the group, and
every presentation relation must pass.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from functools import cached_property, lru_cache, reduce

from . import chevalley, diagrams, presentation, rings
from . import roots as R
from .rings import UnsupportedModelError
from .roots import AffineRoot


class LoopMatrix(rings.Record):
    """A square matrix over (Z/n)[t^(+-1)]: ``entries[row, col, degree]`` is
    the nonzero coefficient of t^degree at (row, col), reduced mod n.  A
    Record of entries, n and dim, compared shape first, that hashes its shape
    only, since its entries are a dict."""

    _fields = ("n", "dim", "entries")

    def __init__(self, entries: dict, n: int, dim: int):
        self.__dict__.update(entries=entries, n=n, dim=dim)

    def __hash__(self):
        return hash((self.n, self.dim, len(self.entries)))

    @cached_property
    def blocks(self) -> tuple:
        """((degree, {(row, col): value}), ...) of the nonzero degrees, ascending."""
        graded: dict = {}
        for (row, col, degree), value in self.entries.items():
            graded.setdefault(degree, {})[row, col] = value
        return tuple(sorted(graded.items(), key=operator.itemgetter(0)))

    @cached_property
    def _rows(self) -> dict:
        """row -> [(col, degree, value), ...], the index a left factor walks."""
        index: dict = {}
        for (row, col, degree), value in self.entries.items():
            index.setdefault(row, []).append((col, degree, value))
        return index

    @cached_property
    def _cols(self) -> dict:
        """col -> [(row, degree, value), ...]."""
        index: dict = {}
        for (row, col, degree), value in self.entries.items():
            index.setdefault(col, []).append((row, degree, value))
        return index

    @cached_property
    def _offset_rows(self) -> dict | None:
        """The _rows index of self - I when that has fewer entries than self,
        as for a root-group letter I + N; else None."""
        entries, index, count = self.entries, {}, 0
        for i in range(self.dim):
            if (value := entries.get((i, i, 0), 0) - 1) % self.n:
                index[i] = [(i, 0, value)]
                count += 1
        for (row, col, degree), value in entries.items():
            if row != col or degree:
                index.setdefault(row, []).append((col, degree, value))
                count += 1
        return index if count < len(entries) else None

    def __mul__(self, other: "LoopMatrix") -> "LoopMatrix":
        n, offset = self.n, other._offset_rows
        rows = other._rows if offset is None else offset
        sums: dict = {}
        for (row, mid, degree), value in self.entries.items():
            for col, other_degree, other_value in rows.get(mid, ()):
                key = row, col, degree + other_degree
                sums[key] = sums.get(key, 0) + value * other_value
        if offset is None:
            return LoopMatrix(_reduced(sums, n), n, self.dim)
        # self other = self + self (other - I); self's entries are reduced
        entries = dict(self.entries)
        for key, total in sums.items():
            if value := (entries.get(key, 0) + total) % n:
                entries[key] = value
            else:
                entries.pop(key, None)
        return LoopMatrix(entries, n, self.dim)

    def is_identity(self) -> bool:
        return self == identity_matrix(self.n, self.dim)

    def is_diagonal(self) -> bool:
        return all(row == col and degree == 0 for row, col, degree in self.entries)

    @cached_property
    def _diagonal(self) -> dict | None:
        """row -> (degree, value) when every entry is on the diagonal and no
        row has two, else None.  Rows without an entry are zero rows."""
        diagonal: dict = {}
        for (row, col, degree), value in self.entries.items():
            if row != col or row in diagonal:
                return None
            diagonal[row] = degree, value
        return diagonal


def _reduced(sums: dict, n: int) -> dict:
    """The entries of sums reduced mod n, zeros dropped."""
    return {key: value for key, total in sums.items() if (value := total % n)}


def _scaled(head: LoopMatrix | None, m: LoopMatrix, tail: LoopMatrix | None) -> LoopMatrix:
    """head m tail, a missing factor (None) read as I.  A head or tail
    diagonal with one term c t^d per row scales the rows or the columns of
    m; both are applied in one pass over m's entries, which drops the
    entries that become 0 mod n.  Any other head or tail is multiplied."""
    rows = cols = None
    if head is not None and (rows := head._diagonal) is None:
        m = head * m
    if tail is not None and (cols := tail._diagonal) is None:
        m = m * tail
    if rows is None and cols is None:
        return m
    n, entries = m.n, {}
    for (row, col, degree), value in m.entries.items():
        if rows is not None:
            if (scale := rows.get(row)) is None:
                continue
            degree, value = degree + scale[0], value * scale[1]
        if cols is not None:
            if (scale := cols.get(col)) is None:
                continue
            degree, value = degree + scale[0], value * scale[1]
        if value := value % n:
            entries[row, col, degree] = value
    return LoopMatrix(entries, n, m.dim)


@lru_cache(maxsize=None)
def identity_matrix(n: int, dim: int) -> LoopMatrix:
    return LoopMatrix({(i, i, 0): 1 for i in range(dim)}, n, dim)


class LoopModel:
    """Adjoint loop realization for an untwisted affine diagram over Z/n."""

    def __init__(
        self,
        a: diagrams.GeneralizedCartanMatrix,
        ring: rings.RingDescriptor,
        ars: R.AffineRootSystem | None = None,
        node_map: dict | None = None,
    ):
        if ring.kind not in ("Zmod", "GF"):
            raise UnsupportedModelError("the loop model needs a finite coefficient ring")
        if ars is None:
            ars, node_map = R.affine_system_for_matrix(a)
        if ars.superscript is not None:
            raise UnsupportedModelError(
                f"unsupported model: {ars.cls} is twisted; the loop realization "
                "covers untwisted diagrams only"
            )
        self.gcm = a
        self.ring = ring
        self.n = ring.params[0]
        self.ars = ars
        self.node_map = node_map
        self.basis = chevalley.build_chevalley_basis(ars.finite)
        self.dim = self.basis.dim
        if self.dim * (self.n - 1) ** 2 >= 2**63:
            # far more parameter pairs than verify could ever enumerate
            raise UnsupportedModelError(
                f"unsupported model: {ring} is too large to check with "
                f"{self.dim}-dimensional matrices"
            )
        simples = R.simple_affine_roots(ars)
        self.simple_of_node = {i: simples[node_map[i]] for i in range(a.rank)}
        self._powers_cache: dict = {}
        self._terms_cache: dict = {}  # (root, c mod n) -> _graded_terms
        self._s_cache: dict = {}
        self._x_cache: dict = {}
        self._box_shares: dict = {}  # generator -> _box_share
        self._packing = _Packing(0, 0)  # widened by _cover

    # -- elementary matrices ------------------------------------------------

    def _divided_powers(self, coords) -> tuple:
        """((k, ((row, col, value), ...)), ...): the nonzero entries of
        (ad e)^k / k! mod n for the k >= 1 where there are any, ascending."""
        cached = self._powers_cache.get(coords)
        if cached is None:
            graded = []
            for k, power in enumerate(self.basis.divided_powers(coords)[1:], 1):
                entries = tuple((row, col, residue) for (row, col), value in power.items()
                                if (residue := value % self.n))
                if entries:
                    graded.append((k, entries))
            cached = self._powers_cache[coords] = tuple(graded)
        return cached

    def root_element(self, root: AffineRoot, u: rings.RingElement) -> LoopMatrix:
        """exp(u t^m ad e_beta) for the affine real root (beta, m)."""
        if root not in self.ars:
            raise ValueError(f"{root} is not a real root of {self.ars.cls}")
        if u.desc != self.ring:
            raise ValueError("coefficient lies in the wrong ring")
        return self._exponential(root.coords, lambda k: [(k * root.level, pow(u.data, k, self.n))])

    def _exponential(self, coords, terms) -> LoopMatrix:
        """I + sum_k c t^degree D_k over the (degree, c) in terms(k), for the
        divided powers D_k of e_beta, beta = coords: exp(c t^m ad e_beta) for
        terms(k) = [(k m, c^k)], and the formal letter X_i(p) of
        _kept for the packed monomials of p^k."""
        n = self.n
        entries = dict(identity_matrix(n, self.dim).entries)
        # D_k raises weights by k beta, so no two k share a position, and the
        # monomials of one p^k have distinct packed degrees
        for k, power in self._divided_powers(coords):
            for degree, coeff in terms(k):
                for row, col, value in power:
                    if value := coeff * value % n:
                        entries[row, col, degree] = value
        return LoopMatrix(entries, n, self.dim)

    def _s_letter(self, i: int, c: int) -> LoopMatrix:
        """exp(c e) exp(-c f) exp(c e) built from the affine simple root of
        node i: the Weyl representative S_i for c = 1, its inverse for c = -1."""
        key = (i, c)
        cached = self._s_cache.get(key)
        if cached is None:
            root = self.simple_of_node[i]
            neg = AffineRoot(tuple(-x for x in root.coords), -root.level)
            e = self.root_element(root, rings.from_int(self.ring, c))
            cached = e * self.root_element(neg, rings.from_int(self.ring, -c)) * e
            self._s_cache[key] = cached
        return cached

    def _box_share(self, gen: presentation.Generator) -> tuple:
        """(d, e) for a letter of gen, of either sign: d bounds its |z-degree|
        and e the |exponent| of any variable in its entries (see _box).  With
        kmax the largest k with D_k != 0 mod n at the node's simple root
        (beta, m) or at (-beta, -m), X_i(u) has z-degrees k m with k <= kmax,
        and so has S_i; a formal X_i(p) has e = kmax times the largest
        |exponent| in p.  Kept on the model, per generator.

        S_i.  A term of exp(e) exp(-f) exp(e), e = z^m ad e_beta and
        f = z^-m ad e_-beta, sends the weight space of lambda to that of
        lambda + k beta at z-degree k m, and S_i sends the weight space of
        lambda onto that of s_beta(lambda) (Steinberg, Lectures on Chevalley
        Groups, section 3).  So its z-degrees are k m with
        k = -<beta^vee, lambda>, lambda a root or 0, and |k| <= kmax: the
        beta-string mu, ..., mu + L beta through lambda has L >= |k|, and
        D_L sends e_mu to +-e_(mu + L beta), so D_L != 0 mod n."""
        cached = self._box_shares.get(gen)
        if cached is None:
            root = self.simple_of_node[gen.node]
            neg = tuple(-x for x in root.coords)
            kmax = max(k for coords in (root.coords, neg)
                       for k, _ in ((0, ()), *self._divided_powers(coords)))
            top = 0
            if gen.kind == "X" and gen.param.desc != self.ring:
                top = max((abs(x) for exps, _ in _monomials(gen.param, 1) for x in exps),
                          default=0)
            cached = self._box_shares[gen] = (kmax * abs(root.level), kmax * top)
        return cached

    def s_matrix(self, i: int) -> LoopMatrix:
        return self._s_letter(i, 1)

    def s_inverse(self, i: int) -> LoopMatrix:
        return self._s_letter(i, -1)

    def x_matrix(self, i: int, u: rings.RingElement) -> LoopMatrix:
        key = (i, u.data)
        cached = self._x_cache.get(key)
        if cached is None:
            cached = self.root_element(self.simple_of_node[i], u)
            self._x_cache[key] = cached
        return cached

    # -- word evaluation ----------------------------------------------------

    def letter(self, gen: presentation.Generator, exp: int) -> LoopMatrix:
        """The value of a letter; a parameter in the schema ring gives the
        formal letter, packed by the current packing."""
        if gen.kind == "S":
            return self.s_matrix(gen.node) if exp > 0 else self.s_inverse(gen.node)
        u = gen.param if exp > 0 else -gen.param
        if u.desc == self.ring:
            return self.x_matrix(gen.node, u)
        return self._kept(((presentation.X(gen.node, u), 1),))

    def evaluate_word(self, w) -> LoopMatrix:
        """The value of a word, multiplied out letter by letter."""
        return self._times([self.letter(gen, exp) for gen, exp in w])

    def _kept(self, letters: tuple) -> LoopMatrix:
        """The value of a formal letter or of a kept segment (see _value),
        kept by the packing under its letters."""
        values = self._packing.values
        value = values.get(letters)
        if value is None:
            if len(letters) == 1:
                # X_i(p) = I + sum_k p^k z^(k m) D_k
                (gen, _), = letters
                root, degree = self.simple_of_node[gen.node], self._packing.degree
                value = self._exponential(root.coords, lambda k: [
                    (degree(k * root.level, exps), c) for exps, c in _monomials(gen.param, k)])
            else:
                value = self.evaluate_word(letters)
            values[letters] = value
        return value

    def _cover(self, words) -> None:
        """Widen the packing, with an empty cache, unless it holds the words."""
        span, top = _box(self, words)
        if span > self._packing.span or top > self._packing.top:
            self._packing = _Packing(max(span, self._packing.span), max(top, self._packing.top))

    def _times(self, values: list) -> LoopMatrix:
        return reduce(operator.mul, values) if values else identity_matrix(self.n, self.dim)


def build_model(a, ring: rings.RingDescriptor) -> LoopModel:
    if isinstance(a, str):
        a = diagrams.parse_diagram(a)
    return LoopModel(a, ring)


def model_for_system(ars: R.AffineRootSystem, ring: rings.RingDescriptor) -> LoopModel:
    """Model over a given affine system, keeping its own simple-root order."""
    a = diagrams.affine_cartan(ars.cls)
    return LoopModel(a, ring, ars=ars, node_map={i: i for i in range(a.rank)})


# ---------------------------------------------------------------------------
# reports


_H = len(presentation.htilde(0, rings.one(rings.integers())))  # letters of htilde_i(p)


class _Packing:
    """The balanced Kronecker substitution z -> x, r -> x^(s_1), t -> x^(s_2),
    u -> x^(s_3), v -> x^(s_4) that packs the monomial z^d r^a t^b u^c v^e of
    a formal value into the one integer degree d + a s_1 + b s_2 + c s_3 +
    e s_4.  It is a ring homomorphism, so the product kernel multiplies packed
    values exactly, and it is injective on the box |d| <= span, |exponent of
    each variable| <= top: the radices 2 span + 1 and 2 top + 1 each hold a
    balanced digit, negative exponents of r and u included.  A concrete value
    is the digit d alone, so concrete letters are their own packed values.
    values keeps the formal X letters and the kept heads and tails of _value
    of the words evaluated with this packing, keyed by their letters; runs
    keeps the shared runs of verify_relators, beside them.  Both go with
    the packing when _cover widens it."""

    def __init__(self, span: int, top: int):
        self.span, self.top, self.values = span, top, {}
        self.runs: dict = {}  # shared run -> its value, None until first multiplied
        self.radices = (2 * span + 1, *[2 * top + 1] * len(presentation._NAMES))
        self.strides = tuple(itertools.accumulate(self.radices[:-1], operator.mul, initial=1))

    def degree(self, d: int, exps) -> int:
        """The packed degree of z^d times the monomial with exponents exps."""
        return d + sum(map(operator.mul, exps, self.strides[1:]))


@lru_cache(maxsize=None)
def _monomials(p: rings.RingElement, k: int) -> tuple:
    """((exponents of r, t, u, v), coefficient) of the terms of p^k, p in
    the schema ring."""
    return rings.power(p, k).data


def _box(model: LoopModel, words) -> tuple:
    """(span, top) of a packing box that holds the values of the words: span
    and top sum, over the letters of a word, a bound on the |z-degree| of the
    letter and on the |exponent| of any variable in p^k for a letter X_i(p)
    (LoopModel._box_share)."""
    span = top = 0
    for w in words:
        d = e = 0
        for gen, _ in w:
            letter_span, letter_top = model._box_share(gen)
            d += letter_span
            e += letter_top
        span, top = max(span, d), max(top, e)
    return span, top


def _is_htilde(letters) -> bool:
    """Whether letters is htilde_i(p), for the parameter p of its first letter."""
    return len(letters) == _H and letters[0][0].kind == "X" and letters == _htilde(letters[0][0])


@lru_cache(maxsize=None)
def _htilde(gen: presentation.Generator):
    """htilde_i(p) for the letter X_i(p), None if p is not a unit."""
    try:
        return presentation.htilde(gen.node, gen.param)
    except ValueError:
        return None


def _kept_length(letters) -> int:
    """The length of the kept segment letters starts with: htilde_i(p) or
    S_i S_i, 0 for neither."""
    if _is_htilde(letters[:_H]):
        return _H
    pair = letters[:2]
    if len(pair) == 2 and pair[0] == pair[1] == (pair[0][0], 1) and pair[0][0].kind == "S":
        return 2
    return 0


def _ends(w) -> tuple:
    """(head, tail): the lengths of the leading htilde_i(p) or S_i S_i and
    of the trailing htilde_i(p)^-1 or S_i^-1 S_i^-1 of a word, 0 for none."""
    head = _kept_length(w)
    return head, next((k for k in (_H, 2) if len(w) >= head + k
                       and _kept_length(presentation.winv(w[-k:])) == k), 0)


def _value(model: LoopModel, w, head: int, tail: int) -> LoopMatrix:
    """The packed value of a word with the ends _ends(w), multiplied out
    letter by letter but for the kept head and tail: the run of letters
    between them is multiplied out, or read from the packing's runs if it is
    a shared one, and the head and tail, torus elements, scale the rows and
    the columns of its value in one pass (_scaled)."""
    run = w[head:len(w) - tail]
    runs = model._packing.runs
    value = runs.get(run)
    if value is None:
        value = model._times([model.letter(gen, exp) for gen, exp in run])
        if run in runs:
            runs[run] = value
    return _scaled(model._kept(w[:head]) if head else None, value,
                   model._kept(w[-tail:]) if tail else None)


def verify_relators(model: LoopModel, relators) -> list:
    """Whether the two words of each relator have equal values, in order.

    A relator is a schema, with parameters in presentation.SCHEMA_RING, or
    an instance of one over the model's ring (presentation.instances), whose
    parameters are constants.  The model's packing is first widened, with an
    empty cache, if its box does not hold the words (see _box).  It is
    injective on the box, so the verdict compares the two formal values:
    exact for a concrete relator, and for a schema the identity that
    verify_presentation carries to every instance.

    A run, the letters of a word between its kept head and tail (_value),
    of two or more letters that is the run of two or more of the words is
    shared: the packing keeps its value, multiplied out once, in its runs."""
    words = [w for rel in relators for w in (rel.left, rel.right)]
    model._cover(words)
    spans = [(w, *_ends(w)) for w in words]
    counts = collections.Counter(w[head:len(w) - tail] for w, head, tail in spans)
    runs = model._packing.runs
    for run, count in counts.items():
        if count > 1 and len(run) > 1:
            runs.setdefault(run, None)
    pairs = iter(spans)
    return [_value(model, *left) == _value(model, *right) for left, right in zip(pairs, pairs)]


def verify_presentation(
    model: LoopModel, options: presentation.PresentationOptions | None = None
) -> dict:
    """Every instance of the presentation of the model's diagram, decided
    from the schemas of relators_for over Z; per-family pass counts with
    counterexample parameter bindings in relator order.

    The instances of a schema are its specialisations, as in a concrete
    presentation (presentation.instances): r, t, u, v go to the values of
    its parameters, every element for t and u, the units for r and for the
    Kac-Moody torus's u and v.  A family's instance count is the product of
    the sizes of these value lists (presentation.instance_domains).

    Exactness.  Specialisation is a ring homomorphism from the polynomials
    of (Z/n)[z^(+-1)][r^(+-1), t, u^(+-1), v^(+-1)] whose negative exponents
    are of variables specialised to units onto (Z/n)[z^(+-1)].  Applied
    entrywise it commutes with matrix products and sends each formal letter
    X_i(p) = I + sum_k p^k z^(k m) D_k to the concrete letter of the
    instance, so each side to the instance's value: equal formal values
    (verify_relators) pass every instance.  This needs one precondition,
    which instance_domains checks for every schema rather than assumes: a
    parameter whose values include non-units (t, and u outside the
    Kac-Moody torus) never has a negative exponent.  A schema whose formal values differ has
    its instances enumerated and each decided by plain products; that also
    decides identities that hold as functions on Z/n but not formally, such
    as X_i(t^5) = X_i(t) over GF(5)."""
    if options is None:
        options = presentation.PresentationOptions(include_torus_action=True)
    families = _families(
        model, presentation.relators_for(model.gcm, rings.integers(), options).relators)
    return {"diagram": model.ars.cls.label(), "ring": str(model.ring), "families": families,
            "all_passed": all(f["failed"] == 0 for f in families)}


def _entry(family: str) -> dict:
    return {"family": family, "instances": 0, "passed": 0, "failed": 0, "counterexamples": []}


def _tally(entry: dict, count: int, counterexamples: list) -> None:
    """Add count instances to a family entry, one failing per counterexample."""
    entry["instances"] += count
    entry["passed"] += count - len(counterexamples)
    entry["failed"] += len(counterexamples)
    entry["counterexamples"] += counterexamples


def _families(model: LoopModel, schemas) -> list:
    """The per-family entries of verify_presentation for a list of schemas in
    relator order, in family order.  A family's count comes from the value
    lists of presentation.instance_domains, which a concrete presentation
    enumerates too.  Only a schema whose formal values differ has its
    instances built, by presentation.instances, and its failing ones are
    listed in relator order."""
    domains = presentation.instance_domains(model.gcm, model.ring, schemas)
    families: dict[str, dict] = {}
    for schema, values, ok in zip(schemas, domains, verify_relators(model, schemas)):
        entry = families.setdefault(schema.family, _entry(schema.family))
        failed = []
        if not ok:
            rels = presentation.instances(model.ring, schema, values)
            verdicts = verify_relators(model, rels)
            failed = sorted((rel for rel, good in zip(rels, verdicts) if not good),
                            key=presentation.Relator.render_params)
        _tally(entry, math.prod(map(len, values)), [
            {**dict(zip(("i", "j"), rel.nodes)),
             **{name: rings.render_element(value) for name, value in rel.params}}
            for rel in failed])
    return [families[k] for k in sorted(families, key=presentation.FAMILY_ORDER.index)]


def verify_morita_rehmann(model: LoopModel, level_bound: int) -> dict:
    """Check the Weyl- and torus-action behavior of every root group with
    |level| <= level_bound:

    * conjugation by the evaluated stilde_i(1) sends the root group of beta to
      the root group of s_i(beta), with a sign independent of the parameter
      (fixed by the first nonzero parameter, u = 1);
    * conjugation by htilde_i(r) scales the parameter by r^<alpha_i^vee, beta>,
      for every unit r.

    The checks are proved on coefficients in u.  X_beta(u) = I + sum_k u^k
    t^(k m) D_k, so g X_beta(u) g^-1 = g g^-1 + sum_k u^k g t^(k m) D_k g^-1.
    Once g g^-1 = I (the identity term), g t^(k m) D_k g^-1 = c^k t^(k m') D'_k
    for every k gives g X_beta(u) g^-1 = X_image(c u) for every u, with
    c = +1 or -1 for the Weyl check (_proven) and c = r^<alpha_i^vee, beta>
    for the torus check.  A root proven for one sign passes the
    per-parameter rule too: were the other sign tried first and to fit at
    u = 1, then c^k D'_k = c'^k D'_k for every k, since the D'_k of
    different k never share a position, and the two signs agree at every u.
    So a proven root passes, and every root the proof leaves open, including
    all of them when g g^-1 != I, is decided by enumerating u.  Only that
    enumeration reports failures, so the counterexamples are exactly those
    of the per-parameter check.

    The torus check of node i is first proved once for every unit, with the
    formal htilde_i(r) and htilde_i(r)^-1 over (Z/n)[z^(+-1)][r^(+-1)], kept
    by the packing, as g and g^-1 (_torus_proven): both diagonal with one
    term c x^d in each row and z-digit 0, g g^-1 = I, and g D_k g^-1 =
    r^(k a) D_k for every finite root beta and every k, a = <alpha_i^vee,
    beta>, that is D_k with its packed degree shifted by k a stride_r.  Both
    identities are read off the two diagonals, entry by entry of each D_k:
    g D_k g^-1 has the entry c_row c'_col v at degree d_row + d'_col for an
    entry v of D_k at (row, col), so no conjugate is built.  Exactness:
    sending r to a unit is a ring homomorphism and commutes with products,
    so each identity holds at every unit, for the concrete htilde_i(r),
    which is then diagonal, and its inverse.  The entries of the formal
    htilde_i(r)^(+-1) are monomials inside the box of its word, which
    involves r alone, so they decode uniquely; with z-digit 0 each is
    c r^e z^0, packed at degree e stride_r.  Every compared entry is then in
    (Z/n)[x^(+-stride_r)], where x^(e stride_r) -> r^e is injective for
    every e, so no box argument is needed for the conjugates.  When the
    proof holds, node i adds |units| |roots| passing instances and no
    concrete htilde_i(r) is evaluated.  When it fails, node i is decided by
    enumeration alone: for each unit r, a concrete htilde_i(r) that is not
    diagonal is one failure, and otherwise every root is decided by
    enumerating u.  Only the enumeration reports a root, so a proof first
    would change no counterexample.

    Since t is central, _proven proves each (beta, image root, level offset,
    candidates) once, at level 0, for every level: raising level_bound adds
    no conjugation, and a root whose image is wrong or off by a power of t
    has a key of its own and is still decided alone."""
    ars = model.ars
    ring = model.ring
    all_roots = R.real_roots_up_to_level(ars, level_bound)
    units = rings.units(ring)
    elements = [x for x in rings.elements(ring) if not x.is_zero()]
    signs = [rings.one(ring), -rings.one(ring)]
    weyl, torus = _entry("weyl-conjugation"), _entry("torus-scaling")
    model._cover([w for i in range(model.gcm.rank) for w in _formal_htilde(i)])
    for i in range(model.gcm.rank):
        simple = model.simple_of_node[i]
        s_word = presentation.stilde(i, rings.one(ring))
        s_mat = model.evaluate_word(s_word)
        s_inv = model.evaluate_word(presentation.winv(s_word))
        images = [R.reflect(ars, beta, simple) for beta in all_roots]
        proven = _proven(model, s_mat, s_inv, all_roots, images,
                         [[c.data for c in signs]] * len(all_roots))
        for beta, image, ok in zip(all_roots, images, proven):
            ok = ok or _enumerated(model, s_mat, s_inv, beta, image, signs, elements)
            _tally(weyl, 1, [] if ok else [{"i": i, "beta": R.root_json(ars, beta)}])
        if _torus_proven(model, i, all_roots):
            _tally(torus, len(units) * len(all_roots), [])
            continue
        for r in units:
            h_word = presentation.htilde(i, r)
            h_mat = model.evaluate_word(h_word)
            h_inv = model.evaluate_word(presentation.winv(h_word))
            if not h_mat.is_diagonal():
                _tally(torus, 1, [{"i": i, "r": str(r), "reason": "not diagonal"}])
                continue
            _tally(torus, len(all_roots), [
                {"i": i, "r": str(r), "beta": R.root_json(ars, beta)} for beta in all_roots
                if not _enumerated(model, h_mat, h_inv, beta, beta,
                                   [rings.power(r, _torus_exponent(model, i, beta))], elements)])
    return {
        "diagram": ars.cls.label(),
        "ring": str(ring),
        "level_bound": level_bound,
        "families": [weyl, torus],
        "all_passed": weyl["failed"] == 0 and torus["failed"] == 0,
    }


def _formal_htilde(i: int) -> tuple:
    """The words htilde_i(r) and htilde_i(r)^-1, r the schema variable."""
    h_word = presentation.htilde(i, presentation._VARIABLE["r"])
    return h_word, presentation.winv(h_word)


def _torus_exponent(model: LoopModel, i: int, beta: AffineRoot) -> int:
    """<alpha_i^vee, beta>: htilde_i(r) scales the root group of beta by r to
    this power."""
    return model.ars.finite.pairing(model.simple_of_node[i].coords, beta.coords)


def _torus_proven(model: LoopModel, i: int, roots) -> bool:
    """Whether the formal htilde_i(r) and its inverse, kept by the model's
    packing, prove the torus action on every root for every unit r.  Both
    must be diagonal with one term in each of the dim rows and z-digit 0:
    c x^d in row j of g, c' x^d' in that of g_inv.  Then g g_inv = I iff
    d + d' = 0 and c c' = 1 mod n in every row, and g D_k g_inv =
    x^(k a stride_r) D_k, a = <alpha_i^vee, beta>, iff every entry
    (row, col, v) of D_k has d_row + d'_col = k a stride_r and
    (c_row c'_col - 1) v = 0 mod n: the comparison of g D_k g_inv with
    D_k shifted by k a stride_r, entry by entry, once per finite root.  The
    packing must hold both words."""
    g, g_inv = (model._kept(w) for w in _formal_htilde(i))
    diagonal, inverse = g._diagonal, g_inv._diagonal
    if diagonal is None or inverse is None or not len(diagonal) == len(inverse) == model.dim:
        return False
    n, stride = model.n, model._packing.strides[1]
    # a multiple of the stride of r is a packed degree with z-digit 0
    if any(d % stride for m in (diagonal, inverse) for d, _ in m.values()):
        return False
    if any(d + inverse[row][0] or (c * inverse[row][1] - 1) % n
           for row, (d, c) in diagonal.items()):
        return False
    for beta in {beta.coords: beta for beta in roots}.values():
        shift = _torus_exponent(model, i, beta) * stride
        for k, power in model._divided_powers(beta.coords):
            for row, col, value in power:
                (d, c), (d_inv, c_inv) = diagonal[row], inverse[col]
                if d + d_inv != k * shift or (c * c_inv - 1) * value % n:
                    return False
    return True


def _proven(model: LoopModel, g: LoopMatrix, g_inv: LoopMatrix, roots, images,
            candidates) -> list:
    """Per root: whether g g_inv = I and, for some candidate coefficient c
    of the root, g t^(k m) D_k g_inv = c^k t^(k m') D'_k for every k, where
    D_k and D'_k are the divided powers of the root (beta, m) and its image
    (beta', m').  t is central, so the left side is t^(k m) g D_k g_inv, and
    the relation holds exactly when g D_k g_inv = c^k t^(k delta) D'_k,
    delta = m' - m.  That depends only on (beta, beta', delta, the
    candidates), so each such key is proved once, at level 0, and its
    verdict holds for every root with that key."""
    if not (g * g_inv).is_identity():
        return [False] * len(roots)
    verdicts, proven = {}, []
    for beta, image, cs in zip(roots, images, candidates):
        delta = image.level - beta.level
        key = beta.coords, image.coords, delta, tuple(cs)
        if key not in verdicts:
            terms = _graded_terms(model, AffineRoot(beta.coords, 0))
            conjugates = {k: _conjugate(g, g_inv, term) for k, term in terms.items()}
            target = AffineRoot(image.coords, delta)
            verdicts[key] = any(conjugates == _graded_terms(model, target, c) for c in cs)
        proven.append(verdicts[key])
    return proven


def _graded_terms(model: LoopModel, root: AffineRoot, c: int = 1) -> dict:
    """k -> the entries {(row, col, k m): value} of c^k t^(k m) D_k for the
    root (beta, m), over the k where c^k D_k is nonzero mod n.  Built once
    per (root, c mod n) and kept on the model, so callers must not change
    it."""
    n, key = model.n, (root, c % model.n)
    terms = model._terms_cache.get(key)
    if terms is None:
        terms = model._terms_cache[key] = {}
        for k, power in model._divided_powers(root.coords):
            coeff, degree = pow(c, k, n), k * root.level
            if term := {(row, col, degree): v for row, col, value in power if (v := coeff * value % n)}:
                terms[k] = term
    return terms


def _conjugate(g: LoopMatrix, g_inv: LoopMatrix, term: dict) -> dict:
    """The entries of g T g_inv for the Laurent matrix T given by its entries
    {(row, col, degree): value}.  An entry of T meets only the entries of g in
    its row's column and those of g_inv in its column's row."""
    cols, rows, sums = g._cols, g_inv._rows, {}
    for (row, col, degree), value in term.items():
        rights = rows.get(col, ())
        for left_row, left_degree, left_value in cols.get(row, ()):
            shift, scale = degree + left_degree, value * left_value
            for right_col, right_degree, right_value in rights:
                key = left_row, right_col, shift + right_degree
                sums[key] = sums.get(key, 0) + scale * right_value
    return _reduced(sums, g.n)


def _enumerated(model: LoopModel, g: LoopMatrix, g_inv: LoopMatrix, beta: AffineRoot,
                image: AffineRoot, candidates, elements) -> bool:
    """The per-parameter check: g X_beta(u) g_inv = X_image(c u) for every u
    in elements, with c the first candidate that fits the first u."""
    fits = candidates
    for u in elements:
        conj = g * model.root_element(beta, u) * g_inv
        # the first u keeps only the first candidate that fits it
        fits = [c for c in fits if conj == model.root_element(image, c * u)][:1]
        if not fits:
            return False
    return True
