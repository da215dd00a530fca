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
value, and reduces the sums mod n when the product is done.  Entries are
Python ints, which cannot overflow, so every product is exact for every n;
exponentials use the integral divided powers of the adjoint basis, so no
division mod n ever happens.  The model still refuses rings with
dim (n - 1)^2 >= 2^63 (exit 3): verify enumerates the n^2 parameter pairs of
its two-parameter families, so such a ring could not be checked anyway.

Relators that agree on every parameter but the last (a sub-run: one
htilde_i(r) of a torus-action family, one t of a Chevalley family) differ
only in the parameters of a few X letters.  Each side of a sub-run is
evaluated once, over (Z/n)[t^(+-1)][p_0, p_1, ...], with a variable p_j or a
tie c p_j^e in place of each parameter that varies, and the exponents of the
p_j packed into the degree, so the product above is also the kernel of these
formal words.  Equal formal values pass every instance; otherwise each
instance is decided by substituting its values (verify_relators says why
this is exact).  The constant prefix and suffix of a side, say the
conjugator htilde_i(r) and its inverse, are concrete values from a per-model
cache keyed by the letter tuple.  A value missing there is multiplied out
letter by letter, after the longest cached prefix or suffix of the segment
if there is one.  The cache keeps a segment only if it is the constant
prefix or suffix of a sub-run's words and more than two of its letters had
to be multiplied out.  That keeps each htilde_i(r) and its inverse, which
recur for every j, in both torus-action families and in the torus check, and
the few braids and Chevalley conjugators of more than two letters.  It drops
the one-letter extensions htilde_i(r) S_j and S_j^-1 htilde_i(r)^-1: they
recur in one sub-run only, so keeping them would save nothing and cost a
value per (i, j, r), 162 more 248-dim values for E~8 over Z/2.  A full
verify of F~4 over Z/3 keeps 28 values.  Caching is exact: a kept value is
the product of its letters by the same kernel, and matrix products are
associative, so every relator is still compared as the full product of its
letters.

The Weyl and torus actions on root groups are proved on the coefficients of
u, by conjugating divided powers entry by entry (see verify_morita_rehmann).
That work grows with the finite roots, not with the affine roots up to the
level bound.  t is central in the Laurent matrix ring, so conjugating
t^(k m) D_k is conjugating D_k and shifting every degree by k m; the verdict
of (beta, m) is that of (beta, 0) against the image shifted down by m.  It
depends only on beta, the image's finite root, the image's level offset and
the candidate scalars, and each such key is proved once per conjugator.  The
term dicts c^k t^(k m) D_k of each (root, c mod n) are built once per model.

The root group of (beta, m) goes to exp(u t^m ad e_beta), a quotient by a
central kernel: a relation that fails in the model fails in the group, and
every presentation relation must pass.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from . import chevalley, diagrams, presentation, rings
from . import roots as R
from .rings import UnsupportedModelError
from .roots import AffineRoot


@dataclass(frozen=True, eq=False)
class LoopMatrix:
    """A square matrix over (Z/n)[t^(+-1)]: ``entries[row, col, degree]`` is
    the nonzero coefficient of t^degree at (row, col), reduced mod n."""

    entries: dict
    n: int
    dim: int

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

    def __mul__(self, other: "LoopMatrix") -> "LoopMatrix":
        rows, sums = other._rows, {}
        for (row, mid, degree), value in self.entries.items():
            for col, other_degree, other_value in rows.get(mid, ()):
                key = row, col, degree + other_degree
                sums[key] = sums.get(key, 0) + value * other_value
        return LoopMatrix(_reduced(sums, self.n), self.n, self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopMatrix):
            return NotImplemented
        return (self.n, self.dim) == (other.n, other.dim) and self.entries == other.entries

    def __hash__(self):
        return hash((self.n, self.dim, len(self.entries)))

    def is_identity(self) -> bool:
        return self == identity_matrix(self.n, self.dim)

    def is_diagonal(self) -> bool:
        return all(row == col and degree == 0 for row, col, degree in self.entries)


def _reduced(sums: dict, n: int) -> dict:
    """The entries of sums reduced mod n, zeros dropped."""
    return {key: value for key, total in sums.items() if (value := total % n)}


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
        self._degrees: dict = {}  # node -> _letter_degrees
        self._segments: dict = {}  # letter tuple -> value, see _segment
        self._kept_lengths: list = []  # the lengths of its keys, descending

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
        return self._exponential(root.coords, u.data, root.level)

    def _exponential(self, coords, c: int, step: int) -> LoopMatrix:
        """I + sum_k c^k D_k with D_k at degree k step, for the divided powers
        D_k of e_beta, beta = coords: exp(c t^m ad e_beta) for step = m, and
        a formal letter of verify_relators for a packed step."""
        n = self.n
        entries = dict(identity_matrix(n, self.dim).entries)
        # D_k raises weights by k beta, so no two entries share a position
        for k, power in self._divided_powers(coords):
            coeff = pow(c, k, n)
            for row, col, value in power:
                if value := coeff * value % n:
                    entries[row, col, k * step] = value
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

    def _letter_degrees(self, i: int) -> tuple:
        """(kmax, |m|) for node i, kmax the largest k with D_k != 0 mod n at
        its simple root (beta, m) or at (-beta, -m): X_i(u) has t-degrees
        k m with k <= kmax, and S_i, a product of three root elements, at
        most 3 kmax |m|."""
        cached = self._degrees.get(i)
        if cached is None:
            root = self.simple_of_node[i]
            neg = tuple(-x for x in root.coords)
            kmax = max(k for coords in (root.coords, neg)
                       for k, _ in ((0, ()), *self._divided_powers(coords)))
            cached = self._degrees[i] = kmax, abs(root.level)
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
        if gen.kind == "S":
            return self.s_matrix(gen.node) if exp > 0 else self.s_inverse(gen.node)
        u = gen.param if exp > 0 else -gen.param
        return self.x_matrix(gen.node, u)

    def evaluate_word(self, w) -> LoopMatrix:
        return self._segment(tuple(w), False)

    def _segment(self, letters: tuple, shared: bool) -> LoopMatrix:
        """The value of a word segment, extended from its longest kept prefix
        or suffix if it has one.  It is kept when shared (a proper prefix or
        suffix that the words of a sub-run share) and more than two of its
        letters had to be multiplied out; the module docstring says why."""
        if len(letters) <= 2:
            return self._product(letters)
        value = self._segments.get(letters)
        if value is not None:
            return value
        for k in self._kept_lengths:
            if k >= len(letters):
                continue
            if (head := self._segments.get(letters[:k])) is not None:
                value = head * self._product(letters[k:])
                break
            if (tail := self._segments.get(letters[-k:])) is not None:
                value = self._product(letters[:-k]) * tail
                break
        else:
            k, value = 0, self._product(letters)
        if shared and len(letters) - k > 2:
            self._segments[letters] = value
            self._kept_lengths = sorted({*self._kept_lengths, len(letters)}, reverse=True)
        return value

    def _product(self, letters) -> LoopMatrix:
        """The value of a word, multiplied out letter by letter."""
        return self._times([self.letter(gen, exp) for gen, exp in letters])

    def _times(self, values: list) -> LoopMatrix:
        return reduce(operator.mul, values) if values else identity_matrix(self.n, self.dim)


def build_model(a, ring: rings.RingDescriptor) -> LoopModel:
    if isinstance(a, str):
        a = diagrams.parse_diagram(a)
    return LoopModel(a, ring)


def model_for_system(ars: R.AffineRootSystem, ring: rings.RingDescriptor) -> LoopModel:
    """Model over a given affine system, keeping its own simple-root order."""
    simples = R.simple_affine_roots(ars)
    rows = [
        [ars.finite.pairing(x.coords, y.coords) for y in simples] for x in simples
    ]
    a = diagrams.gcm(rows)
    return LoopModel(a, ring, ars=ars, node_map={i: i for i in range(len(simples))})


# ---------------------------------------------------------------------------
# reports


def _group_key(rel: presentation.Relator) -> tuple:
    shapes = (tuple([(g.kind, g.node, e) for g, e in w]) for w in (rel.left, rel.right))
    return (rel.family, rel.nodes, *shapes)


def verify_relators(model: LoopModel, relators) -> list:
    """Whether the two words of each relator have equal values, in order.

    A run of relators with one family, nodes and letter shape is split into
    sub-runs that agree on every parameter but the last (relators_for sorts
    by family, nodes and parameters, so there a run is a group, and a
    sub-run, say one htilde_i(r) of a torus-action family, is contiguous).
    The run's key fixes the letter shape, so the words of a sub-run differ
    only in the parameters of X letters, at its varying positions.  The two
    sides are evaluated once, over (Z/n)[t^(+-1)][p_0, p_1, ...]:

    * a varying position gets the letter X_i(s c p_j^e) (s its exponent's
      sign) when its parameter is c p_j^e, e in (1, 2, 3), on every instance
      for an earlier variable p_j, with c read off the instance where p_j = 1
      (see _tie); otherwise it gets a new variable p_j, whose value on each
      instance is its parameter there;
    * the constant prefix and suffix of a side are concrete values from
      _segment, its constant middle letters come from letter.

    Exactness.  Substituting values for the p_j is a ring homomorphism
    (Z/n)[t^(+-1)][p] -> (Z/n)[t^(+-1)], applied entrywise it commutes with
    matrix products, and (s c p^e)^k = (s c)^k p^(e k) holds in (Z/n)[p].
    Each tie is checked on each instance, so every formal letter specialises
    to that instance's concrete letter, and each side to its concrete value.
    Equal formal values therefore pass every instance of the sub-run.
    Unequal ones are decided instance by instance, by substituting into
    their difference, which also covers polynomials that vanish as
    functions on Z/n.  The p-exponents are packed into the degree (see
    _Packing), so the product kernel is the one of concrete words."""
    passed = []
    for _, run in itertools.groupby(relators, _group_key):
        for _, sub in itertools.groupby(run, lambda rel: rel.params[:-1]):
            passed += _sub_run_verdicts(model, list(sub))
    return passed


def _sub_run_verdicts(model: LoopModel, sub: list) -> list:
    """verify_relators on the relators of one sub-run."""
    values: list = []  # p_j -> its value on each instance
    sides = [[rel.left for rel in sub], [rel.right for rel in sub]]
    specs = [_varying(model.n, words, values) for words in sides]
    packing = _Packing(model, [words[0] for words in sides], specs, len(values))
    left, right = (_formal_value(model, words[0], spec, packing)
                   for words, spec in zip(sides, specs))
    if left.entries == right.entries:
        return [True] * len(sub)
    return _substituted(model, left, right, packing, values, len(sub))


def _varying(n: int, words: list, values: list) -> dict:
    """position -> (j, c, e) for the positions where words of one letter
    shape (the run key fixes it) differ, all X parameters, whose letters
    become X_i(s c p_j^e); new variables are appended to values."""
    spec = {}
    for k, (gen, _) in enumerate(words[0]):
        if gen.kind == "X":
            column = [w[k][0].param.data for w in words]
            if column.count(column[0]) < len(column):
                spec[k] = _tie(n, column, values)
    return spec


def _tie(n: int, column: list, values: list) -> tuple:
    """(j, c, e) with column = c p_j^e mod n on every instance for the first
    earlier variable p_j and exponent e that fit, c read off the first
    instance where p_j = 1; else (j, 1, 1) for a new variable p_j = column."""
    for j, xs in enumerate(values):
        if 1 in xs:
            c = column[xs.index(1)]
            for e in (1, 2, 3):
                if all(v == c * pow(x, e, n) % n for v, x in zip(column, xs)):
                    return j, c, e
    values.append(column)
    return len(values) - 1, 1, 1


class _Packing:
    """The Kronecker substitution t -> x, p_j -> x^(stride_j) that packs the
    monomial t^d p_0^(e_0) p_1^(e_1) ... of a sub-run's values into the one
    integer degree d + sum_j e_j stride_j.  It is a ring homomorphism, so the
    product kernel multiplies packed values exactly, and it is injective on
    the box |d| <= span, 0 <= e_j <= top_j, which holds both sides' values:
    span sums a bound on the |t-degree| of every letter of a word, top_j the
    largest p_j-exponent of every letter X_i(s c p_j^e).  The radix grows
    with the words, so no two monomials of the box share a degree."""

    def __init__(self, model: LoopModel, words: list, specs: list, count: int):
        self.span, self.top = 0, [0] * count
        for w, spec in zip(words, specs):
            span, top = 0, [0] * count
            for k, (gen, _) in enumerate(w):
                kmax, level = model._letter_degrees(gen.node)
                span += kmax * level * (3 if gen.kind == "S" else 1)
                if k in spec:
                    j, _, e = spec[k]
                    top[j] += e * kmax
            self.span = max(self.span, span)
            self.top = list(map(max, self.top, top))
        self.radix = 2 * self.span + 1
        self.strides, stride = [], self.radix
        for top_j in self.top:
            self.strides.append(stride)
            stride *= top_j + 1

    def unpack(self, degree: int) -> tuple:
        """(d, (e_0, e_1, ...)) of a packed degree in the box."""
        d = (degree + self.span) % self.radix - self.span
        rest, exps = (degree - d) // self.radix, []
        for top_j in self.top:
            rest, e = divmod(rest, top_j + 1)
            exps.append(e)
        return d, tuple(exps)


def _formal_value(model: LoopModel, w, spec: dict, packing: _Packing) -> LoopMatrix:
    """The packed value of a side with the formal letters of spec: its
    constant prefix and suffix from _segment, kept there as shared ends."""
    if not spec:
        return model._segment(w, False)
    lo, hi = min(spec), max(spec) + 1
    factors = [model._segment(w[:lo], True)] if lo else []
    for pos in range(lo, hi):
        gen, exp = w[pos]
        if pos in spec:
            # X_i(s c p_j^e) = I + sum_k (s c)^k p_j^(e k) t^(k m) D_k
            j, c, e = spec[pos]
            root = model.simple_of_node[gen.node]
            factors.append(model._exponential(root.coords, exp * c,
                                              root.level + e * packing.strides[j]))
        else:
            factors.append(model.letter(gen, exp))
    if hi < len(w):
        factors.append(model._segment(w[hi:], True))
    return model._times(factors)


def _substituted(model: LoopModel, left: LoopMatrix, right: LoopMatrix,
                 packing: _Packing, values: list, count: int) -> list:
    """Per instance, whether left - right vanishes with p_j = values[j][instance]:
    each entry of the difference is a polynomial in the p_j, summed over the
    powers of the instance's values."""
    n, terms = model.n, {}
    for key in left.entries.keys() | right.entries.keys():
        if coeff := (left.entries.get(key, 0) - right.entries.get(key, 0)) % n:
            row, col, degree = key
            d, exps = packing.unpack(degree)
            terms.setdefault((row, col, d), []).append((coeff, exps))
    verdicts = []
    for instance in range(count):
        powers = [[pow(xs[instance], e, n) for e in range(top + 1)]
                  for xs, top in zip(values, packing.top)]
        verdicts.append(not any(
            sum(coeff * math.prod(map(list.__getitem__, powers, exps))
                for coeff, exps in entry) % n
            for entry in terms.values()
        ))
    return verdicts


def verify_presentation(
    model: LoopModel, options: presentation.PresentationOptions | None = None
) -> dict:
    """Run verify_relators over every instance of the presentation of the
    model's diagram; per-family pass counts with counterexample parameter
    bindings in relator order."""
    if options is None:
        options = presentation.PresentationOptions(include_torus_action=True)
    pres = presentation.relators_for(model.gcm, model.ring, options)
    families: dict[str, dict] = {}
    for rel, ok in zip(pres.relators, verify_relators(model, pres.relators)):
        entry = families.setdefault(
            rel.family,
            {"family": rel.family, "instances": 0, "passed": 0, "failed": 0,
             "counterexamples": []},
        )
        entry["instances"] += 1
        if ok:
            entry["passed"] += 1
        else:
            entry["failed"] += 1
            binding = dict(zip(("i", "j"), rel.nodes))
            for name, value in rel.params:
                binding[name] = rings.render_element(value)
            entry["counterexamples"].append(binding)
    report = {
        "diagram": model.ars.cls.label(),
        "ring": str(model.ring),
        "families": [families[k] for k in sorted(families, key=presentation.FAMILY_ORDER.index)],
    }
    report["all_passed"] = all(f["failed"] == 0 for f in report["families"])
    return report


def verify_morita_rehmann(model: LoopModel, level_bound: int) -> dict:
    """Check the Weyl- and torus-action behavior of every root group with
    |level| <= level_bound:

    * conjugation by the evaluated stilde_i(1) sends the root group of beta to
      the root group of s_i(beta), with a sign independent of the parameter
      (fixed by the first nonzero parameter, u = 1);
    * conjugation by htilde_i(r) scales the parameter by r^<alpha_i^vee, beta>.

    The checks are proved on coefficients in u.  X_beta(u) = I + sum_k u^k
    t^(k m) D_k, so g X_beta(u) g^-1 = g g^-1 + sum_k u^k g t^(k m) D_k g^-1.
    Once g g^-1 = I (the identity term), g t^(k m) D_k g^-1 = c^k t^(k m') D'_k
    for every k gives g X_beta(u) g^-1 = X_image(c u) for every u, with
    c = +1 or -1 for the Weyl check and c = r^<alpha_i^vee, beta> for the torus
    check.  A root proven for one sign passes the per-parameter rule too:
    were the other sign tried first and to fit at u = 1, then
    c^k D'_k = c'^k D'_k for every k, since the D'_k of different k never
    share a position, and the two signs agree at every u.  So a proven root
    passes, and every root the proof leaves open, including all of them when
    g g^-1 != I, is decided by enumerating u.  Only that enumeration reports
    failures, so the counterexamples are exactly those of the per-parameter
    check.

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
    weyl = {"family": "weyl-conjugation", "instances": 0, "passed": 0, "failed": 0,
            "counterexamples": []}
    torus = {"family": "torus-scaling", "instances": 0, "passed": 0, "failed": 0,
             "counterexamples": []}
    for i in range(model.gcm.rank):
        simple = model.simple_of_node[i]
        s_word = presentation.stilde(i, rings.one(ring))
        s_mat = model.evaluate_word(s_word)
        s_inv = model.evaluate_word(presentation.winv(s_word))
        images = [R.reflect(ars, beta, simple) for beta in all_roots]
        proven = _proven(model, s_mat, s_inv, all_roots, images, [signs] * len(all_roots))
        for beta, image, ok in zip(all_roots, images, proven):
            ok = ok or _enumerated(model, s_mat, s_inv, beta, image, signs, elements)
            weyl["instances"] += 1
            weyl["passed" if ok else "failed"] += 1
            if not ok:
                weyl["counterexamples"].append({"i": i, "beta": R.root_json(ars, beta)})
        for r in units:
            h_word = presentation.htilde(i, r)
            h_mat = model.evaluate_word(h_word)
            h_inv = model.evaluate_word(presentation.winv(h_word))
            if not h_mat.is_diagonal():
                torus["failed"] += 1
                torus["instances"] += 1
                torus["counterexamples"].append({"i": i, "r": str(r), "reason": "not diagonal"})
                continue
            scales = [[rings.power(r, ars.finite.pairing(simple.coords, beta.coords))]
                      for beta in all_roots]
            proven = _proven(model, h_mat, h_inv, all_roots, all_roots, scales)
            for beta, scale, ok in zip(all_roots, scales, proven):
                ok = ok or _enumerated(model, h_mat, h_inv, beta, beta, scale, elements)
                torus["instances"] += 1
                torus["passed" if ok else "failed"] += 1
                if not ok:
                    torus["counterexamples"].append(
                        {"i": i, "r": str(r), "beta": R.root_json(ars, beta)}
                    )
    return {
        "diagram": ars.cls.label(),
        "ring": str(ring),
        "level_bound": level_bound,
        "families": [weyl, torus],
        "all_passed": weyl["failed"] == 0 and torus["failed"] == 0,
    }


def _proven(model: LoopModel, g: LoopMatrix, g_inv: LoopMatrix, roots, images,
            candidates) -> list:
    """Per root: whether g g_inv = I and, for some c in its candidates,
    g t^(k m) D_k g_inv = c^k t^(k m') D'_k for every k, where D_k and D'_k
    are the divided powers of the root (beta, m) and its image (beta', m').
    t is central, so the left side is t^(k m) g D_k g_inv, and the relation
    holds exactly when g D_k g_inv = c^k t^(k delta) D'_k, delta = m' - m.
    That depends only on (beta, beta', delta, the candidates), so each such
    key is proved once, at level 0, and its verdict holds for every root
    with that key."""
    if not (g * g_inv).is_identity():
        return [False] * len(roots)
    verdicts, proven = {}, []
    for beta, image, cs in zip(roots, images, candidates):
        delta = image.level - beta.level
        key = beta.coords, image.coords, delta, tuple(c.data for c in cs)
        if key not in verdicts:
            terms = _graded_terms(model, AffineRoot(beta.coords, 0))
            conjugates = {k: _conjugate(g, g_inv, term) for k, term in terms.items()}
            target = AffineRoot(image.coords, delta)
            verdicts[key] = any(conjugates == _graded_terms(model, target, c.data) for c in cs)
        proven.append(verdicts[key])
    return proven


def _graded_terms(model: LoopModel, root: AffineRoot, c: int = 1) -> dict:
    """k -> the entries {(row, col, k m): value} of c^k t^(k m) D_k for the
    root (beta, m), over the k where c^k D_k is nonzero mod n.  Built once
    per (root, c mod n) and kept on the model, so callers must not change it."""
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
