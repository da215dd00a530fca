"""Exact matrix realization of untwisted affine root groups inside the
adjoint Chevalley group over Laurent polynomials.

A LoopMatrix is a stack of B matrices over (Z/n)[t, t^-1]: one int64 array
of shape (B, K, dim, dim) whose slice [b, k] is the coefficient of
t^(low + k) in the b-th matrix, with the degrees that are zero in every
instance trimmed from both ends.  One matrix is the stack with B = 1.  The
relators of one family and letter shape are evaluated as stacks.  The Weyl
and torus actions on root groups are proved on the coefficients of u, by one
sparse conjugation of the divided powers of every root (see
verify_morita_rehmann).

Relators that agree on every parameter but the last (a sub-run: one
htilde_i(r) of a torus-action family, one t of a Chevalley family) share the
prefix and the suffix of their words, say the conjugator htilde_i(r) and its
inverse.  Those segments are evaluated once per sub-run, for all of its
chunks, and only the middle columns are stacked: a word's value is
value(prefix) * (stacked middles) * value(suffix).  Segment values come from
a per-model cache keyed by the letter tuple.  A value missing there is
multiplied out letter by letter, after the longest cached prefix or suffix
of the segment if there is one.  The cache keeps a segment only if it is a
proper prefix or suffix shared by the words of a sub-run and more than two
of its letters had to be multiplied out.  That keeps each htilde_i(r) and
its inverse, which recur for every j and t, in both torus-action families
and in the torus check, and the few braids and Chevalley conjugators of
more than two letters.  It drops the one-letter extensions htilde_i(r) S_j
and S_j^-1 htilde_i(r)^-1: they recur in one sub-run only, so keeping them
would save nothing and cost a dense matrix per (i, j, r), 162 more 248-dim
values for E~8 over Z/2.  A full verify of F~4 over Z/3 keeps 28 values,
0.6 MB.  Caching is exact: a kept value is the product of its letters by
the same kernel, and matrix products are associative, so every relator is
still compared as the full product of its letters.

The product is the only kernel of word evaluation.  It splits the identity
off the degree-0 block of the right factor, B = I + N, and forms A + A N on
the entries of N that are nonzero in some instance: root-group letters are I
plus a sparse nilpotent part, Weyl letters are signed permutations on most of
the basis.  Each entry of a block product sums at most dim terms below n^2
and is reduced mod n before it is added to the accumulator, which so stays
below a few multiples of n; the model refuses rings with dim (n - 1)^2 >=
2^63, so int64 is exact.  Exponentials use the integral divided powers of the
adjoint basis, so no division mod n ever happens.

The root group of (beta, m) goes to exp(u t^m ad e_beta), a quotient by a
central kernel: a relation that fails in the model fails in the group, and
every presentation relation must pass.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import chevalley, diagrams, presentation, rings
from . import roots as R
from .rings import UnsupportedModelError
from .roots import AffineRoot


@dataclass(frozen=True, eq=False)
class LoopMatrix:
    """A stack of B square matrices over (Z/n)[t^(+-1)]: ``data[b, k]`` is
    the coefficient of t^(low + k) in the b-th matrix."""

    data: np.ndarray  # int64, shape (B, K, dim, dim), zero end degrees trimmed
    low: int
    n: int

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def blocks(self) -> tuple:
        """((exponent, block), ...) of the nonzero degrees; a block is (B, dim, dim) if B > 1."""
        graded = self.data[0] if len(self.data) == 1 else self.data.swapaxes(0, 1)
        return tuple((self.low + k, m) for k, m in enumerate(graded) if m.any())

    @cached_property
    def _nilpotent(self) -> list:
        """(k, rows, values, cols, starts) per nonzero degree k of N, where
        self = I + N with I in degree 0 (or N = self): the entries nonzero in
        some instance, by column; cols[c] holds entries starts[c] onwards."""
        nil, zero = self.data, -self.low
        if 0 <= zero < nil.shape[1]:
            nil, diag = nil.copy(), np.arange(self.dim)
            nil[:, zero, diag, diag] = (nil[:, zero, diag, diag] - 1) % self.n
        out = []
        for k in range(nil.shape[1]):
            col_of, rows = np.nonzero(nil[:, k].any(axis=0).T)
            if len(rows):
                cols, starts = np.unique(col_of, return_index=True)
                out.append((k, rows, nil[:, k][..., rows, col_of][:, None, None], cols, starts))
        return out

    def __mul__(self, other: "LoopMatrix") -> "LoopMatrix":
        n, a = self.n, self.data
        ka, kb = a.shape[1], other.data.shape[1]
        out = np.zeros((max(len(a), len(other.data)), max(ka + kb - 1, 0)) + a.shape[2:], np.int64)
        zero = -other.low
        if 0 <= zero < kb:  # A (I + N) = A + A N, A landing on its own degrees
            out[:, zero:zero + ka] = a
        for k, rows, values, cols, starts in other._nilpotent:
            # at most dim terms below n^2 per entry before the reduction
            out[:, k:k + ka, :, cols] += np.add.reduceat(a[..., rows] * values, starts, axis=-1) % n
        out %= n
        return _trimmed(out, self.low + other.low, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopMatrix):
            return NotImplemented
        key, other_key = (self.n, self.low, self.data.shape), (other.n, other.low, other.data.shape)
        return key == other_key and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.n, self.low, self.data.shape))

    def equal_each(self, other: "LoopMatrix") -> np.ndarray:
        """Instance-wise equality of two stacks, broadcast over B."""
        low = min(self.low, other.low)
        k = max(self.low + self.data.shape[1], other.low + other.data.shape[1]) - low
        return (self._padded(low, k) == other._padded(low, k)).all(axis=(1, 2, 3))

    def _padded(self, low: int, k: int) -> np.ndarray:
        if (self.low, self.data.shape[1]) == (low, k):
            return self.data
        out = np.zeros((len(self.data), k) + self.data.shape[2:], np.int64)
        out[:, self.low - low:self.low - low + self.data.shape[1]] = self.data
        return out

    def is_identity(self) -> bool:
        return self == identity_matrix(self.n, self.dim)

    def is_diagonal(self) -> bool:
        return all(k == 0 and not (m * (1 - np.eye(self.dim))).any() for k, m in self.blocks)


def _trimmed(data: np.ndarray, low: int, n: int) -> LoopMatrix:
    nonzero = np.flatnonzero(data.any(axis=(0, 2, 3)))
    if not len(nonzero):
        return LoopMatrix(data[:, :0], 0, n)
    return LoopMatrix(data[:, nonzero[0]:nonzero[-1] + 1], low + int(nonzero[0]), n)


def stack(mats) -> LoopMatrix:
    """One stack of the given single matrices, in order."""
    low = min(m.low for m in mats)
    k = max(m.low + m.data.shape[1] for m in mats) - low
    return LoopMatrix(np.concatenate([m._padded(low, k) for m in mats]), low, mats[0].n)


@lru_cache(maxsize=None)
def identity_matrix(n: int, dim: int) -> LoopMatrix:
    return LoopMatrix(np.eye(dim, dtype=np.int64)[None, None], 0, n)


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
            # a block product sums dim terms below n^2 each in int64
            raise UnsupportedModelError(
                f"unsupported model: {ring} is too large for exact int64 "
                f"products of {self.dim}-dimensional matrices"
            )
        simples = R.simple_affine_roots(ars)
        self.simple_of_node = {i: simples[node_map[i]] for i in range(a.rank)}
        self._powers_cache: dict = {}
        self._s_cache: dict = {}
        self._x_cache: dict = {}
        self._segments: dict = {}  # letter tuple -> value, see _segment
        self._kept_lengths: list = []  # the lengths of its keys, descending

    # -- elementary matrices ------------------------------------------------

    def _divided_powers(self, coords) -> tuple:
        """(k, rows, cols, values) of the nonzero entries of (ad e)^k / k! mod n,
        k >= 1, in ascending k."""
        cached = self._powers_cache.get(coords)
        if cached is None:
            entries = [
                (k, row, col, value % self.n)
                for k, power in enumerate(self.basis.divided_powers(coords)[1:], 1)
                for (row, col), value in power.items()
                if value % self.n
            ]
            cached = tuple(np.array(entries, dtype=np.int64).reshape(-1, 4).T.copy())
            self._powers_cache[coords] = cached
        return cached

    def root_element(self, root: AffineRoot, u: rings.RingElement) -> LoopMatrix:
        """exp(u t^m ad e_beta) for the affine real root (beta, m)."""
        if root not in self.ars:
            raise ValueError(f"{root} is not a real root of {self.ars.cls}")
        if u.desc != self.ring:
            raise ValueError("coefficient lies in the wrong ring")
        k, rows, cols, entries = self._divided_powers(root.coords)
        top, m, diag = int(k[-1]), root.level, np.arange(self.dim)
        low = min(0, top * m)
        coeffs = np.array([pow(u.data, e, self.n) for e in range(top + 1)])
        data = np.zeros((1, abs(top * m) + 1, self.dim, self.dim), np.int64)
        data[0, -low, diag, diag] = 1
        # D_k raises weights by k beta, so no two entries share a position
        data[0, k * m - low, rows, cols] = coeffs[k] * entries % self.n
        return _trimmed(data, low, self.n)

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

    def shared_ends(self, words) -> tuple:
        """(p, head, s, tail) for words of one letter shape: the longest
        prefix they all share, p letters with value head, then the longest
        suffix they all share in what it leaves, s letters with value tail."""
        first, (p, s) = words[0], _shared_lengths(words)
        head = self._segment(first[:p], p < len(first))
        return p, head, s, self._segment(first[len(first) - s:], True)

    def evaluate_words(self, words, ends: tuple) -> LoopMatrix:
        """The stack of the values of words of one letter shape that share
        the ends (p, head, s, tail) of shared_ends: head * (the stacked
        middle columns) * tail."""
        p, out, s, tail = ends
        for column in zip(*(w[p:len(w) - s] for w in words)):
            letters = [self.letter(gen, exp) for gen, exp in column]
            same = all(x is letters[0] for x in letters)
            out = out * (letters[0] if same else stack(letters))
        return out * tail if s else out

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
        values = [self.letter(gen, exp) for gen, exp in letters]
        return reduce(operator.mul, values) if values else identity_matrix(self.n, self.dim)


def _shared_lengths(words) -> tuple:
    """(p, s): the longest prefix every word shares, then the longest suffix
    every word shares in what the prefix leaves."""
    first = words[0]
    p = 0
    while p < len(first) and all(w[p] == first[p] for w in words):
        p += 1
    s = 0
    while s < len(first) - p and all(w[-1 - s] == first[-1 - s] for w in words):
        s += 1
    return p, s


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


_BATCH, _STACK_ENTRIES = 16, 1 << 13  # caps on a stack's instances and entries per degree


def _chunks(items: list, dim: int) -> list:
    size = min(_BATCH, max(1, _STACK_ENTRIES // dim**2))
    return [items[k:k + size] for k in range(0, len(items), size)]


def _group_key(rel: presentation.Relator) -> tuple:
    shapes = (tuple((g.kind, g.node, e) for g, e in w) for w in (rel.left, rel.right))
    return (rel.family, rel.nodes, *shapes)


def verify_relators(model: LoopModel, relators) -> np.ndarray:
    """Whether the two words of each relator have equal values, in order.
    A run of relators with one family, nodes and letter shape is split into
    sub-runs that agree on every parameter but the last.  The prefix and the
    suffix that a sub-run's left (and right) words share are evaluated once
    for all its chunks, its middles as stacks (relators_for sorts by family,
    nodes and parameters, so there a run is a group, and a sub-run, say one
    htilde_i(r) of a torus-action family, is contiguous)."""
    passed, start = np.zeros(len(relators), dtype=bool), 0
    for _, run in itertools.groupby(relators, _group_key):
        for _, sub in itertools.groupby(run, lambda rel: rel.params[:-1]):
            sub = list(sub)
            left_ends = model.shared_ends([rel.left for rel in sub])
            right_ends = model.shared_ends([rel.right for rel in sub])
            for chunk in _chunks(sub, model.dim):
                left = model.evaluate_words([rel.left for rel in chunk], left_ends)
                right = model.evaluate_words([rel.right for rel in chunk], right_ends)
                passed[start:start + len(chunk)] = left.equal_each(right)
                start += len(chunk)
    return passed


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
    check."""
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
            candidates) -> np.ndarray:
    """Per root: whether g g_inv = I and, for some c in its candidates (each
    root has as many), g t^(k m) D_k g_inv = c^k t^(k m') D'_k for every k,
    where D_k and D'_k are the divided powers of the root and its image."""
    if not (g * g_inv).is_identity():
        return np.zeros(len(roots), dtype=bool)
    width = len(candidates[0])
    sources = [beta for beta in roots for _ in range(width)]
    targets = [image for image in images for _ in range(width)]
    coeffs = [c.data for cs in candidates for c in cs]
    holds = _conjugates_match(
        g, g_inv, _root_entries(model, sources), _root_entries(model, targets, coeffs),
        len(sources),
    )
    return holds.reshape(len(roots), width).any(axis=1)


def _root_entries(model: LoopModel, roots, coeffs=None) -> np.ndarray:
    """Rows (owner, k, degree, row, col, value): the nonzero entries of
    t^(k m) D_k for every k and every root (beta, m), owner being the root's
    position; the values are scaled by coeffs[owner]^k if coeffs is given."""
    parts = [model._divided_powers(root.coords) for root in roots]
    counts = [len(part[0]) for part in parts]
    owner = np.repeat(np.arange(len(roots)), counts)
    k, rows, cols, values = (np.concatenate(column) for column in zip(*parts))
    if coeffs is not None:
        powers = np.array([[pow(c, e, model.n) for e in range(int(k.max()) + 1)]
                           for c in coeffs], dtype=np.int64)
        values = values * powers[owner, k] % model.n
    degree = k * np.repeat([root.level for root in roots], counts)
    return np.stack([owner, k, degree, rows, cols, values])


def _entries(m: LoopMatrix, axis: int) -> tuple:
    """(degree, row, col, value) of the nonzero entries of a single matrix,
    sorted by row (axis 0) or by column (axis 1)."""
    k, rows, cols = np.nonzero(m.data[0])
    values = m.data[0][k, rows, cols]
    order = np.argsort((rows, cols)[axis], kind="stable")
    return k[order] + m.low, rows[order], cols[order], values[order]


def _pairs(lookup: np.ndarray, wanted: np.ndarray) -> tuple:
    """(i, j) for every i and every j with lookup[j] == wanted[i]; lookup is sorted."""
    lo = np.searchsorted(lookup, wanted)
    counts = np.searchsorted(lookup, wanted, side="right") - lo
    i = np.repeat(np.arange(len(wanted)), counts)
    return i, np.arange(len(i)) + np.repeat(lo + counts - np.cumsum(counts), counts)


def _conjugates_match(g: LoopMatrix, g_inv: LoopMatrix, terms: np.ndarray,
                      targets: np.ndarray, count: int) -> np.ndarray:
    """Whether g T g_inv = U for every owner below count and every k, where T
    and U are the Laurent matrices sum value t^degree E_(row, col) over the
    rows (owner, k, degree, row, col, value) of terms and of targets.

    Each entry of T meets only the entries of g in its row's column and of
    g_inv in its column's row.  Every pairwise product is reduced mod n, so
    each summand is below n, and a position sums at most one per entry of T
    and degree of g: far below 2^63 for every n with dim (n - 1)^2 < 2^63."""
    n, dim = g.n, g.dim
    owner, k, degree, row, col, value = terms
    g_degree, g_row, g_col, g_value = _entries(g, 1)
    i, j = _pairs(g_col, row)
    owner, k, degree, row, col, value = (
        owner[i], k[i], degree[i] + g_degree[j], g_row[j], col[i], value[i] * g_value[j] % n)
    inv_degree, inv_row, inv_col, inv_value = _entries(g_inv, 0)
    i, j = _pairs(inv_row, col)
    conjugates = np.stack([owner[i], k[i], degree[i] + inv_degree[j], row[i], inv_col[j],
                           value[i] * inv_value[j] % n])
    differences = np.concatenate([conjugates, targets], axis=1)
    differences[5, conjugates.shape[1]:] = (n - targets[5]) % n
    owner, k, degree, row, col, value = differences
    degree = degree - degree.min()
    key = np.ravel_multi_index(
        (owner, k, degree, row, col), (count, k.max() + 1, degree.max() + 1, dim, dim))
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    residues = np.add.reduceat(value[order], starts) % n
    return np.bincount(owner[order][starts[residues != 0]], minlength=count) == 0


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
