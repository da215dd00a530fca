"""Exact matrix realization of untwisted affine root groups inside the
adjoint Chevalley group over Laurent polynomials.

Matrices live over (Z/n)[t, t^-1] and are stored t-graded: a map from the
exponent of t to an integer matrix mod n.  All arithmetic is exact; matrix
exponentials use the integral divided powers of the adjoint basis, so no
division mod n ever happens.  The realization sends the root group of the
affine root (beta, m) to exp(u t^m ad e_beta); this verifies relations in a
quotient of the group by a central kernel, so every check here is a
soundness check (a relation that fails in the model fails in the group, and
every presentation relation must pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import chevalley, diagrams, presentation, rings
from . import roots as R
from .rings import UnsupportedModelError
from .roots import AffineRoot


@dataclass(frozen=True)
class LoopMatrix:
    """Square matrix over (Z/n)[t^(+-1)], graded by powers of t."""

    blocks: tuple  # ((exponent, ndarray), ...) sorted, no zero blocks
    n: int
    dim: int

    def __mul__(self, other: "LoopMatrix") -> "LoopMatrix":
        acc: dict = {}
        for k1, m1 in self.blocks:
            for k2, m2 in other.blocks:
                k = k1 + k2
                prod = (m1 @ m2) % self.n
                if k in acc:
                    acc[k] = (acc[k] + prod) % self.n
                else:
                    acc[k] = prod
        return _from_dict(acc, self.n, self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopMatrix):
            return NotImplemented
        if len(self.blocks) != len(other.blocks):
            return False
        return all(
            k1 == k2 and np.array_equal(m1, m2)
            for (k1, m1), (k2, m2) in zip(self.blocks, other.blocks)
        )

    def __hash__(self):
        return hash((self.n, self.dim, tuple(k for k, _ in self.blocks)))

    def is_identity(self) -> bool:
        return self == identity_matrix(self.n, self.dim)

    def is_diagonal(self) -> bool:
        return all(
            k == 0 and np.array_equal(m, np.diag(np.diagonal(m)))
            for k, m in self.blocks
        )


def _from_dict(acc: dict, n: int, dim: int) -> LoopMatrix:
    blocks = tuple(
        (k, acc[k]) for k in sorted(acc) if acc[k].any()
    )
    return LoopMatrix(blocks, n, dim)


@lru_cache(maxsize=None)
def identity_matrix(n: int, dim: int) -> LoopMatrix:
    return LoopMatrix(((0, np.eye(dim, dtype=np.int64)),), n, dim)


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

    # -- elementary matrices ------------------------------------------------

    def _divided_powers(self, coords) -> list[np.ndarray]:
        cached = self._powers_cache.get(coords)
        if cached is None:
            cached = [
                np.array(mat, dtype=np.int64) % self.n
                for mat in self.basis.divided_powers(coords)
            ]
            self._powers_cache[coords] = cached
        return cached

    def root_element(self, root: AffineRoot, u: rings.RingElement) -> LoopMatrix:
        """exp(u t^m ad e_beta) for the affine real root (beta, m)."""
        if root not in self.ars:
            raise ValueError(f"{root} is not a real root of {self.ars.cls}")
        if u.desc != self.ring:
            raise ValueError("coefficient lies in the wrong ring")
        acc: dict = {}
        uk = 1
        for k, dk in enumerate(self._divided_powers(root.coords)):
            if k:
                uk = (uk * u.data) % self.n
                if uk == 0:
                    break
            block = (dk * uk) % self.n
            key = k * root.level
            if key in acc:
                acc[key] = (acc[key] + block) % self.n
            else:
                acc[key] = block.copy()
        return _from_dict(acc, self.n, self.dim)

    def _half_exp(self, root: AffineRoot, c: int) -> LoopMatrix:
        return self.root_element(root, rings.from_int(self.ring, c))

    def s_matrix(self, i: int) -> LoopMatrix:
        """Image of S_i: the Weyl representative exp(e) exp(-f) exp(e) built
        from the affine simple root of node i."""
        cached = self._s_cache.get(i)
        if cached is None:
            root = self.simple_of_node[i]
            neg = AffineRoot(tuple(-c for c in root.coords), -root.level)
            cached = (
                self._half_exp(root, 1)
                * self._half_exp(neg, -1)
                * self._half_exp(root, 1)
            )
            self._s_cache[i] = cached
        return cached

    def s_inverse(self, i: int) -> LoopMatrix:
        root = self.simple_of_node[i]
        neg = AffineRoot(tuple(-c for c in root.coords), -root.level)
        return (
            self._half_exp(root, -1)
            * self._half_exp(neg, 1)
            * self._half_exp(root, -1)
        )

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
        out = identity_matrix(self.n, self.dim)
        for gen, exp in w:
            out = out * self.letter(gen, exp)
        return out

    def verify_relator(self, rel: presentation.Relator) -> bool:
        return self.evaluate_word(rel.left) == self.evaluate_word(rel.right)


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


def verify_presentation(
    model: LoopModel, options: presentation.PresentationOptions | None = None
) -> dict:
    """Run verify_relator over every instance of the presentation of the
    model's diagram; per-family pass counts with counterexample parameter
    bindings."""
    if options is None:
        options = presentation.PresentationOptions(include_torus_action=True)
    pres = presentation.relators_for(model.gcm, model.ring, options)
    families: dict[str, dict] = {}
    for rel in pres.relators:
        entry = families.setdefault(
            rel.family,
            {"family": rel.family, "instances": 0, "passed": 0, "failed": 0,
             "counterexamples": []},
        )
        entry["instances"] += 1
        if model.verify_relator(rel):
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
      the root group of s_i(beta), with a sign independent of the parameter;
    * conjugation by htilde_i(r) scales the parameter by r^<alpha_i^vee, beta>.
    """
    ars = model.ars
    ring = model.ring
    all_roots = R.real_roots_up_to_level(ars, level_bound)
    units = rings.units(ring)
    elements = [x for x in rings.elements(ring) if not x.is_zero()]
    weyl = {"family": "weyl-conjugation", "instances": 0, "passed": 0, "failed": 0,
            "counterexamples": []}
    torus = {"family": "torus-scaling", "instances": 0, "passed": 0, "failed": 0,
             "counterexamples": []}
    for i in range(model.gcm.rank):
        simple = model.simple_of_node[i]
        s_word = presentation.stilde(i, rings.one(ring))
        s_mat = model.evaluate_word(s_word)
        s_inv = model.evaluate_word(presentation.winv(s_word))
        for beta in all_roots:
            image = R.reflect(ars, beta, simple)
            sign = None
            ok = True
            for u in elements:
                conj = s_mat * model.root_element(beta, u) * s_inv
                if sign is None:
                    if conj == model.root_element(image, u):
                        sign = 1
                    elif conj == model.root_element(image, -u):
                        sign = -1
                    else:
                        ok = False
                        break
                elif conj != model.root_element(image, u.scale(sign)):
                    ok = False
                    break
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
            for beta in all_roots:
                exponent = ars.finite.pairing(simple.coords, beta.coords)
                scale = rings.power(r, exponent)
                ok = all(
                    h_mat * model.root_element(beta, u) * h_inv
                    == model.root_element(beta, scale * u)
                    for u in elements
                )
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
