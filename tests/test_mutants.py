"""Presentation mutants: relators with one wrong parameter or one inverted
torus exponent, which the loop model must tell from the true ones."""

import pytest

from steinberg import diagrams as D
from steinberg import loopmodel as L
from steinberg import presentation as P
from steinberg import rings

from oracles import build_model

TWO = rings.from_int(P.SCHEMA_RING, 2)


def _schemas(diagram: str) -> tuple:
    """The schemas of the diagram's presentation, torus actions included, as
    verify_presentation decides them."""
    options = P.PresentationOptions(include_torus_action=True)
    return P.relators_for(D.parse_diagram(diagram), rings.integers(), options).relators


def _parameter_mutants(relators):
    """(operator, mutant) for each X parameter p of either word of each
    relator replaced by -p ("negated") or by 2p ("doubled"), in relator
    order; a replacement equal to p is skipped."""
    for rel in relators:
        for side in ("left", "right"):
            w = getattr(rel, side)
            for k, (gen, exp) in enumerate(w):
                if gen.kind != "X":
                    continue
                for operator, q in (("negated", -gen.param), ("doubled", TWO * gen.param)):
                    if q != gen.param:
                        letter = (P.X(gen.node, q), exp)
                        yield operator, rel._replace(**{side: w[:k] + (letter,) + w[k + 1:]})


def _inverted_torus_exponents(diagram: str):
    """((i, j), a, mutant) for each torus-action-1 relator with a = a_ij != 0,
    its right word X_j(r^a t) replaced by X_j(r^-a t)."""
    a = D.parse_diagram(diagram)
    r, t = P._VARIABLE["r"], P._VARIABLE["t"]
    for rel in _schemas(diagram):
        if rel.family != "torus-action-1":
            continue
        i, j = rel.nodes
        if aij := a.rows[i][j]:
            yield rel.nodes, aij, rel._replace(right=P.word(P.X(j, rings.power(r, -aij) * t)))


@pytest.mark.parametrize("diagram,count",
                         [("A~2", 708), ("C~2", 684), ("G~2", 718), ("B~3", 1190)])
def test_no_parameter_mutant_passes_over_z5(diagram, count):
    mutants = [mutant for _, mutant in _parameter_mutants(_schemas(diagram))]
    assert len(mutants) == count
    model = build_model(diagram, rings.integers_mod(5))
    assert not any(L.verify_relators(model, mutants))


def test_over_z2_exactly_the_negated_parameters_pass():
    # -p = p mod 2, so Z/2 cannot see a sign
    pairs = list(_parameter_mutants(_schemas("A~2")))
    model = build_model("A~2", rings.integers_mod(2))
    verdicts = L.verify_relators(model, [mutant for _, mutant in pairs])
    passed = [operator for (operator, _), ok in zip(pairs, verdicts) if ok]
    assert passed == [operator for operator, _ in pairs if operator == "negated"]
    assert len(passed) == 354


@pytest.mark.parametrize("diagram,p,survivors", [
    ("A~2", 5, {(0, 0), (1, 1), (2, 2)}),
    ("A~2", 7, set()),
    ("G~2", 7, {(0, 1)}),
    ("G~2", 13, set()),
])
def test_an_inverted_torus_exponent_survives_exactly_when_p_minus_1_divides_2a(
        diagram, p, survivors):
    # r^a = r^-a for every unit r of Z/p exactly when r^(2a) = 1, that is
    # when p - 1, the order of the cyclic unit group, divides 2a
    mutants = list(_inverted_torus_exponents(diagram))
    assert survivors == {nodes for nodes, a, _ in mutants if 2 * a % (p - 1) == 0}
    model = build_model(diagram, rings.integers_mod(p))
    assert survivors == {nodes for nodes, _, mutant in mutants
                         if L._families(model, [mutant])[0]["failed"] == 0}
