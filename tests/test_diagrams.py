import itertools
import random
import re
from fractions import Fraction

import pytest

from steinberg import diagrams as D

from oracles import catalog, submatrix


def test_gcm_validation():
    with pytest.raises(ValueError):
        D.gcm([[2, -1], [0, 2]])  # asymmetric vanishing
    with pytest.raises(ValueError):
        D.gcm([[1, -1], [-1, 2]])  # bad diagonal
    with pytest.raises(ValueError):
        D.gcm([[2, 1], [1, 2]])  # positive off-diagonal


def test_classify_affine_a2():
    a = D.gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert D.classify(a).label() == "A~2"


def test_classify_finite_a2():
    assert D.classify(D.gcm([[2, -1], [-1, 2]])).label() == "A2"


def test_classify_rank3_double_double_chain():
    # chain with (A_12, A_21) = (-2, -1) and (A_23, A_32) = (-1, -2):
    # both end nodes short, middle long
    a = D.gcm([[2, -2, 0], [-1, 2, -1], [0, -2, 2]])
    cls = D.classify(a)
    # oracle: must be isomorphic to the recipe matrix of the catalog label
    ref = D.affine_cartan(D.parse_label(cls.label()))
    assert D.isomorphism(ref, a) is not None
    assert cls.label() == "B~2^even"


def _matrix_from_roots(label):
    # the pairings of the simple affine roots of the enumerated root system
    from steinberg import roots as R

    ars = R.affine_system(label)
    simples = R.simple_affine_roots(ars)
    return D.gcm([[ars.finite.pairing(x.coords, y.coords) for y in simples] for x in simples])


@pytest.mark.parametrize("label", [cls.label() for cls, _ in catalog(12) if cls.is_affine]
                         + ["A~35", "B~25", "C~25", "D~26", "B~2", "D~3", "C~2^even"])
def test_recipe_matrix_matches_the_root_system(label):
    assert D.affine_cartan(D.parse_label(label)) == _matrix_from_roots(label)


def test_classify_unknown_is_other():
    a = D.gcm([[2, -5], [-1, 2]])
    assert D.classify(a).kind == "other"


def test_classify_permutation_invariant():
    base = D.affine_cartan(D.parse_label("C~2"))
    for perm in itertools.permutations(range(3)):
        rows = [[base.rows[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        assert D.classify(D.gcm(rows)).label() == "C~2"


def test_catalog_classes_are_their_parsed_labels():
    classes = D._catalog_classes(12)
    assert len(set(classes)) == len(classes)
    for cls in classes:
        assert D.parse_label(cls.label()) == cls


def test_catalog_round_trip():
    for cls, matrix in catalog(9):
        assert D.classify(matrix).label() == cls.label()


def _reference_scan(a, entries):
    """Recognition as a plain scan over the full, prebuilt catalog."""
    for cls, reference in entries:
        if reference.rank == a.rank:
            perm = D.isomorphism(reference, a)
            if perm is not None:
                return cls, perm
    return D.DiagramClass("other", rank=a.rank), None


def test_rank_local_recognition_matches_full_catalog_scan():
    entries = catalog(12)
    rng = random.Random(12)
    for _, matrix in entries:
        perm = list(range(matrix.rank))
        rng.shuffle(perm)
        rows = [[matrix.rows[p][q] for q in perm] for p in perm]
        for a in (matrix, D.gcm(rows)):
            assert D.classify_with_map(a) == _reference_scan(a, entries)


# a rank-13 and a rank-14 label of every family that has them
ABOVE_RANK_12 = (
    [f"{family}{n}" for family in "ABCD" for n in (13, 14)]
    + [f"{family}~{n}" for family in "ABCD" for n in (12, 13)]
    + [f"{family}~{n}^even" for family in "BC" for n in (12, 13)]
    + ["BC~12^odd", "BC~13^odd"]
)


@pytest.mark.parametrize("label", ABOVE_RANK_12)
def test_labels_above_rank_12_are_recognised(label):
    matrix = D.parse_diagram(label)
    assert matrix.rank in (13, 14)
    order = list(range(matrix.rank))
    random.Random(label).shuffle(order)
    shuffled = D.gcm([[matrix.rows[p][q] for q in order] for p in order])
    for a in (matrix, shuffled):
        cls, perm = D.classify_with_map(a)
        assert cls.label() == label
        n = matrix.rank
        assert all(matrix.rows[i][j] == a.rows[perm[i]][perm[j]] for i in range(n) for j in range(n))


def test_duplicate_names_canonicalized():
    assert D.classify(D.affine_cartan(D.parse_label("B~2"))).label() == "C~2"
    assert D.classify(D.affine_cartan(D.parse_label("D~3"))).label() == "A~3"
    assert D.classify(D.affine_cartan(D.parse_label("C~2^even"))).label() == "B~2^even"
    assert D.classify(D.finite_cartan("C", 2)).label() == "B2"


def test_coxeter_order():
    b2 = D.finite_cartan("B", 2)
    g2 = D.finite_cartan("G", 2)
    a1a1 = D.gcm([[2, 0], [0, 2]])
    assert D.coxeter_order(a1a1, 0, 1) == 2
    assert D.coxeter_order(b2, 0, 1) == 4
    assert D.coxeter_order(g2, 0, 1) == 6
    assert D.coxeter_order(D.finite_cartan("A", 2), 0, 1) == 3
    assert D.coxeter_order(D.gcm([[2, -4], [-1, 2]]), 0, 1) is D.INFINITE
    with pytest.raises(ValueError):
        D.coxeter_order(b2, 1, 1)


def test_name_conversions():
    assert D.name_conversions(D.parse_label("BC~3^odd")) == (
        "BC~3^odd", "BC_3^(2)", "A_6^(2)")
    assert D.name_conversions(D.parse_label("G~2^0mod3")) == (
        "G~2^0mod3", "G_2^(3)", "D_4^(3)")
    assert D.name_conversions(D.parse_label("B~4^even")) == (
        "B~4^even", "B_4^(2)", "D_5^(2)")
    assert D.name_conversions(D.parse_label("C~3^even")) == (
        "C~3^even", "C_3^(2)", "A_5^(2)")
    assert D.name_conversions(D.parse_label("A~2")) == ("A~2", "A_2^(1)", "A_2^(1)")
    with pytest.raises(ValueError):
        D.name_conversions(D.parse_label("B3"))


def test_two_spherical_no_a1():
    assert D.two_spherical_no_a1(D.affine_cartan(D.parse_label("A~2")))
    assert not D.two_spherical_no_a1(D.gcm([[2]]))
    assert not D.two_spherical_no_a1(D.gcm([[2, -4], [-1, 2]]))


def _is_finite_type_oracle(sub: D.GeneralizedCartanMatrix) -> bool:
    # independent oracle: symmetrize and check positive definiteness by
    # leading principal minors, exactly over the rationals
    n = sub.rank
    d = [Fraction(1)] * n
    # solve d_i a_ij = d_j a_ji along a spanning structure; bail out if the
    # matrix is not symmetrizable (cannot happen for our inputs)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if sub.rows[i][j] and d[i] * sub.rows[i][j] != d[j] * sub.rows[j][i]:
                    d[j] = d[i] * sub.rows[i][j] / sub.rows[j][i]
                    changed = True
    m = [[d[i] * sub.rows[i][j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if _det([row[:k] for row in m[:k]]) <= 0:
            return False
    return True


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _covering_oracle(a: D.GeneralizedCartanMatrix) -> bool:
    n = a.rank
    for i in range(n):
        for j in range(i + 1, n):
            found = False
            for size in range(3, n + 1):
                for nodes in itertools.combinations(range(n), size):
                    if i not in nodes or j not in nodes:
                        continue
                    sub = submatrix(a, nodes)
                    if len(sub.components()) == 1 and _is_finite_type_oracle(sub):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


def test_spherical_covering_examples():
    a3 = D.affine_cartan(D.parse_label("A~3"))
    assert D.spherical_covering_holds(a3)
    assert _covering_oracle(a3)

    c3 = D.affine_cartan(D.parse_label("C~3"))  # rank-4 chain, double edges at ends
    assert not D.spherical_covering_holds(c3)
    assert not _covering_oracle(c3)

    d4 = D.affine_cartan(D.parse_label("D~4"))
    assert D.spherical_covering_holds(d4)
    assert _covering_oracle(d4)


def test_covering_matches_oracle_on_catalog():
    for cls, matrix in catalog(7):
        if not cls.is_affine or cls.rank < 4:
            continue
        assert D.spherical_covering_holds(matrix) == _covering_oracle(matrix), cls


# expected values from an exhaustive search over node subsets, which takes
# 2.5-6.4 s per label
@pytest.mark.parametrize("label,holds", [
    ("A~17", True), ("B~17", True), ("D~17", True), ("C~16^even", True),
    ("C~17", False), ("B~16^even", False), ("BC~16^odd", False),
])
def test_covering_at_large_rank(label, holds):
    a = D.affine_cartan(D.parse_label(label))
    assert D.spherical_covering_holds(a) is holds
    v = D.finite_presentability_hypotheses(a, D.RingProfile(finitely_generated_ring=True))
    assert v == ("FinitelyPresentedCase_i", not holds, holds)


def test_finite_presentability_verdicts():
    a4 = D.affine_cartan(D.parse_label("A~4"))
    v = D.finite_presentability_hypotheses(a4, D.RingProfile(finitely_generated_ring=True))
    assert v.verdict == "FinitelyPresentedCase_i" and not v.used_special_covering

    a2 = D.affine_cartan(D.parse_label("A~2"))
    v = D.finite_presentability_hypotheses(
        a2, D.RingProfile(module_finite_over_unit_subring=True)
    )
    assert v.verdict == "FinitelyPresentedCase_ii"

    c3 = D.affine_cartan(D.parse_label("C~3"))
    v = D.finite_presentability_hypotheses(c3, D.RingProfile(finitely_generated_ring=True))
    assert v.verdict == "FinitelyPresentedCase_i" and v.used_special_covering

    v = D.finite_presentability_hypotheses(a4, D.RingProfile())
    assert v.verdict == "HypothesesNotMet"

    with pytest.raises(ValueError):
        D.finite_presentability_hypotheses(
            D.affine_cartan(D.parse_label("A~1")), D.RingProfile()
        )


def test_parse_matrix_text():
    text = """# a comment
    rank 2
    2 -1
    -1 2
    """
    assert D.classify(D.parse_matrix_text(text)).label() == "A2"
    assert D.classify(D.parse_diagram("A~2")).label() == "A~2"
    assert D.classify(D.parse_diagram(text)).label() == "A2"
    assert D.classify(D.parse_matrix_text("RANK\t2\n2 -1\n-1 2\n")).label() == "A2"
    # the header is `rank` and one integer n >= 1, nothing else
    for header in ["rank", "rank 0", "rank -1", "rank 2 3", "ranking 2", "rank x", "2"]:
        with pytest.raises(ValueError, match="must start with a `rank n` line"):
            D.parse_matrix_text(header + "\n2 -1\n-1 2\n")
    with pytest.raises(ValueError, match="must start with a `rank n` line"):
        D.parse_matrix_text("# only a comment\n")


def test_label_parsing_errors():
    for bad in ["H3", "B1", "G~3", "BC~2", "BC~2^even", "A~2^odd", "F~5"]:
        with pytest.raises(ValueError):
            D.parse_label(bad)
    # the edges of the label table, each with its message
    for bad in ["A0", "D2", "E9"]:
        with pytest.raises(ValueError, match=f"^no finite diagram {re.escape(bad)}$"):
            D.parse_label(bad)
    for bad in ["A~0", "B~1", "D~2", "E~9", "B~1^even", "F~3^even", "BC~0^odd", "G~3^0mod3"]:
        with pytest.raises(ValueError, match=f"^no affine diagram {re.escape(bad)}$"):
            D.parse_label(bad)
    with pytest.raises(ValueError, match="^superscripts only occur on affine labels$"):
        D.parse_label("A2^even")
