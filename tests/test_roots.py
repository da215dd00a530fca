import math
from fractions import Fraction

import pytest

from steinberg import diagrams as D
from steinberg import roots as R
from steinberg.roots import AffineRoot

from oracles import catalog, prenilpotent_by_weyl_search, prenilpotent_geometric


# ---------------------------------------------------------------------------
# independent euclidean models used as oracles

EUCLID = {
    "A2": [(1, 0), (-1, 0), (0.5, 0.75), (-0.5, -0.75), (0.5, -0.75), (-0.5, 0.75)],
}


def euclid_b2():
    roots = []
    for i in range(2):
        for s in (1, -1):
            v = [0, 0]
            v[i] = s
            roots.append(tuple(v))
    for s1 in (1, -1):
        for s2 in (1, -1):
            roots.append((s1, s2))
    return roots


def euclid_g2():
    # closure of the simple roots a=(1,0), b=(-3/2, sqrt3/2 ~ squared length 3)
    # under the two simple reflections, with exact coordinates in Q(sqrt3):
    # represent (x, y*sqrt3) as (x, y) with norm x^2 + 3 y^2
    a = (Fraction(1), Fraction(0))
    b = (Fraction(-3, 2), Fraction(1, 2))

    def dot(u, v):
        return u[0] * v[0] + 3 * u[1] * v[1]

    def refl(u, v):
        c = 2 * dot(u, v) / dot(u, u)
        return (v[0] - c * u[0], v[1] - c * u[1])

    roots = {a, b}
    while True:
        new = {refl(s, r) for s in (a, b) for r in roots} | roots
        new |= {(-x, -y) for x, y in new}
        if new == roots:
            return roots
        roots = new


def test_finite_root_counts_against_euclidean_oracles():
    a2 = R.enumerate_finite_roots(D.finite_cartan("A", 2))
    assert len(a2.roots) == len(EUCLID["A2"]) == 6
    assert {a2.length_class(r) for r in a2.roots} == {"long"}

    b2 = R.enumerate_finite_roots(D.finite_cartan("B", 2))
    assert len(b2.roots) == len(euclid_b2()) == 8
    shorts = [r for r in b2.roots if b2.length_class(r) == "short"]
    assert len(shorts) == 4

    g2 = R.enumerate_finite_roots(D.finite_cartan("G", 2))
    oracle = euclid_g2()
    assert len(g2.roots) == len(oracle) == 12
    shorts = [r for r in g2.roots if g2.length_class(r) == "short"]
    assert len(shorts) == 6


def test_form_and_norm_are_int_on_every_catalog_system():
    systems = [
        R.enumerate_finite_roots(matrix)
        for cls, matrix in catalog(12) if cls.kind == "finite"
    ]
    systems += [
        R.affine_system(cls).finite for cls, _ in catalog(12) if cls.is_affine
    ]
    for phi in systems:
        simples = [phi.simple(i) for i in range(phi.rank)]
        for r in phi.roots:
            assert type(phi.norm(r)) is int
            assert all(type(phi.form(r, s)) is int for s in simples)
            assert all(type(phi.pairing(r, s)) is int for s in simples)


def test_pairing_rejects_non_integral_pair():
    a2 = R.enumerate_finite_roots(D.finite_cartan("A", 2))
    # (2a_1, 2a_1) = 8 and (2a_1, a_2) = -2: the pairing would be -1/2
    assert a2.pairing((2, 0), (1, 0)) == 1
    with pytest.raises(ValueError, match="non-integral pairing"):
        a2.pairing((2, 0), (0, 1))


def test_pairing_matches_the_divided_form_on_every_catalog_pair():
    # the kept row of each root against 2 (x, y) / (x, x), with x as a list
    # on the first use and as a tuple after; BC_n comes with the affine ones
    systems = [
        R.enumerate_finite_roots(matrix)
        for cls, matrix in catalog(8) if cls.kind == "finite"
    ]
    systems += [R.affine_system(cls).finite for cls, _ in catalog(8) if cls.is_affine]
    assert any(phi.nonreduced for phi in systems)
    for phi in systems:
        for x in phi.roots:
            for y in phi.roots:
                value, remainder = divmod(2 * phi.form(x, y), phi.norm(x))
                assert remainder == 0
                assert phi.pairing(list(x), y) == phi.pairing(x, y) == value


def _symmetrizes(d, a) -> bool:
    return all(d[i] * a.rows[i][j] == d[j] * a.rows[j][i]
               for i in range(a.rank) for j in range(a.rank))


def test_symmetrizer_is_an_integer_solution_with_gcd_one():
    cases = [(a, None) for _, a in catalog(6)] + [
        (D.gcm([[2, -1], [-4, 2]]), (4, 1)),  # a denominator 4 to clear
        (D.gcm([[2, -3, 0], [-1, 2, 0], [0, 0, 2]]), (1, 3, 1)),
        # the denominators of all components share one common multiple
        (D.gcm([[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -3], [0, 0, -1, 2]]), (2, 1, 2, 6)),
    ]
    for a, expected in cases:
        d = R._symmetrizer(a)
        assert all(x > 0 for x in d) and math.gcd(*d) == 1 and _symmetrizes(d, a), a
        assert expected is None or d == expected


def test_symmetrizer_rejects_a_cycle_that_does_not_close():
    # a_01 a_12 a_20 = -1 but a_10 a_21 a_02 = -2
    a = D.gcm([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
    with pytest.raises(ValueError, match="not symmetrizable"):
        R._symmetrizer(a)


def test_nonfinite_type_rejected():
    with pytest.raises(ValueError):
        R.enumerate_finite_roots(D.gcm([[2, -2], [-2, 2]]))


def _direct_sum(a, b):
    zeros = [0] * b.rank
    return D.gcm([list(row) + zeros for row in a.rows] + [[0] * a.rank + list(row) for row in b.rows])


@pytest.mark.parametrize(
    "matrix,count",
    [
        # above a fixed cap of 1,200 roots
        (D.finite_cartan("A", 35), 1260),
        (D.finite_cartan("B", 25), 1250),
        (D.finite_cartan("C", 25), 1250),
        (D.finite_cartan("D", 26), 1300),
        (D.finite_cartan("E", 8), 240),
        (D.finite_cartan("F", 4), 48),
        (D.finite_cartan("G", 2), 12),
        # reducible: more roots than 2 n^2 and than 240
        (_direct_sum(D.finite_cartan("E", 8), D.finite_cartan("A", 1)), 242),
    ],
    ids=["A35", "B25", "C25", "D26", "E8", "F4", "G2", "E8+A1"],
)
def test_closure_bound_admits_every_finite_type(matrix, count):
    assert len(R.enumerate_finite_roots(matrix).roots) == count


@pytest.mark.parametrize("label", ["A~3", "G~2", "E~8"])
def test_affine_matrices_are_not_finite_type(label):
    with pytest.raises(ValueError, match="not finite type"):
        R.enumerate_finite_roots(D.affine_cartan(D.parse_label(label)))


def brute_force_real_roots(ars, bound):
    # independent oracle straight from the membership rule: pairs
    # (finite root, m) with the superscript condition on long roots
    out = []
    for coords in ars.finite.roots:
        long = ars.finite.length_class(coords) == "long"
        for m in range(-bound, bound + 1):
            if ars.superscript is None or not long:
                out.append((coords, m))
            elif ars.superscript == "even" and m % 2 == 0:
                out.append((coords, m))
            elif ars.superscript == "odd" and m % 2 == 1:
                out.append((coords, m))
            elif ars.superscript == "0mod3" and m % 3 == 0:
                out.append((coords, m))
    return out


def test_real_root_counts():
    cases = [("A~2", 2, 30), ("B~2^even", 2, 32), ("BC~1^odd", 3, 22)]
    for label, bound, expected in cases:
        ars = R.affine_system(label)
        got = R.real_roots_up_to_level(ars, bound)
        assert len(got) == expected
        assert len(brute_force_real_roots(ars, bound)) == expected
        assert got == sorted(got)


def test_simple_affine_roots():
    a2 = R.affine_system("A~2")
    simples = R.simple_affine_roots(a2)
    assert simples == [
        AffineRoot((1, 0), 0),
        AffineRoot((0, 1), 0),
        AffineRoot((-1, -1), 1),
    ]

    bc1 = R.affine_system("BC~1^odd")
    simples = R.simple_affine_roots(bc1)
    assert simples == [AffineRoot((1,), 0), AffineRoot((-2,), 1)]

    g2t = R.affine_system("G~2^0mod3")
    simples = R.simple_affine_roots(g2t)
    assert simples[0] == AffineRoot((1, 0), 0)
    assert simples[1] == AffineRoot((0, 1), 0)
    low_short = simples[2]
    assert low_short.level == 1
    assert g2t.finite.length_class(low_short.coords) == "short"
    assert low_short.coords == (-2, -1)


def _highest(roots) -> tuple:
    return max(roots, key=lambda r: (sum(r), r))


def test_simple_affine_roots_match_the_highest_root_construction():
    # the reference: alpha_0 at level one over minus the highest root of the
    # level-zero system (max by height, then coordinates), or over minus one
    # or two times its highest short root for a twisted label
    for cls, _ in catalog(12):
        if not cls.is_affine:
            continue
        ars = R.affine_system(cls)
        phi0 = R.enumerate_finite_roots(D.affine_recipe(cls)[0])
        shortest = min(phi0.norm(r) for r in phi0.roots)
        if ars.superscript is None:
            c, beta = 1, _highest(phi0.roots)
        else:
            c = 2 if ars.superscript == "odd" else 1
            beta = _highest(r for r in phi0.roots if phi0.norm(r) == shortest)
        simples = [AffineRoot(phi0.simple(i), 0) for i in range(phi0.rank)]
        last = AffineRoot(tuple(-c * b for b in beta), 1)
        assert R.simple_affine_roots(ars) == simples + [last], cls.label()


def _two_attempt_lift(ars, beta, xbar, cx):
    """The lift before the three-level proof: x at the levels 0, 1, -1, 2,
    -2, ... up to |beta.level| + 4, then y at those levels and x divided
    out."""
    ybar = tuple(b - cx * x for b, x in zip(beta.coords, xbar))
    span = abs(beta.level) + 4
    levels = [0] + [s * k for k in range(1, span + 1) for s in (1, -1)]
    for k in levels:
        x = AffineRoot(xbar, k)
        if x in ars and (y := ars.combine(1, beta, -cx, x)) in ars:
            return x, y
    for k in levels:
        y, level = AffineRoot(ybar, k), beta.level - k
        if y in ars and level % cx == 0 and AffineRoot(xbar, level // cx) in ars:
            return AffineRoot(xbar, level // cx), y
    raise ValueError("no lift found (level span exhausted)")


def test_three_level_lift_classifies_as_the_two_attempt_lift(monkeypatch):
    def classified(ars, roots):
        out = []
        for a in roots:
            for b in roots:
                try:
                    out.append(R.classify_pair(ars, a, b))
                except ValueError as exc:
                    out.append(str(exc))
        return out

    nonclassical = 0
    for cls, _ in catalog(5):
        if not cls.is_affine:
            continue
        ars = R.affine_system(cls)
        roots = R.real_roots_up_to_level(ars, 2)
        got = classified(ars, roots)
        with monkeypatch.context() as m:
            m.setattr(R, "_lift", _two_attempt_lift)
            assert got == classified(ars, roots), cls.label()
        nonclassical += sum(getattr(c, "kind", None) == "nonclassical" for c in got)
    assert nonclassical == 8_388


def test_affine_catalog_gcm_round_trip():
    # every affine recipe's Cartan matrix classifies back to its own label
    for label in ["A~2", "C~2", "G~2", "B~3", "B~2^even", "BC~2^odd", "G~2^0mod3", "F~4^even"]:
        cls = D.parse_label(label)
        assert D.classify(D.affine_cartan(cls)).label() == label


def test_reflect_basics():
    ars = R.affine_system("A~2")
    alpha = AffineRoot((1, 0), 0)
    assert R.reflect(ars, alpha, alpha) == AffineRoot((-1, 0), 0)
    beta = AffineRoot((0, 1), 1)
    assert R.reflect(ars, beta, alpha).level == 1  # level-0 reflections keep level


def test_reflect_against_affine_isometry_oracle():
    # oracle: the reflection of the affine functional x -> (coords, x) + m
    # in the wall of r acts on (coords, m) by an explicit affine isometry,
    # computed here with exact fractions in the euclidean A_2 plane
    ars = R.affine_system("A~2")
    e = {
        (1, 0): (Fraction(1), Fraction(0), Fraction(0)),
        (0, 1): (Fraction(-1, 2), Fraction(1, 2), Fraction(0)),
    }

    def embed(root):
        x = root.coords
        return (
            x[0] * e[(1, 0)][0] + x[1] * e[(0, 1)][0],
            x[0] * Fraction(0) + x[1] * Fraction(3, 4),
            Fraction(root.level),
        )

    # (a, b, m) encodes the functional a*X + b*sqrt3... using form with
    # norm (u, u) = u0^2*1 ... keep it simple: use the Cartan-form directly
    def form(u, v):
        return ars.finite.form(u, v)

    roots = R.real_roots_up_to_level(ars, 2)
    for x in roots[:12]:
        for r in roots[:12]:
            img = R.reflect(ars, x, r)
            # oracle formula: functional beta + m*delta reflected in
            # alpha + k*delta is beta - <alpha^vee,beta> alpha at level
            # m - <alpha^vee,beta> k; verify the reflected functional agrees
            # on three sample lattice points of the euclidean plane
            pair = Fraction(2) * form(r.coords, x.coords) / form(r.coords, r.coords)
            assert pair.denominator == 1
            assert img.coords == tuple(
                xc - int(pair) * rc for xc, rc in zip(x.coords, r.coords)
            )
            assert img.level == x.level - int(pair) * r.level


def test_classify_pair_examples():
    a2 = R.affine_system("A~2")
    abar = (1, 1)
    c = R.classify_pair(a2, AffineRoot(abar, 0), AffineRoot(abar, 1))
    assert c.kind == "nonclassical" and c.case == 1
    gamma, delta = c.witnesses
    assert tuple(x + y for x, y in zip(gamma.coords, delta.coords)) == abar
    assert gamma.level + delta.level == 1

    c = R.classify_pair(a2, AffineRoot((1, 0), 0), AffineRoot((0, 1), 0))
    assert c.kind == "classical"

    bc2 = R.affine_system("BC~2^odd")
    sigma = (1, 1)  # e_1, short
    c = R.classify_pair(bc2, AffineRoot(sigma, 0), AffineRoot((2, 2), 1))
    assert c.kind == "nonclassical" and c.case == 5

    c = R.classify_pair(a2, AffineRoot((1, 1), 0), AffineRoot((-1, -1), 0))
    assert c.kind == "not-prenilpotent"
    assert R.classify_pair(a2, AffineRoot((1, 1), 0), AffineRoot((1, 1), 0)).kind == "equal"


def test_classify_pair_case_tags_partition():
    # cases 6 and 7 both occur in the odd system; middling/long give 3/2;
    # G~2^0mod3 gives cases 1 and 4
    bc2 = R.affine_system("BC~2^odd")
    e1 = (1, 1)
    c6 = R.classify_pair(bc2, AffineRoot(e1, 0), AffineRoot(e1, 1))
    assert c6.case == 6  # sum (2e_1, 1) is a root (odd level)
    c7 = R.classify_pair(bc2, AffineRoot(e1, 0), AffineRoot(e1, 2))
    assert c7.case == 7  # sum (2e_1, 2) fails the odd condition
    mid = (1, 2)  # e_1 + e_2
    assert R.classify_pair(bc2, AffineRoot(mid, 0), AffineRoot(mid, 1)).case == 3
    long = (2, 2)
    assert R.classify_pair(bc2, AffineRoot(long, 1), AffineRoot(long, 3)).case == 2

    g2t = R.affine_system("G~2^0mod3")
    short = (1, 0)
    assert R.classify_pair(g2t, AffineRoot(short, 0), AffineRoot(short, 1)).case == 4
    long = (3, 1)
    assert R.classify_pair(g2t, AffineRoot(long, 0), AffineRoot(long, 3)).case == 1

    b2 = R.affine_system("B~2")
    lng = (1, 2)  # e_1 + e_2
    assert R.classify_pair(b2, AffineRoot(lng, 0), AffineRoot(lng, 1)).case == 2
    sht = (0, 1)
    assert R.classify_pair(b2, AffineRoot(sht, 0), AffineRoot(sht, 1)).case == 3


def test_prenilpotent_geometric():
    a2 = R.affine_system("A~2")
    assert prenilpotent_geometric(a2, AffineRoot((1, 0), 0), AffineRoot((0, 1), 0))
    assert not prenilpotent_geometric(a2, AffineRoot((1, 0), 0), AffineRoot((-1, 0), 0))
    assert prenilpotent_geometric(a2, AffineRoot((1, 0), 0), AffineRoot((1, 0), 1))


def test_proportionality_is_a_reduced_ratio():
    cases = [
        ((1, 0), (2, 0)), ((2, 0), (1, 0)), ((1, 1), (-1, -1)), ((-2, 0), (1, 0)),
        ((2, 4), (-3, -6)), ((0, -3), (0, 6)), ((1, 0), (0, 1)), ((1, 2), (2, 1)),
    ]
    for x, y in cases:
        q = R._proportionality(x, y)
        independent = x[0] * y[1] != x[1] * y[0]
        if independent:
            assert q is None
            continue
        i = 0 if x[0] else 1
        assert Fraction(*q) == Fraction(y[i], x[i]) and q[1] > 0 and math.gcd(*q) == 1


def test_theta():
    a2 = R.affine_system("A~2")
    al, be = AffineRoot((1, 0), 0), AffineRoot((0, 1), 0)
    got = R.theta(a2, al, be)
    assert got == {al, be, AffineRoot((1, 1), 0)}
    # independent brute-force scan
    brute = set()
    for i in range(5):
        for j in range(5):
            if i == j == 0:
                continue
            cand = AffineRoot((i * 1 + j * 0, i * 0 + j * 1), 0)
            if cand in a2:
                brute.add(cand)
    assert got == brute

    b2 = R.affine_system("B~2")
    s, l = AffineRoot((0, 1), 0), AffineRoot((1, 0), 0)
    got = R.theta(b2, s, l)
    assert got == {s, l, AffineRoot((1, 1), 0), AffineRoot((1, 2), 0)}

    bc2 = R.affine_system("BC~2^odd")
    e1 = (1, 1)
    got = R.theta(bc2, AffineRoot(e1, 0), AffineRoot(e1, 1))
    assert got == {
        AffineRoot(e1, 0),
        AffineRoot(e1, 1),
        AffineRoot((2, 2), 1),
    }
    with pytest.raises(ValueError):
        R.theta(a2, AffineRoot((1, 0), 0), AffineRoot((-1, 0), 1))


def test_reflection_closure_and_level_shift():
    for label in ["A~2", "B~2^even", "BC~2^odd", "G~2^0mod3"]:
        ars = R.affine_system(label)
        roots = R.real_roots_up_to_level(ars, 2)
        simples = R.simple_affine_roots(ars)
        for x in roots:
            for s in simples:
                assert R.reflect(ars, x, s) in ars
            neg = AffineRoot(tuple(-c for c in x.coords), -x.level)
            assert neg in ars
        shift = 1 if ars.superscript is None else (
            3 if ars.superscript == "0mod3" else 2
        )
        for x in roots:
            assert AffineRoot(x.coords, x.level + (
                shift if ars.finite.length_class(x.coords) == "long" else 1
            )) in ars


def test_weyl_search_agrees_with_geometric():
    ars = R.affine_system("A~2")
    roots = R.real_roots_up_to_level(ars, 1)
    for a in roots:
        for b in roots:
            geo = prenilpotent_geometric(ars, a, b)
            search = prenilpotent_by_weyl_search(ars, a, b, max_length=10)
            if search is True:
                assert geo
            # inconclusive searches must only happen for non-prenilpotent pairs
            if geo:
                assert search is True


def test_witnesses_satisfy_case_recipes():
    # witnesses are roots that add up to beta as their case says, and their
    # projections meet the case's conditions, among them which sums with
    # alpha are roots (the alpha-interactions the argument avoids)
    def plus(*vectors):
        return tuple(map(sum, zip(*vectors)))

    seen = set()
    for label in ("A~2", "A~3", "B~2", "BC~2^odd", "G~2", "G~2^0mod3", "C~3"):
        ars = R.affine_system(label)
        phi = ars.finite
        roots = R.real_roots_up_to_level(ars, 2)
        for a in roots:
            for b in roots:
                c = R.classify_pair(ars, a, b)
                if c.kind != "nonclassical":
                    continue
                seen.add(c.case)
                w1, w2 = c.witnesses
                assert w1 in ars and w2 in ars
                # case 5 takes alpha to be the shorter root of the pair
                alpha, beta = (a, b) if phi.norm(b.coords) >= phi.norm(a.coords) else (b, a)
                al, x, y = alpha.coords, w1.coords, w2.coords
                if c.case == 1:  # (gamma, delta), in a reduced system
                    assert ars.combine(1, w1, 1, w2) == beta
                    assert x not in (al, tuple(-v for v in al))
                    assert plus(al, x) not in phi and plus(al, y) not in phi
                elif c.case in (2, 5):  # (sigma, lambda)
                    assert ars.combine(2, w1, 1, w2) == beta
                    assert plus(x, y) in phi
                    assert all(plus(al, v) not in phi for v in (x, y, plus(x, y)))
                elif c.case == 3:  # (sigma, lambda)
                    assert ars.combine(1, w1, 1, w2) == beta
                    assert plus(x, x, y) in phi
                    assert all(plus(al, v) not in phi for v in (y, plus(x, x, y)))
                elif c.case == 4:  # (sigma, lambda)
                    assert ars.combine(1, w1, 1, w2) == beta
                    assert phi.length_class(x) == "short" and phi.length_class(y) == "long"
                else:  # 6 and 7: (mu, sigma)
                    assert c.case in (6, 7)
                    assert ars.combine(1, w1, 1, w2) == beta
                    assert plus(y, y, x) in phi and plus(al, y) in phi
                    assert all(plus(al, v) not in phi for v in (x, plus(y, y), plus(y, y, x)))
    assert seen == {1, 2, 3, 4, 5, 6, 7}


def _plus(*vectors):
    return tuple(map(sum, zip(*vectors)))


def _display_holds(phi, case, abar, xbar, ybar) -> bool:
    """The paper's full display of a case on the projections, clause by
    clause: the reference that _WITNESS_CASES's one root is held to."""
    def avoids(*vectors):  # alpha + v is a root for none of them
        return all(_plus(abar, v) not in phi for v in vectors)

    if case == 1:  # (gamma, delta)
        return R._proportionality(xbar, abar) is None and avoids(xbar, ybar)
    if case in (2, 5):  # (sigma, lambda)
        return _plus(xbar, ybar) in phi and avoids(xbar, ybar, _plus(xbar, ybar))
    if case == 3:  # (sigma, lambda)
        return _plus(xbar, xbar, ybar) in phi and avoids(ybar, _plus(xbar, xbar, ybar))
    if case == 4:  # (sigma, lambda) in G_2
        return phi.length_class(xbar) == "short" and phi.length_class(ybar) == "long"
    two_x = _plus(xbar, xbar)  # 6 and 7: (sigma, mu)
    return (_plus(two_x, ybar) in phi and _plus(abar, xbar) in phi
            and avoids(ybar, two_x, _plus(two_x, ybar)))


# every plane of two roots of a classical family occurs at rank <= 4
CENSUS_LABELS = (
    [f"A~{n}" for n in range(2, 7)] + [f"B~{n}" for n in range(2, 6)]
    + [f"C~{n}" for n in range(2, 6)] + [f"D~{n}" for n in range(3, 7)]
    + ["E~6", "E~7", "E~8", "F~4", "G~2"] + [f"BC~{n}^odd" for n in range(2, 6)])


def _witness_census(table) -> dict:
    """case -> [candidates xbar with ybar = beta - c xbar a root, those that
    meet the full display, those whose top root i xbar + j ybar is a root,
    those where the two tests differ], for every (alpha, beta) that
    classify_pair puts in the case in the census systems."""
    counts = {}
    for label in CENSUS_LABELS:
        ars = R.affine_system(label)
        phi = ars.finite
        assigned = set()  # (case, alpha, beta): beta projects to alpha or 2 alpha
        for abar in phi.roots:
            for bbar in (abar, _plus(abar, abar)):
                for k in (0, 1):
                    for m in (k + 1, k + 2):
                        a, b = AffineRoot(abar, k), AffineRoot(bbar, m)
                        if a in ars and b in ars:
                            assigned.add((R.classify_pair(ars, a, b).case, abar, bbar))
        for case, abar, bbar in assigned:
            c, (i, j) = table[case]
            for xbar in phi.roots:
                ybar = phi.combine(1, bbar, -c, xbar)
                if ybar in phi:
                    full = _display_holds(phi, case, abar, xbar, ybar)
                    one = phi.combine(i, xbar, j, ybar) in phi
                    tally = counts.setdefault(case, [0, 0, 0, 0])
                    for n, hit in enumerate((True, full, one, full != one)):
                        tally[n] += hit
    return counts


def test_one_root_decides_each_witness_case():
    # the census behind _WITNESS_CASES: the case's top root accepts exactly
    # the candidates that the paper's full display accepts
    assert _witness_census(R._WITNESS_CASES) == {
        1: [21_456, 21_456, 21_456, 0],
        2: [784, 624, 624, 0],
        3: [3_040, 624, 624, 0],
        4: [36, 12, 12, 0],
        5: [188, 160, 160, 0],
        6: [376, 160, 160, 0],
        7: [376, 160, 160, 0],
    }


def test_witness_census_sees_a_wrong_top_root():
    # negative control: case 3 tested on sigma + lambda instead of 2 sigma + lambda
    table = {**R._WITNESS_CASES, 3: (1, (1, 1))}
    assert _witness_census(table)[3][3] > 0


def test_root_json():
    ars = R.affine_system("BC~2^odd")
    j = R.root_json(ars, AffineRoot((2, 2), 1))
    assert j == {"coords": [2, 2], "level": 1, "length": "long"}


@pytest.mark.parametrize("label", ["A~2", "C~2", "G~2", "BC~2^odd"])
def test_root_combinations_and_strings_match_brute_force(label):
    ars = R.affine_system(label)
    roots = R.real_roots_up_to_level(ars, 1)
    # every i x + j y with i, j <= 4 has |level| <= 8
    known = set(R.real_roots_up_to_level(ars, 8))

    def lin(i, x, j, y):
        return AffineRoot(
            tuple(i * a + j * b for a, b in zip(x.coords, y.coords)), i * x.level + j * y.level
        )

    for x in roots:
        for y in roots:
            brute = [
                (i, j, lin(i, x, j, y))
                for i in range(1, 5)
                for j in range(1, 5)
                if lin(i, x, j, y) in known
            ]
            assert R.root_combinations(ars, x, y) == brute, (x, y)
            p = 0
            while lin(1, y, -(p + 1), x) in known:
                p += 1
            assert R.string_length(ars, x, y) == p, (x, y)


def test_root_combinations_finite_coordinates():
    g2 = R.enumerate_finite_roots(D.finite_cartan("G", 2))
    got = R.root_combinations(g2, (1, 0), (0, 1))
    assert got == [(1, 1, (1, 1)), (2, 1, (2, 1)), (3, 1, (3, 1)), (3, 2, (3, 2))]
    assert R.string_length(g2, (1, 0), (3, 1)) == 3
    assert R.string_length(g2, (1, 0), (0, 1)) == 0
