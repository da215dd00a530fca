import hashlib
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import chevalley as C
from steinberg import collection as K
from steinberg import diagrams as D
from steinberg import roots as R

from oracles import adjoint_matrix


def system(family, n):
    return R.enumerate_finite_roots(D.finite_cartan(family, n))


def basis(family, n):
    return C.build_chevalley_basis(system(family, n))


# ---------------------------------------------------------------------------
# sl_3 matrix-unit oracle for A_2


def sl3_oracle():
    # the extraspecial pair in (height, lex) order is ((0,1), (1,0)); realize
    # e_(0,1) = E12, e_(1,0) = E23, e_(1,1) = E13, negatives transpose
    units = {
        (0, 1): (0, 1), (1, 0): (1, 2), (1, 1): (0, 2),
        (0, -1): (1, 0), (-1, 0): (2, 1), (-1, -1): (2, 0),
    }

    def bracket_shape(x, y):
        (a, b), (c, d) = units[x], units[y]
        m = [[0] * 3 for _ in range(3)]
        if b == c:
            m[a][d] += 1
        if d == a:
            m[c][b] -= 1
        return m

    return units, bracket_shape


def test_a2_table_matches_sl3():
    bs = basis("A", 2)
    units, bracket = sl3_oracle()
    for x in units:
        for y in units:
            got = bs.n(x, y)
            m = bracket(x, y)
            total = tuple(a + b for a, b in zip(x, y))
            if total in units:
                (r, c) = units[total]
                assert m[r][c] == got, (x, y)
            elif total != (0, 0):
                assert got == 0
                assert all(v == 0 for row in m for v in row)


def test_extraspecial_constant_is_positive_one_for_a2():
    bs = basis("A", 2)
    assert bs.n((0, 1), (1, 0)) == 1


def test_b2_magnitudes_from_string_oracle():
    bs = basis("B", 2)
    sys = bs.system
    s, l = (0, 1), (1, 0)

    def string_p(a, b):
        p, cur = 0, tuple(x - y for x, y in zip(b, a))
        while cur in sys:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    assert abs(bs.n(s, l)) == string_p(s, l) + 1 == 1
    sl = (1, 1)
    assert abs(bs.n(s, sl)) == string_p(s, sl) + 1 == 2


def test_zero_when_sum_not_root():
    bs = basis("B", 2)
    assert bs.n((1, 0), (1, 0)) == 0
    assert bs.n((1, 0), (1, 1)) == 0  # 2 alpha + beta direction leaves B_2


@pytest.mark.parametrize("family,n", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_antisymmetry_and_string_formula(family, n):
    bs = basis(family, n)
    sys = bs.system
    for a in sys.roots:
        for b in sys.roots:
            total = tuple(x + y for x, y in zip(a, b))
            if all(c == 0 for c in total):
                continue
            nab = bs.n(a, b)
            assert nab == -bs.n(b, a)
            if total in sys:
                p, cur = 0, tuple(x - y for x, y in zip(b, a))
                while cur in sys:
                    p += 1
                    cur = tuple(x - y for x, y in zip(cur, a))
                assert abs(nab) == p + 1, (a, b)
            else:
                assert nab == 0


def _ad_of_basis_element(bs, idx):
    # adjoint matrix of the idx-th basis vector (h_i for idx < rank, else e_root)
    if idx < bs.rank:
        n = bs.dim
        mat = [[0] * n for _ in range(n)]
        for r, root in enumerate(bs.roots_order):
            mat[bs.rank + r][bs.rank + r] = bs.system.pairing(
                bs.system.simple(idx), root
            )
        return tuple(tuple(row) for row in mat)
    return adjoint_matrix(bs, bs.roots_order[idx - bs.rank])


def _bracket_matrix(bs, idx, jdx):
    # ad([x_i, x_j]) computed structurally from the tables
    n = bs.dim
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    if idx < bs.rank and jdx < bs.rank:
        return zero

    def add(a, b):
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def scale(k, a):
        return tuple(tuple(k * x for x in row) for row in a)

    if idx < bs.rank:
        root = bs.roots_order[jdx - bs.rank]
        k = bs.system.pairing(bs.system.simple(idx), root)
        return scale(k, adjoint_matrix(bs, root))
    if jdx < bs.rank:
        return scale(-1, _bracket_matrix(bs, jdx, idx))
    x = bs.roots_order[idx - bs.rank]
    y = bs.roots_order[jdx - bs.rank]
    total = tuple(a + b for a, b in zip(x, y))
    if all(c == 0 for c in total):
        out = zero
        for i, c in enumerate(bs.coroot_vector(x)):
            if c:
                out = add(out, scale(c, _ad_of_basis_element(bs, i)))
        return out
    if total in bs.system:
        return scale(bs.n(x, y), adjoint_matrix(bs, total))
    return zero


@pytest.mark.parametrize("family,n", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_adjoint_is_a_lie_homomorphism(family, n):
    # [ad x, ad y] = ad [x, y] entrywise for all basis pairs; this is the
    # Jacobi identity in matrix form
    bs = basis(family, n)
    mats = [_ad_of_basis_element(bs, i) for i in range(bs.dim)]

    def mul(a, b):
        bt = list(zip(*b))
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
        )

    for i in range(bs.dim):
        for j in range(bs.dim):
            lhs = mul(mats[i], mats[j])
            rhs = mul(mats[j], mats[i])
            commutator = tuple(
                tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(lhs, rhs)
            )
            assert commutator == _bracket_matrix(bs, i, j), (family, n, i, j)


def test_adjoint_basics():
    bs = basis("G", 2)
    for gamma in bs.system.roots:
        ad = adjoint_matrix(bs, gamma)
        col = bs._root_index[gamma]
        assert all(ad[i][col] == 0 for i in range(bs.dim))  # [x, x] = 0
        # Cartan action: (ad e_gamma)(h_i) = -<alpha_i^vee, gamma> e_gamma
        for i in range(bs.rank):
            expect = -bs.system.pairing(bs.system.simple(i), gamma)
            assert ad[bs._root_index[gamma]][i] == expect
        # nilpotency degree: (ad e)^6 = 0 in all types through G_2
        assert len(bs.divided_powers(gamma)) <= 6


def _dense_divided_powers(bs, gamma) -> list:
    # (ad e_gamma)^k / k! from dense powers over Python ints, as dicts of the
    # nonzero entries, k = 0 until the power vanishes
    ad = adjoint_matrix(bs, gamma)
    columns = list(zip(*ad))
    power = [[int(i == j) for j in range(bs.dim)] for i in range(bs.dim)]
    out, factorial = [], 1
    while any(any(row) for row in power):
        assert all(v % factorial == 0 for row in power for v in row)
        out.append({
            (i, j): v // factorial for i, row in enumerate(power) for j, v in enumerate(row) if v
        })
        factorial *= len(out)
        power = [[sum(map(operator.mul, row, col)) for col in columns] for row in power]
    return out


def _scanned_divided_powers(bs, gamma) -> list:
    # ad e_gamma with its root part found by scanning every delta, then
    # D_k = D_(k-1) ad / k from D_0 = I
    sys_, row = bs.system, bs._root_index[gamma]
    ad = {(row, i): -sys_.pairing(sys_.simple(i), gamma) for i in range(bs.rank)}
    col = bs._root_index[tuple(-x for x in gamma)]
    ad.update(((i, col), c) for i, c in enumerate(bs.coroot_vector(gamma)))
    for delta in bs.roots_order:
        if bs.n(gamma, delta):
            target = tuple(map(operator.add, gamma, delta))
            ad[bs._root_index[target], bs._root_index[delta]] = bs.n(gamma, delta)
    ad = {key: value for key, value in ad.items() if value}
    out = [{(i, i): 1 for i in range(bs.dim)}]
    while power := C._matmul(out[-1], C._row_index(ad)):
        assert all(value % len(out) == 0 for value in power.values())
        out.append({key: value // len(out) for key, value in power.items()})
    return out


FINITE_UP_TO_8 = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                  + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
                  + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("family,n", FINITE_UP_TO_8)
def test_divided_powers_match_the_scanned_chain_from_the_identity(family, n):
    # D_1 = ad e_gamma read off gamma's own constants, against the scan of
    # every root and the chain I, I ad, ..., on every root of the type
    bs = basis(family, n)
    for gamma in bs.roots_order:
        assert bs.divided_powers(gamma) == _scanned_divided_powers(bs, gamma), gamma


@pytest.mark.parametrize("family,n", [("G", 2), ("F", 4)])
def test_divided_powers_match_dense_powers(family, n):
    bs = basis(family, n)
    for gamma in bs.roots_order:
        assert bs.divided_powers(gamma) == _dense_divided_powers(bs, gamma), gamma


def test_commutator_table_b2():
    bs = basis("B", 2)
    s, l = (0, 1), (1, 0)
    table = bs.commutator_table(s, l)
    roots = [(g, (i, j)) for g, _, (i, j) in table]
    assert roots == [((1, 1), (1, 1)), ((1, 2), (2, 1))]
    mags = [abs(n) for _, n, _ in table]
    assert mags == [1, 1]
    # orientation adjustment reaches the displayed forms -tu, +t^2u
    target = [((1, 1), -1, (1, 1)), ((1, 2), 1, (2, 1))]
    solutions = C.solve_orientation({(s, l): table}, {(s, l): target})
    # two constraints on the four signs of s, l, s+l, 2s+l
    assert len(solutions) == 4 and len({tuple(sorted(d.items())) for d in solutions}) == 4
    for signs in solutions:
        adjusted = C.apply_signs(table, signs, s, l)
        assert [(g, n) for g, n, _ in adjusted] == [(g, n) for g, n, _ in target]
    # negative control: no sign choice turns a magnitude 1 into 2
    with pytest.raises(ValueError):
        C.solve_orientation({(s, l): table}, {(s, l): [target[0], ((1, 2), 2, (2, 1))]})


def test_commutator_table_g2_display_order():
    bs = basis("G", 2)
    sig, lam = (1, 0), (0, 1)
    display_order = [(2, 1), (1, 1), (3, 1), (3, 2)]
    table = bs.commutator_table(sig, lam, order=display_order)
    assert [g for g, _, _ in table] == display_order
    assert [abs(n) for _, n, _ in table] == [1, 1, 1, 1]
    target = [
        ((2, 1), 1, (2, 1)),
        ((1, 1), -1, (1, 1)),
        ((3, 1), 1, (3, 1)),
        ((3, 2), -1, (3, 2)),
    ]
    signs = C.solve_orientation({(sig, lam): table}, {(sig, lam): target})[0]
    adjusted = C.apply_signs(table, signs, sig, lam)
    assert [(g, n) for g, n, _ in adjusted] == [(g, n) for g, n, _ in target]


def test_commutator_table_g2_order_dependence():
    # ascending order carries coefficient 2 on the grade-5 root; the displayed
    # order carries 1: the constants depend on the chosen term order
    bs = basis("G", 2)
    sig, lam = (1, 0), (0, 1)
    asc = {g: n for g, n, _ in bs.commutator_table(sig, lam)}
    disp = {
        g: n
        for g, n, _ in bs.commutator_table(sig, lam, order=[(2, 1), (1, 1), (3, 1), (3, 2)])
    }
    assert abs(asc[(3, 2)]) == 2
    assert abs(disp[(3, 2)]) == 1


def test_commutator_table_orthogonal_pair_empty():
    bs = basis("A", 3)
    table = bs.commutator_table((1, 0, 0), (0, 0, 1))
    assert table == []


def test_commutator_table_rejects_bad_order():
    bs = basis("B", 2)
    with pytest.raises(ValueError):
        bs.commutator_table((0, 1), (1, 0), order=[(1, 1)])


def test_nonreduced_rejected():
    bc = R._bc_system(2)
    with pytest.raises(ValueError):
        C.build_chevalley_basis(bc)


def test_commutator_table_rejects_opposite_roots(monkeypatch):
    bs = basis("A", 2)

    def unreachable(*args, **kwargs):
        raise AssertionError("a product was formed for opposite roots")

    monkeypatch.setattr(bs, "exp_matrix", unreachable)
    with pytest.raises(ValueError, match="non-opposite"):
        bs.commutator_table((1, 0), (-1, 0))


# ---------------------------------------------------------------------------
# pinned commutator tables


PINNED_SYSTEMS = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
ALL_PAIRS_SHA256 = "933096b4f95391b9ba90704eb839921b873bd79abb85f8258756a1769905d3c8"

# the explicit interior orders the replay configurations of cases 1-4 ask for
DISPLAY_CALLS = [
    ("A", 2, (0, 1), (1, 0), [(1, 1)]),
    ("A", 2, (1, 0), (0, 1), [(1, 1)]),
    ("B", 2, (-1, 0), (1, 1), [(0, 1), (1, 2)]),
    ("B", 2, (1, 1), (-1, 0), [(0, 1), (1, 2)]),
    ("B", 2, (1, 1), (0, 1), [(1, 2)]),
    ("G", 2, (0, 1), (1, 0), [(1, 1), (2, 1), (3, 1), (3, 2)]),
    ("G", 2, (0, 1), (3, 1), [(3, 2)]),
    ("G", 2, (1, 0), (0, 1), [(2, 1), (1, 1), (3, 1), (3, 2)]),
    ("G", 2, (1, 0), (1, 1), [(2, 1), (3, 1), (3, 2)]),
    ("G", 2, (1, 0), (2, 1), [(3, 1)]),
    ("G", 2, (1, 1), (2, 1), [(3, 2)]),
]
DISPLAY_SHA256 = "6f5da21715d1933f4f20acc3dd71efb4e3ed97f30dbe5eee742852ead4e4c123"


def _table_digest(calls) -> str:
    bases = {key: basis(*key) for key in {call[:2] for call in calls}}
    digest = hashlib.sha256()
    for family, n, a, b, order in calls:
        table = bases[family, n].commutator_table(a, b, order=order)
        digest.update(repr((family, n, a, b, [(g, int(c), ij) for g, c, ij in table])).encode())
    return digest.hexdigest()


def test_commutator_tables_are_pinned():
    # every ordered non-opposite pair, ascending interior order
    calls = [
        (family, n, a, b, None)
        for family, n in PINNED_SYSTEMS
        for a in system(family, n).roots
        for b in system(family, n).roots
        if a != tuple(-c for c in b)
    ]
    assert _table_digest(calls) == ALL_PAIRS_SHA256


def test_display_order_tables_are_pinned():
    assert _table_digest(DISPLAY_CALLS) == DISPLAY_SHA256


# ---------------------------------------------------------------------------
# the completed table against the all-pairs scan it replaced


class _ScannedBasis(C.ChevalleyBasis):
    """The table completed by scanning every pair (x, y) with x positive and
    x + y a root, each resolved once and its three partners filled."""

    def _complete_table(self, decompositions):
        table = {}
        for x in self.positive_roots:
            for y in self.roots_order:
                if (x, y) in table or R._vec_add(x, y) not in self.system:
                    continue
                n = self._n_resolve(x, y)
                neg_x, neg_y = self._negated[x], self._negated[y]
                table[x, y], table[y, x] = n, -n
                table[neg_x, neg_y], table[neg_y, neg_x] = -n, n
        self._n = table


FINITE_UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)]
    + [(family, n) for family in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,n", FINITE_UP_TO_RANK_8)
def test_table_from_triples_matches_all_pairs_scan(family, n):
    sys = system(family, n)
    basis = C.build_chevalley_basis(sys)
    assert basis._n == _ScannedBasis(sys)._n
    # the listing ranked by the sorted roots is the plain sort of the pairs
    assert basis.constants() == sorted(basis._n.items())


# ---------------------------------------------------------------------------
# the pruned sign search against the full enumeration


def _enumerated_orientations(tables, targets):
    """Every sign assignment of the roots involved, checked in product
    order: the reference for `solve_orientation`, which prunes."""
    involved = sorted(
        {r for pair in tables for r in pair}
        | {g for entries in tables.values() for g, _, _ in entries}
    )
    wanted = {pair: [(tuple(g), n) for g, n, _ in want] for pair, want in targets.items()}
    solutions = []
    for bits in itertools.product((1, -1), repeat=len(involved)):
        signs = dict(zip(involved, bits))
        if all(
            [(g, n) for g, n, _ in C.apply_signs(entries, signs, *pair)] == wanted[pair]
            for pair, entries in tables.items()
        ):
            solutions.append(signs)
    if not solutions:
        raise ValueError("no sign choice achieves the displayed constants")
    return solutions


def _outcome(search, tables, targets):
    try:
        return [list(signs.items()) for signs in search(tables, targets)]
    except ValueError as exc:
        return ("ValueError", str(exc))


def _case_problem(case_id):
    """The raw affine tables and displayed targets of an untwisted case."""
    case = K.CASES[case_id]
    ars, root = K._resolve_roots(case)
    basis = C.build_chevalley_basis(ars.finite)
    targets = K._resolve_relations(root, case.relations)
    tables = {
        (a, b): K._chevalley_affine_table(basis, a, b, [g for g, _, _ in want])
        for (a, b), want in targets.items()
    }
    return tables, targets


def _b2_problem():
    s, l = (0, 1), (1, 0)
    table = basis("B", 2).commutator_table(s, l)
    target = [((1, 1), -1, (1, 1)), ((1, 2), 1, (2, 1))]
    return {(s, l): table}, {(s, l): target}


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_sign_search_matches_enumeration_on_the_cases(case_id):
    tables, targets = _case_problem(case_id)
    assert _outcome(C.solve_orientation, tables, targets) == _outcome(
        _enumerated_orientations, tables, targets
    )


def test_sign_search_matches_enumeration_on_b2():
    tables, targets = _b2_problem()
    solutions = _outcome(C.solve_orientation, tables, targets)
    assert len(solutions) == 4
    assert solutions == _outcome(_enumerated_orientations, tables, targets)


def test_sign_search_without_a_solution_raises():
    tables, targets = _b2_problem()
    ((pair, target),) = targets.items()
    unreachable = {pair: [target[0], ((1, 2), 2, (2, 1))]}
    got = _outcome(C.solve_orientation, tables, unreachable)
    assert got[0] == "ValueError"
    assert got == _outcome(_enumerated_orientations, tables, unreachable)


@st.composite
def _sign_problems(draw):
    """A few tables over at most six roots; the targets are the tables under
    some signs, sometimes with one coefficient changed."""
    roots = [(k,) for k in range(draw(st.integers(2, 6)))]
    tables = {}
    for _ in range(draw(st.integers(0, 3))):
        pair = tuple(draw(st.lists(st.sampled_from(roots), min_size=2, max_size=2, unique=True)))
        gammas = draw(st.lists(st.sampled_from(roots), max_size=3, unique=True))
        tables[pair] = [
            (g, draw(st.sampled_from((1, -1, 2, -3))), (draw(st.integers(1, 3)), draw(st.integers(1, 3))))
            for g in gammas
        ]
    signs = {r: draw(st.sampled_from((1, -1))) for r in roots}
    targets = {pair: C.apply_signs(entries, signs, *pair) for pair, entries in tables.items()}
    nonempty = [pair for pair in targets if targets[pair]]
    if nonempty and draw(st.booleans()):
        pair = draw(st.sampled_from(nonempty))
        (g, n, ij), *rest = targets[pair]
        targets[pair] = [(g, 2 * n, ij), *rest]
    return tables, targets


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_sign_problems())
def test_sign_search_matches_enumeration_on_drawn_tables(problem):
    tables, targets = problem
    assert _outcome(C.solve_orientation, tables, targets) == _outcome(
        _enumerated_orientations, tables, targets
    )


def test_sign_search_prunes_case_4(monkeypatch):
    # 3 tables over 11 roots: the enumeration checks all 2,048 assignments,
    # each with at least one apply_signs call
    tables, targets = _case_problem(4)
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_signs(*args)

    apply_signs = C.apply_signs
    monkeypatch.setattr(C, "apply_signs", counted)
    solutions = C.solve_orientation(tables, targets)
    assert len(solutions) == 8
    assert len(calls) == 768
