import pytest

from steinberg import chevalley as C
from steinberg import diagrams as D
from steinberg import roots as R


def system(family, n):
    return R.enumerate_finite_roots(D.finite_cartan(family, n), family)


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
    return bs.adjoint_matrix(bs.roots_order[idx - bs.rank])


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
        return scale(k, bs.adjoint_matrix(root))
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
        return scale(bs.n(x, y), bs.adjoint_matrix(total))
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
        ad = bs.adjoint_matrix(gamma)
        col = bs._root_index[gamma]
        assert all(ad[i][col] == 0 for i in range(bs.dim))  # [x, x] = 0
        # Cartan action: (ad e_gamma)(h_i) = -<alpha_i^vee, gamma> e_gamma
        for i in range(bs.rank):
            expect = -bs.system.pairing(bs.system.simple(i), gamma)
            assert ad[bs._root_index[gamma]][i] == expect
        # nilpotency degree: (ad e)^6 = 0 in all types through G_2
        assert len(bs.divided_powers(gamma)) <= 6


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
