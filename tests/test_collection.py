import random

import pytest

from steinberg import collection as C
from steinberg import rings


TU = rings.polynomial_ring(rings.integers(), ("t", "u"))
T = rings.variable(TU, "t")
U = rings.variable(TU, "u")


def np_of(cfg, letters):
    return C.normal_product(cfg.nrs, letters)


def test_additivity_merge():
    cfg = C.case_configuration(1)
    gamma = cfg.nrs.roots[cfg.nrs.order(next(r for r in cfg.nrs.roots if cfg.nrs.name(r) == "gamma"))]
    got = C.collect(cfg.nrs, [(gamma, T), (gamma, U)])
    assert got == ((gamma, T + U),)


def test_commuting_reorder():
    cfg = C.case_configuration(1)
    by = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    alpha, gamma = by["alpha"], by["gamma"]
    # alpha and gamma commute; the pair is just reordered
    got = C.collect(cfg.nrs, [(alpha, T), (gamma, U)])
    assert got == ((gamma, U), (alpha, T))


def test_a2_collection_produces_interior_term():
    cfg = C.case_configuration(1)
    by = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    gamma, delta, beta = by["gamma"], by["delta"], by["beta"]
    # delta precedes gamma in the set order; collecting the out-of-order
    # product inserts the interior correction
    got = C.collect(cfg.nrs, [(gamma, T), (delta, U)])
    assert got == ((delta, U), (gamma, T), (beta, T * U))


def test_commutator_of_element_with_itself_is_trivial():
    cfg = C.case_configuration(2)
    by = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    x = np_of(cfg, [(by["sigma"], T)])
    assert C.commutator(cfg.nrs, x, x).is_empty()


def test_commutator_b2_displayed_form():
    cfg = C.case_configuration(2)
    by = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    a = np_of(cfg, [(by["sigma"], T)])
    b = np_of(cfg, [(by["lambda"], U)])
    got = C.commutator(cfg.nrs, a, b)
    assert got.factors == ((by["sigma+lambda"], -(T * U)), (by["beta"], T * T * U))


def test_commutator_g2_displayed_form():
    cfg = C.case_configuration(4)
    by = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    a = np_of(cfg, [(by["sigma"], T)])
    b = np_of(cfg, [(by["lambda"], U)])
    got = C.commutator(cfg.nrs, a, b)
    expect = {
        "beta": -(T * U),
        "2*sigma+lambda": T * T * U,
        "3*sigma+lambda": T * T * T * U,
        "3*sigma+2*lambda": (T * T * T * U * U).scale(2),
    }
    assert {cfg.nrs.name(r): c for r, c in got.factors} == expect


def test_multiply_associative_random_triples():
    rng = random.Random(11)
    for cid in (2, 4, 6, 8):
        cfg = C.case_configuration(cid)
        roots = [r for r in cfg.nrs.roots if r != cfg.alpha and r != cfg.beta]
        desc = rings.polynomial_ring(rings.integers(), ("t", "u"))
        for _ in range(25):
            letters = [
                (rng.choice(roots), rings.from_int(desc, rng.randrange(-3, 4)))
                for _ in range(3)
            ]
            letters = [(r, c) for r, c in letters if not c.is_zero()]
            if len(letters) < 3:
                continue
            a = np_of(cfg, letters[:1])
            b = np_of(cfg, letters[1:2])
            c = np_of(cfg, letters[2:])
            left = C.multiply(cfg.nrs, C.multiply(cfg.nrs, a, b), c)
            right = C.multiply(cfg.nrs, a, C.multiply(cfg.nrs, b, c))
            assert left == right


def test_expansions_collect_to_beta():
    # each case's displayed expression for X_beta(u) really is X_beta(u)
    for cid in C.CASE_IDS:
        cfg = C.case_configuration(cid)
        word = C.expansion_word(cfg, U)
        got = C.collect(cfg.nrs, word)
        assert got == ((cfg.beta, U),), cid


def test_replay_commuting_cases():
    for cid in (1, 2, 3, 5, 7):
        result = C.replay_case(cid)
        assert result.is_empty(), cid
        assert C.verdict(result) == "COMMUTE"


def test_replay_variant_case_commutes():
    result = C.replay_case(8)
    assert result.is_empty()


def test_replay_case6_constant():
    result = C.replay_case(6)
    assert len(result.factors) == 1
    root, coeff = result.factors[0]
    cfg = C.case_configuration(6)
    assert cfg.nrs.name(root) == "alpha+beta"
    assert coeff == (T * U).scale(4)
    assert C.verdict(result) == "CONSTANT C=4"
    assert str(result) == "X_{alpha+beta}(4*t*u)"


def test_replay_case6_negative_control():
    # perturbing the -2tu table entry must change the constant
    cfg = C.case_configuration(6)
    perturbed = C.override_coefficient(cfg, ("mu", "alpha+sigma"), -1)
    result = C.replay(perturbed)
    good = C.replay_case(6)
    assert result != good
    assert result.factors[0][1] != good.factors[0][1]


def test_case4_constants():
    table = {
        (1, 1): 0,
        (1, -1): 6,
        (-1, 1): 12,
        (-1, -1): -6,
    }
    for (e, ep), expected in table.items():
        assert C.case4_constant(e, ep) == expected == 3 + 3 * ep - 6 * e * ep
    assert C.replay_case(4, 1, 1).is_empty()


def test_case4_central_roots_commute_with_everything():
    cfg = C.case_configuration(4)
    by = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    central = [by["3*sigma+2*lambda"], by["alpha+2*sigma+lambda"], by["2*alpha+sigma"]]
    for c in central:
        for other in cfg.nrs.roots:
            if other == c:
                continue
            pair = frozenset((c, other))
            if pair == frozenset((cfg.alpha, cfg.beta)):
                continue
            assert pair in cfg.nrs.commuting or (
                (c, other) not in cfg.nrs.tables and (other, c) not in cfg.nrs.tables
            ), (cfg.nrs.name(c), cfg.nrs.name(other))


def test_forbidden_pair_is_never_tabulated():
    for cid in C.CASE_IDS:
        cfg = C.case_configuration(cid)
        with pytest.raises(C.ConfigurationError):
            cfg.nrs.commutator_word(cfg.alpha, T, cfg.beta, U)


def test_case4_orientation_pins_epsilons():
    # every sign solution reaching the three displayed relations leaves the
    # two remaining constants at +3 and +1 (the argument's conclusion)
    ars, basis, alpha, beta, decomp, names, targets, _, eps_pairs = C._case_untwisted(4)
    solutions = C._solve_display_orientation(ars, basis, targets)
    assert solutions
    for signs in solutions:
        tables = C._untwisted_tables(
            ars, basis, decomp, signs, {}, frozenset({frozenset((alpha, beta))})
        )
        s_pair = tuple(sorted(eps_pairs["eps"], key=lambda r: (sum(decomp[r]), decomp[r])))
        l_pair = tuple(sorted(eps_pairs["eps_prime"], key=lambda r: (sum(decomp[r]), decomp[r])))
        assert [n for _, n, _ in tables[s_pair]] == [3]
        assert [n for _, n, _ in tables[l_pair]] == [1]


def test_normal_product_validation():
    cfg = C.case_configuration(1)
    by = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    with pytest.raises(ValueError):
        C.NormalProduct(cfg.nrs, ((by["gamma"], T), (by["delta"], U)))  # out of order
    with pytest.raises(ValueError):
        C.NormalProduct(cfg.nrs, ((by["gamma"], rings.zero(TU)),))


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        C.case_configuration(9)
    with pytest.raises(ValueError):
        C.case_configuration(4, eps=2)


def test_sign_parameters_rejected_outside_case4():
    with pytest.raises(ValueError):
        C.case_configuration(6, eps=-1)


def test_display_orientation_rejects_unreachable_target():
    # case 2 displays [x_sigma(t), x_lambda(u)] = x_{s+l}(-tu) x_{2s+l}(t^2 u);
    # magnitude 2 on the second factor is out of reach of any sign choice
    ars, basis, *_, targets, _, _ = C._case_untwisted(2)
    assert C._solve_display_orientation(ars, basis, targets)
    ((pair, (first, (g, n, ij))),) = targets.items()
    assert abs(n) == 1
    with pytest.raises(C.ConfigurationError):
        C._solve_display_orientation(ars, basis, {pair: [first, (g, 2 * n, ij)]})
