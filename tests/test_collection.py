import itertools
import random

import pytest

from steinberg import collection as C
from steinberg import rings
from steinberg import roots as R


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
    assert result.factors != good.factors
    assert result.factors[0][1] != good.factors[0][1]


@pytest.mark.parametrize(
    "cid,pair",
    [(4, ("alpha", "2*sigma+lambda")), (8, ("sigma", "2*sigma+lambda"))],
)
def test_replay_negative_control(cid, pair):
    # a sign error in one table coefficient the replay consults must show;
    # the factors are compared, since a NormalProduct also carries its tables
    cfg = C.case_configuration(cid)
    good = C.replay_case(cid)
    by_name = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    ((_, n, _),) = cfg.nrs.tables[by_name[pair[0]], by_name[pair[1]]]
    assert C.replay(C.override_coefficient(cfg, pair, n)).factors == good.factors
    assert C.replay(C.override_coefficient(cfg, pair, -n)).factors != good.factors


@pytest.mark.parametrize("cid", [1, 2, 3, 5, 7])
def test_commuting_replays_hold_for_every_table_coefficient(cid):
    # these verdicts follow from which pairs commute, not from any coefficient
    # value, so no table perturbation can serve as their negative control
    cfg = C.case_configuration(cid)
    good = C.replay_case(cid)
    assert good.is_empty()
    for key, entries in cfg.nrs.tables.items():
        for k, (g, n, ij) in enumerate(entries):
            tables = dict(cfg.nrs.tables)
            tables[key] = entries[:k] + ((g, n + 1, ij),) + entries[k + 1:]
            perturbed = cfg._replace(nrs=cfg.nrs.with_tables(tables))
            assert C.replay(perturbed).is_empty(), (key, g)


@pytest.mark.parametrize(
    "cid,pair,interior",
    [
        (1, ("beta", "delta"), "alpha"),
        (2, ("alpha", "sigma+lambda"), "beta"),
        (3, ("alpha", "lambda"), "beta"),
        (5, ("alpha", "mu+lambda"), "beta"),
        (7, ("alpha", "mu"), "beta"),
    ],
)
def test_commuting_replay_negative_control(cid, pair, interior):
    # no coefficient can break these replays, so the control perturbs the
    # commuting set: a commuting pair the replay swaps gets a made-up
    # single-entry table instead
    cfg = C.case_configuration(cid)
    assert C.verdict(C.replay(cfg)) == "COMMUTE"
    by_name = {cfg.nrs.name(r): r for r in cfg.nrs.roots}
    x, y = (by_name[name] for name in pair)
    key = frozenset((x, y))
    assert key in cfg.nrs.commuting
    tables = dict(cfg.nrs.tables)
    tables[x, y] = ((by_name[interior], 1, (1, 1)),)
    # while the pair commutes its table is never consulted
    assert C.replay(cfg._replace(nrs=cfg.nrs.with_tables(tables))).is_empty()
    commuting = cfg.nrs.commuting - {key}
    nrs = C.NilpotentRootSet(cfg.nrs.ars, cfg.nrs.roots, tables, commuting, cfg.nrs.names)
    perturbed = cfg._replace(nrs=nrs)
    assert C.replay(perturbed).factors != ()


def test_case4_constants():
    table = {
        (1, 1): 0,
        (1, -1): 6,
        (-1, 1): 12,
        (-1, -1): -6,
    }
    for (e, ep), expected in table.items():
        result = C.replay_case(4, e, ep)
        # one factor X_{alpha+2 sigma+lambda}(C t u), or none when C = 0
        assert C.verdict(result) == (f"CONSTANT C={expected}" if expected else "COMMUTE")
        names = [C.case_configuration(4, e, ep).nrs.name(root) for root, _ in result.factors]
        assert names == (["alpha+2*sigma+lambda"] if expected else [])
        assert expected == 3 + 3 * ep - 6 * e * ep
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


def _untwisted_case(case_id):
    """An untwisted case's system, finite basis, roots by name in collection
    order, and displayed relations over the roots."""
    case = C.CASES[case_id]
    ars, root = C._resolve_roots(case)
    basis = C.case_configuration(case_id).finite_basis
    return ars, basis, root, C._resolve_relations(root, case.relations)


def test_case4_orientation_pins_epsilons():
    # every sign solution reaching the three displayed relations leaves the
    # two remaining constants at +3 and +1 (the argument's conclusion)
    ars, basis, root, targets = _untwisted_case(4)
    excluded = frozenset({frozenset((root["alpha"], root["beta"]))})
    solutions = C._solve_display_orientation(basis, targets)
    assert solutions
    for signs in solutions:
        tables = C._untwisted_tables(ars, basis, tuple(root.values()), signs, excluded)
        assert [n for _, n, _ in tables[root["sigma"], root["alpha+sigma"]]] == [3]
        assert [n for _, n, _ in tables[root["lambda"], root["alpha+2*sigma"]]] == [1]


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
    _, basis, _, targets = _untwisted_case(2)
    assert C._solve_display_orientation(basis, targets)
    ((pair, (first, (g, n, ij))),) = targets.items()
    assert abs(n) == 1
    with pytest.raises(C.ConfigurationError):
        C._solve_display_orientation(basis, {pair: [first, (g, 2 * n, ij)]})


# ---------------------------------------------------------------------------
# collect against the restart-from-0 reference


def _collect_from_start(nrs, letters) -> tuple:
    """Collection that rescans the word from position 0 after every rewrite:
    the reference for `collect`, which resumes next to the rewrite."""
    word = list(letters)
    pos = {r: k for k, r in enumerate(nrs.roots)}
    steps = 0
    while True:
        steps += 1
        if steps > C._COLLECT_CAP:
            raise C.ConfigurationError("collection did not terminate")
        changed = False
        k = 0
        while k < len(word):
            root, c = word[k]
            if c.is_zero():
                del word[k]
                changed = True
                break
            if k + 1 < len(word):
                r2, c2 = word[k + 1]
                if r2 == root:
                    word[k] = (root, c + c2)
                    del word[k + 1]
                    changed = True
                    break
                if pos[root] > pos[r2]:
                    corr = nrs.commutator_word(root, c, r2, c2)
                    word[k : k + 2] = corr + [(r2, c2), (root, c)]
                    changed = True
                    break
            k += 1
        if not changed:
            return tuple(word)


def _outcome(collector, nrs, letters):
    try:
        return collector(nrs, letters)
    except C.ConfigurationError as exc:
        return ("ConfigurationError", str(exc))


def _random_words(rng, nrs, count):
    pool = [rings.from_int(TU, k) for k in (-2, -1, 0, 1, 3)] + [T, U, -T, T * U, U * U]
    for _ in range(count):
        yield [(rng.choice(nrs.roots), rng.choice(pool)) for _ in range(rng.randint(2, 6))]


# the table entries of the twisted cases whose signs only associativity
# fixes: (first root, second root, correction root), by name
FREE_SIGNS = {
    5: [("mu", "mu+lambda", "beta")],
    6: [("sigma", "beta", "2*sigma+mu")],
    7: [("sigma", "beta", "2*sigma+mu")],
    8: [
        ("sigma", "beta", "2*sigma+lambda"),
        ("sigma", "beta", "3*sigma+lambda"),
        ("sigma", "beta", "3*sigma+2*lambda"),
        ("sigma", "2*sigma+lambda", "3*sigma+lambda"),
        ("lambda", "3*sigma+lambda", "3*sigma+2*lambda"),
        ("beta", "2*sigma+lambda", "3*sigma+2*lambda"),
    ],
}


def _sign_assignments(case_id) -> list:
    """The root set of a twisted case under every assignment of the signs of
    its FREE_SIGNS entries, the configured one first."""
    nrs = C.case_configuration(case_id).nrs
    by_name = {nrs.name(r): r for r in nrs.roots}
    out = []
    for flips in itertools.product((1, -1), repeat=len(FREE_SIGNS[case_id])):
        tables = dict(nrs.tables)
        for flip, (x, y, g) in zip(flips, FREE_SIGNS[case_id]):
            key, root = (by_name[x], by_name[y]), by_name[g]
            tables[key] = tuple((h, flip * n if h == root else n, ij) for h, n, ij in tables[key])
        out.append(nrs.with_tables(tables))
    return out


@pytest.mark.parametrize("cid", [5, 6, 7, 8])
def test_only_the_configured_signs_are_associative(cid):
    configured, *others = _sign_assignments(cid)
    probe_exclude = {C.case_configuration(cid).alpha}
    assert C._associative(configured, probe_exclude)
    assert not any(C._associative(nrs, probe_exclude) for nrs in others)


@pytest.mark.parametrize("cid", [5, 6, 7, 8])
def test_free_single_term_magnitudes_are_root_string_lengths(cid):
    nrs = C.case_configuration(cid).nrs
    by_name = {nrs.name(r): r for r in nrs.roots}
    for x, y, g in FREE_SIGNS[cid]:
        a, b = by_name[x], by_name[y]
        for h, n, ij in nrs.tables[a, b]:
            if h == by_name[g] and ij == (1, 1):
                assert abs(n) == R.string_length(nrs.ars, a, b) + 1


def test_associativity_check_collects_each_word_once(monkeypatch):
    # case 8: 150 triples and 3 coefficient triples, so 2,250 collects at 5
    # per triple, of which 1,200 are distinct words
    cfg = C.case_configuration(8)
    words = []

    def counted(nrs, letters):
        words.append(tuple(letters))
        return collect(nrs, letters)

    collect = C.collect
    monkeypatch.setattr(C, "collect", counted)
    assert C._associative(cfg.nrs, {cfg.alpha})
    assert len(words) == len(set(words)) == 1200


def test_a_non_associative_configuration_is_refused(monkeypatch):
    monkeypatch.setattr(C, "_associative", lambda nrs, probe_exclude: False)
    with pytest.raises(C.ConfigurationError, match="case 5: collection is not associative"):
        C.case_configuration.__wrapped__(5)


CONFIGURATIONS = [(c, 1, 1) for c in C.CASE_IDS] + [(4, 1, -1), (4, -1, 1), (4, -1, -1)]


@pytest.mark.parametrize("cid,eps,eps_prime", CONFIGURATIONS)
def test_collect_matches_restart_reference(cid, eps, eps_prime):
    nrs = C.case_configuration(cid, eps, eps_prime).nrs
    rng = random.Random(f"collect:{cid}:{eps}:{eps_prime}")
    for letters in _random_words(rng, nrs, 60):
        assert _outcome(C.collect, nrs, letters) == _outcome(_collect_from_start, nrs, letters)


@pytest.mark.parametrize("cid,assignments", [(5, 2), (6, 2), (7, 2), (8, 64)])
def test_collect_matches_reference_on_every_sign_assignment(cid, assignments):
    candidates = _sign_assignments(cid)
    assert len(candidates) == assignments
    rng = random.Random(f"signs:{cid}")
    for nrs in candidates:
        for letters in _random_words(rng, nrs, 8):
            assert _outcome(C.collect, nrs, letters) == _outcome(_collect_from_start, nrs, letters)


def test_collect_matches_reference_under_a_small_step_cap(monkeypatch):
    # the cap counts rewrites the same way, so both stop at the same word
    nrs = C.case_configuration(8).nrs
    rng = random.Random("cap")
    words = list(_random_words(rng, nrs, 40))
    monkeypatch.setattr(C, "_COLLECT_CAP", 6)
    outcomes = [_outcome(C.collect, nrs, w) for w in words]
    assert outcomes == [_outcome(_collect_from_start, nrs, w) for w in words]
    stopped = ("ConfigurationError", "collection did not terminate")
    assert stopped in outcomes and any(o != stopped for o in outcomes)
