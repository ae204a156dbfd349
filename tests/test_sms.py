"""SMS algorithms: fixtures, oracle equality, structure, verification."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wincert.model import PartialTournament, Rule, Support, WeightedTournament
from wincert.necessary import is_necessary_winner, is_necessary_winner_bruteforce
from wincert.oracle import (
    _iter_subweightings,
    enumerate_minimal_supports,
    oracle_sms_size,
    random_tournament,
)
from wincert.sms import (
    NotAWinnerError,
    SizeFormulaInput,
    compute_sms,
    sms_borda,
    sms_cop,
    sms_mm,
    sms_size_formula,
    sms_tc,
    sms_uc,
    sms_wuc_exact,
    SupportVerdict,
    verify_support,
)
from wincert.solutions import winners

from conftest import min_tree_wuc_support_size


def pairs_of(result):
    return {(i, j): w for i, j, w in result.support.partial.pairs()}


def assert_out_tree(result, max_depth=None):
    g = result.support.partial
    root = result.support.winner
    in_deg = [0] * g.m
    for _, j, w in g.pairs():
        assert w == 1
        in_deg[j] += 1
    assert in_deg[root] == 0
    assert all(d == 1 for i, d in enumerate(in_deg) if i != root)
    depth = {root: 0}
    frontier = [root]
    while frontier:
        new = []
        for u in frontier:
            for v in range(g.m):
                if g.weights[u][v] and v not in depth:
                    depth[v] = depth[u] + 1
                    new.append(v)
        frontier = new
    assert len(depth) == g.m
    if max_depth is not None:
        assert max(depth.values()) <= max_depth


# ---------------------------------------------------------------------------
# Fixture values
# ---------------------------------------------------------------------------


def test_tc_fixture(u4):
    res = sms_tc(u4, 0)
    assert res.size == 3
    assert pairs_of(res) == {(0, 1): 1, (1, 2): 1, (0, 3): 1}
    assert_out_tree(res)


def test_uc_fixture(u4):
    res = sms_uc(u4, 0)
    assert res.size == 3
    assert pairs_of(res) == {(0, 1): 1, (0, 3): 1, (1, 2): 1}
    assert_out_tree(res, max_depth=2)


def test_cop_fixture(u4):
    res = sms_cop(u4, 0)
    assert res.size == 3
    assert pairs_of(res) == {(0, 1): 1, (0, 3): 1, (1, 2): 1}
    assert res.win_count == 2


def test_condorcet_star(u4c):
    for fn in (sms_tc, sms_uc, sms_cop):
        res = fn(u4c, 0)
        assert res.size == 3
        assert pairs_of(res) == {(0, 1): 1, (0, 2): 1, (0, 3): 1}


def test_mm_fixtures(w5a, w5b):
    res = sms_mm(w5a, 0)
    assert res.size == 9
    assert pairs_of(res) == {(0, 1): 3, (0, 2): 3, (0, 3): 3}
    res = sms_mm(w5b, 0)
    assert res.size == 11
    assert pairs_of(res) == {(0, 1): 3, (0, 2): 2, (0, 3): 3, (1, 2): 3}


def test_borda_fixture(w5b):
    res = sms_borda(w5b, 0)
    assert res.size == 18
    assert res.win_count == 9
    assert sorted(pairs_of(res).values()) == [1, 1, 2, 2, 2, 3, 3, 4]


def test_wuc_fixture_beats_handmade_support(w5b):
    # The hand-drawn certificate {a->b:3, a->d:3, b->c:3} of size 9 is a
    # valid minimal support, but pinning a's sweep of d lets d cover both
    # b and c for 2 each: size 8 is optimal (the oracle agrees).
    res = sms_wuc_exact(w5b, 0)
    assert res.size == 8
    assert pairs_of(res) == {(0, 3): 4, (3, 1): 2, (3, 2): 2}
    assert res.optimal
    handmade = PartialTournament.from_pairs(
        "abcd", 5, {("a", "b"): 3, ("a", "d"): 3, ("b", "c"): 3}
    )
    claim = Support(base=w5b, partial=handmade, rule=Rule.WUC, winner=0)
    assert verify_support(w5b, claim).kind == "valid-MS"
    assert oracle_sms_size(w5b, 0, Rule.WUC) == 8


def test_three_cycle_sizes():
    t = WeightedTournament.from_rows("abc", 1, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert sms_tc(t, 0).size == 2
    assert sms_cop(t, 0).size == 2  # (m-1)(m-1-sigma) with sigma = 1
    assert pairs_of(sms_cop(t, 0)) == {(0, 1): 1, (1, 2): 1}


def test_single_candidate_supports():
    t = WeightedTournament.from_rows("a", 2, [[0]])
    for rule in (Rule.BORDA, Rule.MM, Rule.WUC):
        res = compute_sms(t, 0, rule)
        assert res.size == 0 and res.win_count == 0


def test_not_a_winner_errors(u4):
    with pytest.raises(NotAWinnerError, match="actual winners: a b c"):
        sms_tc(u4, 3)
    with pytest.raises(NotAWinnerError):
        sms_uc(u4, 3)


def test_mm_full_sweep_size():
    # mu(w, c) = n for every opponent: size ceil(n/2) * (m - 1)
    for n in (2, 3, 5):
        matrix = [[0, n, n], [0, 0, n // 2], [0, n - n // 2, 0]]
        t = WeightedTournament.from_rows("wxy", n, matrix)
        res = sms_mm(t, 0)
        assert res.size == -(-n // 2) * 2
        assert res.size == oracle_sms_size(t, 0, Rule.MM)


def test_mm_with_two_candidates():
    t = WeightedTournament.from_rows("ab", 4, [[0, 3], [1, 0]])
    res = sms_mm(t, 0)
    # level = min(3, 2) = 2, heavy = 2, one heavy opponent: size 2
    assert res.size == 2
    assert pairs_of(res) == {(0, 1): 2}
    assert verify_support(t, res.support).kind == "valid-MS"


def test_wuc_with_two_candidates():
    t = WeightedTournament.from_rows("ab", 4, [[0, 3], [1, 0]])
    res = sms_wuc_exact(t, 0)
    assert res.size == 3  # strict majority: ceil((n+1)/2)
    assert verify_support(t, res.support).kind == "valid-MS"


# ---------------------------------------------------------------------------
# Borda branch subtleties
# ---------------------------------------------------------------------------


def test_borda_midzone_keeps_strong_win():
    # Winner's out-weights (5, 1): the classical two-branch size would
    # give (m-1)(n(m-1)-sigma) = 8, but the strongest win exceeds the
    # per-opponent loss bar, so the true minimum is 9.
    t = WeightedTournament.from_rows(
        "wxy", 5, [[0, 5, 1], [0, 0, 4], [4, 1, 0]]
    )
    assert winners(Rule.BORDA, t).winners == (0,)
    res = sms_borda(t, 0)
    assert res.size == 9
    assert oracle_sms_size(t, 0, Rule.BORDA) == 9
    assert verify_support(t, res.support).kind == "valid-MS"


def test_borda_boundary_goes_to_trim_branch():
    # sigma_w equals n(m-1) - min_out exactly: the winner's own wins
    # certify, and the size is n(m-1) - min(floor(n(m-1)/m), min_out).
    t = WeightedTournament.from_rows("wxy", 2, [[0, 2, 1], [0, 0, 1], [1, 1, 0]])
    assert winners(Rule.BORDA, t).winners == (0,)
    res = sms_borda(t, 0)
    assert res.size == 3
    assert oracle_sms_size(t, 0, Rule.BORDA) == 3


def test_borda_condorcet_dominant_trim():
    # mu(w, c) = n for all c at m = 3: size 2n - floor(2n/3).
    for n in (2, 3, 4, 5):
        matrix = [[0, n, n], [0, 0, n // 2], [0, n - n // 2, 0]]
        t = WeightedTournament.from_rows("wxy", n, matrix)
        res = sms_borda(t, 0)
        assert res.size == 2 * n - (2 * n) // 3
        assert res.size == oracle_sms_size(t, 0, Rule.BORDA)


def test_borda_equals_cop_at_unit_weights():
    for seed in range(30):
        t = random_tournament(4, 1, seed)
        for w in winners(Rule.BORDA, t).winners:
            assert sms_borda(t, w).size == sms_cop(t, w).size


# ---------------------------------------------------------------------------
# Oracle equality across rules (small random instances)
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_unit_rules_match_oracle(seed):
    t = random_tournament(4, 1, seed)
    for rule, fn in [(Rule.TC, sms_tc), (Rule.UC, sms_uc), (Rule.COP, sms_cop)]:
        for w in winners(rule, t).winners:
            assert fn(t, w).size == oracle_sms_size(t, w, rule), (t.weights, rule, w)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_weighted_rules_match_oracle(seed):
    t = random_tournament(3, 2, seed)
    for rule in (Rule.BORDA, Rule.MM):
        for w in winners(rule, t).winners:
            assert compute_sms(t, w, rule).size == oracle_sms_size(t, w, rule), (
                t.weights,
                rule,
                w,
            )
    for w in winners(Rule.WUC, t).winners:
        assert sms_wuc_exact(t, w).size == oracle_sms_size(t, w, Rule.WUC), (t.weights, w)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_wuc_exact_matches_oracle_m4(seed):
    t = random_tournament(4, 2, seed)
    for w in winners(Rule.WUC, t).winners:
        assert sms_wuc_exact(t, w).size == oracle_sms_size(t, w, Rule.WUC), (t.weights, w)


# ---------------------------------------------------------------------------
# Weak hubs: weight caps can force supports that are not out-trees
# ---------------------------------------------------------------------------

# z is coverable only through x, but x is too weak to certify directly:
# x must carry a w-edge as a hub while being covered through y itself.
WEAK_HUB = WeightedTournament.from_rows(
    "wxyz",
    2,
    [[0, 1, 2, 0], [1, 0, 1, 2], [0, 1, 0, 0], [2, 0, 2, 0]],
)


def test_weak_hub_instance_forces_non_tree_optimum():
    t = WEAK_HUB
    assert t.mu(0, 1) == 1 and t.mu(0, 2) == 2 and t.mu(0, 3) == 0
    assert 0 in winners(Rule.WUC, t).winners
    res = sms_wuc_exact(t, 0)
    assert res.size == 6 == oracle_sms_size(t, 0, Rule.WUC)
    # x carries both a w-edge (hub duty for z) and its own covering edge
    assert pairs_of(res) == {(0, 1): 1, (0, 2): 2, (2, 1): 1, (1, 3): 2}
    assert verify_support(t, res.support).kind == "valid-MS"
    # no tree-shaped necessary support exists at all, of any size
    assert min_tree_wuc_support_size(t, 0) is None


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_tree_support_helper_matches_oracle_m4(seed):
    # the test-side tree minimum equals the smallest tree-shaped minimal
    # support found by exhaustive enumeration
    t = random_tournament(4, 2, seed)
    for w in winners(Rule.WUC, t).winners:
        trees = []
        for s in enumerate_minimal_supports(t, w, Rule.WUC):
            in_deg = [0] * t.m
            for _, j, _ in s.partial.pairs():
                in_deg[j] += 1
            if max(in_deg) <= 1:
                trees.append(s.size())
        expected = min(trees) if trees else None
        assert min_tree_wuc_support_size(t, w) == expected, (t.weights, w)


def test_tree_preferred_among_equal_optima(w5a):
    # whenever a tree-shaped optimum exists, the solver returns one
    res = sms_wuc_exact(w5a, 0)
    in_deg = [0] * 4
    for _, j, _ in res.support.partial.pairs():
        in_deg[j] += 1
    assert max(in_deg) <= 1


def test_tree_pass_beats_equal_size_non_tree():
    # d's smallest supports (size 30) include a tree and a support in
    # which b has two incoming edges; only the tree-only first search
    # pass makes the solver return the tree.
    t = random_tournament(10, 7, 94)
    d = t.candidates.index("d")
    res = compute_sms(t, d, Rule.WUC)
    assert res.optimal and res.size == 30
    labels = t.candidates.labels
    assert {(labels[i], labels[j]): w for (i, j), w in pairs_of(res).items()} == {
        ("d", "g"): 4, ("d", "h"): 7, ("d", "i"): 4, ("g", "a"): 4, ("g", "j"): 4,
        ("h", "b"): 1, ("h", "e"): 1, ("h", "f"): 1, ("i", "c"): 4,
    }
    non_tree = PartialTournament.from_pairs(labels, 7, {
        ("b", "a"): 5, ("b", "c"): 5, ("b", "j"): 5, ("d", "b"): 3, ("d", "h"): 7,
        ("h", "b"): 1, ("h", "e"): 1, ("h", "f"): 1, ("h", "g"): 1, ("h", "i"): 1,
    })
    assert non_tree.support_size() == 30
    assert sum(1 for _, j, _ in non_tree.pairs() if labels[j] == "b") == 2
    claim = Support(base=t, partial=non_tree, rule=Rule.WUC, winner=d)
    assert verify_support(t, claim).kind == "valid-MS"


def test_wuc_budget_exhaustion_returns_best_found(w5b):
    res = sms_wuc_exact(w5b, 0, budget=2)
    assert not res.optimal
    assert res.lower_bound is not None
    assert res.lower_bound <= res.size
    assert verify_support(w5b, res.support).kind == "valid-MS"


# ---------------------------------------------------------------------------
# Size formula
# ---------------------------------------------------------------------------


def test_size_formula_fixture_values():
    assert sms_size_formula(SizeFormulaInput(Rule.TC, n=1, m=7)) == 6
    assert sms_size_formula(SizeFormulaInput(Rule.MM, n=5, m=4, sigma_w=3, k=3)) == 9
    assert (
        sms_size_formula(SizeFormulaInput(Rule.BORDA, n=5, m=4, sigma_w=9, min_out=2))
        == 18
    )
    assert sms_size_formula(SizeFormulaInput(Rule.COP, n=1, m=5, sigma_w=4)) == 4
    assert sms_size_formula(SizeFormulaInput(Rule.WUC, n=5, m=4)) == (7, 18)


def test_size_formula_validates():
    with pytest.raises(ValueError):
        sms_size_formula(SizeFormulaInput(Rule.BORDA, n=2, m=3, sigma_w=7, min_out=0))
    with pytest.raises(ValueError):
        sms_size_formula(SizeFormulaInput(Rule.MM, n=2, m=3, sigma_w=3, k=1))
    with pytest.raises(ValueError, match="missing"):
        sms_size_formula(SizeFormulaInput(Rule.COP, n=1, m=3))
    with pytest.raises(ValueError, match="3 candidates"):
        sms_size_formula(SizeFormulaInput(Rule.WUC, n=2, m=2))


def formula_for(t, w, rule, result):
    if rule in (Rule.TC, Rule.UC):
        return sms_size_formula(SizeFormulaInput(rule, t.n, t.m))
    if rule is Rule.COP:
        sigma = sum(1 for x in t.weights[w] if x)
        return sms_size_formula(SizeFormulaInput(rule, t.n, t.m, sigma_w=sigma))
    if rule is Rule.BORDA:
        outs = tuple(t.weights[w][c] for c in range(t.m) if c != w)
        return sms_size_formula(SizeFormulaInput(rule, t.n, t.m, out_weights=outs))
    sigma = min(t.weights[w][c] for c in range(t.m) if c != w)
    level = min(sigma, t.n // 2)
    k = sum(1 for c in range(t.m) if c != w and t.weights[w][c] >= t.n - level)
    return sms_size_formula(SizeFormulaInput(rule, t.n, t.m, sigma_w=sigma, k=k))


@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_algorithm_sizes_equal_formula(seed, m, n):
    t = random_tournament(m, n, seed)
    rules = [Rule.BORDA, Rule.MM] if n > 1 else [Rule.TC, Rule.UC, Rule.COP, Rule.BORDA, Rule.MM]
    for rule in rules:
        for w in winners(rule, t).winners:
            res = compute_sms(t, w, rule)
            assert res.size == formula_for(t, w, rule, res), (t.weights, rule, w)


# ---------------------------------------------------------------------------
# verify_support verdicts
# ---------------------------------------------------------------------------


def test_verify_valid_ms(u4c):
    x = PartialTournament.from_pairs(
        "abcd", 1, {("a", "b"): 1, ("a", "c"): 1, ("c", "d"): 1}
    )
    claim = Support(base=u4c, partial=x, rule=Rule.UC, winner=0)
    assert verify_support(u4c, claim).kind == "valid-MS"


def test_verify_not_minimal(u4c):
    padded = PartialTournament.from_pairs(
        "abcd", 1, {("a", "b"): 1, ("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 1}
    )
    claim = Support(base=u4c, partial=padded, rule=Rule.UC, winner=0)
    verdict = verify_support(u4c, claim)
    assert verdict.kind == "not-minimal"
    # canonical scan order reports the first removable unit
    assert verdict.witness == ("a", "c")


def test_verify_not_necessary(u4c):
    broken = PartialTournament.from_pairs("abcd", 1, {("a", "b"): 1, ("a", "c"): 1})
    claim = Support(base=u4c, partial=broken, rule=Rule.UC, winner=0)
    verdict = verify_support(u4c, claim)
    assert verdict.kind == "not-necessary"
    assert verdict.witness == ("d",)


def test_all_algorithm_outputs_verify(u4, u4c, w5a, w5b):
    cases = []
    for t in (u4, u4c):
        for rule in (Rule.TC, Rule.UC, Rule.COP):
            for w in winners(rule, t).winners:
                cases.append((t, compute_sms(t, w, rule)))
    for t in (w5a, w5b):
        for rule in (Rule.BORDA, Rule.MM, Rule.WUC):
            for w in winners(rule, t).winners:
                cases.append((t, compute_sms(t, w, rule)))
    for t, res in cases:
        assert verify_support(t, res.support).kind == "valid-MS"


# ---------------------------------------------------------------------------
# verify_support against a full necessity re-check per removed unit
# ---------------------------------------------------------------------------


def reference_verdict(claim, nw):
    """verify_support's verdict kind and not-minimal witness, found by
    rebuilding the matrix and re-running ``nw`` for every unit removal."""
    g, w, rule = claim.partial, claim.winner, claim.rule
    labels = g.candidates.labels
    if not nw(g, w, rule):
        return "not-necessary", None
    matrix = [list(row) for row in g.weights]
    for i, j, _ in g.pairs():
        matrix[i][j] -= 1
        smaller = g.replace_weights(matrix)
        matrix[i][j] += 1
        if nw(smaller, w, rule):
            return "not-minimal", (labels[i], labels[j])
    return "valid-MS", None


def verdict_of(t, claim):
    verdict = verify_support(t, claim)
    return verdict.kind, verdict.witness if verdict.kind == "not-minimal" else None


def memoized_bruteforce():
    seen = {}

    def nw(g, w, rule):
        key = (g.weights, w, rule)
        if key not in seen:
            seen[key] = is_necessary_winner_bruteforce(g, w, rule)
        return seen[key]

    return nw


@pytest.mark.parametrize(
    "m, n, rules, seeds",
    [
        (3, 1, (Rule.TC, Rule.UC, Rule.COP), range(4)),
        (4, 1, (Rule.TC, Rule.UC, Rule.COP), range(4)),
        (3, 2, (Rule.BORDA, Rule.MM, Rule.WUC), range(4)),
        (3, 3, (Rule.BORDA, Rule.MM, Rule.WUC), range(4)),
        (4, 2, (Rule.BORDA, Rule.MM, Rule.WUC), range(1)),
    ],
)
def test_verify_matches_bruteforce_on_every_subweighting(m, n, rules, seeds):
    # Every sub-weighting of t, as a claim for every winner: the verdict
    # kind and the not-minimal witness equal those of a unit-by-unit
    # re-check against completion enumeration.
    nw = memoized_bruteforce()
    for seed in seeds:
        t = random_tournament(m, n, seed)
        for rule in rules:
            for w in winners(rule, t).winners:
                for matrix in _iter_subweightings(t, 10**5):
                    claim = Support(base=t, partial=t.replace_weights(matrix), rule=rule, winner=w)
                    assert verdict_of(t, claim) == reference_verdict(claim, nw), (
                        t.weights, rule, w, matrix
                    )


def random_claims(seed):
    """Seeded claims at m <= 12: supports as computed, padded or cut by a
    few units, the whole tournament minus a few units, and arbitrary
    sub-weightings; for a winner, or now and then for any candidate."""
    rng = random.Random(seed)
    rule = rng.choice(list(Rule))
    m = rng.randint(2, 12)
    n = 1 if rule.spec.unit_weights else rng.choice((2, 3, 5, 10**6))
    t = random_tournament(m, n, rng.randrange(2**30))
    members = winners(rule, t).winners
    w = rng.choice(members) if members and rng.random() < 0.9 else rng.randrange(m)
    sms_matrix = None
    if w in members:
        sms_matrix = compute_sms(t, w, rule, budget=10**4).support.partial.weights
    for base in (sms_matrix, t.weights, None):
        if base is None:
            base = [[rng.randint(0, x) for x in row] for row in t.weights]
        matrix = [list(row) for row in base]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(m), rng.randrange(m)
            if rng.random() < 0.7 and matrix[i][j] < t.weights[i][j]:
                matrix[i][j] += 1
            elif matrix[i][j] > 0:
                matrix[i][j] -= 1
        yield Support(base=t, partial=t.replace_weights(matrix), rule=rule, winner=w)


@pytest.mark.parametrize("block", range(4))
def test_verify_matches_rebuild_loop_on_random_claims(block):
    # is_necessary_winner reads the same aggregates as verify_support, so
    # this checks the per-unit re-checks against a full re-run; the
    # aggregates themselves are checked against brute force in
    # tests/test_necessary.py.
    for seed in range(block * 100, (block + 1) * 100):
        for claim in random_claims(seed):
            assert verdict_of(claim.base, claim) == reference_verdict(claim, is_necessary_winner), (
                seed, claim.rule, claim.winner, claim.partial.weights
            )


@pytest.mark.parametrize("rule", list(Rule))
def test_unit_into_winner_is_removable(rule):
    # Adding a unit on (x, w) to a valid support makes exactly that unit
    # removable: no clause of any rule reads a pair into the winner.
    t = random_tournament(6, 1 if rule.spec.unit_weights else 3, 11)
    for w in winners(rule, t).winners:
        res = compute_sms(t, w, rule)
        matrix = [list(row) for row in res.support.partial.weights]
        x = next(x for x in range(t.m) if t.mu(x, w) > matrix[x][w])
        matrix[x][w] += 1
        claim = Support(base=t, partial=t.replace_weights(matrix), rule=rule, winner=w)
        labels = t.candidates.labels
        assert verify_support(t, claim) == SupportVerdict("not-minimal", (labels[x], labels[w]))


# a -> b -> c -> d -> b, and a -> d: b can be reached around the edge
# (a, b) only through d, which sits in b's own subtree in the first claim
# and hangs off a in the second.
TC_LOOP = WeightedTournament.from_rows(
    "abcd", 1, [[0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]]
)


@pytest.mark.parametrize(
    "edges, witness",
    [
        ({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1}, None),
        # b's second in-edge comes from its own subtree: (a, b) stays needed
        ({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "b"): 1}, ("d", "b")),
        # b's second in-edge comes from outside its subtree: (a, b) can go
        ({("a", "b"): 1, ("a", "d"): 1, ("b", "c"): 1, ("d", "b"): 1}, ("a", "b")),
    ],
)
def test_verify_tc_second_in_edge(edges, witness):
    claim = Support(TC_LOOP, PartialTournament.from_pairs("abcd", 1, edges), Rule.TC, 0)
    expected = SupportVerdict("not-minimal", witness) if witness else SupportVerdict("valid-MS")
    assert verify_support(TC_LOOP, claim) == expected
    assert verdict_of(TC_LOOP, claim) == reference_verdict(claim, is_necessary_winner_bruteforce)


# Every candidate has maximin score 2 at n=5; c is beaten 3-2 by both b
# and d, so c's column maximum can be tied in a claim.
MM_TIE = WeightedTournament.from_rows(
    "abcd", 5, [[0, 3, 2, 3], [2, 0, 3, 3], [3, 2, 0, 2], [2, 2, 3, 0]]
)


@pytest.mark.parametrize(
    "extra, witness",
    [
        (0, None),
        # column c's maximum tied at 3: either copy can lose a unit
        (3, ("b", "c")),
        # d's 2 is below the maximum, so it is the removable unit
        (2, ("d", "c")),
    ],
)
def test_verify_mm_tied_column_maximum(extra, witness):
    # without the extra unit, the claim is a's maximin SMS
    edges = {("a", "b"): 3, ("a", "c"): 2, ("a", "d"): 3, ("b", "c"): 3, ("d", "c"): extra}
    claim = Support(MM_TIE, PartialTournament.from_pairs("abcd", 5, edges), Rule.MM, 0)
    expected = SupportVerdict("not-minimal", witness) if witness else SupportVerdict("valid-MS")
    assert verify_support(MM_TIE, claim) == expected
    assert verdict_of(MM_TIE, claim) == reference_verdict(claim, is_necessary_winner_bruteforce)


# w sweeps x 2-0 (x's direct clause at the majority, 2) and x sweeps y
# 2-0: y's clause through x is w->x plus x->y against n + 1 = 3.
WUC_CLAUSE = WeightedTournament.from_rows("wxy", 2, [[0, 2, 1], [0, 0, 2], [1, 0, 0]])


@pytest.mark.parametrize("xy, witness", [(1, None), (2, ("x", "y"))])
def test_verify_wuc_clause_at_and_above_threshold(xy, witness):
    # at n + 1 the clause loses to any removed unit; one above, (x, y) can spare one
    claim = Support(
        WUC_CLAUSE,
        PartialTournament.from_pairs("wxy", 2, {("w", "x"): 2, ("x", "y"): xy}),
        Rule.WUC,
        0,
    )
    expected = SupportVerdict("not-minimal", witness) if witness else SupportVerdict("valid-MS")
    assert verify_support(WUC_CLAUSE, claim) == expected
    assert verdict_of(WUC_CLAUSE, claim) == reference_verdict(claim, is_necessary_winner_bruteforce)


def test_verify_borda_m200_under_two_seconds():
    t = random_tournament(200, 10**6, 3)
    w = winners(Rule.BORDA, t).winners[0]
    support = sms_borda(t, w).support
    started = time.perf_counter()
    verdict = verify_support(t, support)
    elapsed = time.perf_counter() - started
    assert verdict.kind == "valid-MS"
    assert elapsed < 2.0, f"verify took {elapsed:.2f} s"
