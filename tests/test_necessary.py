"""Necessary-winner characterizations against the completion oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wincert.model import PartialTournament, Rule, enumerate_completions, extends
from wincert.necessary import (
    failing_opponents,
    is_necessary_winner,
    is_necessary_winner_bruteforce,
    score_bounds,
    score_margins,
)
from wincert.oracle import random_partial_tournament, random_tournament
from wincert.solutions import score_table, winners

ALL_RULES = list(Rule)
WEIGHTED_RULES = [Rule.BORDA, Rule.MM, Rule.WUC]


# ---------------------------------------------------------------------------
# Score bounds and margins
# ---------------------------------------------------------------------------


def test_bounds_empty_partial():
    g = PartialTournament.from_pairs("abcd", 5)
    for c in range(4):
        b = score_bounds(g, c)
        assert (b.min_score, b.max_score) == (0, 15)


def test_bounds_complete_pin_score(w5b):
    for c in range(4):
        b = score_bounds(w5b, c)
        assert b.min_score == b.max_score == sum(w5b.weights[c])


def test_bounds_on_star_support():
    y = PartialTournament.from_pairs(
        "abcd", 1, {("a", "b"): 1, ("a", "c"): 1, ("a", "d"): 1}
    )
    a = score_bounds(y, 0)
    b = score_bounds(y, 1)
    assert (a.min_score, a.max_score) == (3, 3)
    assert (b.min_score, b.max_score) == (0, 2)
    assert all(mg.delta >= 0 for mg in score_margins(y, 0))


# ---------------------------------------------------------------------------
# Point checks
# ---------------------------------------------------------------------------


def test_star_is_necessary_uc_winner():
    y = PartialTournament.from_pairs(
        "abcd", 1, {("a", "b"): 1, ("a", "c"): 1, ("a", "d"): 1}
    )
    assert is_necessary_winner(y, 0, Rule.UC)
    assert is_necessary_winner_bruteforce(y, 0, Rule.UC)


def test_depth_two_support_is_necessary_uc_winner():
    x = PartialTournament.from_pairs(
        "abcd", 1, {("a", "b"): 1, ("b", "c"): 1, ("a", "d"): 1}
    )
    assert is_necessary_winner(x, 0, Rule.UC)
    # dropping any edge loses necessity
    for pair in [("a", "b"), ("b", "c"), ("a", "d")]:
        pruned = {p: 1 for p in [("a", "b"), ("b", "c"), ("a", "d")] if p != pair}
        g = PartialTournament.from_pairs("abcd", 1, pruned)
        assert not is_necessary_winner(g, 0, Rule.UC)
        assert not is_necessary_winner_bruteforce(g, 0, Rule.UC)


def test_empty_partial_never_necessary():
    for rule in ALL_RULES:
        n = 1 if rule.requires_unit_weights else 2
        g = PartialTournament.from_pairs("abc", n)
        assert not is_necessary_winner(g, 0, rule)


def test_single_candidate_always_necessary():
    g = PartialTournament.from_pairs("a", 2)
    for rule in WEIGHTED_RULES:
        assert is_necessary_winner(g, 0, rule)


def test_mm_support_fixture(w5a):
    i_support = PartialTournament.from_pairs(
        "abcd", 5, {("a", "b"): 3, ("a", "c"): 3, ("a", "d"): 3}
    )
    assert is_necessary_winner(i_support, 0, Rule.MM)
    j_support = PartialTournament.from_pairs(
        "abcd",
        5,
        {("a", "b"): 3, ("a", "c"): 2, ("a", "d"): 2, ("b", "c"): 3, ("b", "d"): 3},
    )
    assert is_necessary_winner(j_support, 0, Rule.MM)
    assert is_necessary_winner_bruteforce(j_support, 0, Rule.MM)


def test_rule_voter_mismatch_rejected(w5a):
    g = PartialTournament.from_pairs("ab", 2)
    for rule in (Rule.TC, Rule.UC, Rule.COP):
        with pytest.raises(ValueError, match="1-weighted"):
            is_necessary_winner(g, 0, rule)


def test_failing_opponents_named():
    g = PartialTournament.from_pairs("abc", 1, {("a", "b"): 1})
    assert failing_opponents(g, 0, Rule.TC) == (2,)


# ---------------------------------------------------------------------------
# Equivalence with brute force
# ---------------------------------------------------------------------------


def unit_partials_m3():
    """All partial 1-weighted tournaments on 3 candidates (27 edge states)."""
    states = [(0, 0), (1, 0), (0, 1)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for assignment in itertools.product(states, repeat=3):
        matrix = [[0] * 3 for _ in range(3)]
        for (i, j), (wij, wji) in zip(pairs, assignment):
            matrix[i][j], matrix[j][i] = wij, wji
        yield PartialTournament.from_pairs("abc", 1).replace_weights(matrix)


def test_equivalence_exhaustive_unit_m3():
    """Every unit partial on 3 candidates, every candidate, every rule."""
    for g in unit_partials_m3():
        for rule in ALL_RULES:
            for w in range(3):
                assert is_necessary_winner(g, w, rule) == is_necessary_winner_bruteforce(
                    g, w, rule
                ), (g.weights, rule, w)


@given(st.integers(0, 10**6), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_equivalence_random_weighted(seed, m):
    g = random_partial_tournament(m, 2, seed, max_open_pairs=4)
    for rule in WEIGHTED_RULES:
        for w in range(m):
            assert is_necessary_winner(g, w, rule) == is_necessary_winner_bruteforce(
                g, w, rule
            ), (g.weights, rule, w)


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_equivalence_random_unit_m4(seed):
    g = random_partial_tournament(4, 1, seed)
    for rule in (Rule.TC, Rule.UC, Rule.COP):
        for w in range(4):
            assert is_necessary_winner(g, w, rule) == is_necessary_winner_bruteforce(
                g, w, rule
            ), (g.weights, rule, w)


def reached(mu, w, steps):
    """Candidates w reaches in at most ``steps`` positive-weight steps."""
    seen = frontier = {w}
    for _ in range(steps):
        frontier = {v for u in frontier for v in range(len(mu)) if mu[u][v]} - seen
        seen = seen | frontier
    return seen


def beaten_pairs(rule, t):
    """Pairs (w, c) such that c beats w in the complete tournament t:
    c lies outside w's reach (tc, and uc within two steps), c
    weighted-covers w (wuc), or c outscores w (cop, borda, mm)."""
    m, mu = t.m, t.weights
    if rule.spec.has_scores:
        s = score_table(rule, t).scores
        return {(w, c) for w in range(m) for c in range(m) if s[c] > s[w]}
    if rule is Rule.WUC:
        return {
            (w, c)
            for w in range(m)
            for c in range(m)
            if c != w
            and mu[c][w] >= mu[w][c]
            and all(mu[c][z] >= mu[w][z] for z in range(m) if z not in (w, c))
        }
    steps = 2 if rule is Rule.UC else m
    return {(w, c) for w in range(m) for c in set(range(m)) - reached(mu, w, steps)}


def test_failing_opponents_match_bruteforce():
    """failing_opponents names exactly the opponents that beat w in some
    completion, on every unit partial at m=3 and on seeded partials."""
    partials = list(unit_partials_m3()) + [
        random_partial_tournament(m, n, seed, max_open_pairs=4)
        for m, n in ((4, 1), (3, 2), (4, 2), (3, 3), (4, 3))
        for seed in range(150)
    ]
    for g in partials:
        rules = ALL_RULES if g.n == 1 else WEIGHTED_RULES
        beaten = {rule: set() for rule in rules}
        for t in enumerate_completions(g):
            for rule in rules:
                beaten[rule] |= beaten_pairs(rule, t)
        for rule in rules:
            for w in range(g.m):
                expected = tuple(c for c in range(g.m) if (w, c) in beaten[rule])
                assert failing_opponents(g, w, rule) == expected, (g.weights, rule, w)


# ---------------------------------------------------------------------------
# Monotonicity and completeness consistency
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_necessity_monotone_under_extension(seed):
    import random as _random

    rng = _random.Random(seed)
    g = random_partial_tournament(3, 2, seed)
    # extend g by restoring some undetermined mass
    matrix = [list(row) for row in g.weights]
    for i in range(3):
        for j in range(i + 1, 3):
            gain = rng.randint(0, g.slack(i, j))
            matrix[i][j] += gain
    h = g.replace_weights(matrix)
    assert extends(g, h)
    for rule in WEIGHTED_RULES:
        for w in range(3):
            if is_necessary_winner(g, w, rule):
                assert is_necessary_winner(h, w, rule)


@given(st.integers(0, 10**6), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_complete_tournament_necessity_equals_membership(seed, n):
    t = random_tournament(4, n, seed)
    rules = ALL_RULES if n == 1 else WEIGHTED_RULES
    for rule in rules:
        winner_set = winners(rule, t).winners
        for w in range(4):
            assert is_necessary_winner(t, w, rule) == (w in winner_set)
