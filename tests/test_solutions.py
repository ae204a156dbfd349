"""Winner sets and scores of the six rules."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wincert.model import IncompleteTournamentError, PartialTournament, Rule, WeightedTournament
from wincert.oracle import random_tournament, weighted_uncovered_set_by_covering
from wincert.solutions import (
    borda,
    copeland,
    maximin,
    score_table,
    top_cycle,
    uncovered_set,
    weighted_uncovered_set,
    winners,
)


def all_unit_tournaments(m: int):
    """Every labelled 1-weighted tournament on m candidates."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    labels = "abcdefgh"[:m]
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        matrix = [[0] * m for _ in range(m)]
        for (i, j), bit in zip(pairs, bits):
            if bit:
                matrix[i][j] = 1
            else:
                matrix[j][i] = 1
        yield WeightedTournament.from_rows(labels, 1, matrix)


# ---------------------------------------------------------------------------
# Fixture values
# ---------------------------------------------------------------------------


def test_top_cycle_fixture(u4):
    assert top_cycle(u4).winners == (0, 1, 2)


def test_uncovered_set_fixture(u4):
    assert uncovered_set(u4).winners == (0, 1, 2)


def test_copeland_fixture(u4):
    table, winner_set = copeland(u4)
    assert table.scores == (2, 2, 2, 0)
    assert winner_set.winners == (0, 1, 2)


def test_borda_fixture(w5b):
    table, winner_set = borda(w5b)
    assert table.scores == (9, 8, 7, 6)
    assert winner_set.winners == (0,)


def test_maximin_fixtures(w5a, w5b):
    table, winner_set = maximin(w5a)
    assert table.scores == (3, 2, 2, 0)
    assert winner_set.winners == (0,)
    table, winner_set = maximin(w5b)
    assert table.scores == (2, 2, 2, 1)
    assert winner_set.winners == (0, 1, 2)


def test_wuc_fixtures(w5a, w5b):
    assert 0 in weighted_uncovered_set(w5a).winners
    assert 0 in weighted_uncovered_set(w5b).winners


def test_condorcet_winner_singleton(u4c):
    assert top_cycle(u4c).winners == (0,)
    assert 0 in uncovered_set(u4c).winners


def test_three_cycle():
    t = WeightedTournament.from_rows("abc", 1, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert top_cycle(t).winners == (0, 1, 2)
    assert uncovered_set(t).winners == (0, 1, 2)


def test_single_candidate_conventions():
    t = PartialTournament.from_pairs("a", 4).as_complete()
    for rule in Rule:
        if rule.requires_unit_weights:
            continue
        assert winners(rule, t).winners == (0,)
    assert maximin(t)[0].scores == (4,)
    assert borda(t)[0].scores == (0,)
    unit = PartialTournament.from_pairs("a", 1).as_complete()
    assert copeland(unit)[0].scores == (0,)
    for rule in Rule:
        assert winners(rule, unit).winners == (0,)


# ---------------------------------------------------------------------------
# Preconditions
# ---------------------------------------------------------------------------


def test_incomplete_rejected():
    g = PartialTournament.from_pairs("abc", 1, {("a", "b"): 1})
    with pytest.raises(IncompleteTournamentError):
        g.as_complete()
    with pytest.raises(IncompleteTournamentError):
        borda(g)


def test_unit_rules_reject_weighted(w5a):
    for fn in (top_cycle, uncovered_set, copeland):
        with pytest.raises(ValueError, match="1-weighted"):
            fn(w5a)


def test_score_table_only_for_score_rules(u4):
    with pytest.raises(ValueError):
        score_table(Rule.TC, u4)


# ---------------------------------------------------------------------------
# Structural inclusions, exhaustive over all 64 tournaments with m=4
# ---------------------------------------------------------------------------


def test_uc_subset_of_tc_and_cop_subset_of_uc_exhaustive():
    for t in all_unit_tournaments(4):
        tc = set(top_cycle(t).winners)
        uc = set(uncovered_set(t).winners)
        cop = set(copeland(t)[1].winners)
        assert uc <= tc
        assert cop <= uc
        assert uc  # never empty at n=1


def test_wuc_equals_uc_on_unit_tournaments():
    for t in all_unit_tournaments(4):
        assert weighted_uncovered_set(t).winners == uncovered_set(t).winners


# ---------------------------------------------------------------------------
# Dual implementation and equivariance
# ---------------------------------------------------------------------------


@given(st.integers(0, 2000), st.integers(2, 6), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_wuc_dual_equivalence(seed, m, n):
    t = random_tournament(m, n, seed)
    assert weighted_uncovered_set(t) == weighted_uncovered_set_by_covering(t)


def test_wuc_nonempty_for_odd_voters():
    for seed in range(200):
        t = random_tournament(4, 3, seed)
        assert weighted_uncovered_set(t).winners


def test_wuc_can_be_empty_on_fully_tied_even_instance():
    # Two candidates tied 1-1 cover each other componentwise, so neither
    # can certify reaching the other in every completion.
    t = WeightedTournament.from_rows("ab", 2, [[0, 1], [1, 0]])
    assert weighted_uncovered_set(t).winners == ()
    assert weighted_uncovered_set_by_covering(t).winners == ()


@given(st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_scores_are_permutation_equivariant(seed):
    import random as _random

    t = random_tournament(5, 4, seed)
    perm = list(range(5))
    _random.Random(seed).shuffle(perm)
    matrix = [[t.weights[perm[i]][perm[j]] for j in range(5)] for i in range(5)]
    relabeled = WeightedTournament.from_rows(
        [t.candidates.labels[p] for p in perm], 4, matrix
    )
    for rule in (Rule.BORDA, Rule.MM):
        original = score_table(rule, t).scores
        moved = score_table(rule, relabeled).scores
        assert moved == tuple(original[p] for p in perm)


def test_winner_sets_sorted_canonically():
    for seed in range(50):
        t = random_tournament(5, 2, seed)
        for rule in (Rule.BORDA, Rule.MM, Rule.WUC):
            ws = winners(rule, t).winners
            assert list(ws) == sorted(ws)
