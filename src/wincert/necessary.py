"""Necessary-winner checks on partial tournaments.

A candidate is a necessary winner when it belongs to the winner set of
every completion.  Each rule admits a polynomial characterization built
on the worst completion for the candidate, coded once per rule in
:func:`characterize`: its aggregates (score margins, the maximin floor
against the column tops, the uncovered-set clause counts, or the top
cycle's reach) yield both the opponents that can beat the candidate and
the per-unit re-check that decides whether a support is minimal.  The
brute-force check over all completions is kept as the independent
oracle the characterizations are tested against.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress

from . import solutions
from .model import DEFAULT_GUARD, PartialTournament, Rule, check_voters, enumerate_completions


@dataclass(frozen=True)
class ScoreBounds:
    """Extremal scores a candidate can reach over all completions."""

    candidate: int
    min_score: int
    max_score: int


@dataclass(frozen=True)
class ScoreMargin:
    """Winner's worst-case score minus an opponent's best-case score."""

    winner: int
    opponent: int
    delta: int


def score_bounds(g: PartialTournament, c: int, rule: Rule = Rule.BORDA) -> ScoreBounds:
    """Borda (or Copeland, at n=1) score bounds over completions of g.

    The minimum is the weight already won; the maximum is the total at
    stake minus the weight already lost.
    """
    if rule not in (Rule.BORDA, Rule.COP):
        raise ValueError(f"score bounds are defined for borda/cop, not {rule.value}")
    check_voters(rule, g.n)
    out_mass = sum(g.weights[c])
    in_mass = sum(g.weights[x][c] for x in range(g.m))
    return ScoreBounds(c, out_mass, g.n * (g.m - 1) - in_mass)


def score_margins(g: PartialTournament, w: int, rule: Rule = Rule.BORDA) -> tuple[ScoreMargin, ...]:
    """Margins of w against every opponent; all non-negative iff w is a
    necessary Borda (Copeland at n=1) winner."""
    w_min = score_bounds(g, w, rule).min_score
    return tuple(
        ScoreMargin(w, c, w_min - score_bounds(g, c, rule).max_score)
        for c in range(g.m)
        if c != w
    )


Keeps = Callable[[int, int], bool]


def is_necessary_winner(g: PartialTournament, w: int, rule: Rule) -> bool:
    """Rule-specific polynomial necessary-winner check.

    Every characterization encodes the worst completion for w: w's
    undetermined comparisons are lost, each opponent's are won; for the
    path rules the undetermined pairs are oriented to keep w's reach from
    growing.  These adversarial completions are jointly realizable per
    opponent, which the brute-force equivalence tests confirm.
    """
    return not failing_opponents(g, w, rule)


def failing_opponents(g: PartialTournament, w: int, rule: Rule) -> tuple[int, ...]:
    """Opponents that can keep w out of the winner set in some completion
    (empty iff w is a necessary winner)."""
    return characterize(g, w, rule)[0]


def characterize(g: PartialTournament, w: int, rule: Rule) -> tuple[tuple[int, ...], Keeps]:
    """The rule's necessary-winner characterization of w on g, with its
    aggregates computed once.

    Returns ``(failing, keeps)``.  ``failing`` lists, in canonical order,
    the opponents that can keep w out of the winner set in some
    completion.  When it is empty, ``keeps(i, j)`` tells, for a positive
    pair with ``j != w``, whether w stays a necessary winner once one unit
    is removed from (i, j); it re-checks only the clauses that unit takes
    part in.  A unit on a pair into w takes part in none.

    Copeland and Borda re-check the margin of the pair's target, and
    every margin when the unit is w's own.  Maximin re-checks w's floor
    against the pair's column maximum and the weakest column.  The
    weighted uncovered set, and the uncovered set as its n=1 case,
    re-check the clauses through the pair: the target's, or for w's edge
    (w, x), x's direct clause and every clause through x.  The top cycle
    re-checks that the pair's target keeps an in-neighbour reachable
    around it, with one search per target that has two or more in-edges
    (none for a tree support).
    """
    if not 0 <= w < g.m:
        raise ValueError(f"candidate index {w} out of range")
    check_voters(rule, g.n)
    if g.m == 1:
        return (), lambda i, j: True  # there is no pair to take a unit from
    return _CHARACTERIZATIONS[rule](g, w)


def _score(g: PartialTournament, w: int) -> tuple[tuple[int, ...], Keeps]:
    # Copeland at n=1 has Borda's bounds.  An opponent fails on a negative
    # margin.  A unit on (i, j) raises j's best case by one; on (w, j) it
    # also lowers w's guaranteed score, and with it every margin, by one.
    margins = {mg.opponent: mg.delta for mg in score_margins(g, w)}
    tightest = min(margins.values())

    def keeps(i: int, j: int) -> bool:
        drop = i == w
        return margins[j] > drop and tightest >= drop

    return tuple(c for c, delta in margins.items() if delta < 0), keeps


def _mm(g: PartialTournament, w: int) -> tuple[tuple[int, ...], Keeps]:
    m, n = g.m, g.n
    # Worst case for w fixes its open comparisons as losses, so its
    # guaranteed maximin score is its smallest confirmed out-weight, the
    # floor; opponent c's best case is n minus its column's top value.
    row_w = g.weights[w]
    floor = min(row_w[c] for c in range(m) if c != w)
    # Per column: its top value and the top of the rest after one top
    # entry is taken out (equal to the top when the top is tied).  The
    # zero diagonal does not disturb either, as weights are non-negative.
    top, runner_up = [0] * m, [0] * m
    for c, column in enumerate(zip(*g.weights)):
        runner_up[c], top[c] = sorted(column)[-2:]
    weakest = min(top[c] for c in range(m) if c != w)

    def keeps(i: int, j: int) -> bool:
        weight = g.weights[i][j]
        best_j = max(top[j] - 1, runner_up[j]) if weight == top[j] else top[j]
        level = min(floor, weight - 1) if i == w else floor
        return level + best_j >= n and level + weakest >= n

    return tuple(c for c in range(m) if c != w and floor + top[c] < n), keeps


def _clauses(g: PartialTournament, w: int) -> tuple[tuple[int, ...], Keeps]:
    m, n = g.m, g.n
    weights = g.weights
    row_w = weights[w]
    majority = (n + 2) // 2  # ceil((n + 1) / 2): a strict majority in every completion
    # clauses[c]: opponent c's surviving clauses, direct plus one per
    # intermediate z with mu(w, z) + mu(z, c) >= n + 1; c fails with none.
    # At n=1 these are the uncovered set's paths of length one and two.
    clauses = [int(row_w[c] >= majority) for c in range(m)]
    for z in range(m):
        if z != w and row_w[z]:
            need = n + 1 - row_w[z]
            for c in compress(range(m), weights[z]):
                if weights[z][c] >= need:
                    clauses[c] += 1

    def keeps(i: int, j: int) -> bool:
        if i != w:
            # Only j's clause through i reads this unit.
            return clauses[j] > 1 or row_w[i] + weights[i][j] != n + 1
        # (w, j) carries j's direct clause and every clause through j.
        if clauses[j] == 1 and row_w[j] == majority:
            return False
        need = n + 1 - row_w[j]
        row_j = weights[j]
        return not any(
            clauses[c] == 1 and row_j[c] == need for c in range(m) if c != w
        )

    return tuple(c for c in range(m) if c != w and not clauses[c]), keeps


def _reach(g: PartialTournament, w: int) -> tuple[tuple[int, ...], Keeps]:
    m = g.m
    weights = g.weights
    depth = bfs_tree(weights, w)[1]
    no_row = (0,) * m
    # backers[j]: in-neighbours of j that w reaches without passing j.
    backers: dict[int, list[int]] = {}

    def keeps(i: int, j: int) -> bool:
        # Everything stays reachable iff j does, i.e. iff j keeps an
        # in-neighbour other than i that w reaches around j.
        if j not in backers:
            column = [k for k in range(m) if weights[k][j]]
            if len(column) > 1:
                around = bfs_tree(weights[:j] + (no_row,) + weights[j + 1 :], w)[1]
                column = [k for k in column if around[k] >= 0]
            backers[j] = column
        return any(k != i for k in backers[j])

    return tuple(c for c in range(m) if depth[c] < 0), keeps


_CHARACTERIZATIONS = {
    Rule.TC: _reach,
    Rule.UC: _clauses,
    Rule.COP: _score,
    Rule.BORDA: _score,
    Rule.MM: _mm,
    Rule.WUC: _clauses,
}


def bfs_tree(
    weights: tuple[tuple[int, ...], ...], root: int, max_depth: int | None = None
) -> tuple[list[int], list[int]]:
    """Breadth-first search from root along positive-weight edges, at most
    ``max_depth`` steps deep (None: unbounded).

    Sources leave the queue, and their targets are scanned, in canonical
    order, so the tree is the canonical shortest-path tree.  Returns
    ``(parent, depth)``: ``depth[c]`` is -1 for unreached candidates, and
    ``parent[c]`` is -1 for the root and for unreached candidates."""
    m = len(weights)
    parent = [-1] * m
    depth = [-1] * m
    depth[root] = 0
    queue = [root]
    for u in queue:
        du = depth[u] + 1
        if max_depth is not None and du > max_depth:
            continue
        for v in compress(range(m), weights[u]):
            if depth[v] < 0:
                depth[v] = du
                parent[v] = u
                queue.append(v)
    return parent, depth


def is_necessary_winner_bruteforce(
    g: PartialTournament, w: int, rule: Rule, guard: int = DEFAULT_GUARD
) -> bool:
    """Ground truth by enumerating every completion of g."""
    return all(
        w in solutions.winners(rule, comp).winners
        for comp in enumerate_completions(g, guard)
    )
