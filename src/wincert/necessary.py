"""Necessary-winner checks on partial tournaments.

A candidate is a necessary winner when it belongs to the winner set of
every completion.  Each rule admits a polynomial characterization built
on the worst completion for the candidate; the brute-force check over
all completions is kept as the independent oracle the characterizations
are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import solutions
from .model import DEFAULT_GUARD, PartialTournament, Rule, enumerate_completions


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
    if rule is Rule.COP and g.n != 1:
        raise ValueError("cop score bounds need a 1-weighted tournament")
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


def is_necessary_winner(g: PartialTournament, w: int, rule: Rule) -> bool:
    """Rule-specific polynomial necessary-winner check.

    Every branch encodes the worst completion for w: w's undetermined
    comparisons are lost, each opponent's are won; for the path rules the
    undetermined pairs are oriented to keep w's reach from growing.
    These adversarial completions are jointly realizable per opponent,
    which the brute-force equivalence tests confirm.
    """
    return not failing_opponents(g, w, rule)


def failing_opponents(g: PartialTournament, w: int, rule: Rule) -> tuple[int, ...]:
    """Opponents that can keep w out of the winner set in some completion
    (empty iff w is a necessary winner)."""
    if not 0 <= w < g.m:
        raise ValueError(f"candidate index {w} out of range")
    spec = rule.spec
    if spec.unit_weights and g.n != 1:
        raise ValueError(f"rule {rule.value} needs a 1-weighted tournament, got n={g.n}")
    if g.m == 1:
        return ()
    if spec.kind == "path":
        depth = bfs_tree(g.weights, w, spec.depth)[1]
        return tuple(c for c in range(g.m) if depth[c] < 0)
    if spec.kind == "coverage":
        return _failing_wuc(g, w)
    if rule is Rule.MM:
        return _failing_mm(g, w)
    return tuple(mg.opponent for mg in score_margins(g, w, rule) if mg.delta < 0)


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


def _failing_mm(g: PartialTournament, w: int) -> tuple[int, ...]:
    m, n = g.m, g.n
    weights = g.weights
    # Worst case for w fixes its open comparisons as losses, so its
    # guaranteed maximin score is the smallest confirmed out-weight.
    w_floor = min(weights[w][c] for c in range(m) if c != w)
    return tuple(
        c
        for c in range(m)
        if c != w and w_floor < n - max(weights[x][c] for x in range(m) if x != c)
    )


def _failing_wuc(g: PartialTournament, w: int) -> tuple[int, ...]:
    m, n = g.m, g.n
    weights = g.weights
    majority = (n + 2) // 2  # ceil((n + 1) / 2): a strict majority in every completion
    failing = []
    for c in range(m):
        if c == w:
            continue
        if weights[w][c] >= majority:
            continue
        if any(
            weights[w][z] + weights[z][c] >= n + 1
            for z in range(m)
            if z != w and z != c
        ):
            continue
        failing.append(c)
    return tuple(failing)


def is_necessary_winner_bruteforce(
    g: PartialTournament, w: int, rule: Rule, guard: int = DEFAULT_GUARD
) -> bool:
    """Ground truth by enumerating every completion of g."""
    return all(
        w in solutions.winners(rule, comp).winners
        for comp in enumerate_completions(g, guard)
    )
