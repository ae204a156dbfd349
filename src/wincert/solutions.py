"""Winner sets and scores of six tournament solutions on complete tournaments.

Path-based rules (top cycle, uncovered set, weighted uncovered set)
select candidates that reach every other candidate along suitable paths.
Myopic-score rules (Copeland, Borda, maximin) select candidates with a
maximal score.  Winner sets are returned in canonical candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import IncompleteTournamentError, Rule, WeightedTournament, check_voters


@dataclass(frozen=True)
class ScoreTable:
    rule: Rule
    scores: tuple[int, ...]


@dataclass(frozen=True)
class WinnerSet:
    rule: Rule
    winners: tuple[int, ...]

    def labels(self, t: WeightedTournament) -> tuple[str, ...]:
        return tuple(t.candidates.labels[i] for i in self.winners)


def _require_complete(t) -> None:
    if not t.is_complete():
        raise IncompleteTournamentError("winner computation needs a complete tournament")


def beat_masks(t: WeightedTournament) -> list[int]:
    """Bitmask adjacency rows for a 1-weighted tournament: bit j of row i
    is set iff i beats j."""
    masks = []
    for i in range(t.m):
        row = t.weights[i]
        mask = 0
        for j in range(t.m):
            if row[j]:
                mask |= 1 << j
        masks.append(mask)
    return masks


def top_cycle(t: WeightedTournament) -> WinnerSet:
    """The minimal dominant set: candidates reaching every other candidate
    via a directed path (the source strongly-connected component)."""
    _require_complete(t)
    check_voters(Rule.TC, t.n)
    m = t.m
    if m == 1:
        return WinnerSet(Rule.TC, (0,))
    masks = beat_masks(t)
    # Grow from a maximum-outdegree candidate: anyone who beats a member
    # of the top component belongs to it, and the fixpoint is dominant.
    start = max(range(m), key=lambda i: (masks[i].bit_count(), -i))
    members = 1 << start
    changed = True
    while changed:
        changed = False
        for j in range(m):
            if not (members >> j) & 1 and masks[j] & members:
                members |= 1 << j
                changed = True
    return WinnerSet(Rule.TC, tuple(i for i in range(m) if (members >> i) & 1))


def uncovered_set(t: WeightedTournament) -> WinnerSet:
    """Candidates reaching every other candidate in at most two steps."""
    _require_complete(t)
    check_voters(Rule.UC, t.n)
    m = t.m
    masks = beat_masks(t)
    winners = [i for i in range(m) if _two_step_mask(masks, i) == (1 << m) - 1]
    return WinnerSet(Rule.UC, tuple(winners))


def _two_step_mask(masks: list[int], i: int) -> int:
    mask = masks[i] | (1 << i)
    f = masks[i]
    while f:
        low = f & -f
        mask |= masks[low.bit_length() - 1]
        f ^= low
    return mask


def copeland(t: WeightedTournament) -> tuple[ScoreTable, WinnerSet]:
    """Copeland scores (out-degrees) and their argmax set."""
    _require_complete(t)
    check_voters(Rule.COP, t.n)
    scores = tuple(sum(1 for x in row if x) for row in t.weights)
    return ScoreTable(Rule.COP, scores), _argmax_set(Rule.COP, scores)


def borda(t: WeightedTournament) -> tuple[ScoreTable, WinnerSet]:
    """Borda scores (row sums of the weight matrix) and their argmax set."""
    _require_complete(t)
    scores = tuple(sum(row) for row in t.weights)
    return ScoreTable(Rule.BORDA, scores), _argmax_set(Rule.BORDA, scores)


def maximin(t: WeightedTournament) -> tuple[ScoreTable, WinnerSet]:
    """Maximin scores (worst head-to-head performance) and their argmax set.

    With a single candidate the empty minimum is taken to be n."""
    _require_complete(t)
    m = t.m
    scores = tuple(
        min((t.weights[i][j] for j in range(m) if j != i), default=t.n) for i in range(m)
    )
    return ScoreTable(Rule.MM, scores), _argmax_set(Rule.MM, scores)


def _argmax_set(rule: Rule, scores: tuple[int, ...]) -> WinnerSet:
    best = max(scores)
    return WinnerSet(rule, tuple(i for i, s in enumerate(scores) if s == best))


def weighted_uncovered_set(t: WeightedTournament) -> WinnerSet:
    """Candidates that reach every other candidate via a one-step majority
    win or a two-step weight advantage.

    Candidate y reaches x when mu(y, x) > mu(x, y), or some intermediate z
    has mu(y, z) > mu(x, z).  This path form is the canonical
    implementation; :func:`wincert.oracle.weighted_uncovered_set_by_covering`
    is its independently coded dual.  On a 1-weighted tournament it coincides
    with the uncovered set.  Degenerate even-n tournaments in which two
    candidates are tied on every coordinate can leave the set empty.
    """
    _require_complete(t)
    m = t.m
    w = t.weights
    winners = []
    for y in range(m):
        if all(_wuc_reaches(w, m, y, x) for x in range(m) if x != y):
            winners.append(y)
    return WinnerSet(Rule.WUC, tuple(winners))


def _wuc_reaches(w, m: int, y: int, x: int) -> bool:
    if w[y][x] > w[x][y]:
        return True
    return any(w[y][z] > w[x][z] for z in range(m) if z != x and z != y)


def is_wuc_winner(t: WeightedTournament, w: int) -> bool:
    _require_complete(t)
    return all(_wuc_reaches(t.weights, t.m, w, x) for x in range(t.m) if x != w)


_SOLVERS = {
    Rule.TC: top_cycle,
    Rule.UC: uncovered_set,
    Rule.COP: copeland,
    Rule.BORDA: borda,
    Rule.MM: maximin,
    Rule.WUC: weighted_uncovered_set,
}


def winners(rule: Rule, t: WeightedTournament) -> WinnerSet:
    """Winner set of ``rule`` on a complete tournament."""
    out = _SOLVERS[rule](t)
    return out[1] if rule.spec.has_scores else out


def score_table(rule: Rule, t: WeightedTournament) -> ScoreTable:
    if not rule.spec.has_scores:
        raise ValueError(f"rule {rule.value} has no score table")
    return _SOLVERS[rule](t)[0]
