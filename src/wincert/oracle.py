"""Brute-force ground truth and instance generators, at desk scale.

Everything here exists to check the production algorithms: exhaustive
enumeration of minimal supports, true smallest-support sizes, an
independently coded weighted uncovered set, a set-cover-to-tournament
builder whose optimum is known, and seeded random tournaments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from . import necessary
from .model import (
    DEFAULT_GUARD,
    GuardExceededError,
    PartialTournament,
    Rule,
    Support,
    WeightedTournament,
    freeze_matrix,
)
from .solutions import WinnerSet

NwCheck = Callable[[PartialTournament, int, Rule], bool]


def _subweighting_count(t: PartialTournament) -> int:
    count = 1
    for _, _, w in t.pairs():
        count *= w + 1
    return count


def _iter_subweightings(t: PartialTournament, guard: int) -> Iterator[list[list[int]]]:
    """All weight matrices dominated by t, pairs in canonical order with
    weights descending, so the stream is reproducible."""
    count = _subweighting_count(t)
    if count > guard:
        raise GuardExceededError(f"{count} sub-weightings exceed guard {guard}")
    positive = [(i, j, w) for i, j, w in t.pairs()]
    m = t.m
    for choice in itertools.product(*(range(w, -1, -1) for _, _, w in positive)):
        matrix = [[0] * m for _ in range(m)]
        for (i, j, _), value in zip(positive, choice):
            matrix[i][j] = value
        yield matrix


def _is_minimal(
    g: PartialTournament, w: int, rule: Rule, nw: NwCheck
) -> bool:
    # Necessity is monotone under extension, so removing single units
    # covers all strict sub-tournaments: any proper subset sits below
    # some one-unit removal.
    matrix = [list(row) for row in g.weights]
    for i, j, _ in g.pairs():
        matrix[i][j] -= 1
        smaller = g._trusted_subweighting(matrix)
        matrix[i][j] += 1
        if nw(smaller, w, rule):
            return False
    return True


def enumerate_minimal_supports(
    t: WeightedTournament,
    w: int,
    rule: Rule,
    guard: int = DEFAULT_GUARD,
    nw: NwCheck = necessary.is_necessary_winner,
) -> Iterator[Support]:
    """Yield every minimal support for w under rule, by exhaustive search.

    ``nw`` selects the necessary-winner engine; pass
    :func:`wincert.necessary.is_necessary_winner_bruteforce` for a check
    that is independent of the rule characterizations.
    """
    for matrix in _iter_subweightings(t, guard):
        g = t._trusted_subweighting(matrix)
        if nw(g, w, rule) and _is_minimal(g, w, rule, nw):
            yield Support(base=t, partial=t.replace_weights(matrix), rule=rule, winner=w)


def oracle_sms_size(
    t: WeightedTournament,
    w: int,
    rule: Rule,
    guard: int = DEFAULT_GUARD,
    nw: NwCheck = necessary.is_necessary_winner,
) -> int:
    """True smallest-support size: the minimum over all certifying
    sub-weightings (a smallest certifying one is automatically minimal)."""
    best: int | None = None
    for matrix in _iter_subweightings(t, guard):
        size = sum(map(sum, matrix))
        if best is not None and size >= best:
            continue
        g = t._trusted_subweighting(matrix)
        if nw(g, w, rule):
            best = size
    if best is None:
        raise ValueError(
            f"{t.candidates.labels[w]} is not a necessary winner of the full tournament"
        )
    return best


def enumerate_smallest_supports(
    t: WeightedTournament,
    w: int,
    rule: Rule,
    guard: int = DEFAULT_GUARD,
    nw: NwCheck = necessary.is_necessary_winner,
) -> list[Support]:
    """All minimal supports of minimum size."""
    smallest = oracle_sms_size(t, w, rule, guard, nw)
    return [
        s
        for s in enumerate_minimal_supports(t, w, rule, guard, nw)
        if s.size() == smallest
    ]


def weighted_uncovered_set_by_covering(t: WeightedTournament) -> WinnerSet:
    """Dual implementation via the covering relation, used as a test oracle.

    x weighted-covers y when x does at least as well as y in their
    head-to-head and against every third candidate."""
    t = t.as_complete()
    m = t.m
    w = t.weights
    winners = []
    for y in range(m):
        covered = False
        for x in range(m):
            if x == y:
                continue
            if w[x][y] >= w[y][x] and all(
                w[x][z] >= w[y][z] for z in range(m) if z != x and z != y
            ):
                covered = True
                break
        if not covered:
            winners.append(y)
    return WinnerSet(Rule.WUC, tuple(winners))


# ---------------------------------------------------------------------------
# Set-cover tournaments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetCoverInstance:
    """A set-cover instance: a universe of p elements (0..p-1) and q
    subsets whose union is the universe; no subset may be the whole
    universe."""

    n_elements: int
    subsets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n_elements < 1 or not self.subsets:
            raise ValueError("need at least one element and one subset")
        universe = set(range(self.n_elements))
        for s in self.subsets:
            if not s <= universe:
                raise ValueError("subset contains unknown elements")
            if s == universe:
                raise ValueError("no subset may equal the universe")
        if set().union(*self.subsets) != universe:
            raise ValueError("subsets do not cover the universe")


def min_set_cover(inst: SetCoverInstance) -> int:
    """Brute-force minimum cover size."""
    universe = set(range(inst.n_elements))
    for k in range(1, len(inst.subsets) + 1):
        for combo in itertools.combinations(inst.subsets, k):
            if set().union(*combo) == universe:
                return k
    raise AssertionError("instance invariant guarantees a cover")


def build_setcover_tournament(inst: SetCoverInstance) -> tuple[WeightedTournament, int]:
    """The 2-weighted tournament whose smallest support size for the
    weighted uncovered set equals p + q + (minimum cover size).

    Candidates: the designated winner w, one candidate per element, one
    per subset.  w sweeps every subset candidate 2-0 and loses 0-2 to
    every element candidate; a subset splits 1-1 with the elements it
    contains and loses 0-2 to the others; element-element and
    subset-subset pairs all split 1-1.  w is in the weighted uncovered
    set by construction, certified only through subset intermediates.
    """
    p, q = inst.n_elements, len(inst.subsets)
    labels = ["w"] + [f"e{i + 1}" for i in range(p)] + [f"s{j + 1}" for j in range(q)]
    m = 1 + p + q
    mat = [[0] * m for _ in range(m)]

    def elem(i: int) -> int:
        return 1 + i

    def sub(j: int) -> int:
        return 1 + p + j

    for i in range(p):
        mat[elem(i)][0] = 2  # elements sweep w
    for j in range(q):
        mat[0][sub(j)] = 2  # w sweeps subsets
    for i in range(p):
        for i2 in range(i + 1, p):
            mat[elem(i)][elem(i2)] = mat[elem(i2)][elem(i)] = 1
    for j in range(q):
        for j2 in range(j + 1, q):
            mat[sub(j)][sub(j2)] = mat[sub(j2)][sub(j)] = 1
    for i in range(p):
        for j in range(q):
            if i in inst.subsets[j]:
                mat[elem(i)][sub(j)] = 1
                mat[sub(j)][elem(i)] = 1
            else:
                mat[elem(i)][sub(j)] = 2
                mat[sub(j)][elem(i)] = 0
    t = WeightedTournament.from_rows(labels, 2, mat)
    return t, 0


def random_setcover_instance(p: int, q: int, seed: int) -> SetCoverInstance:
    """A seeded valid instance with p elements and q subsets."""
    if p < 2:
        raise ValueError("need at least 2 elements: a 1-element instance has no proper subsets")
    if q < 2:
        raise ValueError("need at least 2 subsets: one proper subset cannot cover the universe")
    rng = random.Random(seed)
    universe = list(range(p))
    while True:
        subsets = []
        for _ in range(q):
            size = rng.randint(1, max(1, p - 1))
            subsets.append(frozenset(rng.sample(universe, size)))
        covered = set().union(*subsets)
        missing = set(universe) - covered
        if missing:
            continue  # resample rather than repair, to stay uniform-ish
        try:
            return SetCoverInstance(p, tuple(subsets))
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# Random tournaments
# ---------------------------------------------------------------------------


def _default_labels(m: int) -> list[str]:
    if m <= 26:
        return [chr(ord("a") + i) for i in range(m)]
    width = len(str(m - 1))
    return [f"c{i:0{width}d}" for i in range(m)]


def random_tournament(m: int, n: int, seed: int) -> WeightedTournament:
    """Deterministic pseudo-random complete n-weighted tournament.

    Each unordered pair gets a uniform split: mu(x, y) ~ U{0..n}."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = random.Random(seed)
    mat = [[0] * m for _ in range(m)]
    if n == 1:
        # One random bit per pair, drawn in bulk so large m stays cheap.
        n_pairs = m * (m - 1) // 2
        data = rng.randbytes((n_pairs + 7) // 8) if n_pairs else b""
        k = 0
        for i in range(m):
            for j in range(i + 1, m):
                if (data[k >> 3] >> (k & 7)) & 1:
                    mat[i][j] = 1
                else:
                    mat[j][i] = 1
                k += 1
    else:
        for i in range(m):
            for j in range(i + 1, m):
                wij = rng.randint(0, n)
                mat[i][j] = wij
                mat[j][i] = n - wij
    return WeightedTournament.from_rows(_default_labels(m), n, mat)


def random_partial_tournament(
    m: int, n: int, seed: int, max_open_pairs: int | None = None
) -> PartialTournament:
    """Seeded partial tournament; each pair keeps a random share of its
    mass undetermined.  ``max_open_pairs`` caps the number of pairs with
    slack so completion enumeration stays cheap."""
    rng = random.Random(seed)
    complete = random_tournament(m, n, rng.randrange(2**30))
    mat = [list(row) for row in complete.weights]
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rng.shuffle(pairs)
    open_budget = len(pairs) if max_open_pairs is None else max_open_pairs
    for idx, (i, j) in enumerate(pairs):
        if idx >= open_budget or rng.random() < 0.25:
            continue  # keep the pair fully determined
        drop_i = rng.randint(0, mat[i][j])
        drop_j = rng.randint(0, mat[j][i])
        mat[i][j] -= drop_i
        mat[j][i] -= drop_j
    return PartialTournament(complete.candidates, n, freeze_matrix(mat))
