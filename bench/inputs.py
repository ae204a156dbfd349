"""Seeded benchmark inputs and reference answers, independent of wincert.

Everything here uses only the standard library, so no change to the
program can alter the inputs or the answers they are checked against.
Tournaments are weight matrices ``mu[i][j]`` (voters preferring i over j)
written out in wincert's canonical text format.
"""

from __future__ import annotations

import random


def labels_for(m: int) -> list[str]:
    if m <= 26:
        return [chr(ord("a") + i) for i in range(m)]
    return [f"c{i:03d}" for i in range(m)]


def random_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Complete n-weighted tournament: each pair splits uniformly in 0..n."""
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            wij = rng.randint(0, n)
            mat[i][j] = wij
            mat[j][i] = n - wij
    return mat


def canonical_text(labels: list[str], n: int, mat: list[list[int]]) -> str:
    """The canonical file layout: voters, candidates, then nonzero pair
    lines in (source, target) order."""
    lines = [f"voters {n}", "candidates " + " ".join(labels)]
    for i, row in enumerate(mat):
        for j, w in enumerate(row):
            if w:
                lines.append(f"{labels[i]} {labels[j]} {w}")
    return "\n".join(lines) + "\n"


def parse_canonical(text: str) -> tuple[list[str], int, list[list[int]]]:
    """Read back a tournament file in the subset of the format that
    canonical serialization emits (comments and blank lines skipped)."""
    n = 1
    labels: list[str] = []
    index: dict[str, int] = {}
    mat: list[list[int]] = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "voters":
            n = int(tokens[1])
        elif tokens[0] == "candidates":
            labels = tokens[1:]
            index = {lab: k for k, lab in enumerate(labels)}
            mat = [[0] * len(labels) for _ in labels]
        else:
            x, y, w = tokens
            mat[index[x]][index[y]] = int(w)
    return labels, n, mat


# ---------------------------------------------------------------------------
# Set-cover tournaments
# ---------------------------------------------------------------------------


def setcover_instance(
    rng: random.Random, p: int, q: int, smallest: int, largest: int
) -> list[frozenset[int]]:
    """q subsets of p elements, each of smallest..largest elements,
    resampled until their union is the universe."""
    while True:
        subsets = [
            frozenset(rng.sample(range(p), rng.randint(smallest, largest))) for _ in range(q)
        ]
        if set().union(*subsets) == set(range(p)):
            return subsets


def setcover_matrix(p: int, subsets: list[frozenset[int]]) -> list[list[int]]:
    """The 2-weighted reduction tournament documented at
    ``wincert.oracle.build_setcover_tournament``, rebuilt from its
    description: candidate 0 is the winner w, then p elements, then the
    subsets.  Elements sweep w, w sweeps subsets, a subset splits 1-1 with
    its own elements and loses 0-2 to the rest, all else splits 1-1."""
    q = len(subsets)
    m = 1 + p + q
    mat = [[0] * m for _ in range(m)]
    for a in range(1, m):
        for b in range(1, m):
            if a != b:
                mat[a][b] = 1
    for e in range(p):
        mat[1 + e][0] = 2
    for s in range(q):
        mat[0][1 + p + s] = 2
        for e in range(p):
            if e not in subsets[s]:
                mat[1 + e][1 + p + s] = 2
                mat[1 + p + s][1 + e] = 0
    return mat


def setcover_labels(p: int, q: int) -> list[str]:
    return ["w"] + [f"e{i + 1}" for i in range(p)] + [f"s{j + 1}" for j in range(q)]


def min_cover(p: int, subsets: list[frozenset[int]]) -> int:
    """Brute-force minimum cover size by iterative deepening, branching on
    the uncovered element held by the fewest subsets."""
    masks = [sum(1 << e for e in s) for s in subsets]
    holders = [[mk for mk in masks if mk >> e & 1] for e in range(p)]

    def coverable(uncovered: int, k: int) -> bool:
        if not uncovered:
            return True
        if k == 0:
            return False
        e = min(
            (e for e in range(p) if uncovered >> e & 1), key=lambda e: len(holders[e])
        )
        return any(coverable(uncovered & ~mk, k - 1) for mk in holders[e])

    full = (1 << p) - 1
    k = 1
    while not coverable(full, k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Reference winner sets
# ---------------------------------------------------------------------------


def top_cycle(mat: list[list[int]]) -> set[int]:
    """1-weighted top cycle from the score sequence (Landau): the smallest
    top-scoring prefix that beats everyone outside it."""
    m = len(mat)
    scores = [sum(row) for row in mat]
    order = sorted(range(m), key=lambda i: -scores[i])
    total = 0
    for k in range(1, m + 1):
        total += scores[order[k - 1]]
        if total == k * (k - 1) // 2 + k * (m - k):
            return set(order[:k])
    raise AssertionError("the whole candidate set is dominant")


def uncovered_set(mat: list[list[int]]) -> set[int]:
    """1-weighted uncovered set via the covering relation: y covers x when
    y beats x and beats everyone x beats."""
    m = len(mat)
    out = [sum(1 << j for j in range(m) if mat[i][j]) for i in range(m)]
    return {
        x
        for x in range(m)
        if not any(mat[y][x] and out[x] & ~out[y] == 0 for y in range(m))
    }


def score_winners(scores: list[int]) -> set[int]:
    best = max(scores)
    return {i for i, s in enumerate(scores) if s == best}


def copeland_scores(mat: list[list[int]]) -> list[int]:
    return [sum(1 for w in row if w) for row in mat]


def borda_scores(mat: list[list[int]]) -> list[int]:
    return [sum(row) for row in mat]


def maximin_scores(mat: list[list[int]]) -> list[int]:
    m = len(mat)
    return [min(mat[i][j] for j in range(m) if j != i) for i in range(m)]


def is_wuc_winner(mat: list[list[int]], y: int) -> bool:
    """y is in the weighted uncovered set unless some x does at least as
    well as y head-to-head and against every third candidate."""
    m = len(mat)
    for x in range(m):
        if x == y or mat[x][y] < mat[y][x]:
            continue
        if all(mat[x][z] >= mat[y][z] for z in range(m) if z != x and z != y):
            return False
    return True


def winner_set(rule: str, mat: list[list[int]]) -> set[int]:
    if rule == "tc":
        return top_cycle(mat)
    if rule == "uc":
        return uncovered_set(mat)
    if rule == "cop":
        return score_winners(copeland_scores(mat))
    if rule == "borda":
        return score_winners(borda_scores(mat))
    if rule == "mm":
        return score_winners(maximin_scores(mat))
    return {y for y in range(len(mat)) if is_wuc_winner(mat, y)}


def out_tree(mat: list[list[int]], root: int) -> list[tuple[int, int]]:
    """Breadth-first spanning out-tree of the beat graph from ``root``."""
    m = len(mat)
    seen = {root}
    frontier = [root]
    edges = []
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(m):
                if mat[u][v] and v not in seen:
                    seen.add(v)
                    edges.append((u, v))
                    nxt.append(v)
        frontier = nxt
    if len(seen) != m:
        raise ValueError("root does not reach every candidate")
    return edges
