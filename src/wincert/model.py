"""Core data model: complete and partial n-weighted tournaments.

A partial n-weighted tournament assigns to every ordered candidate pair
(x, y) an integer weight mu(x, y), the number of voters confirmed to
prefer x over y, with mu(x, y) + mu(y, x) <= n.  A (complete) tournament
has equality for every pair.  All values are immutable after
construction; every operation here is a pure function, so the types are
safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

MAX_VOTERS = 2**31 - 1

#: Default cap on the number of completions an enumeration may visit.
#: Completion enumeration exists for verification at desk scale only.
DEFAULT_GUARD = 10**7


class TournamentFormatError(ValueError):
    """A tournament file is malformed.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IncompleteTournamentError(ValueError):
    """An operation that needs a complete tournament got a partial one."""


class GuardExceededError(RuntimeError):
    """An enumeration would exceed its configured guard.

    For necessary-winner questions, use the rule-specific check in
    :mod:`wincert.necessary` instead of brute-force enumeration.
    """


class SupportCompatibilityError(ValueError):
    """A claimed support does not fit under its base tournament."""


class Rule(Enum):
    """The six supported tournament solutions."""

    TC = "tc"
    UC = "uc"
    COP = "cop"
    BORDA = "borda"
    MM = "mm"
    WUC = "wuc"

    @classmethod
    def from_string(cls, name: str) -> "Rule":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(r.value for r in cls)
            raise ValueError(f"unknown rule {name!r} (expected one of: {valid})") from None

    @property
    def spec(self) -> "RuleSpec":
        return RULE_SPECS[self]

    @property
    def requires_unit_weights(self) -> bool:
        """TC, UC and Copeland are defined on 1-weighted tournaments only."""
        return self.spec.unit_weights


@dataclass(frozen=True)
class RuleSpec:
    """What every layer needs to know about a rule.

    ``kind`` is ``"path"`` (supports are shortest-path out-trees),
    ``"score"`` (maxwin neighbourhoods) or ``"coverage"`` (the weighted
    uncovered set's clause structures).  ``depth`` bounds the path
    length of a path rule (None: unbounded).  ``variant`` names the SMS
    construction and ``has_scores`` says whether winners carry a score
    table."""

    kind: str
    depth: int | None
    unit_weights: bool
    variant: str
    has_scores: bool


RULE_SPECS = {
    Rule.TC: RuleSpec("path", None, True, "shortest-paths", False),
    Rule.UC: RuleSpec("path", 2, True, "shortest-paths", False),
    Rule.COP: RuleSpec("score", None, True, "maxwin", True),
    Rule.BORDA: RuleSpec("score", None, False, "maxwin", True),
    Rule.MM: RuleSpec("score", None, False, "maxwin", True),
    Rule.WUC: RuleSpec("coverage", None, False, "exact", False),
}


def check_voters(rule: Rule, n: int) -> None:
    """Reject a voter count the rule is not defined on: TC, UC and
    Copeland need a 1-weighted tournament."""
    if rule.spec.unit_weights and n != 1:
        raise ValueError(f"rule {rule.value} is defined on 1-weighted tournaments, got n={n}")


@dataclass(frozen=True)
class CandidateSet:
    """Ordered candidate labels.  The given order is the canonical
    tie-breaking order used by every deterministic choice downstream."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("candidate set must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("candidate labels must be unique")
        for lab in self.labels:
            if not lab or any(ch.isspace() for ch in lab) or lab.startswith("#"):
                raise ValueError(f"invalid candidate label {lab!r}")
            if lab in ("voters", "candidates"):
                # A pair line starting with this label would read as a directive.
                raise ValueError(f"candidate label {lab!r} is a reserved word of the file format")

    @property
    def m(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown candidate label {label!r}") from None


@dataclass(frozen=True)
class PartialTournament:
    """A partial n-weighted tournament over an ordered candidate set.

    ``weights[i][j]`` is the confirmed weight of i over j.  Invariants:
    zero diagonal, weights in ``0..n``, and ``weights[i][j] +
    weights[j][i] <= n`` for every pair.
    """

    candidates: CandidateSet
    n: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.candidates.m
        if not 1 <= self.n <= MAX_VOTERS:
            raise ValueError(f"voter count must be in 1..{MAX_VOTERS}, got {self.n}")
        if len(self.weights) != m or any(len(row) != m for row in self.weights):
            raise ValueError("weight matrix shape does not match candidate count")
        for i in range(m):
            if self.weights[i][i] != 0:
                raise ValueError(f"self-comparison weight for {self.candidates.labels[i]!r} must be 0")
            for j in range(i + 1, m):
                wij, wji = self.weights[i][j], self.weights[j][i]
                if wij < 0 or wji < 0:
                    raise ValueError("weights must be non-negative")
                if wij + wji > self.n:
                    raise ValueError(
                        f"pair ({self.candidates.labels[i]}, {self.candidates.labels[j]}) "
                        f"sums to {wij + wji} > voters {self.n}"
                    )

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return self.candidates.m

    def mu(self, i: int, j: int) -> int:
        return self.weights[i][j]

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, weight) for every nonzero ordered pair, canonical order."""
        for i in range(self.m):
            row = self.weights[i]
            for j in range(self.m):
                if row[j]:
                    yield i, j, row[j]

    def slack(self, i: int, j: int) -> int:
        """Undetermined weight mass on the unordered pair {i, j}."""
        return self.n - self.weights[i][j] - self.weights[j][i]

    def is_complete(self) -> bool:
        m = self.m
        return all(
            self.weights[i][j] + self.weights[j][i] == self.n
            for i in range(m)
            for j in range(i + 1, m)
        )

    def support_size(self) -> int:
        """Total confirmed weight (the l1 size of the weight vector)."""
        return sum(sum(row) for row in self.weights)

    # -- construction helpers --------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        labels: Iterable[str],
        n: int,
        pairs: Mapping[tuple[str, str], int] | Iterable[tuple[str, str, int]] = (),
    ) -> "PartialTournament":
        """Build from labelled pairs; pairs not mentioned default to weight 0."""
        cands = CandidateSet(tuple(labels))
        matrix = [[0] * cands.m for _ in range(cands.m)]
        if isinstance(pairs, Mapping):
            items = [(x, y, w) for (x, y), w in pairs.items()]
        else:
            items = list(pairs)
        for x, y, w in items:
            matrix[cands.index(x)][cands.index(y)] = w
        return cls(cands, n, freeze_matrix(matrix))

    def replace_weights(self, matrix: list[list[int]]) -> "PartialTournament":
        """A new (possibly partial) tournament over the same candidates
        with the given weights."""
        return PartialTournament(self.candidates, self.n, freeze_matrix(matrix))

    def _trusted_subweighting(self, matrix: list[list[int]]) -> "PartialTournament":
        """Validation-free constructor for weights already known to sit
        below self's; enumeration hot paths only."""
        g = object.__new__(PartialTournament)
        object.__setattr__(g, "candidates", self.candidates)
        object.__setattr__(g, "n", self.n)
        object.__setattr__(g, "weights", freeze_matrix(matrix))
        return g

    def as_complete(self) -> "WeightedTournament":
        if isinstance(self, WeightedTournament):
            return self
        if not self.is_complete():
            raise IncompleteTournamentError("tournament is not complete: some pair sums fall short of n")
        return WeightedTournament(self.candidates, self.n, self.weights)


class WeightedTournament(PartialTournament):
    """A complete n-weighted tournament: every pair's weights sum to n."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_complete():
            raise IncompleteTournamentError("weighted tournament must be complete")

    @classmethod
    def from_rows(cls, labels: Iterable[str], n: int, rows: Iterable[Iterable[int]]) -> "WeightedTournament":
        return cls(CandidateSet(tuple(labels)), n, freeze_matrix([list(r) for r in rows]))


def freeze_matrix(matrix: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in matrix)


def extends(g: PartialTournament, h: PartialTournament) -> bool:
    """True iff h extends g: same candidates and voters, and h's weight
    dominates g's on every ordered pair."""
    _check_same_frame(g, h)
    return all(
        g.weights[i][j] <= h.weights[i][j] for i in range(g.m) for j in range(g.m)
    )


def _check_same_frame(g: PartialTournament, h: PartialTournament) -> None:
    if g.candidates != h.candidates:
        raise ValueError("mismatched candidate sets")
    if g.n != h.n:
        raise ValueError(f"mismatched voter counts ({g.n} vs {h.n})")


def completion_count(g: PartialTournament) -> int:
    """Number of completions of g (product of per-pair slack + 1)."""
    count = 1
    for i in range(g.m):
        for j in range(i + 1, g.m):
            count *= g.slack(i, j) + 1
    return count


def enumerate_completions(
    g: PartialTournament, guard: int = DEFAULT_GUARD
) -> Iterator[WeightedTournament]:
    """Yield every completion of g exactly once.

    Pairs are filled in canonical order; for each pair the extra weight
    granted to the lower-indexed candidate runs from 0 up to the slack.
    Raises :class:`GuardExceededError` when the completion count exceeds
    ``guard``; large instances should use the rule-specific
    necessary-winner checks instead.
    """
    count = completion_count(g)
    if count > guard:
        raise GuardExceededError(
            f"{count} completions exceed guard {guard}; "
            "use a rule-specific necessary-winner check instead"
        )
    m = g.m
    free_pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if g.slack(i, j) > 0]
    slacks = [g.slack(i, j) for i, j in free_pairs]
    base = [list(row) for row in g.weights]
    for extras in itertools.product(*(range(s + 1) for s in slacks)):
        matrix = [row[:] for row in base]
        for (i, j), s, extra in zip(free_pairs, slacks, extras):
            matrix[i][j] += extra
            matrix[j][i] += s - extra
        yield WeightedTournament(g.candidates, g.n, freeze_matrix(matrix))


@dataclass(frozen=True)
class Support:
    """A partial sub-tournament claimed (or verified) to certify that
    ``winner`` wins ``base`` under ``rule`` in every completion."""

    base: PartialTournament
    partial: PartialTournament
    rule: Rule
    winner: int

    def __post_init__(self):
        _check_same_frame(self.base, self.partial)
        if not 0 <= self.winner < self.base.m:
            raise ValueError(f"winner index {self.winner} out of range")
        for i in range(self.base.m):
            for j in range(self.base.m):
                if self.partial.weights[i][j] > self.base.weights[i][j]:
                    raise SupportCompatibilityError(
                        f"support weight on ({self.base.candidates.labels[i]}, "
                        f"{self.base.candidates.labels[j]}) exceeds the base tournament"
                    )

    @property
    def winner_label(self) -> str:
        return self.base.candidates.labels[self.winner]

    def size(self) -> int:
        return self.partial.support_size()

    @classmethod
    def _trusted(cls, base, partial, rule, winner) -> "Support":
        """Validation-free constructor for supports correct by
        construction (algorithm outputs on large instances)."""
        s = object.__new__(cls)
        object.__setattr__(s, "base", base)
        object.__setattr__(s, "partial", partial)
        object.__setattr__(s, "rule", rule)
        object.__setattr__(s, "winner", winner)
        return s


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# UTF-8, line based.  `#` begins a comment line; blank lines are ignored.
#   voters <n>                     optional, default 1; must precede pair lines
#   candidates <l1> <l2> ... <lm>  exactly once; order is canonical
#   <li> <lj> <w>                  at most one line per ordered pair, li != lj
#
# Serialization emits `voters`, `candidates`, then pair lines sorted by
# (source index, target index), omitting zero-weight pairs.  That byte
# layout is the interchange format.


def _ascii_int(token: str, signed: bool = False) -> int | None:
    """The value of a decimal token of ASCII digits (after one optional
    leading minus sign when ``signed``), or None.  Other Unicode digits,
    which ``str.isdigit`` accepts, are rejected, and so are tokens too
    long for ``int`` to convert."""
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:
        return None


def parse_tournament(text: str | bytes) -> PartialTournament:
    """Parse the line-based tournament format; see the module source for
    the grammar.  All violations raise :class:`TournamentFormatError`
    with the offending line number."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines before the bad byte, plus the (possibly empty) line it starts.
            line = len((text[: exc.start].decode("utf-8") + "x").splitlines())
            raise TournamentFormatError("file is not valid UTF-8", line) from None
    n: int | None = None
    cands: CandidateSet | None = None
    matrix: list[list[int]] | None = None
    seen_pairs: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "voters":
            if seen_pairs:
                raise TournamentFormatError("'voters' must precede pair lines", lineno)
            if n is not None:
                raise TournamentFormatError("duplicate 'voters' line", lineno)
            n = _ascii_int(tokens[1]) if len(tokens) == 2 else None
            if n is None:
                raise TournamentFormatError("expected 'voters <n>'", lineno)
            if not 1 <= n <= MAX_VOTERS:
                raise TournamentFormatError(f"voter count must be in 1..{MAX_VOTERS}", lineno)
        elif tokens[0] == "candidates":
            if cands is not None:
                raise TournamentFormatError("duplicate 'candidates' line", lineno)
            if len(tokens) < 2:
                raise TournamentFormatError("'candidates' line needs at least one label", lineno)
            try:
                cands = CandidateSet(tuple(tokens[1:]))
            except ValueError as exc:
                raise TournamentFormatError(str(exc), lineno) from None
            matrix = [[0] * cands.m for _ in range(cands.m)]
        else:
            if cands is None or matrix is None:
                raise TournamentFormatError("pair line before 'candidates' line", lineno)
            if len(tokens) != 3:
                raise TournamentFormatError(f"malformed line {line!r}; expected '<x> <y> <weight>'", lineno)
            x, y, w_str = tokens
            try:
                i, j = cands.index(x), cands.index(y)
            except ValueError as exc:
                raise TournamentFormatError(str(exc), lineno) from None
            if i == j:
                raise TournamentFormatError(f"self-comparison {x!r} vs itself", lineno)
            w = _ascii_int(w_str, signed=True)
            if w is None:
                raise TournamentFormatError(f"weight {w_str!r} is not an integer", lineno)
            n_eff = 1 if n is None else n
            if w < 0 or w > n_eff:
                raise TournamentFormatError(f"weight {w} outside 0..{n_eff}", lineno)
            if (i, j) in seen_pairs:
                raise TournamentFormatError(f"duplicate pair line for ({x}, {y})", lineno)
            seen_pairs.add((i, j))
            matrix[i][j] = w
            if matrix[i][j] + matrix[j][i] > n_eff:
                raise TournamentFormatError(
                    f"pair ({x}, {y}) weights sum to {matrix[i][j] + matrix[j][i]} > voters {n_eff}",
                    lineno,
                )

    if cands is None or matrix is None:
        raise TournamentFormatError("missing 'candidates' line")
    return PartialTournament(cands, 1 if n is None else n, freeze_matrix(matrix))


def serialize_tournament(g: PartialTournament) -> str:
    """Canonical serialization; ``parse_tournament`` round-trips it exactly."""
    lines = [f"voters {g.n}", "candidates " + " ".join(g.candidates.labels)]
    labels = g.candidates.labels
    for i, j, w in g.pairs():
        lines.append(f"{labels[i]} {labels[j]} {w}")
    return "\n".join(lines) + "\n"
