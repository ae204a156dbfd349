"""Smallest minimal supports (SMS) for the six tournament solutions.

A minimal support is a partial sub-tournament under which the designated
candidate is a necessary winner, and which loses that property when any
single weight unit is removed.  Top cycle, uncovered set, Copeland,
Borda and maximin admit polynomial constructions; the weighted uncovered
set requires exact search (the decision problem is NP-complete), done
here by branch and bound over certificate structures.

All tie-breaking is by canonical candidate order (lowest index first):
BFS queue order, the choice of intermediates, and the order margins are
drained.  Outputs are therefore byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import necessary, solutions
from .model import PartialTournament, Rule, Support, WeightedTournament, check_voters

DEFAULT_WUC_BUDGET = 10**6


class NotAWinnerError(ValueError):
    """Supports are only defined for winning candidates."""

    def __init__(self, rule: Rule, label: str, winner_labels: tuple[str, ...]):
        super().__init__(
            f"{label} is not a {rule.value} winner; actual winners: {' '.join(winner_labels)}"
        )
        self.rule = rule
        self.label = label
        self.winner_labels = winner_labels


@dataclass(frozen=True)
class SmsResult:
    """A computed smallest minimal support.

    ``win_count`` is the total weight the winner itself records in the
    support.  ``optimal`` is False only when the exact search for the
    weighted uncovered set ran out of budget; ``lower_bound`` then holds
    the best size bound proven before exhaustion.
    """

    support: Support
    size: int
    variant: str
    win_count: int
    optimal: bool = True
    lower_bound: int | None = None


def _result(t, w, rule, matrix, optimal=True, lower_bound=None) -> SmsResult:
    partial = t._trusted_subweighting(matrix)
    support = Support._trusted(t, partial, rule, w)
    return SmsResult(
        support=support,
        size=partial.support_size(),
        variant=rule.spec.variant,
        win_count=sum(partial.weights[w]),
        optimal=optimal,
        lower_bound=lower_bound,
    )


def _complete_for(t: WeightedTournament, rule: Rule) -> WeightedTournament:
    t = t.as_complete()
    check_voters(rule, t.n)
    return t


def _check_winner(t: WeightedTournament, w: int, rule: Rule, member: bool) -> None:
    if not 0 <= w < t.m:
        raise ValueError(f"candidate index {w} out of range")
    if not member:
        actual = solutions.winners(rule, t)
        raise NotAWinnerError(rule, t.candidates.labels[w], actual.labels(t))


# ---------------------------------------------------------------------------
# Path rules: shortest-paths supports
# ---------------------------------------------------------------------------


def sms_tc(t: WeightedTournament, w: int) -> SmsResult:
    """Shortest-paths SMS for the top cycle: the BFS tree rooted at w.

    Every minimal support is a w-rooted out-tree with m - 1 edges; the
    BFS tree additionally realizes shortest distances, with canonical
    tie-breaking."""
    return _tree_sms(t, w, Rule.TC)


def sms_uc(t: WeightedTournament, w: int) -> SmsResult:
    """Shortest-paths SMS for the uncovered set: a depth <= 2 out-tree.

    Depth-1 children are the candidates w beats; every other candidate
    hangs off the canonically first intermediate that reaches it."""
    return _tree_sms(t, w, Rule.UC)


def _tree_sms(t: WeightedTournament, w: int, rule: Rule) -> SmsResult:
    t = _complete_for(t, rule)
    if not 0 <= w < t.m:
        raise ValueError(f"candidate index {w} out of range")
    parent, depth = necessary.bfs_tree(t.weights, w, rule.spec.depth)
    # The BFS doubles as the membership test: w wins iff it reaches
    # everyone (within two steps for the uncovered set).
    _check_winner(t, w, rule, min(depth) >= 0)
    matrix = [[0] * t.m for _ in range(t.m)]
    for child, p in enumerate(parent):
        if p >= 0:
            matrix[p][child] = 1
    return _result(t, w, rule, matrix)


# ---------------------------------------------------------------------------
# Myopic-score rules: maxwin supports
# ---------------------------------------------------------------------------


def sms_cop(t: WeightedTournament, w: int) -> SmsResult:
    """Maxwin-SMS for Copeland: for a Condorcet winner, the star of its
    wins; otherwise all of w's out-edges plus, per opponent, recorded
    losses until each opponent has m - 1 - sigma_w of them."""
    return _maxwin_sms(t, w, Rule.COP)


def sms_borda(t: WeightedTournament, w: int) -> SmsResult:
    """Maxwin-SMS for Borda.

    When some opponent could still out-score w on w's wins alone, keep
    every win of w and pad each opponent's recorded losses up to
    n(m-1) - sigma_w.  Otherwise w's wins alone over-certify: trim them
    to total n(m-1) - min(floor(n(m-1)/m), min-out-weight), never letting
    a pair drop below that minimum, draining canonically."""
    return _maxwin_sms(t, w, Rule.BORDA)


def _maxwin_sms(t: WeightedTournament, w: int, rule: Rule) -> SmsResult:
    t = _complete_for(t, rule)
    _check_winner(t, w, rule, w in solutions.winners(rule, t).winners)
    return _result(t, w, rule, _score_support_matrix(t, w))


def _score_support_matrix(t: WeightedTournament, w: int) -> list[list[int]]:
    m, n = t.m, t.n
    mu = t.weights
    matrix = [[0] * m for _ in range(m)]
    if m == 1:
        return matrix
    sigma_w = sum(mu[w])
    min_out = min(mu[w][c] for c in range(m) if c != w)
    required = n * (m - 1) - sigma_w  # loss mass every opponent must show
    for c in range(m):
        if c != w:
            matrix[w][c] = mu[w][c]
    if min_out < required:
        # Pad opponents' in-weights, canonical source order, up to the bar.
        for c in range(m):
            if c == w:
                continue
            need = required - mu[w][c]
            for b in range(m):
                if need <= 0:
                    break
                if b == w or b == c:
                    continue
                take = min(need, mu[b][c])
                matrix[b][c] = take
                need -= take
            assert need <= 0, "complete tournament always has enough loss mass"
    else:
        # Trim w's wins to the smallest self-certifying total.
        floor = min(n * (m - 1) // m, min_out)
        remove = sigma_w - (n * (m - 1) - floor)
        for c in range(m):
            if remove <= 0:
                break
            if c == w:
                continue
            take = min(remove, matrix[w][c] - floor)
            matrix[w][c] -= take
            remove -= take
    return matrix


def sms_mm(t: WeightedTournament, w: int) -> SmsResult:
    """Maxwin-SMS for maximin with guarantee level t = min(sigma_w, n // 2).

    An opponent w beats with weight at least n - t gets that single
    pinned edge; every other opponent gets w's floor t plus one recorded
    loss of n - t from the canonically first source heavy enough."""
    t = t.as_complete()
    score_table, winner_set = solutions.maximin(t)
    _check_winner(t, w, Rule.MM, w in winner_set.winners)
    m, n = t.m, t.n
    mu = t.weights
    matrix = [[0] * m for _ in range(m)]
    if m == 1:
        return _result(t, w, Rule.MM, matrix)
    level = min(score_table.scores[w], n // 2)
    heavy = n - level
    for c in range(m):
        if c == w:
            continue
        if mu[w][c] >= heavy:
            matrix[w][c] = heavy
        else:
            matrix[w][c] = level
            for b in range(m):
                if b != w and b != c and mu[b][c] >= heavy:
                    matrix[b][c] = heavy
                    break
            else:
                raise AssertionError("a maximin winner always has a heavy source per light opponent")
    return _result(t, w, Rule.MM, matrix)


# ---------------------------------------------------------------------------
# Weighted uncovered set: exact branch and bound
# ---------------------------------------------------------------------------
#
# A support must give every opponent c one clause that survives every
# completion: a direct edge mu_X(w, c) >= ceil((n+1)/2), or one
# intermediate b with mu_X(w, b) + mu_X(b, c) >= n + 1.  Subset
# minimality pins the shape: a candidate carries a w-edge only as its own
# direct clause (exactly the majority threshold) or as a hub level whose
# clients' edges are all tight at n + 1 minus that level.  The search
# assigns each opponent a mode (direct, or client of a hub) and prices
# hub levels at their cheapest: maximal weight for hubs that are
# themselves direct, just below majority for hubs covered by another
# intermediate ("weak hubs", which weight caps can force).
#
# Tree-shaped optima (all hubs direct) are preferred among equal-size
# solutions: a first pass searches trees only, and the general pass must
# improve strictly.


class _BudgetExhausted(Exception):
    pass


class _WucSearch:
    def __init__(self, t: WeightedTournament, w: int, budget: int):
        self.t = t
        self.w = w
        self.m = t.m
        self.n = t.n
        self.mu = t.weights
        self.h = (t.n + 2) // 2
        self.opponents = [c for c in range(t.m) if c != w]
        self.budget = budget
        self.nodes = 0
        self.best_cost: int | None = None
        self.best_modes: dict[int, object] | None = None
        self.load({})
        self.own_lb = {c: self._own_lower_bound(c) for c in self.opponents}

    def load(self, modes: dict[int, object]) -> None:
        """Make ``modes`` the current assignment; the client lists are
        derived from it here and kept in step by ``_assign``."""
        self.modes = modes
        self.clients: dict[int, list[int]] = {c: [] for c in self.opponents}
        for c, mode in modes.items():
            if mode != "direct":
                self.clients[mode].append(c)

    def _own_lower_bound(self, c: int) -> int:
        mu, n, w = self.mu, self.n, self.w
        options = []
        if mu[w][c] >= self.h:
            options.append(self.h)
        for x in self.opponents:
            if x != c and mu[w][x] >= 1 and mu[w][x] + mu[x][c] >= n + 1:
                options.append(n + 1 - mu[w][x])
        return min(options) if options else 0

    def root_lower_bound(self) -> int:
        bound = sum(self.own_lb.values())
        if self.m >= 3 and self.n >= 2:
            bound = max(bound, self.n + self.m - 2)
        return bound

    def _hub_level(self, x: int, modes: dict[int, object]) -> int:
        if modes.get(x) == "direct":
            return self.mu[self.w][x] if self.clients[x] else self.h
        if self.clients[x]:
            return min(self.mu[self.w][x], self.h - 1)
        return 0

    def _cost(self, modes: dict[int, object], optimistic: bool) -> int:
        cost = 0
        for x in self.opponents:
            k = len(self.clients[x])
            assigned = x in modes
            if k:
                if assigned:
                    level = self._hub_level(x, modes)
                elif optimistic:
                    level = self.mu[self.w][x]
                else:
                    raise AssertionError("exact cost needs a full assignment")
                cost += level + k * (self.n + 1 - level)
            elif modes.get(x) == "direct":
                cost += self.h
            elif optimistic and not assigned:
                cost += self.own_lb[x]
        return cost

    def _attach_ok(self, hub: int, client: int, hub_mode) -> bool:
        mu, n = self.mu, self.n
        if mu[self.w][hub] < 1 or mu[self.w][hub] + mu[hub][client] < n + 1:
            return False
        if hub_mode is not None and hub_mode != "direct":
            # Weak hub: its level is capped just below the majority bar.
            level = min(mu[self.w][hub], self.h - 1)
            if level + mu[hub][client] < n + 1:
                return False
        return True

    def search(self, tree_only: bool, incumbent: int | None) -> None:
        self.load({})
        self.best_cost = incumbent
        self.best_modes = None
        self._assign(0, tree_only)

    def _assign(self, idx: int, tree_only: bool) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetExhausted
        if self.best_cost is not None and self._cost(self.modes, optimistic=True) >= self.best_cost:
            return
        if idx == len(self.opponents):
            cost = self._cost(self.modes, optimistic=False)
            if self.best_cost is None or cost < self.best_cost:
                self.best_cost = cost
                self.best_modes = dict(self.modes)
            return
        c = self.opponents[idx]
        hub_duty = bool(self.clients[c])
        # Direct first, then hubs in canonical order: the first optimum
        # found is the lexicographically preferred one.
        if self.mu[self.w][c] >= self.h:
            self.modes[c] = "direct"
            self._assign(idx + 1, tree_only)
            del self.modes[c]
        if tree_only and hub_duty:
            return  # in a tree every hub is direct
        for x in self.opponents:
            if x == c or not self._attach_ok(x, c, self.modes.get(x)):
                continue
            if tree_only and self.mu[self.w][x] < self.h:
                continue  # hub must be able to go direct
            if hub_duty:
                # c becomes a weak hub; its existing clients must still fit
                # under the lowered level.
                level = min(self.mu[self.w][c], self.h - 1)
                if level < 1 or any(
                    level + self.mu[c][cl] < self.n + 1 for cl in self.clients[c]
                ):
                    continue
            self.modes[c] = x
            self.clients[x].append(c)
            self._assign(idx + 1, tree_only)
            self.clients[x].pop()
            del self.modes[c]

    def matrix_for(self, modes: dict[int, object]) -> list[list[int]]:
        matrix = [[0] * self.m for _ in range(self.m)]
        for x in self.opponents:
            level = self._hub_level(x, modes)
            if level:
                matrix[self.w][x] = level
        for c, mode in modes.items():
            if mode != "direct":
                hub = mode
                matrix[hub][c] = self.n + 1 - self._hub_level(hub, modes)
        return matrix

    def witness_modes(self) -> dict[int, object]:
        """A valid assignment straight from w's membership witnesses."""
        modes: dict[int, object] = {}
        for c in self.opponents:
            if self.mu[self.w][c] >= self.h:
                modes[c] = "direct"
            else:
                for x in self.opponents:
                    if x != c and self.mu[self.w][x] + self.mu[x][c] >= self.n + 1:
                        modes[c] = x
                        break
                else:
                    raise AssertionError("membership guarantees a witness per opponent")
        return modes


def sms_wuc_exact(
    t: WeightedTournament, w: int, budget: int = DEFAULT_WUC_BUDGET
) -> SmsResult:
    """Exact-minimum SMS for the weighted uncovered set.

    Branch and bound over certificate structures with lower-bound
    pruning.  If the node budget runs out, the best support found so far
    is returned with ``optimal=False`` and the proven ``lower_bound``.
    """
    t = t.as_complete()
    _check_winner(t, w, Rule.WUC, solutions.is_wuc_winner(t, w))
    if t.m == 1:
        return _result(t, w, Rule.WUC, [[0]])

    search = _WucSearch(t, w, budget)
    best_modes = search.witness_modes()
    search.load(best_modes)
    best_cost = search._cost(best_modes, optimistic=False)
    exhausted = False
    try:
        search.search(tree_only=True, incumbent=None)
        if search.best_modes is not None and search.best_cost <= best_cost:
            best_modes, best_cost = search.best_modes, search.best_cost
        search.search(tree_only=False, incumbent=best_cost)
        if search.best_modes is not None and search.best_cost < best_cost:
            best_modes, best_cost = search.best_modes, search.best_cost
    except _BudgetExhausted:
        exhausted = True
        if search.best_modes is not None and search.best_cost < best_cost:
            best_modes, best_cost = search.best_modes, search.best_cost

    search.load(best_modes)
    matrix = search.matrix_for(best_modes)
    return _result(
        t,
        w,
        Rule.WUC,
        matrix,
        optimal=not exhausted,
        lower_bound=search.root_lower_bound() if exhausted else None,
    )


# ---------------------------------------------------------------------------
# Closed-form sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeFormulaInput:
    """Inputs to the closed-form SMS sizes.

    ``sigma_w`` is the winner's score under the rule.  ``min_out`` is the
    winner's weakest out-weight and ``k`` counts opponents beaten with
    weight at least n - min(sigma_w, n // 2) (maximin only).  For Borda,
    passing the full ``out_weights`` multiset makes the formula exact in
    the regime where the winner's strongest win exceeds the per-opponent
    loss bar; without it the classical two-branch expression is used.
    """

    rule: Rule
    n: int
    m: int
    sigma_w: int | None = None
    min_out: int | None = None
    k: int | None = None
    out_weights: tuple[int, ...] | None = None


def sms_size_formula(spec: SizeFormulaInput) -> int | tuple[int, int]:
    """Closed-form SMS size (TC/UC/COP/BORDA/MM) or the proven size
    interval (WUC)."""
    n, m, rule = spec.n, spec.m, spec.rule
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m == 1:
        return (0, 0) if rule is Rule.WUC else 0
    if rule.spec.kind == "path":
        return m - 1
    if rule is Rule.WUC:
        if m < 3:
            raise ValueError("the wuc size interval assumes at least 3 candidates")
        return (n + m - 2, (n + 1) * (m - 1))
    if rule is Rule.COP:
        sigma = _require_field(spec.sigma_w, "sigma_w")
        if not 0 <= sigma <= m - 1:
            raise ValueError(f"cop score {sigma} outside 0..{m - 1}")
        return m - 1 if sigma == m - 1 else (m - 1) * (m - 1 - sigma)
    if rule is Rule.MM:
        sigma = _require_field(spec.sigma_w, "sigma_w")
        k = _require_field(spec.k, "k")
        if not 0 <= sigma <= n:
            raise ValueError(f"maximin score {sigma} outside 0..{n}")
        if not 0 <= k <= m - 1:
            raise ValueError(f"k={k} outside 0..{m - 1}")
        level = min(sigma, n // 2)
        return n * (m - 1) - level * k
    # Borda
    if spec.out_weights is not None:
        outs = spec.out_weights
        if len(outs) != m - 1 or any(not 0 <= x <= n for x in outs):
            raise ValueError("out_weights must list the winner's m-1 out-weights in 0..n")
        sigma = sum(outs)
        if spec.sigma_w is not None and spec.sigma_w != sigma:
            raise ValueError("sigma_w inconsistent with out_weights")
        min_out = min(outs)
    else:
        sigma = _require_field(spec.sigma_w, "sigma_w")
        min_out = _require_field(spec.min_out, "min_out")
        outs = None
    if sigma > n * (m - 1) or not 0 <= min_out <= n:
        raise ValueError("inconsistent borda inputs")
    required = n * (m - 1) - sigma
    if min_out < required:
        if outs is not None:
            return sum(max(x, required) for x in outs)
        return (m - 1) * required
    return n * (m - 1) - min(n * (m - 1) // m, min_out)


def _require_field(value: int | None, name: str) -> int:
    if value is None:
        raise ValueError(f"missing required field {name}")
    return value


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportVerdict:
    """Outcome of verifying a claimed minimal support.

    ``kind`` is one of ``valid-MS``, ``not-necessary``, ``not-minimal``.
    For ``not-necessary`` the witness names an opponent that can still
    overtake the claimed winner in some completion; for ``not-minimal``
    it names a removable unit as an ordered label pair.
    """

    kind: str
    witness: tuple[str, ...] | None = None


def verify_support(t: PartialTournament, claim: Support) -> SupportVerdict:
    """Check both clauses of minimal-support-hood against t.

    (a) the claimed winner must be a necessary winner of the claimed
    partial, and (b) removing any single unit must break that.  Removal
    covers all strict sub-tournaments because necessity is monotone
    under extension.

    Both clauses read one pass of the rule's characterization
    (:func:`wincert.necessary.characterize`), so its aggregates are
    built once per call and the check costs about O(m²).  Clause (a)
    names the first opponent that can beat the winner.  Clause (b)
    re-checks each unit only against the clauses it takes part in;
    pairs are decided in canonical order and the first removable one is
    the witness, so it is the pair a unit-by-unit re-run would report.
    """
    if claim.base.candidates != t.candidates or claim.base.n != t.n:
        raise ValueError("claim was built against a different tournament frame")
    Support(base=t, partial=claim.partial, rule=claim.rule, winner=claim.winner)
    g, w = claim.partial, claim.winner
    labels = t.candidates.labels
    failing, keeps = necessary.characterize(g, w, claim.rule)
    if failing:
        return SupportVerdict("not-necessary", (labels[failing[0]],))
    for i, j, _ in g.pairs():
        if j == w or keeps(i, j):
            return SupportVerdict("not-minimal", (labels[i], labels[j]))
    return SupportVerdict("valid-MS")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_POLYNOMIAL_SMS = {
    Rule.TC: sms_tc,
    Rule.UC: sms_uc,
    Rule.COP: sms_cop,
    Rule.BORDA: sms_borda,
    Rule.MM: sms_mm,
}


def compute_sms(
    t: WeightedTournament, w: int, rule: Rule, budget: int = DEFAULT_WUC_BUDGET
) -> SmsResult:
    """Compute the SMS for (rule, w) with the rule's construction
    (``rule.spec.variant``); ``budget`` caps the exact wuc search."""
    if rule.spec.kind == "coverage":
        return sms_wuc_exact(t, w, budget)
    return _POLYNOMIAL_SMS[rule](t, w)
