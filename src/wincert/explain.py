"""Certificate extraction and rendering for smallest minimal supports.

Path rules yield rooted out-trees (with, for the weighted uncovered set,
a per-opponent clause list that also covers the cap-forced shapes that
are not trees); score rules yield per-candidate neighborhood tables.
Certificates are lossless: they regenerate the support exactly, and
every number in the rendered text is recomputable from the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import CandidateSet, PartialTournament, Rule, freeze_matrix
from .necessary import bfs_tree
from .sms import SmsResult


class StructureError(ValueError):
    """A support's shape violates its rule's structural invariant.

    Raised when extraction meets a support that cannot have come from
    the corresponding algorithm; it signals an upstream bug."""


@dataclass(frozen=True)
class OutTreeCertificate:
    """A w-rooted out-tree: every non-root candidate has exactly one
    incoming edge and is reachable from the root."""

    candidates: CandidateSet
    n: int
    rule: Rule
    root: int
    edges: tuple[tuple[int, int, int], ...]  # (parent, child, weight)

    def parent_of(self, child: int) -> tuple[int, int]:
        for p, c, wgt in self.edges:
            if c == child:
                return p, wgt
        raise KeyError(child)

    def children_of(self, parent: int) -> list[int]:
        return [c for p, c, _ in self.edges if p == parent]


@dataclass(frozen=True)
class CoverageClause:
    """Why one opponent cannot weighted-cover the winner in any
    completion: a direct strict-majority edge, or one intermediate the
    winner is more strongly preferred over than the opponent is."""

    opponent: int
    intermediate: int | None
    weight: int  # the certifying edge's weight: (w, c) if direct, else (b, c)


@dataclass(frozen=True)
class CoverageCertificate:
    rule = Rule.WUC  # class constant, not a field

    candidates: CandidateSet
    n: int
    root: int
    win_row: tuple[tuple[int, int], ...]  # positive (opponent, mu_X(w, c))
    clauses: tuple[CoverageClause, ...]  # one per opponent, canonical order


@dataclass(frozen=True)
class NeighborhoodCertificate:
    """Per-candidate neighborhoods for the score rules: the winner's
    recorded wins and, per opponent, its recorded losses."""

    candidates: CandidateSet
    n: int
    rule: Rule
    winner: int
    winner_row: tuple[tuple[int, int], ...]  # positive (opponent, weight)
    loss_rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


Certificate = OutTreeCertificate | CoverageCertificate | NeighborhoodCertificate


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_structure(result: SmsResult) -> Certificate:
    """Extract the certificate skeleton from a verified support."""
    return _EXTRACTORS[result.support.rule.spec.kind](result)


def _extract_tree(result: SmsResult) -> OutTreeCertificate:
    support = result.support
    g = support.partial
    root = support.winner
    edges = tuple(g.pairs())
    children_seen = set()
    for p, c, wgt in edges:
        if wgt != 1:
            raise StructureError("path-rule supports carry unit weights")
        if c == root:
            raise StructureError("the root must have in-degree 0")
        if c in children_seen:
            raise StructureError(f"candidate {g.candidates.labels[c]} has two incoming edges")
        children_seen.add(c)
    if len(children_seen) != g.m - 1:
        raise StructureError("every non-root candidate needs exactly one incoming edge")
    depth = bfs_tree(g.weights, root)[1]
    if min(depth) < 0:
        raise StructureError("support edges do not form a tree rooted at the winner")
    max_depth = support.rule.spec.depth
    if max_depth is not None and max(depth) > max_depth:
        raise StructureError("uncovered-set supports have depth at most 2")
    return OutTreeCertificate(g.candidates, g.n, support.rule, root, edges)


def _extract_coverage(result: SmsResult) -> CoverageCertificate:
    support = result.support
    g = support.partial
    w = support.winner
    n, m = g.n, g.m
    majority = (n + 2) // 2
    win_row = tuple((c, g.weights[w][c]) for c in range(m) if c != w and g.weights[w][c])
    clauses = []
    for c in range(m):
        if c == w:
            continue
        in_edges = [(b, g.weights[b][c]) for b in range(m) if b != w and b != c and g.weights[b][c]]
        if len(in_edges) > 1:
            raise StructureError(
                f"opponent {g.candidates.labels[c]} has more than one covering intermediate"
            )
        if in_edges:
            b, wgt = in_edges[0]
            if g.weights[w][b] + wgt < n + 1:
                raise StructureError("covering clause falls short of the completion bound")
            clauses.append(CoverageClause(c, b, wgt))
        elif g.weights[w][c] >= majority:
            clauses.append(CoverageClause(c, None, g.weights[w][c]))
        else:
            raise StructureError(f"opponent {g.candidates.labels[c]} is not certified")
    return CoverageCertificate(g.candidates, n, w, win_row, tuple(clauses))


def _extract_neighborhood(result: SmsResult) -> NeighborhoodCertificate:
    support = result.support
    g = support.partial
    w = support.winner
    m = g.m
    if any(g.weights[x][w] for x in range(m)):
        raise StructureError("a score-rule support never records losses of the winner")
    winner_row = tuple((c, g.weights[w][c]) for c in range(m) if c != w and g.weights[w][c])
    loss_rows = []
    for c in range(m):
        if c == w:
            continue
        entries = tuple((b, g.weights[b][c]) for b in range(m) if b != c and g.weights[b][c])
        if support.rule is Rule.MM:
            # Only the binding (heaviest) loss is cited for maximin.
            entries = (max(entries, key=lambda e: (e[1], -e[0])),) if entries else ()
        if entries:
            loss_rows.append((c, entries))
    return NeighborhoodCertificate(g.candidates, g.n, support.rule, w, winner_row, tuple(loss_rows))


_EXTRACTORS = {
    "path": _extract_tree,
    "coverage": _extract_coverage,
    "score": _extract_neighborhood,
}


def regenerate_support(cert: Certificate) -> PartialTournament:
    """Rebuild the exact weight matrix a certificate was extracted from."""
    m = cert.candidates.m
    matrix = [[0] * m for _ in range(m)]
    for src, dst, wgt in _certificate_edges(cert):
        matrix[src][dst] = wgt
    return PartialTournament(cert.candidates, cert.n, freeze_matrix(matrix))


def _certificate_edges(cert: Certificate) -> list[tuple[int, int, int]]:
    edges: dict[tuple[int, int], int] = {}
    if isinstance(cert, OutTreeCertificate):
        for p, c, wgt in cert.edges:
            edges[(p, c)] = wgt
    elif isinstance(cert, CoverageCertificate):
        for c, wgt in cert.win_row:
            edges[(cert.root, c)] = wgt
        for clause in cert.clauses:
            if clause.intermediate is not None:
                edges[(clause.intermediate, clause.opponent)] = clause.weight
    else:
        for c, wgt in cert.winner_row:
            edges[(cert.winner, c)] = wgt
        for c, entries in cert.loss_rows:
            for b, wgt in entries:
                edges[(b, c)] = wgt
    return [(src, dst, wgt) for (src, dst), wgt in sorted(edges.items())]


def certificate_payload(cert: Certificate) -> dict:
    """The certificate as JSON-ready data, candidates by label."""
    labels = cert.candidates.labels
    if isinstance(cert, OutTreeCertificate):
        return {
            "kind": "out-tree",
            "root": labels[cert.root],
            "edges": [[labels[p], labels[c], w] for p, c, w in cert.edges],
        }
    if isinstance(cert, CoverageCertificate):
        return {
            "kind": "coverage",
            "root": labels[cert.root],
            "win_row": [[labels[c], w] for c, w in cert.win_row],
            "clauses": [
                {
                    "opponent": labels[cl.opponent],
                    "intermediate": None if cl.intermediate is None else labels[cl.intermediate],
                    "weight": cl.weight,
                }
                for cl in cert.clauses
            ],
        }
    return {
        "kind": "neighborhood",
        "winner": labels[cert.winner],
        "winner_row": [[labels[c], w] for c, w in cert.winner_row],
        "loss_rows": [
            {"candidate": labels[c], "losses": [[labels[b], w] for b, w in entries]}
            for c, entries in cert.loss_rows
        ],
    }


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------
#
# One template set per rule; the wording is data so it can be revised
# without touching the assembly logic.  Every numeric string shows its
# derivation (e.g. "9=3+2+4") so a reader can check the arithmetic
# against the cited support weights.

TEMPLATES = {
    Rule.TC: {
        "header": "{w} is part of the top cycle because eliminating {w} would lead to an "
        "empty top cycle. Indeed eliminating {w} would",
        "bullet": "eliminate {c} because {p} is preferred to {c} (({p},{c}) in X)",
        "nested_prefix": "which would ",
    },
    Rule.UC: {
        "header": "{w} is part of the uncovered set because",
        "direct": "{w} is not covered by {c} since {w} is preferred to {c} (({w},{c}) in X)",
        "via": "{w} is not covered by {c} since {w} is preferred to {b} (({w},{b}) in X) "
        "and {b} is preferred to {c} (({b},{c}) in X)",
    },
    Rule.WUC: {
        "header": "{w} is part of the weighted uncovered set because",
        "direct": "{w} is not weighted covered by {c} because {w} is preferred in strict "
        "majority over {c} (mu_X({w},{c})={v})",
        "via": "{w} is not weighted covered by {c} because {w} is more strongly preferred "
        "over {b} than {c} (mu_X({w},{b})={vb}, mu_X({b},{c})={v})",
    },
    Rule.COP: {
        "header": "{w} is part of the Copeland winners because",
        "winner": "{w} wins at least {count} {h2h} since {w} is preferred to {targets} ({edges})",
        "loser": "{c} wins at most {bound} {h2h} since it loses at least {losses} "
        "{loss_h2h} to {beaters} ({edges})",
    },
    Rule.BORDA: {
        "header": "{w} is part of the Borda winners because",
        "winner": "{w} wins at least {score} pairwise comparisons ({edges})",
        "loser": "{c} wins at most {bound} pairwise comparisons since it loses at "
        "least {losses} ({edges})",
    },
    Rule.MM: {
        "header": "{w} is part of the maximin set because",
        "winner": "{w} wins at least {floor} {cmp} in each head-to-head ({edges})",
        "loser": "{c} wins at most {bound} pairwise comparisons against {b} (mu_X({b},{c})={v})",
    },
    "trivial": "{w} wins trivially: no opponents",
}


def render_text(cert: Certificate) -> str:
    """Deterministic bullet-list explanation; equal certificates render
    byte-identically."""
    labels = cert.candidates.labels
    if cert.candidates.m == 1:
        root = cert.root if not isinstance(cert, NeighborhoodCertificate) else cert.winner
        return TEMPLATES["trivial"].format(w=labels[root]) + "\n"
    return _RENDERERS[cert.rule](cert)


def _sum_string(total: int, terms: list[int]) -> str:
    if len(terms) <= 1:
        return str(total)
    return f"{total}=" + "+".join(str(t) for t in terms)


def _render_tc(cert: OutTreeCertificate) -> str:
    labels = cert.candidates.labels
    tpl = TEMPLATES[Rule.TC]
    lines = [tpl["header"].format(w=labels[cert.root])]

    def walk(node: int, depth: int) -> None:
        for child in sorted(cert.children_of(node)):
            prefix = tpl["nested_prefix"] if depth > 0 else ""
            lines.append(
                "  " * depth
                + "- "
                + prefix
                + tpl["bullet"].format(c=labels[child], p=labels[node])
            )
            walk(child, depth + 1)

    walk(cert.root, 0)
    return "\n".join(lines) + "\n"


def _render_uc(cert: OutTreeCertificate) -> str:
    labels = cert.candidates.labels
    tpl = TEMPLATES[Rule.UC]
    w = labels[cert.root]
    lines = [tpl["header"].format(w=w)]
    for c in range(cert.candidates.m):
        if c == cert.root:
            continue
        parent, _ = cert.parent_of(c)
        if parent == cert.root:
            lines.append("- " + tpl["direct"].format(w=w, c=labels[c]))
        else:
            lines.append("- " + tpl["via"].format(w=w, c=labels[c], b=labels[parent]))
    return "\n".join(lines) + "\n"


def _render_wuc(cert: CoverageCertificate) -> str:
    labels = cert.candidates.labels
    tpl = TEMPLATES[Rule.WUC]
    w = labels[cert.root]
    win = dict(cert.win_row)
    lines = [tpl["header"].format(w=w)]
    for clause in cert.clauses:
        c = labels[clause.opponent]
        if clause.intermediate is None:
            lines.append("- " + tpl["direct"].format(w=w, c=c, v=clause.weight))
        else:
            b = clause.intermediate
            lines.append(
                "- "
                + tpl["via"].format(w=w, c=c, b=labels[b], vb=win[b], v=clause.weight)
            )
    return "\n".join(lines) + "\n"


def _render_cop(cert: NeighborhoodCertificate) -> str:
    labels = cert.candidates.labels
    tpl = TEMPLATES[Rule.COP]
    m = cert.candidates.m
    w = labels[cert.winner]
    count = len(cert.winner_row)
    targets = " and to ".join(labels[c] for c, _ in cert.winner_row)
    win_edges = ", ".join(f"({w},{labels[c]}) in X" for c, _ in cert.winner_row)
    lines = [tpl["header"].format(w=w)]
    lines.append(
        "- "
        + tpl["winner"].format(
            w=w, count=count, h2h=_h2h(count), targets=targets, edges=win_edges
        )
    )
    for c, entries in cert.loss_rows:
        losses = len(entries)
        bound = m - 1 - losses
        beaters = " and ".join(labels[b] for b, _ in entries)
        edges = ", ".join(f"({labels[b]},{labels[c]}) in X" for b, _ in entries)
        lines.append(
            "- "
            + tpl["loser"].format(
                c=labels[c],
                bound=f"{bound}={m - 1}-{losses}",
                h2h=_h2h(bound),
                losses=losses,
                loss_h2h=_h2h(losses),
                beaters=beaters,
                edges=edges,
            )
        )
    return "\n".join(lines) + "\n"


def _h2h(count: int) -> str:
    return "head-to-head" if count == 1 else "head-to-heads"


def _render_borda(cert: NeighborhoodCertificate) -> str:
    labels = cert.candidates.labels
    tpl = TEMPLATES[Rule.BORDA]
    m, n = cert.candidates.m, cert.n
    w = labels[cert.winner]
    terms = [wgt for _, wgt in cert.winner_row]
    score = sum(terms)
    win_edges = ", ".join(f"mu_X({w},{labels[c]})={wgt}" for c, wgt in cert.winner_row)
    lines = [tpl["header"].format(w=w)]
    lines.append(
        "- " + tpl["winner"].format(w=w, score=_sum_string(score, terms), edges=win_edges)
    )
    for c, entries in cert.loss_rows:
        loss_terms = [wgt for _, wgt in entries]
        loss = sum(loss_terms)
        bound = n * (m - 1) - loss
        edges = ", ".join(f"mu_X({labels[b]},{labels[c]})={wgt}" for b, wgt in entries)
        lines.append(
            "- "
            + tpl["loser"].format(
                c=labels[c],
                bound=f"{bound}={n}*{m - 1}-{loss}",
                losses=_sum_string(loss, loss_terms),
                edges=edges,
            )
        )
    return "\n".join(lines) + "\n"


def _render_mm(cert: NeighborhoodCertificate) -> str:
    labels = cert.candidates.labels
    tpl = TEMPLATES[Rule.MM]
    n = cert.n
    w = labels[cert.winner]
    lines = [tpl["header"].format(w=w)]
    if cert.winner_row:
        # A guaranteed floor of 0 needs no recorded wins and no bullet.
        floor = min(wgt for _, wgt in cert.winner_row)
        win_edges = ", ".join(f"mu_X({w},{labels[c]})={wgt}" for c, wgt in cert.winner_row)
        cmp_word = "pairwise comparison" if floor == 1 else "pairwise comparisons"
        lines.append(
            "- " + tpl["winner"].format(w=w, floor=floor, cmp=cmp_word, edges=win_edges)
        )
    for c, entries in cert.loss_rows:
        b, wgt = entries[0]
        lines.append(
            "- "
            + tpl["loser"].format(
                c=labels[c], bound=f"{n - wgt}={n}-{wgt}", b=labels[b], v=wgt
            )
        )
    return "\n".join(lines) + "\n"


_RENDERERS = {
    Rule.TC: _render_tc,
    Rule.UC: _render_uc,
    Rule.WUC: _render_wuc,
    Rule.COP: _render_cop,
    Rule.BORDA: _render_borda,
    Rule.MM: _render_mm,
}


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def render_dot(cert: Certificate) -> str:
    """Graphviz digraph of the certificate: the support's weighted edges
    with stable node order; edge labels are omitted for unit weights."""
    labels = cert.candidates.labels
    lines = ["digraph support {"]
    for lab in labels:
        lines.append(f'  "{lab}";')
    for src, dst, wgt in _certificate_edges(cert):
        if cert.n == 1:
            lines.append(f'  "{labels[src]}" -> "{labels[dst]}";')
        else:
            lines.append(f'  "{labels[src]}" -> "{labels[dst]}" [label="{wgt}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
