"""The four benchmark workloads.

Each workload has a ``setup`` that builds a pool of requests from the
seed, with reference answers computed by :mod:`inputs`, a ``run`` that
serves one request through wincert's public functions (this is what is
timed, with a span around every call into a layer), and a ``check`` that
compares the outputs with the references without calling wincert.
Every workload is a closed loop: one client, one request in flight.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import gauge
import inputs

#: Node budget for the wuc search.  The library default (10**6) runs
#: for over 10 s on an m=50 instance that exhausts it; 10**5 keeps an
#: exhausted instance near 1.5 s so a run sees about two dozen instances.
WUC_BUDGET = 10**5

UNIT_RULES = ("tc", "uc", "cop")


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[..., list]
    run: Callable[..., dict]
    check: Callable[[Any, dict], list[str]]
    #: Extra measurements made after each request, in traced runs only.
    probe: Callable[..., None] | None = None
    #: Host-speed kernel and its reference time (see gauge.py).
    host_gauge: tuple[Callable[[], float], float] = (gauge.python_kernel, gauge.PYTHON_KERNEL_S)


def _matrix(g) -> list[list[int]]:
    return [list(row) for row in g.weights]


def _support_problems(base: list[list[int]], sup: list[list[int]], size: int) -> list[str]:
    problems = []
    if any(s > b for srow, brow in zip(sup, base) for s, b in zip(srow, brow)):
        problems.append("support exceeds its base tournament")
    if size != sum(map(sum, sup)):
        problems.append(f"reported size {size} != support weight {sum(map(sum, sup))}")
    return problems


def _closed_form_problems(rule: str, mat: list[list[int]], w: int, size: int) -> list[str]:
    m = len(mat)
    if rule in ("tc", "uc"):
        expected = m - 1
    elif rule == "cop":
        sigma = inputs.copeland_scores(mat)[w]
        expected = m - 1 if sigma == m - 1 else (m - 1) * (m - 1 - sigma)
    else:
        return []
    return [] if size == expected else [f"{rule} support size {size} != closed form {expected}"]


# ---------------------------------------------------------------------------
# unit-large: parse-heavy end-to-end requests on large 1-weighted tournaments
# ---------------------------------------------------------------------------

#: One pool round.  m=300 is the reference size: at three requests in five
#: it holds both the median and the tail (ten samples beyond it) for any
#: run of 15 to 54 requests.  m=200 and m=400 show how a request scales.
UNIT_LARGE_SIZES = (200, 300, 300, 300, 400)


def setup_unit_large(rng: random.Random, workdir: str) -> list:
    pool = []
    for m in UNIT_LARGE_SIZES:
        mat = inputs.random_matrix(rng, m, 1)
        pool.append(
            SimpleNamespace(
                text=inputs.canonical_text(inputs.labels_for(m), 1, mat),
                mat=mat,
                winners={r: inputs.winner_set(r, mat) for r in UNIT_RULES},
            )
        )
    return pool


def run_unit_large(inp, wc, tr) -> dict:
    with tr.span("model.parse_tournament"):
        g = wc.model.parse_tournament(inp.text)
    with tr.span("model.as_complete"):
        t = g.as_complete()
    out = {}
    for name in UNIT_RULES:
        rule = wc.model.Rule(name)
        with tr.span(f"solutions.winners.{name}"):
            ws = wc.solutions.winners(rule, t)
        w = min(inp.winners[name])
        with tr.span(f"sms.compute_sms.{name}"):
            res = wc.sms.compute_sms(t, w, rule)
        with tr.span("explain.extract_structure"):
            cert = wc.explain.extract_structure(res)
        with tr.span("explain.render_text"):
            text = wc.explain.render_text(cert)
        with tr.span("explain.render_dot"):
            dot = wc.explain.render_dot(cert)
        with tr.span("model.serialize_tournament"):
            serialized = wc.model.serialize_tournament(res.support.partial)
        out[name] = SimpleNamespace(
            winners=set(ws.winners),
            w=w,
            size=res.size,
            sup=res.support.partial.weights,
            text=text,
            dot=dot,
            serialized=serialized,
        )
    return out


def check_unit_large(inp, out: dict) -> list[str]:
    problems = []
    for name in UNIT_RULES:
        o = out[name]
        if o.winners != inp.winners[name]:
            problems.append(f"{name} winner set differs from the reference")
        sup = [list(row) for row in o.sup]
        problems += _support_problems(inp.mat, sup, o.size)
        problems += _closed_form_problems(name, inp.mat, o.w, o.size)
        if inputs.parse_canonical(o.serialized)[1:] != (1, sup):
            problems.append(f"{name} serialized support does not parse back to itself")
        if not o.text.strip() or not o.dot.startswith("digraph"):
            problems.append(f"{name} certificate rendering is empty or malformed")
    return problems


# ---------------------------------------------------------------------------
# verify-claims: verify_support on a valid and two broken claims
# ---------------------------------------------------------------------------

VERIFY_M = 40
#: (rule, voters): 1-weighted where the rule requires it, 10**6 otherwise.
VERIFY_RULES = (("tc", 1), ("uc", 1), ("cop", 1), ("borda", 10**6), ("mm", 10**6))
VERIFY_ROUNDS = 24
EXPECTED_VERDICTS = ("valid-MS", "not-necessary", "not-minimal")


def setup_verify_claims(rng: random.Random, workdir: str) -> list:
    pool = []
    labels = inputs.labels_for(VERIFY_M)
    for _ in range(VERIFY_ROUNDS):
        for rule, n in VERIFY_RULES:
            mat = inputs.random_matrix(rng, VERIFY_M, n)
            ref = inputs.winner_set(rule, mat)
            pool.append(
                SimpleNamespace(
                    rule=rule,
                    text=inputs.canonical_text(labels, n, mat),
                    mat=mat,
                    winners=ref,
                    w=rng.choice(sorted(ref)),
                    remove_at=rng.random(),
                    add_at=rng.random(),
                )
            )
    return pool


def run_verify_claims(inp, wc, tr) -> dict:
    rule = wc.model.Rule(inp.rule)
    with tr.span("model.parse_tournament"):
        g = wc.model.parse_tournament(inp.text)
    with tr.span("model.as_complete"):
        t = g.as_complete()
    with tr.span(f"solutions.winners.{inp.rule}"):
        ws = wc.solutions.winners(rule, t)
    with tr.span(f"sms.compute_sms.{inp.rule}"):
        res = wc.sms.compute_sms(t, inp.w, rule)
    sup = _matrix(res.support.partial)
    units = [(i, j) for i, row in enumerate(sup) for j, x in enumerate(row) if x]
    room = [
        (i, j)
        for i, row in enumerate(sup)
        for j, x in enumerate(row)
        if x < inp.mat[i][j]
    ]
    minus = [row[:] for row in sup]
    i, j = units[int(inp.remove_at * len(units))]
    minus[i][j] -= 1
    plus = [row[:] for row in sup]
    i, j = room[int(inp.add_at * len(room))]
    plus[i][j] += 1
    claims = [res.support]
    with tr.span("model.Support"):
        for mat in (minus, plus):
            partial = wc.model.PartialTournament(t.candidates, t.n, tuple(map(tuple, mat)))
            claims.append(wc.model.Support(base=t, partial=partial, rule=rule, winner=inp.w))
    verdicts = []
    for claim in claims:
        with tr.span("sms.verify_support") as span:
            verdict = wc.sms.verify_support(t, claim)
            span.name = f"sms.verify_support.{inp.rule}.{verdict.kind}"
        verdicts.append(verdict.kind)
    with tr.span("necessary.is_necessary_winner"):
        necessary = wc.necessary.is_necessary_winner(res.support.partial, inp.w, rule)
    return {
        "winners": set(ws.winners),
        "size": res.size,
        "sup": sup,
        "verdicts": tuple(verdicts),
        "necessary": necessary,
    }


def check_verify_claims(inp, out: dict) -> list[str]:
    problems = []
    if out["winners"] != inp.winners:
        problems.append(f"{inp.rule} winner set differs from the reference")
    problems += _support_problems(inp.mat, out["sup"], out["size"])
    problems += _closed_form_problems(inp.rule, inp.mat, inp.w, out["size"])
    if out["verdicts"] != EXPECTED_VERDICTS:
        problems.append(f"{inp.rule} verdicts {out['verdicts']} != {EXPECTED_VERDICTS}")
    if out["necessary"] is not True:
        problems.append(f"{inp.rule} support does not make its winner a necessary winner")
    return problems


# ---------------------------------------------------------------------------
# wuc-search: the budgeted exact search on four instance groups
# ---------------------------------------------------------------------------

#: group -> (candidates, voters); "setcover" is the reduction tournament.
WUC_GROUPS = {"n7-m30": (30, 7), "n7-m50": (50, 7), "n1e6-m30": (30, 10**6)}
SETCOVER_ELEMENTS, SETCOVER_SUBSETS, SETCOVER_SUBSET_SIZE = 20, 24, (2, 5)
#: One pool round.  Exhausted m~50 searches (n7-m50, setcover) cost
#: about the same each, so weighting them keeps the median and tail on
#: cost per node; the m=30 groups vary between proven and exhausted.
WUC_ROUND = ("n7-m50", "setcover", "n7-m30", "n7-m50", "setcover", "n1e6-m30", "n7-m50", "setcover")
WUC_ROUNDS = 4


def setup_wuc_search(rng: random.Random, workdir: str) -> list:
    pool = []
    for _ in range(WUC_ROUNDS):
        for group in WUC_ROUND:
            if group == "setcover":
                p, q = SETCOVER_ELEMENTS, SETCOVER_SUBSETS
                subsets = inputs.setcover_instance(rng, p, q, *SETCOVER_SUBSET_SIZE)
                mat, labels = inputs.setcover_matrix(p, subsets), inputs.setcover_labels(p, q)
                n, w, optimum = 2, 0, p + q + inputs.min_cover(p, subsets)
            else:
                m, n = WUC_GROUPS[group]
                mat, labels = inputs.random_matrix(rng, m, n), inputs.labels_for(m)
                order = list(range(m))
                rng.shuffle(order)
                w = next(c for c in order if inputs.is_wuc_winner(mat, c))
                optimum = None
            text = inputs.canonical_text(labels, n, mat)
            pool.append(SimpleNamespace(group=group, text=text, mat=mat, n=n, w=w, optimum=optimum))
    return pool


def run_wuc_search(inp, wc, tr) -> dict:
    with tr.span("model.parse_tournament"):
        g = wc.model.parse_tournament(inp.text)
    with tr.span("model.as_complete"):
        t = g.as_complete()
    with tr.span("sms.compute_sms.wuc"):
        res = wc.sms.compute_sms(t, inp.w, wc.model.Rule.WUC, budget=WUC_BUDGET)
    with tr.span("sms.verify_support") as span:
        verdict = wc.sms.verify_support(t, res.support)
        span.name = f"sms.verify_support.wuc.{verdict.kind}"
    with tr.span("explain.extract_structure"):
        cert = wc.explain.extract_structure(res)
    with tr.span("explain.render_text"):
        text = wc.explain.render_text(cert)
    return {
        "size": res.size,
        "optimal": res.optimal,
        "lower_bound": res.lower_bound,
        "sup": _matrix(res.support.partial),
        "verdict": verdict.kind,
        "text": text,
    }


def check_wuc_search(inp, out: dict) -> list[str]:
    m, n, size = len(inp.mat), inp.n, out["size"]
    problems = _support_problems(inp.mat, out["sup"], size)
    if not n + m - 2 <= size <= (n + 1) * (m - 1):
        problems.append(f"wuc size {size} outside [{n + m - 2}, {(n + 1) * (m - 1)}]")
    if not out["optimal"] and not (out["lower_bound"] is not None and out["lower_bound"] <= size):
        problems.append(f"wuc lower bound {out['lower_bound']} is missing or above size {size}")
    if inp.optimum is not None:
        if size < inp.optimum or (out["optimal"] and size != inp.optimum):
            problems.append(f"set-cover size {size} (optimal={out['optimal']}) vs optimum {inp.optimum}")
    if out["verdict"] == "not-necessary" or (out["optimal"] and out["verdict"] != "valid-MS"):
        problems.append(f"wuc support verdict {out['verdict']} (optimal={out['optimal']})")
    if not out["text"].strip():
        problems.append("wuc certificate text is empty")
    return problems


@dataclass(frozen=True)
class WucOutcome:
    optimum: int | None
    size: int
    optimal: bool
    lower_bound: int | None


def wuc_quality(outcomes: list[WucOutcome]) -> dict:
    """Proof quality over the wuc instances served: share proven optimal,
    mean gap (size - lower bound) / size with proven instances at 0, and
    summed excess over the set-cover optimum."""
    if not outcomes:
        return {"instances": 0, "proven_share": 0.0, "gap_mean": 0.0, "excess": 0}
    gaps = [0.0 if o.optimal else (o.size - o.lower_bound) / o.size for o in outcomes]
    return {
        "instances": len(outcomes),
        "proven_share": sum(o.optimal for o in outcomes) / len(outcomes),
        "gap_mean": sum(gaps) / len(gaps),
        "excess": sum(o.size - o.optimum for o in outcomes if o.optimum is not None),
    }


# ---------------------------------------------------------------------------
# cli-small: one `python -m wincert.cli` process per request
# ---------------------------------------------------------------------------

CLI_UNIT_M, CLI_WEIGHTED_M, CLI_WEIGHTED_N, CLI_PARTIAL_M = 12, 10, 5, 8


def setup_cli_small(rng: random.Random, workdir: str) -> list:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    fixtures = os.path.join(root, "tests", "fixtures")

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    unit = inputs.random_matrix(rng, CLI_UNIT_M, 1)
    unit_labels = inputs.labels_for(CLI_UNIT_M)
    unit_path = write("unit.trn", inputs.canonical_text(unit_labels, 1, unit))
    weighted = inputs.random_matrix(rng, CLI_WEIGHTED_M, CLI_WEIGHTED_N)
    weighted_labels = inputs.labels_for(CLI_WEIGHTED_M)
    weighted_path = write(
        "weighted.trn", inputs.canonical_text(weighted_labels, CLI_WEIGHTED_N, weighted)
    )
    partial_lines = inputs.canonical_text(
        inputs.labels_for(CLI_PARTIAL_M), 1, inputs.random_matrix(rng, CLI_PARTIAL_M, 1)
    ).splitlines()
    del partial_lines[rng.randrange(2, len(partial_lines))]
    partial_path = write("partial.trn", "\n".join(partial_lines) + "\n")

    tc_root = min(inputs.top_cycle(unit))
    tree = inputs.out_tree(unit, tc_root)
    spare = [
        (i, j)
        for i in range(CLI_UNIT_M)
        for j in range(CLI_UNIT_M)
        if unit[i][j] and (i, j) not in tree
    ]
    dropped = rng.randrange(len(tree))
    claims = {}
    for name, edges in (
        ("tc_valid.trn", tree),
        ("tc_minus.trn", tree[:dropped] + tree[dropped + 1 :]),
        ("tc_plus.trn", tree + [rng.choice(spare)]),
    ):
        mat = [[0] * CLI_UNIT_M for _ in range(CLI_UNIT_M)]
        for i, j in edges:
            mat[i][j] = 1
        claims[name] = write(name, inputs.canonical_text(unit_labels, 1, mat))

    def labels_of(path: str, rule: str) -> set[str]:
        with open(path, encoding="utf-8") as fh:
            labels, _, mat = inputs.parse_canonical(fh.read())
        return {labels[i] for i in inputs.winner_set(rule, mat)}

    u4, w5a, w5b = (os.path.join(fixtures, f) for f in ("u4.trn", "w5a.trn", "w5b.trn"))
    winners_on = {"tc": u4, "uc": unit_path, "cop": unit_path, "borda": w5a, "mm": w5b, "wuc": weighted_path}
    cop_winners = inputs.winner_set("cop", unit)
    borda_w = weighted_labels[min(inputs.winner_set("borda", weighted))]
    tc_w = unit_labels[tc_root]
    uc_w = unit_labels[min(inputs.uncovered_set(unit))]

    def spec(command, argv, code, **expect):
        return SimpleNamespace(command=command, argv=[command, *argv], code=code, expect=expect)

    pool = [
        spec("winners", ["--rule", rule, "--json", path], 0, winners=labels_of(path, rule))
        for rule, path in winners_on.items()
    ]
    pool += [
        spec("sms", ["--rule", "borda", "--winner", borda_w, "--json", weighted_path], 0, base=weighted),
        spec("explain", ["--rule", "uc", "--winner", uc_w, unit_path], 0, text=uc_w),
        spec(
            "explain",
            ["--rule", "cop", "--winner", unit_labels[min(cop_winners)], "--format", "dot", unit_path],
            0,
            dot=True,
        ),
        spec("explain", ["--rule", "mm", "--winner", "a", "--format", "json", w5b], 0),
    ]
    for name, code, verdict in (
        ("tc_valid.trn", 0, "valid-MS"),
        ("tc_minus.trn", 6, "not-necessary"),
        ("tc_plus.trn", 7, "not-minimal"),
    ):
        pool.append(
            spec(
                "verify",
                ["--rule", "tc", "--winner", tc_w, "--support", claims[name], "--json", unit_path],
                code,
                verdict=verdict,
            )
        )
    loser = unit_labels[min(set(range(CLI_UNIT_M)) - cop_winners)]
    pool += [
        spec("winners", ["--rule", "tc", partial_path], 3, error=True),
        spec("sms", ["--rule", "cop", "--winner", loser, unit_path], 4, error=True),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for s in pool:
        s.cmd, s.env, s.cwd = [sys.executable, "-m", "wincert.cli", *s.argv], env, root
    return pool


def run_cli_small(inp, wc, tr) -> dict:
    with tr.span(f"cli.{inp.command}.process"):
        proc = subprocess.run(
            inp.cmd, capture_output=True, text=True, env=inp.env, cwd=inp.cwd, timeout=120
        )
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def probe_cli_small(inp, wc, tr) -> None:
    """Split one request's process time from outside: a bare interpreter,
    an interpreter that only imports the CLI, and ``cli.main`` in-process."""
    for name, code in (("cli.interpreter", "pass"), ("cli.import_process", "import wincert.cli")):
        with tr.span(name):
            subprocess.run(
                [sys.executable, "-c", code], env=inp.env, cwd=inp.cwd, check=True, timeout=120
            )
    with tr.span("cli.main"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            wc.cli.main(inp.argv)


def check_cli_small(inp, out: dict) -> list[str]:
    e = inp.expect
    if out["code"] != inp.code:
        return [f"{' '.join(inp.argv)}: exit {out['code']}, expected {inp.code}: {out['stderr'][-300:]}"]
    if e.get("error"):
        ok = out["stderr"].startswith("error:") and not out["stdout"]
        return [] if ok else [f"{inp.command}: error exit without an 'error:' message"]
    if "text" in e:
        return [] if e["text"] in out["stdout"] else ["explain text does not name the winner"]
    if "dot" in e:
        return [] if out["stdout"].startswith("digraph") else ["explain dot output is not a digraph"]
    try:
        envelope = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return [f"{inp.command}: --json stdout is not JSON"]
    if envelope.get("command") != inp.command:
        return [f"--json envelope names command {envelope.get('command')!r}, expected {inp.command!r}"]
    result = envelope["result"]
    if "winners" in e and set(result["winners"]) != e["winners"]:
        return [f"winners {result['winners']} != reference {sorted(e['winners'])}"]
    if "verdict" in e and result["verdict"] != e["verdict"]:
        return [f"verify verdict {result['verdict']} != {e['verdict']}"]
    if "base" in e:
        labels = result["support"]["candidates"]
        index = {lab: k for k, lab in enumerate(labels)}
        sup = [[0] * len(labels) for _ in labels]
        for x, y, w in result["support"]["pairs"]:
            sup[index[x]][index[y]] = w
        return _support_problems(e["base"], sup, result["size"])
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "unit-large",
            "1-weighted m in {200,300,400}, parse to tc/uc/cop support, render, serialize: the O(m^3) parse dominates",
            setup_unit_large,
            run_unit_large,
            check_unit_large,
        ),
        Workload(
            "verify-claims",
            "m=40, tc/uc/cop at n=1 and borda/mm at n=10^6: verify a valid, a short and a padded support; verify dominates",
            setup_verify_claims,
            run_verify_claims,
            check_verify_claims,
        ),
        Workload(
            "wuc-search",
            "budgeted exact wuc search (10^5 nodes) on n=7 m=30/50, n=10^6 m=30 and set-cover tournaments with known optimum",
            setup_wuc_search,
            run_wuc_search,
            check_wuc_search,
        ),
        Workload(
            "cli-small",
            "one python -m wincert.cli process per request on fixtures and m<=12 files: interpreter start and import dominate",
            setup_cli_small,
            run_cli_small,
            check_cli_small,
            probe=probe_cli_small,
            host_gauge=(gauge.interpreter_start, gauge.INTERPRETER_START_S),
        ),
    )
}
