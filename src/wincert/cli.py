"""Command-line surface: winners, sms, explain, verify, oracle, generate.

All behaviour is controlled by flags (no config files or environment
variables) and the JSON output envelope is canonical: sorted keys,
integers for every exact quantity.

Exit codes partition outcomes:
  0  success                       5  wuc search budget exhausted
  2  parse or validation error     6  verify: not-necessary
  3  incomplete tournament         7  verify: not-minimal
  4  candidate is not a winner     8  support not a sub-tournament
                                   9  enumeration guard exceeded
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import explain, oracle, sms, solutions
from .model import (
    DEFAULT_GUARD,
    GuardExceededError,
    IncompleteTournamentError,
    PartialTournament,
    Rule,
    Support,
    SupportCompatibilityError,
    TournamentFormatError,
    WeightedTournament,
    check_voters,
    parse_tournament,
    serialize_tournament,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3
EXIT_NOT_WINNER = 4
EXIT_BUDGET = 5
EXIT_NOT_NECESSARY = 6
EXIT_NOT_MINIMAL = 7
EXIT_BAD_SUPPORT = 8
EXIT_GUARD = 9


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_tournament(path: str) -> PartialTournament:
    try:
        with open(path, "rb") as fh:
            return parse_tournament(fh.read())
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
    except TournamentFormatError as exc:
        raise _CliError(EXIT_INPUT, f"{path}: {exc}") from exc


def _complete(t: PartialTournament) -> WeightedTournament:
    try:
        return t.as_complete()
    except IncompleteTournamentError as exc:
        raise _CliError(EXIT_INCOMPLETE, str(exc)) from exc


def _rule(name: str) -> Rule:
    try:
        return Rule.from_string(name)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc


def _winner_index(t: PartialTournament, label: str) -> int:
    try:
        return t.candidates.index(label)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc


def _tournament_payload(g: PartialTournament) -> dict:
    return {
        "voters": g.n,
        "candidates": list(g.candidates.labels),
        "pairs": [
            [g.candidates.labels[i], g.candidates.labels[j], w] for i, j, w in g.pairs()
        ],
    }


# Arguments echoed under "inputs" in the JSON envelope, where a command has them.
_ECHOED = (
    "file", "support", "rule", "winner", "format", "guard",
    "kind", "candidates", "voters", "elements", "subsets", "seed",
)


def _emit(args, result: dict, text: str, started: float) -> None:
    if args.json:
        inputs = {key: getattr(args, key) for key in _ECHOED if key in args}
        if "rule" in inputs:
            inputs["rule"] = args.rule.value
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "timing_ms": int((time.monotonic() - started) * 1000),
        }
        print(json.dumps(envelope, sort_keys=True, indent=2))
    elif text:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------------------
# Subcommands: each returns (result, text, exit code) for main to emit
# ---------------------------------------------------------------------------


def _cmd_winners(args) -> tuple[dict, str, int]:
    t = _complete(_load_tournament(args.file))
    try:
        winner_set = solutions.winners(args.rule, t)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc
    labels = winner_set.labels(t)
    result: dict = {"rule": args.rule.value, "winners": list(labels)}
    text = " ".join(labels)
    if args.rule.spec.has_scores:
        table = solutions.score_table(args.rule, t)
        result["scores"] = {
            t.candidates.labels[i]: s for i, s in enumerate(table.scores)
        }
        text += f" (score {max(table.scores)})"
    return result, text, EXIT_OK


def _compute_sms(args) -> sms.SmsResult:
    t = _complete(_load_tournament(args.file))
    w = _winner_index(t, args.winner)
    try:
        return sms.compute_sms(t, w, args.rule, budget=args.budget)
    except sms.NotAWinnerError as exc:
        raise _CliError(EXIT_NOT_WINNER, str(exc)) from exc
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc


def _sms_result_payload(res: sms.SmsResult) -> dict:
    payload = {
        "rule": res.support.rule.value,
        "winner": res.support.winner_label,
        "variant": res.variant,
        "size": res.size,
        "win_count": res.win_count,
        "optimal": res.optimal,
        "support": _tournament_payload(res.support.partial),
    }
    if res.lower_bound is not None:
        payload["lower_bound"] = res.lower_bound
    return payload


def _cmd_sms(args) -> tuple[dict, str, int]:
    res = _compute_sms(args)
    serialized = serialize_tournament(res.support.partial)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialized)
    text = f"size {res.size}\nwin_count {res.win_count}\n{serialized}"
    if not res.optimal:
        text = (
            f"budget exhausted: best found {res.size}, proven lower bound "
            f"{res.lower_bound}\n" + text
        )
    return _sms_result_payload(res), text, EXIT_OK if res.optimal else EXIT_BUDGET


def _cmd_explain(args) -> tuple[dict, str, int]:
    res = _compute_sms(args)
    cert = explain.extract_structure(res)
    result = _sms_result_payload(res)
    result["certificate"] = explain.certificate_payload(cert)
    result["text"] = explain.render_text(cert)
    if args.format == "json":
        args.json = True
    text = explain.render_dot(cert) if args.format == "dot" else result["text"]
    return result, text, EXIT_OK if res.optimal else EXIT_BUDGET


_VERDICT_EXITS = {
    "valid-MS": EXIT_OK,
    "not-necessary": EXIT_NOT_NECESSARY,
    "not-minimal": EXIT_NOT_MINIMAL,
}


def _cmd_verify(args) -> tuple[dict, str, int]:
    t = _load_tournament(args.file)
    claimed = _load_tournament(args.support)
    w = _winner_index(t, args.winner)
    try:
        claim = Support(base=t, partial=claimed, rule=args.rule, winner=w)
        verdict = sms.verify_support(t, claim)
    except SupportCompatibilityError as exc:
        raise _CliError(EXIT_BAD_SUPPORT, str(exc)) from exc
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc
    witness = " ".join(verdict.witness) if verdict.witness else ""
    text = verdict.kind if not witness else f"{verdict.kind} witness: {witness}"
    result = {"verdict": verdict.kind, "witness": list(verdict.witness or [])}
    return result, text, _VERDICT_EXITS[verdict.kind]


def _cmd_oracle(args) -> tuple[dict, str, int]:
    t = _complete(_load_tournament(args.file))
    w = _winner_index(t, args.winner)
    try:
        check_voters(args.rule, t.n)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc
    if args.list:
        supports = list(oracle.enumerate_minimal_supports(t, w, args.rule, guard=args.guard))
        size = min((s.size() for s in supports), default=None)
        if size is None:
            raise _CliError(
                EXIT_NOT_WINNER, f"{args.winner} has no minimal support under {args.rule.value}"
            )
        blocks = [serialize_tournament(s.partial) for s in supports]
        text = f"size {size}\n" + "---\n".join(blocks)
        result = {
            "size": size,
            "supports": [_tournament_payload(s.partial) for s in supports],
        }
    else:
        try:
            size = oracle.oracle_sms_size(t, w, args.rule, guard=args.guard)
        except ValueError as exc:
            raise _CliError(EXIT_NOT_WINNER, str(exc)) from exc
        text = str(size)
        result = {"size": size}
    return result, text, EXIT_OK


def _cmd_generate(args) -> tuple[dict, str, int]:
    try:
        if args.kind == "random":
            t = oracle.random_tournament(args.candidates, args.voters, args.seed)
        else:
            inst = oracle.random_setcover_instance(args.elements, args.subsets, args.seed)
            t, _ = oracle.build_setcover_tournament(inst)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc
    serialized = serialize_tournament(t)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialized)
    return _tournament_payload(t), serialized, EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wincert",
        description="Tournament winner sets, smallest minimal supports, and certified explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, winner=True, budget=False):
        p.add_argument("--rule", required=True, help="tc, uc, cop, borda, mm, or wuc")
        if winner:
            p.add_argument("--winner", required=True, help="candidate label")
        if budget:
            p.add_argument(
                "--budget",
                type=_positive_int,
                default=sms.DEFAULT_WUC_BUDGET,
                help="node budget for the exact wuc search",
            )
        p.add_argument("--json", action="store_true", help="emit the JSON envelope")
        p.add_argument("file", help="tournament file")

    p = sub.add_parser("winners", help="compute the winner set")
    add_common(p, winner=False)
    p.set_defaults(func=_cmd_winners)

    p = sub.add_parser("sms", help="compute a smallest minimal support")
    add_common(p, budget=True)
    p.add_argument("--out", help="write the support in tournament format")
    p.set_defaults(func=_cmd_sms)

    p = sub.add_parser("explain", help="render a certified explanation")
    add_common(p, budget=True)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("verify", help="verify a claimed minimal support")
    add_common(p)
    p.add_argument("--support", required=True, help="support file to check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force smallest-support size")
    add_common(p)
    p.add_argument("--guard", type=_positive_int, default=DEFAULT_GUARD)
    p.add_argument("--list", action="store_true", help="stream every minimal support")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("generate", help="generate reproducible instances")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    random_p = gen_sub.add_parser("random", help="seeded random complete tournament")
    random_p.add_argument("--candidates", type=_positive_int, required=True)
    random_p.add_argument("--voters", type=_positive_int, default=1)
    setcover_p = gen_sub.add_parser("setcover", help="hardness-construction tournament")
    setcover_p.add_argument("--elements", type=_positive_int, required=True)
    setcover_p.add_argument("--subsets", type=_positive_int, required=True)
    for g in (random_p, setcover_p):
        g.add_argument("--seed", type=int, required=True)
        g.add_argument("--out")
        g.add_argument("--json", action="store_true")
        g.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if "rule" in args:
            args.rule = _rule(args.rule)
        result, text, code = args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    _emit(args, result, text, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
