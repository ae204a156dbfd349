"""Golden corpus: the CLI's exit codes and output, byte for byte.

Every case runs ``wincert.cli.main`` in-process with ``tests/`` as the
working directory, so the file paths echoed in messages and JSON
envelopes are the same wherever the suite is started from.  Exit code,
stdout and stderr must equal the recorded ones exactly; the only field
masked is ``timing_ms`` in JSON envelopes.

The recorded outputs live in ``tests/golden/*.json``, one file per group
of cases; the input files they read are in ``tests/fixtures`` and
``tests/golden/inputs``.  Re-record them only for an intended output
change, and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from wincert.cli import main

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"
RULES = ("tc", "uc", "cop", "borda", "mm", "wuc")
TIMING = re.compile(r'^(  "timing_ms": )\d+$', re.MULTILINE)

# Inputs whose every winner, under every rule, gets sms and explain cases.
WINNER_FILES = {
    "u4": "fixtures/u4.trn",
    "w5a": "fixtures/w5a.trn",
    "w5b": "fixtures/w5b.trn",
    "r6n1": "golden/inputs/r6n1.trn",
    "r9n1": "golden/inputs/r9n1.trn",
    "r9n7": "golden/inputs/r9n7.trn",
    "r12n7": "golden/inputs/r12n7.trn",
    "tie10n7": "golden/inputs/tie10n7.trn",
}

IN = "golden/inputs/"
U4, W5A, W5B, R12N7 = "fixtures/u4.trn", "fixtures/w5a.trn", "fixtures/w5b.trn", IN + "r12n7.trn"

MISC_CASES = [
    # wuc search budgets: h and k on r12n7 need more than 1000 nodes.
    *(
        ["sms", "--rule", "wuc", "--winner", w, "--budget", b, R12N7]
        for w in ("h", "k")
        for b in ("2", "50", "1000")
    ),
    ["sms", "--rule", "wuc", "--winner", "h", "--budget", "1000", "--json", R12N7],
    ["explain", "--rule", "wuc", "--winner", "k", "--budget", "50", R12N7],
    ["explain", "--rule", "wuc", "--winner", "k", "--budget", "50", "--format", "json", R12N7],
    ["sms", "--rule", "wuc", "--winner", "a", "--budget", "2", W5B],
    # verify: exits 0, 6, 7, 8 and 2
    *(
        ["verify", "--rule", "uc", "--winner", "a", "--support", IN + claim, *flag, U4]
        for claim in (
            "u4_uc_valid.trn",
            "u4_uc_short.trn",
            "u4_uc_padded.trn",
            "u4_uc_over.trn",
            "u4_other_frame.trn",
        )
        for flag in ([], ["--json"])
    ),
    ["verify", "--rule", "tc", "--winner", "a", "--support", IN + "u4_uc_valid.trn", U4],
    ["verify", "--rule", "mm", "--winner", "a", "--support", IN + "w5a_mm_valid.trn", W5A],
    ["verify", "--rule", "mm", "--winner", "a", "--support", IN + "w5a_mm_padded.trn", W5A],
    ["verify", "--rule", "borda", "--winner", "a", "--support", IN + "w5a_mm_valid.trn", W5A],
    ["verify", "--rule", "wuc", "--winner", "a", "--support", IN + "w5a_mm_valid.trn", W5A],
    ["verify", "--rule", "uc", "--winner", "a", "--support", IN + "partial.trn", U4],
    ["verify", "--rule", "uc", "--winner", "zz", "--support", IN + "u4_uc_valid.trn", U4],
    # oracle, including --list and the guard
    ["oracle", "--rule", "uc", "--winner", "a", U4],
    ["oracle", "--rule", "tc", "--winner", "a", "--json", U4],
    ["oracle", "--rule", "cop", "--winner", "b", U4],
    ["oracle", "--rule", "wuc", "--winner", "a", U4],
    *(["oracle", "--rule", rule, "--winner", "b", IN + "r3n3.trn"] for rule in ("borda", "mm", "wuc")),
    ["oracle", "--rule", "mm", "--winner", "c", "--list", IN + "r3n3.trn"],
    ["oracle", "--rule", "tc", "--winner", "a", "--list", U4],
    ["oracle", "--rule", "uc", "--winner", "b", "--list", "--json", U4],
    ["oracle", "--rule", "uc", "--winner", "d", U4],
    ["oracle", "--rule", "uc", "--winner", "d", "--list", U4],
    ["oracle", "--rule", "borda", "--winner", "a", "--guard", "10", W5B],
    ["oracle", "--rule", "borda", "--winner", "a", "--guard", "10", "--list", W5B],
    ["oracle", "--rule", "tc", "--winner", "a", W5A],
    # generate
    ["generate", "random", "--candidates", "4", "--voters", "5", "--seed", "7"],
    ["generate", "random", "--candidates", "6", "--seed", "1", "--json"],
    ["generate", "random", "--candidates", "1", "--voters", "3", "--seed", "2"],
    ["generate", "setcover", "--elements", "3", "--subsets", "3", "--seed", "1"],
    ["generate", "setcover", "--elements", "4", "--subsets", "5", "--seed", "2", "--json"],
    # input errors (2), incomplete tournaments (3), losers (4)
    ["winners", "--rule", "uc", "no-such-file.trn"],
    ["winners", "--rule", "mm", "--json", "no-such-file.trn"],
    *(["winners", "--rule", "mm", IN + bad] for bad in (
        "bad_voters.trn", "bad_weight.trn", "negative_weight.trn", "duplicate_pair.trn"
    )),
    ["sms", "--rule", "uc", "--winner", "zz", U4],
    ["explain", "--rule", "mm", "--winner", "zz", W5A],
    ["sms", "--rule", "cop", "--winner", "a", W5A],
    ["winners", "--rule", "mm", IN + "partial.trn"],
    ["sms", "--rule", "borda", "--winner", "a", IN + "partial.trn"],
    ["explain", "--rule", "wuc", "--winner", "a", "--json", IN + "partial.trn"],
    ["oracle", "--rule", "mm", "--winner", "a", IN + "partial.trn"],
    ["sms", "--rule", "tc", "--winner", "d", U4],
    ["sms", "--rule", "mm", "--winner", "d", "--json", W5A],
    ["explain", "--rule", "borda", "--winner", "b", W5B],
    ["explain", "--rule", "wuc", "--winner", "d", "--format", "dot", W5B],
]


def run_case(argv: list[str]) -> dict:
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(TESTS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {
        "argv": argv,
        "exit": code,
        "stdout": TIMING.sub(r"\g<1>0", out.getvalue()),
        "stderr": err.getvalue(),
    }


def winner_cases(path: str) -> list[list[str]]:
    """winners under every rule, then sms (text, json) and explain (text,
    dot, json) for every winner of every rule that applies."""
    cases = []
    for rule in RULES:
        cases.append(["winners", "--rule", rule, path])
        cases.append(["winners", "--rule", rule, "--json", path])
        listing = run_case(cases[-1])
        if listing["exit"] != 0:
            continue
        for w in json.loads(listing["stdout"])["result"]["winners"]:
            base = ["--rule", rule, "--winner", w]
            cases += [
                ["sms", *base, path],
                ["sms", *base, "--json", path],
                ["explain", *base, path],
                ["explain", *base, "--format", "dot", path],
                ["explain", *base, "--format", "json", path],
            ]
    return cases


def record() -> None:
    groups = {name: winner_cases(path) for name, path in WINNER_FILES.items()}
    groups["misc"] = MISC_CASES
    for name, cases in groups.items():
        data = [run_case(argv) for argv in cases]
        GOLDEN.joinpath(f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
        print(f"{name}: {len(data)} cases")


GROUPS = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_corpus_covers_every_group():
    assert GROUPS == sorted([*WINNER_FILES, "misc"])


@pytest.mark.parametrize("group", GROUPS)
def test_golden(group):
    expected = json.loads(GOLDEN.joinpath(f"{group}.json").read_text())
    for case in expected:
        assert run_case(case["argv"]) == case, " ".join(case["argv"])


if __name__ == "__main__":
    record()
