"""Command-line surface: outputs, exit codes, JSON envelope."""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wincert.cli import main
from wincert.model import serialize_tournament
from wincert.oracle import random_partial_tournament

FIXTURES = Path(__file__).parent / "fixtures"
U4 = str(FIXTURES / "u4.trn")
W5A = str(FIXTURES / "w5a.trn")
W5B = str(FIXTURES / "w5b.trn")

SCHEMA = json.loads(
    Path(__file__).parents[1]
    .joinpath("src", "wincert", "data", "envelope.schema.json")
    .read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope, err


# ---------------------------------------------------------------------------
# winners
# ---------------------------------------------------------------------------


def test_winners_mm(capsys):
    code, out, _ = run(capsys, "winners", "--rule", "mm", W5A)
    assert code == 0
    assert out.strip() == "a (score 3)"


def test_winners_uc(capsys):
    code, out, _ = run(capsys, "winners", "--rule", "uc", U4)
    assert code == 0
    assert out.strip() == "a b c"


def test_winners_missing_file(capsys):
    code, _, err = run(capsys, "winners", "--rule", "uc", "no-such-file.trn")
    assert code == 2
    assert "cannot read" in err


def test_winners_incomplete(tmp_path, capsys):
    f = tmp_path / "partial.trn"
    f.write_text("voters 2\ncandidates a b\na b 1\n")
    code, _, err = run(capsys, "winners", "--rule", "mm", str(f))
    assert code == 3
    assert "complete" in err


def test_winners_rule_voter_mismatch(capsys):
    code, _, err = run(capsys, "winners", "--rule", "tc", W5A)
    assert code == 2
    assert "1-weighted" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["winners"],
        ["sms", "--winner", "a"],
        ["explain", "--winner", "a"],
        ["verify", "--winner", "a", "--support", W5A],
        ["oracle", "--winner", "a"],
        ["oracle", "--winner", "a", "--list"],
    ],
)
@pytest.mark.parametrize("rule", ["tc", "uc", "cop"])
def test_rule_voter_mismatch_exits_2_with_one_message(capsys, argv, rule):
    # a unit-weight rule on a 5-voter file is an input error, not a loser
    code, out, err = run(capsys, *argv, "--rule", rule, W5A)
    assert (code, out) == (2, "")
    assert err == f"error: rule {rule} is defined on 1-weighted tournaments, got n=5\n"


@pytest.mark.parametrize(
    "content",
    [
        b"candidates a b\n\xffa b 1\n",
        "voters \u00b2\ncandidates a b\nb a 1\n".encode(),
        b"candidates a b\na b --1\n",
        "candidates a b\na b \u0661\n".encode(),
    ],
)
def test_hostile_file_exits_2(tmp_path, capsys, content):
    f = tmp_path / "hostile.trn"
    f.write_bytes(content)
    code, out, err = run(capsys, "winners", "--rule", "mm", str(f))
    assert code == 2
    assert err.startswith(f"error: {f}: line ") and not out


@pytest.mark.parametrize(
    "argv",
    [
        ["sms", "--rule", "xyz", "--winner", "a", U4],
        ["winners", "--rule", "xyz", "--json", U4],
        ["generate", "random", "--candidates", "0", "--seed", "1"],
        ["generate", "random", "--candidates", "3", "--voters", "0", "--seed", "1"],
        ["generate", "setcover", "--elements", "1", "--subsets", "3", "--seed", "1"],
        ["generate", "setcover", "--elements", "3", "--subsets", "1", "--seed", "1"],
        ["sms", "--rule", "wuc", "--winner", "a", "--budget", "-1", W5B],
        ["explain", "--rule", "wuc", "--winner", "a", "--budget", "0", W5B],
        ["oracle", "--rule", "uc", "--winner", "a", "--guard", "-5", U4],
    ],
)
def test_bad_arguments_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert any(line.startswith("error:") or ": error: " in line for line in captured.err.splitlines())
    assert "Traceback" not in captured.err and not captured.out


def test_winners_json_envelope(capsys):
    code, envelope, _ = run_json(capsys, "winners", "--rule", "borda", W5B)
    assert code == 0
    assert envelope["result"]["winners"] == ["a"]
    assert envelope["result"]["scores"]["a"] == 9


# ---------------------------------------------------------------------------
# sms
# ---------------------------------------------------------------------------


def test_sms_borda(capsys):
    code, out, _ = run(capsys, "sms", "--rule", "borda", "--winner", "a", W5B)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size 18"
    assert lines[1] == "win_count 9"
    assert "voters 5" in lines


def test_sms_tc(capsys):
    code, out, _ = run(capsys, "sms", "--rule", "tc", "--winner", "a", U4)
    assert code == 0
    assert out.splitlines()[0] == "size 3"
    assert sum(1 for line in out.splitlines() if len(line.split()) == 3 and line.split()[2] == "1") == 3


def test_sms_loser_exits_4(capsys):
    code, _, err = run(capsys, "sms", "--rule", "tc", "--winner", "d", U4)
    assert code == 4
    assert "actual winners: a b c" in err


def test_sms_writes_support_file(tmp_path, capsys):
    out_file = tmp_path / "support.trn"
    code, _, _ = run(
        capsys, "sms", "--rule", "mm", "--winner", "a", "--out", str(out_file), W5A
    )
    assert code == 0
    from wincert.model import parse_tournament

    support = parse_tournament(out_file.read_text())
    assert support.support_size() == 9


def test_sms_wuc_budget_exhausted_exits_5(capsys):
    code, out, _ = run(
        capsys, "sms", "--rule", "wuc", "--winner", "a", "--budget", "2", W5B
    )
    assert code == 5
    assert "budget exhausted" in out


def test_sms_json_envelope(capsys):
    code, envelope, _ = run_json(capsys, "sms", "--rule", "mm", "--winner", "a", W5A)
    assert code == 0
    result = envelope["result"]
    assert result["size"] == 9
    assert result["win_count"] == 9
    assert result["support"]["pairs"] == [["a", "b", 3], ["a", "c", 3], ["a", "d", 3]]


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def test_explain_uc_text(capsys):
    code, out, _ = run(capsys, "explain", "--rule", "uc", "--winner", "a", U4)
    assert code == 0
    assert out.startswith("a is part of the uncovered set because")
    assert "- a is not covered by c since a is preferred to b" in out


def test_explain_mm_dot(capsys):
    code, out, _ = run(
        capsys, "explain", "--rule", "mm", "--winner", "a", "--format", "dot", W5B
    )
    assert code == 0
    assert out.startswith("digraph support {")
    assert '"a" -> "b" [label="3"];' in out


def test_explain_json_certificate(capsys):
    code, out, _ = run(
        capsys, "explain", "--rule", "mm", "--winner", "a", "--format", "json", W5B
    )
    assert code == 0
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    cert = envelope["result"]["certificate"]
    assert cert["kind"] == "neighborhood"
    assert ["b", 3] in cert["winner_row"]
    assert envelope["result"]["text"].startswith("a is part of the maximin set")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def write_support(tmp_path, text):
    f = tmp_path / "claim.trn"
    f.write_text(text)
    return str(f)


def test_verify_valid(tmp_path, capsys):
    claim = write_support(
        tmp_path, "voters 1\ncandidates a b c d\na b 1\na d 1\nb c 1\n"
    )
    code, out, _ = run(
        capsys, "verify", "--rule", "uc", "--winner", "a", "--support", claim, U4
    )
    assert code == 0
    assert out.strip() == "valid-MS"


def test_verify_not_necessary_exits_6(tmp_path, capsys):
    claim = write_support(tmp_path, "voters 1\ncandidates a b c d\na b 1\na d 1\n")
    code, out, _ = run(
        capsys, "verify", "--rule", "uc", "--winner", "a", "--support", claim, U4
    )
    assert code == 6
    assert out.startswith("not-necessary")
    assert "witness: c" in out


def test_verify_not_minimal_exits_7(tmp_path, capsys):
    claim = write_support(
        tmp_path, "voters 1\ncandidates a b c d\na b 1\na d 1\nb c 1\nb d 1\n"
    )
    code, out, _ = run(
        capsys, "verify", "--rule", "uc", "--winner", "a", "--support", claim, U4
    )
    assert code == 7
    assert "witness:" in out


def test_verify_not_subtournament_exits_8(tmp_path, capsys):
    claim = write_support(tmp_path, "voters 1\ncandidates a b c d\na c 1\n")
    code, _, err = run(
        capsys, "verify", "--rule", "uc", "--winner", "a", "--support", claim, U4
    )
    assert code == 8
    assert "exceeds the base" in err


def test_verify_candidate_mismatch_exits_2(tmp_path, capsys):
    claim = write_support(tmp_path, "voters 1\ncandidates a b c\na b 1\n")
    code, _, err = run(
        capsys, "verify", "--rule", "uc", "--winner", "a", "--support", claim, U4
    )
    assert code == 2
    assert "candidate" in err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_uc(capsys):
    code, out, _ = run(capsys, "oracle", "--rule", "uc", "--winner", "a", U4)
    assert code == 0
    assert out.strip() == "3"


def test_oracle_mm(capsys):
    code, out, _ = run(capsys, "oracle", "--rule", "mm", "--winner", "a", W5A)
    assert code == 0
    assert out.strip() == "9"


def test_oracle_guard_exceeded_exits_9(capsys):
    code, _, err = run(
        capsys, "oracle", "--rule", "borda", "--winner", "a", "--guard", "10", W5B
    )
    assert code == 9
    assert "guard" in err


def test_oracle_list(capsys):
    code, out, _ = run(
        capsys, "oracle", "--rule", "tc", "--winner", "a", "--list", U4
    )
    assert code == 0
    assert out.splitlines()[0] == "size 3"
    assert out.count("candidates a b c d") >= 2


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_random_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "random.trn"
    code, out, _ = run(
        capsys,
        "generate", "random",
        "--candidates", "4", "--voters", "5", "--seed", "7",
        "--out", str(out_file),
    )
    assert code == 0
    from wincert.model import parse_tournament

    t = parse_tournament(out_file.read_text())
    assert t.is_complete() and t.m == 4 and t.n == 5
    code2, out2, _ = run(
        capsys, "generate", "random", "--candidates", "4", "--voters", "5", "--seed", "7"
    )
    assert out2 == out


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ("sms", "--rule", "uc", "--winner", "a", U4),
        ("generate", "random", "--candidates", "3", "--seed", "1"),
    ],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv, target):
    path = tmp_path / "no-such-dir" / "x.trn" if target == "missing" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")


def test_generate_setcover(capsys):
    code, out, _ = run(
        capsys, "generate", "setcover", "--elements", "3", "--subsets", "3", "--seed", "1"
    )
    assert code == 0
    assert "voters 2" in out
    assert "w" in out.split("\n")[1]


def test_winners_scores_are_integers_in_json(capsys):
    code, envelope, _ = run_json(capsys, "winners", "--rule", "mm", W5A)
    assert all(isinstance(v, int) for v in envelope["result"]["scores"].values())


# Exit codes main may return; 0 and the outcome codes 5-7 print a result,
# the others an error line.
RESULT_EXITS = {0, 5, 6, 7}
ERROR_EXITS = {2, 3, 4, 8, 9}


@st.composite
def tournament_files(draw):
    """A tournament file and a claimed support for it, as bytes: arbitrary
    bytes, or the serialization of a small seeded (partial) tournament
    with a few lines dropped, duplicated or overwritten.  The claim keeps
    the header and a random subset of the pair lines."""
    if draw(st.booleans()):
        data = draw(st.binary(max_size=120))
        return data, data
    g = random_partial_tournament(
        draw(st.integers(1, 5)),
        draw(st.sampled_from((1, 2, 3, 5))),
        draw(st.integers(0, 10**6)),
        max_open_pairs=draw(st.sampled_from((0, 0, 2, None))),
    )
    lines = serialize_tournament(g).encode().splitlines()
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "overwrite")))
        if edit == "drop":
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k] = draw(st.binary(max_size=20))
        if not lines:
            lines = [b""]
    keep = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    claim = lines[:2] + [line for line, kept in zip(lines[2:], keep[2:]) if kept]
    return b"\n".join(lines) + b"\n", b"\n".join(claim) + b"\n"


@given(
    files=tournament_files(),
    command=st.sampled_from(("winners", "sms", "verify")),
    rule=st.sampled_from(("tc", "uc", "cop", "borda", "mm", "wuc")),
    as_json=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_cli_contract_holds_on_arbitrary_files(files, command, rule, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        base, claim = Path(tmp, "t.trn"), Path(tmp, "claim.trn")
        base.write_bytes(files[0])
        claim.write_bytes(files[1])
        argv = [command, "--rule", rule, str(base)]
        if command != "winners":
            argv += ["--winner", "a"]
        if command == "sms":
            argv += ["--budget", "1000"]
        if command == "verify":
            argv += ["--support", str(claim)]
        if as_json:
            argv.append("--json")
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)  # an exception here is a traceback for the user
    if code in ERROR_EXITS:
        assert err.getvalue().startswith("error: ") and not out.getvalue()
    else:
        assert code in RESULT_EXITS and not err.getvalue()
        if as_json:
            jsonschema.validate(json.loads(out.getvalue()), SCHEMA)


def test_sms_size_equals_oracle_size_across_corpus(tmp_path, capsys):
    from wincert.model import serialize_tournament
    from wincert.oracle import random_tournament
    from wincert.solutions import winners as winner_sets
    from wincert.model import Rule

    corpus = [(U4, "tc", "a"), (U4, "uc", "a"), (U4, "cop", "b")]
    for seed in range(3):
        t = random_tournament(3, 3, seed)
        path = tmp_path / f"t{seed}.trn"
        path.write_text(serialize_tournament(t))
        for rule in ("borda", "mm", "wuc"):
            label = t.candidates.labels[winner_sets(Rule.from_string(rule), t).winners[0]]
            corpus.append((str(path), rule, label))
    for path, rule, winner in corpus:
        _, sms_out, _ = run(capsys, "sms", "--rule", rule, "--winner", winner, path)
        _, oracle_out, _ = run(capsys, "oracle", "--rule", rule, "--winner", winner, path)
        assert sms_out.splitlines()[0] == f"size {oracle_out.strip()}", (path, rule, winner)
