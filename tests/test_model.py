"""Data model: parsing, serialization, extensions, completions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wincert.model import (
    MAX_VOTERS,
    CandidateSet,
    GuardExceededError,
    PartialTournament,
    TournamentFormatError,
    WeightedTournament,
    completion_count,
    enumerate_completions,
    extends,
    parse_tournament,
    serialize_tournament,
)
from wincert.oracle import random_tournament


def partial_from_seed(seed: int, m=4, n=3) -> PartialTournament:
    from wincert.oracle import random_partial_tournament

    return random_partial_tournament(m, n, seed)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_minimal():
    t = parse_tournament("voters 1\ncandidates a b\na b 1\n")
    assert t.m == 2 and t.n == 1
    assert t.mu(0, 1) == 1 and t.mu(1, 0) == 0


def test_parse_default_voters_and_comments():
    t = parse_tournament("# heading\n\ncandidates a b c\nb c 1\n")
    assert t.n == 1
    assert t.mu(1, 2) == 1


def test_parse_fixture_is_complete(u4):
    assert u4.is_complete() and u4.m == 4 and u4.n == 1


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("voters 2\ncandidates a b\na b 2\nb a 1\n", "sum", 4),
        ("candidates a a\n", "unique", 1),
        ("candidates a b\na b 1\na b 1\n", "duplicate pair", 3),
        ("candidates a b\na b 2\n", "outside", 2),
        ("candidates a b\na c 1\n", "unknown candidate", 2),
        ("candidates a b\na b\n", "malformed", 2),
        ("candidates a b\na a 1\n", "self-comparison", 2),
        ("candidates a b\nvoters 2\na b 1\n", None, None),  # voters after candidates is fine
        ("a b 1\n", "before 'candidates'", 1),
        ("candidates a b\nvoters 2\nvoters 2\n", "duplicate 'voters'", 3),
        (b"candidates a b\n\xffa b 1\n", "not valid UTF-8", 2),
        (b"voters 1\r\ncandidates a b\r\na b 1\r\n\xc3", "not valid UTF-8", 4),
        ("voters \u00b2\ncandidates a b\n", "expected 'voters <n>'", 1),
        pytest.param(
            "voters " + "9" * 5000 + "\ncandidates a b\n", "expected 'voters <n>'", 1,
            id="voters-5000-digits",
        ),
        ("candidates a b\na b --1\n", "not an integer", 2),
        ("candidates a b\na b \u0661\n", "not an integer", 2),
        ("candidates a b\na b -1\n", "outside", 2),
        ("candidates a voters\n", "reserved word", 1),
        ("candidates candidates\n", "reserved word", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    if fragment is None:
        parse_tournament(text)
        return
    with pytest.raises(TournamentFormatError) as err:
        parse_tournament(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_voters_must_precede_pairs():
    with pytest.raises(TournamentFormatError, match="precede"):
        parse_tournament("candidates a b\na b 1\nvoters 2\n")


@given(st.integers(0, 500), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_roundtrip_parse_serialize(seed, m, n):
    from wincert.oracle import random_partial_tournament

    g = random_partial_tournament(m, n, seed)
    assert parse_tournament(serialize_tournament(g)) == g


def _valid_label(label: str) -> bool:
    try:
        CandidateSet((label,))
    except ValueError:
        return False
    return True


@st.composite
def partial_tournaments(draw):
    """Arbitrary valid partial tournaments: any labels the model accepts,
    including the format's keywords when it does, and any voter count."""
    label = st.one_of(st.sampled_from(["voters", "candidates", "#a", "a#"]), st.text(min_size=1, max_size=6))
    labels = draw(st.lists(label.filter(_valid_label), min_size=1, max_size=5, unique=True))
    n = draw(st.one_of(st.integers(1, 4), st.integers(1, MAX_VOTERS)))
    m = len(labels)
    matrix = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            matrix[i][j] = draw(st.integers(0, n))
            matrix[j][i] = draw(st.integers(0, n - matrix[i][j]))
    return PartialTournament(CandidateSet(tuple(labels)), n, tuple(map(tuple, matrix)))


@given(partial_tournaments())
@settings(max_examples=200, deadline=None)
def test_roundtrip_arbitrary_labels_and_weights(g):
    text = serialize_tournament(g)
    assert parse_tournament(text) == g
    assert parse_tournament(text.encode("utf-8")) == g


NEAR_MISS_TOKENS = [
    b"voters", b"candidates", b"a", b"b", b"c", b"0", b"1", b"2", b"-1", b"--1", b"9" * 12,
    "\u00b2".encode(), "\u0661".encode(), b"\xff", b"\xc3", b"#", b" ", b"\t", b"\n", b"\r\n",
]


@given(
    st.one_of(
        st.binary(max_size=120),
        st.lists(st.sampled_from(NEAR_MISS_TOKENS), max_size=40).map(b"".join),
    )
)
@settings(max_examples=200, deadline=None)
def test_parse_raises_only_format_errors(data):
    try:
        g = parse_tournament(data)
    except TournamentFormatError:
        return
    assert parse_tournament(serialize_tournament(g)) == g


def test_serialize_omits_zero_pairs():
    g = PartialTournament.from_pairs("ab", 2, {("a", "b"): 1})
    text = serialize_tournament(g)
    assert text == "voters 2\ncandidates a b\na b 1\n"


# ---------------------------------------------------------------------------
# Invariants of the types
# ---------------------------------------------------------------------------


def test_pair_sum_invariant_rejected():
    with pytest.raises(ValueError, match="sums to"):
        PartialTournament.from_pairs("ab", 2, {("a", "b"): 2, ("b", "a"): 1})


def test_weighted_requires_completeness():
    with pytest.raises(ValueError, match="complete"):
        WeightedTournament.from_rows("ab", 2, [[0, 1], [0, 0]])


def test_single_candidate_is_complete():
    t = PartialTournament.from_pairs("a", 3)
    assert t.is_complete()
    assert t.support_size() == 0


# ---------------------------------------------------------------------------
# extends: a partial order
# ---------------------------------------------------------------------------


@given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_extends_partial_order(s1, s2, s3):
    base = random_tournament(4, 3, 0)
    tournaments = []
    for seed in (s1, s2, s3):
        from wincert.oracle import random_partial_tournament

        g = random_partial_tournament(4, 3, seed)
        tournaments.append(g.replace_weights([list(r) for r in g.weights]))
    a, b, c = tournaments
    assert extends(a, a)  # reflexive
    if extends(a, b) and extends(b, a):
        assert a == b  # antisymmetric
    if extends(a, b) and extends(b, c):
        assert extends(a, c)  # transitive
    if extends(a, b):
        assert a.support_size() <= b.support_size()  # size monotone


def test_extends_requires_same_frame():
    a = PartialTournament.from_pairs("ab", 1)
    b = PartialTournament.from_pairs("ab", 2)
    c = PartialTournament.from_pairs("ac", 1)
    with pytest.raises(ValueError, match="voter"):
        extends(a, b)
    with pytest.raises(ValueError, match="candidate"):
        extends(a, c)


def test_support_extends_fixture(u4c):
    x = PartialTournament.from_pairs("abcd", 1, {("a", "b"): 1, ("a", "c"): 1, ("c", "d"): 1})
    assert extends(x, u4c)
    assert extends(u4c, u4c)
    assert not extends(u4c, x)


# ---------------------------------------------------------------------------
# Completions
# ---------------------------------------------------------------------------


def test_complete_tournament_has_single_completion(w5a):
    comps = list(enumerate_completions(w5a))
    assert comps == [w5a]


def test_two_candidate_empty_partial_has_two_completions():
    g = PartialTournament.from_pairs("ab", 1)
    comps = list(enumerate_completions(g))
    assert len(comps) == 2
    assert {c.mu(0, 1) for c in comps} == {0, 1}


def test_three_candidate_empty_partial_has_eight_completions():
    g = PartialTournament.from_pairs("abc", 1)
    assert completion_count(g) == 8
    assert len(list(enumerate_completions(g))) == 8


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_completions_are_complete_extensions(seed):
    from wincert.oracle import random_partial_tournament

    g = random_partial_tournament(3, 2, seed)
    seen = set()
    for comp in enumerate_completions(g):
        assert comp.is_complete()
        assert extends(g, comp)
        seen.add(comp.weights)
    assert len(seen) == completion_count(g)


def test_completion_guard():
    g = PartialTournament.from_pairs("abcdefgh", 31)
    with pytest.raises(GuardExceededError, match="rule-specific"):
        list(enumerate_completions(g, guard=1000))
