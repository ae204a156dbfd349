"""Tests for the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import tempfile
from types import SimpleNamespace

import pytest

import gauge
import inputs
import run
import workloads


@pytest.fixture(scope="module")
def wc():
    return run.load_wincert()


@pytest.fixture(scope="module")
def verify_pool(wc):
    return workloads.setup_verify_claims(random.Random(7), "")


def _serve(name, pool, wc, count):
    work = workloads.WORKLOADS[name]
    return run.phase(work, pool, wc, run.NullTracer(), gauge.HostGauge(*work.host_gauge), count=count)


def test_untampered_requests_pass(wc, verify_pool):
    latencies, _, failures, _ = _serve("verify-claims", verify_pool, wc, 5)
    assert len(latencies) == 5 and failures == []


def test_tampered_verdicts_are_counted_as_failed(wc, verify_pool, monkeypatch):
    monkeypatch.setattr(wc.sms, "verify_support", lambda t, claim: wc.sms.SupportVerdict("valid-MS"))
    latencies, _, failures, _ = _serve("verify-claims", verify_pool, wc, 5)
    assert [index for index, _ in failures] == list(range(5))
    assert all("verdicts" in problems[0] for _, problems in failures)


def test_tampered_support_size_is_counted_as_failed(wc, verify_pool, monkeypatch):
    compute = wc.sms.compute_sms

    def inflated(*args, **kwargs):
        res = compute(*args, **kwargs)
        return dataclasses.replace(res, size=res.size + 1)

    monkeypatch.setattr(wc.sms, "compute_sms", inflated)
    latencies, _, failures, _ = _serve("verify-claims", verify_pool, wc, 5)
    assert len(failures) == 5


def test_raising_request_is_counted_as_failed(wc, verify_pool, monkeypatch):
    def broken(text):
        raise RuntimeError("boom")

    monkeypatch.setattr(wc.model, "parse_tournament", broken)
    _, _, failures, _ = _serve("verify-claims", verify_pool, wc, 2)
    assert [problems for _, problems in failures] == [["RuntimeError: boom"]] * 2


def test_wuc_checks_reject_sizes_off_the_setcover_optimum():
    p, subsets = 4, [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2}), frozenset({0, 3})]
    mat = inputs.setcover_matrix(p, subsets)
    inp = SimpleNamespace(mat=mat, n=2, optimum=p + len(subsets) + 2)
    sup, left = [[0] * len(mat) for _ in mat], inp.optimum
    for i, j in itertools.product(range(len(mat)), repeat=2):
        sup[i][j] = min(mat[i][j], left)
        left -= sup[i][j]
    good = {"size": inp.optimum, "optimal": True, "lower_bound": None, "sup": sup, "verdict": "valid-MS", "text": "x"}
    assert workloads.check_wuc_search(inp, good) == []
    for bad in (
        {"size": inp.optimum + 1},
        {"size": inp.optimum - 1},
        {"optimal": False, "lower_bound": inp.optimum + 5},
        {"verdict": "not-necessary"},
    ):
        assert workloads.check_wuc_search(inp, {**good, **bad})


def test_cli_checks_reject_wrong_exit_codes_and_envelopes(wc):
    with tempfile.TemporaryDirectory() as workdir:
        pool = workloads.setup_cli_small(random.Random(3), workdir)
        outs = [workloads.run_cli_small(spec, wc, run.NullTracer()) for spec in pool]
    assert all(workloads.check_cli_small(spec, out) == [] for spec, out in zip(pool, outs))
    winners_spec, winners_out = pool[0], outs[0]
    envelope = json.loads(winners_out["stdout"])
    envelope["result"]["winners"] = ["nobody"]
    assert workloads.check_cli_small(winners_spec, {**winners_out, "stdout": json.dumps(envelope)})
    envelope["command"] = "sms"
    assert workloads.check_cli_small(winners_spec, {**winners_out, "stdout": json.dumps(envelope)})
    assert workloads.check_cli_small(winners_spec, {**winners_out, "code": 2})


def test_setcover_matrix_matches_the_documented_construction(wc):
    import wincert.oracle as oracle

    rng = random.Random(5)
    for _ in range(5):
        subsets = inputs.setcover_instance(rng, 6, 5, 2, 3)
        t, w = oracle.build_setcover_tournament(oracle.SetCoverInstance(6, tuple(subsets)))
        assert [list(row) for row in t.weights] == inputs.setcover_matrix(6, subsets)
        assert list(t.candidates.labels) == inputs.setcover_labels(6, 5)
        assert inputs.min_cover(6, subsets) == oracle.min_set_cover(oracle.SetCoverInstance(6, tuple(subsets)))


def test_reference_winner_sets_agree_with_wincert(wc):
    rng = random.Random(11)
    for m, n, rules in ((9, 1, ("tc", "uc", "cop", "borda", "mm", "wuc")), (7, 4, ("borda", "mm", "wuc"))):
        for _ in range(20):
            mat = inputs.random_matrix(rng, m, n)
            t = wc.model.parse_tournament(inputs.canonical_text(inputs.labels_for(m), n, mat)).as_complete()
            for rule in rules:
                assert inputs.winner_set(rule, mat) == set(wc.solutions.winners(wc.model.Rule(rule), t).winners)


def test_min_cover_is_the_brute_force_minimum():
    rng = random.Random(2)
    for _ in range(10):
        subsets = inputs.setcover_instance(rng, 7, 6, 1, 4)
        full = set(range(7))
        best = min(
            k
            for k in range(1, 7)
            for combo in itertools.combinations(subsets, k)
            if set().union(*combo) == full
        )
        assert inputs.min_cover(7, subsets) == best


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(x) for x in range(1, 31)]
    value, percentile = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10 and percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_spec()
    assert len(spec["per_layer"]) <= 128
