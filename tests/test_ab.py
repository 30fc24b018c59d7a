"""tools/ab.py's summary of paired benchmark runs, driven on canned run.py
reports: no subprocess, no worktree."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("ab")


SPEC = {"end_to_end": [
    {"name": "wall_ref_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score_mean", "unit": "r2", "better": "higher", "bound": 0.24}]}


def report(wall, score=0.5, correct=True, failed=0, attempted=3):
    return {"correct": correct, "failed": failed, "attempted": attempted,
            "metrics": {"wall_ref_s": {"value": wall, "unit": "s"},
                        "score_mean": {"value": score, "unit": "r2"}}}


def paired(base, change, **kwargs):
    return [(report(b), report(c, **kwargs)) for b, c in zip(base, change)]


BASE = [0.150, 0.154, 0.152, 0.156, 0.153, 0.155, 0.151, 0.157, 0.154, 0.153]


def test_a_clear_gain_is_a_gain(ab):
    change = [b - 0.015 for b in BASE]
    change[3] = 0.160  # one pair lost: 9 of 10 still pass
    doc = ab.summarize(paired(BASE, change), SPEC)
    wall = doc["metrics"]["wall_ref_s"]
    assert wall["wins"] == 9 and wall["verdict"] == "gain"
    assert wall["base"]["values"] == BASE and wall["change"]["values"] == change
    assert wall["base"]["median"] == pytest.approx(0.1535)
    assert (wall["base"]["q1"], wall["base"]["q3"]) == pytest.approx((0.15225, 0.15475))
    assert doc["metrics"]["score_mean"] == {
        "better": "higher", "bound": 0.24, "wins": 0, "verdict": "no difference",
        "base": {"median": 0.5, "q1": 0.5, "q3": 0.5, "values": [0.5] * 10},
        "change": {"median": 0.5, "q1": 0.5, "q3": 0.5, "values": [0.5] * 10}}
    assert (doc["verdict"], doc["gains"]) == ("gain", ["wall_ref_s"])
    assert doc["base"] == doc["change"] == {"correct": True, "failed": 0,
                                             "attempted": 30}
    json.dumps(doc)  # one JSON object


def test_eight_wins_in_ten_is_no_gain(ab):
    change = [b - 0.015 for b in BASE]
    change[3] = change[4] = 0.160
    doc = ab.summarize(paired(BASE, change), SPEC)
    assert doc["metrics"]["wall_ref_s"]["wins"] == 8
    assert doc["verdict"] == "no difference" and doc["gains"] == []


def test_a_gain_inside_the_base_spread_is_no_gain(ab):
    # every pair won, by less than the base's interquartile range
    doc = ab.summarize(paired(BASE, [b - 0.001 for b in BASE]), SPEC)
    assert doc["metrics"]["wall_ref_s"]["wins"] == 10
    assert doc["metrics"]["wall_ref_s"]["verdict"] == "no difference"


def test_an_a_a_run_resolves_no_difference(ab):
    doc = ab.summarize(paired(BASE, BASE[::-1]), SPEC)
    assert [m["verdict"] for m in doc["metrics"].values()] == ["no difference"] * 2
    assert doc["verdict"] == "no difference"


@pytest.mark.parametrize("metric, change, worse", [
    ("wall_ref_s", 1.26, True), ("wall_ref_s", 1.24, False),
    ("score_mean", 0.75, True), ("score_mean", 0.77, False)])
def test_worse_beyond_the_bound_is_worse(ab, metric, change, worse):
    base = report(1.0, score=1.0)
    changed = report(change if metric == "wall_ref_s" else 1.0,
                     score=change if metric == "score_mean" else 1.0)
    doc = ab.summarize([(base, changed)] * 3, SPEC)
    assert (doc["metrics"][metric]["verdict"] == "worse") is worse
    assert (doc["verdict"] == "worse") is worse


def test_a_spread_wider_than_the_bound_is_unresolved(ab):
    base = [1.0, 2.0, 1.0, 2.0]
    doc = ab.summarize(paired(base, [1.1, 1.9, 1.2, 1.8]), SPEC)
    assert doc["metrics"]["wall_ref_s"]["verdict"] == "unresolved"
    assert doc["verdict"] == "unresolved"
    # unless every run of the change reads better than every base run
    doc = ab.summarize(paired([2.0, 3.0, 2.0, 3.0], [1.9, 1.95, 1.9, 1.95]), SPEC)
    assert doc["metrics"]["wall_ref_s"]["verdict"] == "no difference"


@pytest.mark.parametrize("kwargs", [{"correct": False}, {"failed": 1}])
def test_a_wrong_or_failing_change_is_refused(ab, kwargs):
    doc = ab.summarize(paired(BASE, [b - 0.015 for b in BASE], **kwargs), SPEC)
    assert doc["verdict"] == "refused"
    assert doc["metrics"]["wall_ref_s"]["verdict"] == "gain"


def test_the_same_failure_share_is_not_refused(ab):
    pairs = [(report(b, failed=1, attempted=4), report(b, failed=1, attempted=4))
             for b in BASE]
    assert ab.summarize(pairs, SPEC)["verdict"] == "no difference"


def test_the_committed_spec_declares_what_the_summary_reads(ab):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["better"] for m in spec["end_to_end"]} <= {"lower", "higher"}
    assert all(m["bound"] > 0 for m in spec["end_to_end"])
    one = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    run = {"correct": True, "failed": 0, "attempted": 1, "metrics": one}
    assert ab.summarize([(run, run)], spec)["verdict"] == "no difference"


def test_pairs_must_be_positive(ab):
    with pytest.raises(SystemExit):
        ab.parse_args(["--base", "HEAD", "--workload", "w", "--pairs", "0"])
    args = ab.parse_args(["--base", "HEAD", "--workload", "w", "--seed", "3", "4"])
    assert (args.seed, args.pairs, args.seconds) == ([3, 4], 10, 15.0)
