"""Tests of the benchmark itself: negative controls for the known-answer gate
and the trace's self-accounting.

    python -m pytest bench/test_gate.py -q

Each control breaks one thing (a recorded digest, a recorded exit code, the
call timeout, or the program's answer) and asserts that ``failed_ratio``
rises above 0; the positive control asserts it is 0 when nothing is broken.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

CALLS = [("replay", "--case", "6"), ("classify", "--diagram", "B~2")]


@pytest.fixture(scope="module")
def expected():
    return json.loads(run.EXPECTED.read_text())


def failed_ratio(calls, expected, timeout=run.CALL_TIMEOUT_S):
    passed = run.run_pass(calls, expected, time.perf_counter() + 120, timeout=timeout)
    _, extra = run.end_to_end([passed], setup=(1.0, 1.0))
    return extra["failed_ratio"][0]


def test_recorded_answers_pass(expected):
    assert failed_ratio(CALLS, expected) == 0


def test_corrupted_digest_fails(expected):
    broken = copy.deepcopy(expected)
    broken[run.call_key(CALLS[0])]["sha256"] = "0" * 64
    assert failed_ratio(CALLS, broken) > 0


def test_wrong_exit_code_fails(expected):
    broken = copy.deepcopy(expected)
    broken[run.call_key(CALLS[1])]["exit"] = 3
    assert failed_ratio(CALLS, broken) > 0


def test_forced_timeout_fails(expected):
    assert failed_ratio(CALLS, expected, timeout=0.01) == 1


def test_missing_expectation_fails(expected):
    broken = dict(expected)
    del broken[run.call_key(CALLS[0])]
    assert failed_ratio(CALLS, broken) > 0


def test_past_deadline_counts_as_failed(expected):
    passed = run.run_pass(CALLS, expected, deadline=time.perf_counter() - 1)
    assert all(c["problem"] == "timeout" for c in passed["calls"])


@pytest.mark.parametrize(
    "call, stdout",
    [
        (("verify", "--diagram", "A~2", "--ring", "Z/5", "--level-bound", "1"),
         b'{"all_passed": false, "families": [{"instances": 4}]}'),
        (("verify", "--diagram", "A~2", "--ring", "Z/5", "--level-bound", "1"),
         b'{"all_passed": true, "families": []}'),
        (("replay", "--case", "4", "--eps", "1", "--eps-prime", "-1"),
         b"X_{alpha+2*sigma+lambda}(-6*t*u)\nCONSTANT C=-6\n"),
        (("replay", "--case", "1"), b"X_{alpha+beta}(4*t*u)\nCONSTANT C=4\n"),
        (("classify", "--diagram", "B~2"), b'{"label": "B~2"}'),
        (("classify", "--diagram", "C2"), b"not json"),
    ],
)
def test_program_independent_checks_reject_wrong_answers(call, stdout):
    problem, _ = workloads.check_output(call, stdout)
    assert problem is not None


def test_case4_table_matches_readme():
    verdicts = {k[1:]: v for k, v in workloads.REPLAY_VERDICTS.items() if k[0] == 4}
    assert verdicts == {(1, 1): "COMMUTE", (1, -1): "CONSTANT C=6",
                        (-1, 1): "CONSTANT C=12", (-1, -1): "CONSTANT C=-6"}


def test_every_seeded_call_has_an_expectation(expected):
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            for call in workloads.calls_for(workload, seed):
                assert run.call_key(call) in expected


def test_seed_keeps_subcommand_counts():
    def counts(seed):
        return Counter(call[0] for call in workloads.calls_for("toolkit-session", seed))

    assert counts(1) == counts(2) == counts(3)
    assert workloads.calls_for("toolkit-session", 1) != workloads.calls_for("toolkit-session", 2)


def test_tail_percentile():
    assert run.tail([1.0] * 10) is None
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and pct == 75.0


def test_trace_accounts_for_the_wall(expected):
    calls = [("replay", "--case", "6")]
    traced = run.run_pass(calls, expected, time.perf_counter() + 120, traced=True)
    assert traced["calls"][0]["problem"] is None  # same bytes as untraced
    split = run.layer_split(traced, run.calibrate())
    layers = sum(split[f"{layer}.self_s"] for layer in run.LAYERS)
    total = layers + split["cli.import_s"] + split["trace.unattributed_s"]
    assert total == pytest.approx(split["trace.wall_s"], abs=1e-9)
    assert split["collection.replays"] == 1 and split["loopmodel.products"] == 0
    assert split["collection.self_s"] > 0 and split["cli.import_s"] > 0
    plain, traced_call = sorted(traced["calls"], key=lambda c: c["traced"])
    assert split["trace.wall_s"] == traced_call["norm_s"]
    assert split["trace.overhead_s"] == pytest.approx(traced_call["norm_s"] - plain["norm_s"])
