"""Benchmark calls: reproducible digests, shims that change nothing,
correctness checks, and the command-line contract."""

import copy
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.calibration import REFERENCE_S, SpeedLog
from perfbench.checks import check_records, quality_gaps
from perfbench.tracer import Tracer, layer_metric_spec, shims
from perfbench.workloads import WORKLOADS
from v2vaoi import cli

ROOT = Path(__file__).resolve().parents[2]


def first_cycle(workload, seed):
    return next(WORKLOADS[workload].cycles(seed))


def run_cycle(cycle, out_path):
    return [run.run_call(cli, argv, out_path) for argv in cycle]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_digests_and_traced_equals_plain(workload, tmp_path):
    cycle = first_cycle(workload, 11)
    assert cycle == first_cycle(workload, 11)
    out = tmp_path / "out.jsonl"
    first = run_cycle(cycle, out)
    second = run_cycle(cycle, out)
    tracer = Tracer()
    with shims(tracer):
        traced = run_cycle(cycle, out)
    assert all(not c.problems for c in first + second + traced)
    digests = [c.digest for c in first]
    assert digests == [c.digest for c in second] == [c.digest for c in traced]
    assert tracer.stats()["cli.main"]["calls"] == len(cycle)


def test_seed_orders_the_prefix_and_draws_the_rest():
    for workload in WORKLOADS.values():
        n = workload.prefix_cycles
        one = list(itertools.islice(workload.cycles(1), n + 1))
        two = list(itertools.islice(workload.cycles(2), n + 1))
        assert one[:n] != two[:n]
        assert sorted(one[:n]) == sorted(two[:n])  # the same calls, reordered
        assert len(one) == n + workload.endless
        if workload.endless:
            assert one[n] != two[n]


def _records(argv, tmp_path):
    call = run.run_call(cli, argv, tmp_path / "out.jsonl")
    assert not call.problems
    return [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]


def test_checks_flag_broken_records(tmp_path):
    solve = _records(["solve", "--n", "4", "--epochs", "30", "--seed", "3"], tmp_path)
    assert check_records(solve) == []
    assert len(quality_gaps(solve)) == 1
    bad = copy.deepcopy(solve)
    bad[1]["power_w"][0][1] = 2 * bad[0]["p_max"]
    bad[1]["delay_s"][1][0] = float("inf")
    problems = check_records(bad)
    assert any("outside" in p for p in problems)
    assert any("over budget" in p for p in problems)
    assert any("finite" in p for p in problems)

    compare = _records(["compare", "--n", "3", "--trials", "1", "--epochs", "30",
                        "--generations", "30"], tmp_path)
    assert check_records(compare) == []
    bad = copy.deepcopy(compare)
    bad[1]["per_trial"][0]["strategies"][0]["min_snr"] = 1.5  # bound is 1/(3-2)
    assert check_records(bad)

    aoi = _records(["aoi", "--n", "4", "--epochs", "30", "--compute-delay", "0.05"], tmp_path)
    assert check_records(aoi) == []
    assert len(quality_gaps(aoi)) == 2
    bad = copy.deepcopy(aoi)
    bad[2]["proxy_ap50"] = 1.2
    bad[3]["stale_count"] = 17
    assert len(check_records(bad)) == 2
    assert check_records(aoi[:1])


def test_prefix_calls_cut_off_by_the_deadline_count_as_failed(monkeypatch, tmp_path):
    workload = WORKLOADS["aoi-fleet"]
    prefix = run.prefix_calls(workload, 1)
    original = run.run_cycles
    budget = []  # run_cycles calls still allowed to run one cycle

    def deadline_after_budget(cli_, cycles, out_path, speed, *_):
        if not budget:
            return []
        budget.pop()
        return original(cli_, itertools.islice(cycles, 1), out_path, speed, 1, 0.0,
                         time.perf_counter())

    monkeypatch.setattr(run, "run_cycles", deadline_after_budget)
    monkeypatch.setattr(run, "measure_setup", lambda workload, speed: 0.1)
    out = tmp_path / "out.jsonl"

    budget[:] = [1]
    calls, _, attempted, failed, metrics, _ = run.measured_run(
        cli, workload, 1, 0.0, out, time.perf_counter())
    assert len(calls) == 4 and not any(c.problems for c in calls)
    assert (attempted, failed) == (prefix, prefix - 4)
    assert metrics["success_rate"][0] == 4 / prefix

    budget[:] = [1, 1]  # one plain and one traced pass
    calls, _, attempted, failed, _, _ = run.traced_run(
        cli, workload, 1, out, time.perf_counter())
    assert len(calls) == 8
    assert (attempted, failed) == (2 * prefix, 2 * prefix - 8)


def test_speed_log_scales_by_the_samples_near_a_span():
    speed = SpeedLog()
    for _ in range(3):
        speed.sample()
    end = time.perf_counter()
    assert len(speed.took) == 3
    assert speed.scale(end - 0.1, end) == pytest.approx(
        REFERENCE_S / sorted(speed.took)[1]
    )


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layer_metric_spec()
    ]


def test_command_line_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aoi-fleet", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS["aoi-fleet"].prefix_cycles
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aoi-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
