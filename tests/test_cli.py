"""End-to-end CLI behavior: reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import v2vaoi
from v2vaoi.allocator import (
    AllocationProblem,
    GeneticConfig,
    GreedyConfig,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
)
from v2vaoi.channel import ChannelParams
from v2vaoi.cli import (
    _COMMANDS,
    _FLAGS,
    _config_record,
    _fmt_matrix,
    _plot_series,
    _resolve,
    build_parser,
    main,
)
from v2vaoi.metrics import (
    AVERAGED_COLUMNS,
    STRATEGIES,
    ComparisonConfig,
    delay_mean,
    delay_variance,
    optimality_gap,
    run_comparison,
)
from v2vaoi.scenario import ScenarioSpec, generate_scene
from v2vaoi.seeds import derive_seed


def run_cli(args):
    return main([str(a) for a in args])


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture
def two_vehicle_scene(tmp_path):
    path = tmp_path / "scene2.txt"
    path.write_text("2\n0 10\n10 0\n")
    return path


def test_solve_default_two_vehicles(two_vehicle_scene, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = run_cli(
        ["solve", "--scene", two_vehicle_scene, "--strategy", "default", "--out", out]
    )
    assert code == 0
    records = read_records(out)
    assert records[0]["type"] == "config"
    assert records[0]["strategy"] == "default"
    result = records[1]
    assert result["type"] == "solve_result"
    assert result["power_w"] == [[0.0, 23.0], [23.0, 0.0]]
    assert "power matrix" in capsys.readouterr().out


def test_solve_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["solve", "--n", 3, "--seed", 42, "--strategy", "greedy", "--epochs", 200]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_rate_factor_scales_delays_exactly(tmp_path):
    base, scaled = tmp_path / "base.jsonl", tmp_path / "scaled.jsonl"
    args = ["solve", "--n", 3, "--seed", 7, "--strategy", "greedy", "--epochs", 150]
    assert run_cli(args + ["--out", base]) == 0
    assert run_cli(args + ["--rate-factor", 0.2154, "--out", scaled]) == 0
    d_base = np.array(read_records(base)[1]["delay_s"])
    d_scaled = np.array(read_records(scaled)[1]["delay_s"])
    np.testing.assert_array_equal(d_scaled, d_base * 0.2154)


def test_library_solve_carries_the_rate_factor(tmp_path):
    # the channel model applies the scale, so a library solve reports the
    # delays that solve --rate-factor records
    out = tmp_path / "solve.jsonl"
    args = ["solve", "--n", 5, "--seed", 3, "--epochs", 300, "--rate-factor", 0.2154]
    assert run_cli(args + ["--out", out]) == 0
    record = read_records(out)[1]
    dist, _ = generate_scene(ScenarioSpec(5, rng_seed=derive_seed(3, 0)))
    problem = AllocationProblem(ChannelParams(rate_factor=0.2154), dist)
    result = greedy_pa(problem, GreedyConfig(max_epochs=300))
    want = {"delay_s": result.delay_s.tolist(),
            "objective_max_delay_s": result.objective_max_delay_s}
    assert {key: record[key] for key in want} == json.loads(json.dumps(want))


def test_strategy_choices_are_the_table():
    (choices,) = [kind for key, kind, *_ in _FLAGS if key == "strategy"]
    assert choices == tuple(STRATEGIES) == ("default", "greedy", "genetic", "exact")


def test_solve_strategies_follow_the_seed_rule(tmp_path):
    # solve --strategy <name> records what the library solver gives on the
    # scene of derive_seed(3, 0), the GA running on derive_seed(3, 1); no
    # strategy beats exact's min SNR
    dist, _ = generate_scene(ScenarioSpec(5, rng_seed=derive_seed(3, 0)))
    problem = AllocationProblem(ChannelParams(), dist)
    library = {
        "default": default_pa(problem),
        "greedy": greedy_pa(problem, GreedyConfig()),
        "genetic": genetic_pa(problem, GeneticConfig(rng_seed=derive_seed(3, 1))),
        "exact": exact_pa(problem),
    }
    recorded = {}
    for name in STRATEGIES:
        out = tmp_path / f"{name}.jsonl"
        assert run_cli(["solve", "--strategy", name, "--n", 5, "--seed", 3, "--out", out]) == 0
        recorded[name] = read_records(out)[1]
        assert recorded[name]["objective_min_snr"] == library[name].objective_min_snr
        assert recorded[name]["objective_max_delay_s"] == library[name].objective_max_delay_s
    optimum = recorded["exact"]["objective_min_snr"]
    assert all(optimum >= record["objective_min_snr"] for record in recorded.values())


def test_solve_records_name_the_stop_rule(tmp_path):
    # a stop says which rule ended the solve, not how close it came: on this
    # scene greedy's plateau is over 50% below the optimum that exact
    # certifies, and the even split takes no step
    recorded = {}
    for name in ("default", "greedy", "exact"):
        out = tmp_path / f"{name}.jsonl"
        assert run_cli(["solve", "--strategy", name, "--n", 16, "--seed", 0, "--out", out]) == 0
        recorded[name] = read_records(out)[1]
    assert {name: r["stop_reason"] for name, r in recorded.items()} == {
        "default": "budget", "greedy": "plateau", "exact": "certified"
    }
    assert "converged" not in recorded["greedy"]
    optimum = recorded["exact"]["objective_min_snr"]
    assert recorded["greedy"]["objective_min_snr"] <= 0.5 * optimum
    out = tmp_path / "cut.jsonl"
    assert run_cli(["solve", "--n", 8, "--epochs", 50, "--out", out]) == 0
    cut = read_records(out)[1]
    assert (cut["epochs_used"], cut["stop_reason"]) == (50, "budget")


def test_verify_comparison_is_run_comparison(tmp_path):
    # verify is compare at one n: its comparison record is run_comparison's
    # on ScenarioSpec(n, box, sep, seed), and its verdict reads the largest
    # gap_vs_exact of the greedy row
    out = tmp_path / "verify.jsonl"
    args = ["verify", "--n", 5, "--instances", 3, "--seed", 2, "--epochs", 300,
            "--box-side", 80, "--min-sep", 4]
    assert run_cli(args + ["--gap-threshold", 1, "--out", out]) == 0
    _, comparison, verdict = out.read_text().splitlines()
    solvers = ComparisonConfig(greedy=GreedyConfig(max_epochs=300))
    want = run_comparison(ScenarioSpec(5, 80.0, 4.0, 2), 3, solvers)
    assert comparison == json.dumps(want)
    gaps = [row["gap_vs_exact"] for trial in want["per_trial"] for row in trial["strategies"]
            if row["strategy"] == "greedy_epoch300"]
    assert len(gaps) == 3
    assert json.loads(verdict) == {
        "type": "verify_verdict", "worst_greedy_gap": max(gaps), "gap_threshold": 1.0, "ok": True
    }


def test_solve_asymmetric_scene_fails(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 10\n12 0\n")
    code = run_cli(["solve", "--scene", bad])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_compare_two_vehicles_rmse_zero(tmp_path):
    out = tmp_path / "cmp.jsonl"
    code = run_cli(
        [
            "compare", "--n", "2", "--trials", 1, "--seed", 3,
            "--epochs", 200, "--generations", 300, "--out", out,
        ]
    )
    assert code == 0
    comparison = [r for r in read_records(out) if r["type"] == "comparison"][0]
    for agg in comparison["aggregates"]:
        assert agg["rmse_vs_reference"] < 1e-3


def test_compare_byte_identical_across_jobs(tmp_path):
    outs = []
    for name, jobs in (("j1.jsonl", 1), ("j2.jsonl", 3), ("j1b.jsonl", 1)):
        out = tmp_path / name
        code = run_cli(
            [
                "compare", "--n", "3", "--trials", 4, "--seed", 11,
                "--epochs", 150, "--generations", 200, "--population", 20,
                "--jobs", jobs, "--out", out,
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_compare_record_is_run_comparison(tmp_path):
    # the comparison line --out writes is run_comparison's return value
    out = tmp_path / "cmp.jsonl"
    code = run_cli(
        [
            "compare", "--n", "3", "--trials", 2, "--seed", 4,
            "--epochs", 100, "--generations", 150, "--population", 16, "--out", out,
        ]
    )
    assert code == 0
    config = ComparisonConfig(
        greedy=GreedyConfig(max_epochs=100),
        genetic=GeneticConfig(population_size=16, max_generations=150),
    )
    record = run_comparison(ScenarioSpec(3, rng_seed=derive_seed(4, 3)), 2, config)
    line = out.read_text().splitlines()[1]
    assert json.loads(line) == record
    assert json.dumps(record) == line


def test_compare_never_runs_the_ga(tmp_path, monkeypatch):
    # every row is measured against exact; a GA call anywhere on the path
    # would raise (solve --strategy genetic shows that the patch reaches it)
    def no_ga(*args, **kwargs):
        raise AssertionError("genetic_pa was called")

    monkeypatch.setattr("v2vaoi.metrics.genetic_pa", no_ga)
    with pytest.raises(AssertionError, match="genetic_pa was called"):
        run_cli(["solve", "--strategy", "genetic", "--n", 3])
    out = tmp_path / "cmp.jsonl"
    assert run_cli(["compare", "--n", "3,4", "--trials", 2, "--seed", 5, "--out", out]) == 0
    comparisons = [r for r in read_records(out) if r["type"] == "comparison"]
    assert [c["reference_strategy"] for c in comparisons] == ["exact", "exact"]
    for comparison in comparisons:
        for trial in comparison["per_trial"]:
            dist, _ = generate_scene(ScenarioSpec(comparison["n"], rng_seed=trial["scene_seed"]))
            want = exact_pa(AllocationProblem(ChannelParams(), dist))
            *others, exact = trial["strategies"]
            assert exact == {
                "strategy": "exact",
                "min_snr": want.objective_min_snr,
                "epochs_used": want.epochs_used,
                "rmse_vs_reference": 0.0,
                "gap_vs_exact": 0.0,
                "delay_variance": delay_variance(want.delay_s),
                "delay_mean": delay_mean(want.delay_s),
            }
            assert all(0.0 <= row["gap_vs_exact"] < 1.0 for row in others), others
        exact_agg = comparison["aggregates"][-1]
        assert exact_agg["strategy"] == "exact"
        assert (exact_agg["rmse_vs_reference"], exact_agg["gap_vs_exact"]) == (0.0, 0.0)


@pytest.mark.parametrize(
    "argv",
    [
        "compare --n 2,3,4 --trials 3 --seed 7 --epochs 300",
        "compare --n 3 --trials 1 --epochs 20 --rate-factor 0.2154",
        "verify --n 5 --instances 2 --seed 2",
    ],
)
def test_every_aggregate_is_the_mean_of_its_trials(argv, tmp_path):
    # each aggregate key but the strategy is a per-trial column, and its
    # value is np.mean over the trials of that column, bit for bit
    out = tmp_path / "out.jsonl"
    main(argv.split() + ["--out", str(out)])
    comparisons = [r for r in read_records(out) if r["type"] == "comparison"]
    assert comparisons
    for comparison in comparisons:
        for index, agg in enumerate(comparison["aggregates"]):
            rows = [trial["strategies"][index] for trial in comparison["per_trial"]]
            assert {row["strategy"] for row in rows} == {agg["strategy"]}
            assert list(agg) == ["strategy", *AVERAGED_COLUMNS]
            for key in AVERAGED_COLUMNS:
                want = float(np.mean([row[key] for row in rows]))
                assert agg[key].hex() == want.hex(), (agg["strategy"], key)


def test_compare_config_ignores_ga_flags_and_jobs(tmp_path):
    # compare never runs the GA and runs its trials serially, so these flags
    # are parsed and checked but move no byte of the records
    argv = ["compare", "--n", 3, "--trials", 2, "--seed", 7, "--epochs", 50]
    plain, flagged = tmp_path / "plain.jsonl", tmp_path / "flagged.jsonl"
    assert run_cli(argv + ["--out", plain]) == 0
    extra = ["--generations", 400, "--population", 8, "--jobs", 2]
    assert run_cli(argv + extra + ["--out", flagged]) == 0
    assert flagged.read_bytes() == plain.read_bytes()
    for bad in (["--generations", 0], ["--population", 1], ["--jobs", 0]):
        assert run_cli(argv + bad) == 1


def test_compare_plot_series(tmp_path):
    plot = tmp_path / "plot.txt"
    code = run_cli(
        [
            "compare", "--n", "2,3", "--trials", 1, "--seed", 5,
            "--epochs", 100, "--generations", 150, "--population", 16,
            "--plot-out", plot,
        ]
    )
    assert code == 0
    text = plot.read_text()
    assert "# series mean.default" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert all(len(l.split()) == 2 for l in lines)


def test_aoi_modes_and_zero_delay_ap(tmp_path):
    out = tmp_path / "aoi.jsonl"
    code = run_cli(
        ["aoi", "--n", 3, "--seed", 9, "--epochs", 300, "--out", out]
    )
    assert code == 0
    modes = {r["mode"]: r for r in read_records(out) if r["type"] == "aoi_mode"}
    assert set(modes) == {"zero_delay", "default", "greedy"}
    zero = modes["zero_delay"]
    assert (zero["proxy_ap30"], zero["proxy_ap50"], zero["proxy_ap70"]) == (
        0.864, 0.859, 0.805,
    )
    assert zero["stale_count"] == 0
    assert modes["greedy"]["mean_age_s"] <= modes["default"]["mean_age_s"]
    assert "proxy" in zero["proxy_label"]


def test_aoi_looptime_offsets_effective_age(tmp_path):
    out = tmp_path / "aoi.jsonl"
    code = run_cli(
        ["aoi", "--n", 3, "--seed", 9, "--looptime", 0.2, "--epochs", 200, "--out", out]
    )
    assert code == 0
    for rec in read_records(out):
        if rec["type"] == "aoi_mode":
            assert rec["effective_mean_age_s"] == pytest.approx(
                rec["mean_age_s"] + 0.2
            )
            assert rec["effective_max_age_s"] == pytest.approx(
                rec["max_age_s"] + 0.2
            )


def test_verify_two_vehicles_zero_gap(tmp_path, capsys):
    out = tmp_path / "verify.jsonl"
    code = run_cli(
        [
            "verify", "--n", 2, "--instances", 2, "--seed", 1, "--epochs", 100, "--out", out,
        ]
    )
    assert code == 0
    _, comparison, verdict = read_records(out)
    greedy = [row for trial in comparison["per_trial"] for row in trial["strategies"]
              if row["strategy"] == "greedy_epoch100"]
    assert len(greedy) == 2 and all(row["gap_vs_exact"] == 0.0 for row in greedy)
    assert verdict["type"] == "verify_verdict" and verdict["ok"]
    assert "OK" in capsys.readouterr().out


def test_equilateral_scene_greedy_tiny_gap(tmp_path):
    # a file scene is checked by two solve --scene calls, greedy's against
    # exact's
    scene = tmp_path / "equilateral.txt"
    scene.write_text("3\n0 20 20\n20 0 20\n20 20 0\n")
    min_snr = {}
    for strategy in ("greedy", "exact"):
        out = tmp_path / f"{strategy}.jsonl"
        assert run_cli(["solve", "--scene", scene, "--strategy", strategy, "--out", out]) == 0
        min_snr[strategy] = read_records(out)[1]["objective_min_snr"]
    assert optimality_gap(min_snr["greedy"], min_snr["exact"]) < 0.01


def test_solve_genetic_strategy(two_vehicle_scene, tmp_path):
    out = tmp_path / "ga.jsonl"
    code = run_cli(
        [
            "solve", "--scene", two_vehicle_scene, "--seed", 3,
            "--strategy", "genetic", "--out", out,
        ]
    )
    assert code == 0
    result = read_records(out)[1]
    # no interference for two vehicles, so the GA must drive both links to the cap
    assert result["objective_min_snr"] >= 0.99 * 23.0 / (10.0**3 * 4.14e-14)


def test_verify_gap_threshold_exit_code(tmp_path):
    # an absurdly tight threshold plus a weak greedy forces the failure path
    code = run_cli(
        [
            "verify", "--n", 3, "--instances", 1, "--seed", 4,
            "--epochs", 1, "--gap-threshold", 1e-12,
        ]
    )
    assert code == 2


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "strategy": "default", "seed": 5}))
    out = tmp_path / "r.jsonl"
    code = run_cli(
        ["solve", "--config", cfg, "--strategy", "greedy", "--epochs", 50, "--out", out]
    )
    assert code == 0
    config = read_records(out)[0]
    assert config["strategy"] == "greedy"  # flag beats config file
    assert config["n"] == 2  # config file beats default
    assert config["seed"] == 5


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_flag": 1}))
    assert run_cli(["solve", "--config", cfg]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [
        ("compare", "scene"),
        ("verify", "scene"),
        ("aoi", "generations"),
        ("aoi", "population"),
        ("verify", "generations"),
        ("verify", "population"),
    ],
)
def test_command_refuses_a_flag_it_does_not_read(command, key, tmp_path, capsys):
    # on the command line and as a config key alike: exit 1, one error line
    # that names the key, no traceback
    value = "scene.txt" if key == "scene" else 10
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    for argv in ([command, "--" + key, value], [command, "--config", tmp_path / "cfg.json"]):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert [key in line for line in err.splitlines() if "error:" in line] == [True], err
        assert "Traceback" not in err


def test_text_format_writes_report(tmp_path):
    out = tmp_path / "report.txt"
    code = run_cli(
        ["solve", "--n", 2, "--strategy", "default", "--format", "text", "--out", out]
    )
    assert code == 0
    assert "power matrix" in out.read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--rate-factor", "-1"],
        ["solve", "--rate-factor", "nan"],
        ["aoi", "--rate-factor", "0"],
        ["compare", "--n", "3,x"],
        ["compare", "--n", ","],
        ["compare", "--scene", "{scene}"],
        ["compare", "--jobs", "0"],
        ["verify", "--instances", "0"],
        ["verify", "--scene", "{scene}", "--instances", "2"],
        ["aoi", "--compute-delay", "nan"],
        ["aoi", "--looptime", "nan"],
        ["solve", "--box-side", "inf"],
        ["solve", "--epochs", "20", "--out", "{tmp}/missing/x.jsonl"],
        ["compare", "--n", "2", "--trials", "1", "--epochs", "20", "--generations", "20",
         "--plot-out", "{tmp}/missing/plot.txt"],
        ["solve", "--n", "abc"],
        ["solve", "--no-such-flag"],
        ["solve", "--config", "{tmp}/string_seed.json"],
        ["solve", "--config", "{tmp}/bool_p_max.json"],
        ["solve", "--config", "{tmp}/number.json"],
        ["solve", "--config", "{tmp}/latin1.json"],
        ["solve", "--config", "{tmp}/bad_strategy.json"],
        ["solve", "--scene", "{tmp}/nan_header.txt"],
        ["solve", "--n", "3", "--alpha", "400"],
        ["solve", "--n", "3", "--min-sep", "0.0001", "--box-side", "0.01", "--alpha", "200"],
        ["solve", "--scene", "{tmp}/tri_half_metre.txt", "--alpha", "1025"],
        ["verify", "--n", "3", "--instances", "1", "--gap-threshold", "-0.5"],
        ["verify", "--n", "3", "--instances", "1", "--gap-threshold", "1.5"],
        ["solve", "--seed", "-1"],
        ["solve", "--seed", "18446744073709551616"],
        ["solve", "--config", "{tmp}/negative_seed.json"],
        # the scaled delays underflow to zero, which names the rate factor
        ["solve", "--n", "3", "--epochs", "5", "--rate-factor", "5e-324"],
        ["aoi", "--n", "3", "--epochs", "5", "--rate-factor", "5e-324"],
        ["solve", "--n", "3", "--rate-factor", "5e-324"],
        # out-of-range values report by name, with no numpy warning first
        ["solve", "--n", "3", "--payload", "1e308", "--bandwidth", "1e-300"],
        ["aoi", "--n", "3", "--period", "5e-324", "--looptime", "1"],
        ["aoi", "--n", "3", "--compute-delay", "1e308"],
        ["solve", "--n", "3", "--box-side", "1e308", "--min-sep", "1"],
        ["solve", "--scene", "{tmp}/huge_coords.txt"],
        ["solve", "--scene", "{tmp}/inf_coords.txt"],
        # a delay out of range before the rate factor names what put it there
        ["solve", "--n", "3", "--payload", "1e-310"],
        ["solve", "--n", "3", "--payload", "5e-324"],
        ["aoi", "--n", "3", "--bandwidth", "1e308"],
        ["aoi", "--n", "3", "--noise", "1e308"],
        # the placement passes its np.hypot test, then a distance underflows
        # to 0; the box and separation are named, not the distance matrix
        ["solve", "--n", "3", "--box-side", "1e-300", "--min-sep", "1e-301"],
        ["aoi", "--n", "3", "--box-side", "1e-300", "--min-sep", "1e-301"],
        ["verify", "--n", "3", "--box-side", "1e-300", "--min-sep", "1e-301"],
        # past the float maximum over sqrt(2) a candidate distance overflows
        # in placement; the box and separation are named, with no warning
        ["solve", "--n", "3", "--box-side", "1.7976931348623157e308"],
    ],
)
def test_bad_input_exits_1(args, tmp_path, two_vehicle_scene, capsys):
    (tmp_path / "string_seed.json").write_text('{"seed": "abc"}')
    (tmp_path / "bool_p_max.json").write_text('{"p_max": true}')
    (tmp_path / "number.json").write_text("3")
    (tmp_path / "latin1.json").write_bytes(b'{"scene": "\xe9"}')
    (tmp_path / "bad_strategy.json").write_text('{"strategy": "annealing"}')
    (tmp_path / "nan_header.txt").write_text("nan\n0 10\n10 0\n")
    (tmp_path / "tri_half_metre.txt").write_text("0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n")
    (tmp_path / "negative_seed.json").write_text('{"seed": -1}')
    (tmp_path / "huge_coords.txt").write_text("coords\n0 0\n1e308 0\n0 5\n")
    (tmp_path / "inf_coords.txt").write_text("coords\n0 0\ninf 0\n0 5\n")
    argv = [a.format(tmp=tmp_path, scene=two_vehicle_scene) for a in args]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    if "--rate-factor" in args and "5e-324" in args:
        # after 5 greedy epochs a delay is under 0.5 s and scales to 0; after
        # the full solve every delay scales to the smallest subnormal
        floor = "0" if "--epochs" in args else "4.94e-324"
        assert (
            f"error: rate_factor 5e-324 underflows a delay to {floor} s, "
            "below the normal float range"
        ) in err
    if "--payload" in args or "--bandwidth" in args:
        assert err.startswith("error: payload ") and err.count("\n") == 1
        assert "rate_factor" not in err
    if "--min-sep" in args and "--alpha" not in args:
        assert "box_side_m" in err and "min_separation_m" in err
    if "--noise" in args:
        # payload / bandwidth is finite at their defaults, so only the SNR
        # that the noise drove subnormal is named
        assert err == "error: min SNR 1.733e-313 overflows a delay beyond the float range\n"


@pytest.mark.parametrize(
    "args, prefix",
    [
        ("solve --strategy exact --n 5 --noise 1e308", "error: min SNR "),
        ("solve --strategy genetic --n 5 --noise 1e308", "error: min SNR "),
        # a solver error in compare, and so in verify, names the trial it
        # came from
        ("verify --n 5 --instances 1 --noise 1e308", "error: trial 0 failed: min SNR "),
        ("compare --n 3 --trials 1 --noise 1e308", "error: trial 0 failed: min SNR "),
        # the even split's min SNR underflows to 0.0, greedy's first best,
        # and its best allocation's min SNR is the smallest subnormal
        (
            "solve --strategy greedy --n 8 --epochs 200 --noise 1e300 --alpha 6 "
            "--box-side 10000 --min-sep 1",
            "error: min SNR 4.941e-324 ",
        ),
    ],
)
def test_subnormal_optimum_is_one_error_line(args, prefix, capsys):
    # the optimum's min SNR is subnormal: the bisection ends at float
    # resolution, and the delay it implies is out of range; greedy's best
    # likewise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert err.endswith(" overflows a delay beyond the float range\n")


FLOAT_MAX_BUDGET = "--n 3 --noise 1e308 --p-max 1.7976931348623157e308"


@pytest.mark.parametrize(
    "args, err",
    [
        # the even split's min SNR underflows to 0.0, an infinite delay,
        # named as greedy and exact name their subnormal ones
        (
            "solve --strategy default --n 8 --noise 1e300 --alpha 6 --box-side 10000 --min-sep 1",
            "error: min SNR 0 overflows a delay beyond the float range\n",
        ),
        # 20 links at fl(0.05) W sum over 1 W, even in exact arithmetic
        (
            "solve --n 21 --p-min 0.05 --p-max 1",
            "error: row budget unsatisfiable: 20 links at p_min_w 0.05 W sum to "
            "1.0000000000000002 W, over p_max_w 1.0 W\n",
        ),
        # a row's budget sum could overflow, though every SNR is in range
        (f"solve {FLOAT_MAX_BUDGET}", "error: 3 links at p_max_w 1.8e+308 W sum past the float range\n"),
        (f"aoi {FLOAT_MAX_BUDGET}", "error: 3 links at p_max_w 1.8e+308 W sum past the float range\n"),
        (
            f"compare {FLOAT_MAX_BUDGET} --trials 1 --epochs 20 --generations 20",
            "error: trial 0 failed: 3 links at p_max_w 1.8e+308 W sum past the float range\n",
        ),
    ],
)
def test_unsolvable_problem_is_one_error_line(args, err, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args.split()) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "args",
    [
        "solve --n 2 --p-max 1e308",
        "solve --n 2 --noise 1e-320",
        "solve --n 3 --noise 1e-320",
        "aoi --n 2 --p-max 1e308",
        "verify --n 3 --p-max 1e308 --instances 1",
        "compare --n 3 --p-max 1e308 --trials 1 --generations 10 --epochs 10",
        "solve --n 3 --p-max 1e308 --strategy genetic --generations 10",
        # every SNR is finite once the p_min_w floor counts as interference,
        # but _snr's incoming - gain cancels to 0 at the even split
        "solve --scene {tmp}/cancelling.txt",
        # the noise plus the largest possible interference overflows
        "solve --n 3 --strategy default --noise 1.7976931348623157e308 --p-max 1e300",
    ],
)
def test_snr_out_of_float_range_is_one_error_line(args, tmp_path, capsys):
    # the largest gain over the noise bounds every SNR; past the float
    # range the problem is refused before any solver divides
    (tmp_path / "cancelling.txt").write_text("3\n0 1e-100 1\n1e-100 0 1\n1 1 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args.format(tmp=tmp_path).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if "1.7976931348623157e308" in args:
        assert err.startswith("error: noise_w 1.8e+308 W plus interference up to ")
        assert err.endswith(" W overflows the float range\n")
    else:
        assert " W over noise_w " in err and " overflows the SNR at path loss " in err


@pytest.mark.parametrize(
    "args, err",
    [
        ("aoi --n 3 --compute-delay 1e308 --period 1 --looptime 1e308",
         "error: mean_age_s overflows the float range\n"),
        ("aoi --n 3 --payload 1e200", "error: age_variance overflows the float range\n"),
        ("aoi --n 3 --noise 1e300", "error: age_variance overflows the float range\n"),
        ("aoi --n 3 --compute-delay 1.7976931348623157e308 --period 3 --looptime 3",
         "error: max_age_s overflows the float range\n"),
        ("compare --n 3 --trials 1 --noise 1e300 --epochs 20 --generations 20",
         "error: trial 0 failed: delay RMSE overflows the float range\n"),
        ("aoi --epochs 2 --payload 100 --compute-delay 1.7976931348623157e308",
         "error: link (0, 0)'s transmission delay 0 s plus compute delay 1.8e+308 s "
         "overflows float64 in sampling periods of 0.1 s\n"),
    ],
)
def test_statistic_out_of_float_range_is_one_error_line(args, err, tmp_path, capsys):
    # every delay is finite, but a delay in sampling periods or a statistic a
    # record would carry is not: it is refused by name, with no warning and
    # no file
    out = tmp_path / "records.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*args.split(), "--out", out]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize(
    "args",
    [
        "aoi --compute-delay 1e300",
        "aoi --n 3 --payload 1e27 --seed 1",
    ],
)
def test_ages_beyond_int64_offsets_are_reported(args, tmp_path, capsys):
    # ages of more than 2**63 sampling periods are finite floats, so the
    # report is written, every number in it finite
    out = tmp_path / "aoi.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*args.split(), "--out", out]) == 0
    assert capsys.readouterr().err == ""
    records = read_records(out)
    assert [r["mode"] for r in records[1:]] == ["zero_delay", "default", "greedy"]
    assert records[-1]["max_age_s"] > 2.0**63 * records[0]["period"]
    assert _all_finite(records)


def test_tiny_snr_reports_its_true_delay(tmp_path, capsys):
    # an SNR near 3e-305 is reported with its own delay, near 2e304 s, and
    # no warning
    out = tmp_path / "solve.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["solve", "--n", 3, "--noise", 1e300, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    result = read_records(out)[1]
    params = ChannelParams()
    rate_bps = params.bandwidth_hz * (np.log1p(result["objective_min_snr"]) / np.log(2.0))
    assert result["objective_max_delay_s"] == params.payload_bits / rate_bps
    assert 1.9e304 < result["objective_max_delay_s"] < 2.1e304


def test_largest_u64_seed_accepted(tmp_path):
    # the seed range is [0, 2**64): the top value is a seed, not a wrap
    top = 2**64 - 1
    (tmp_path / "seed.json").write_text(json.dumps({"seed": top}))
    for extra in (["--seed", top], ["--config", tmp_path / "seed.json"]):
        out = tmp_path / "r.jsonl"
        assert run_cli(["solve", "--n", 2, "--strategy", "default", "--out", out, *extra]) == 0
        assert read_records(out)[0]["seed"] == top


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["compare", "--help"]) == 0
    assert "--plot-out" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, code, stdout_head, stderr",
    [
        (["solve", "--n", "0"], 1, [], ["error: need at least 2 vehicles"]),
        (["solve", "--n", "3", "--epochs", "5"], 0, ["scene: generated (n=3, seed=0)"], []),
    ],
    ids=["error", "solve"],
)
def test_python_m_cli_runs_the_command(args, code, stdout_head, stderr):
    # `python -m v2vaoi.cli` runs main and exits with its code, as the console script does
    proc = subprocess.run(
        [sys.executable, "-m", "v2vaoi.cli", *args], capture_output=True, text=True, env=_env()
    )
    assert proc.returncode == code
    assert proc.stdout.splitlines()[:1] == stdout_head
    assert proc.stderr.splitlines() == stderr


def _env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(v2vaoi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_stdout_exits_1_quietly():
    # a reader that leaves early, as `| head -1` does, ends the command with
    # exit 1 and a silent stderr; the report (~170 kB) outgrows a pipe buffer,
    # so the command is still writing when the pipe closes
    argv = [sys.executable, "-m", "v2vaoi.cli", "solve", "--n", "64", "--epochs", "10",
            "--format", "text"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()
    ) as proc:
        assert proc.stdout.read(16) == b"scene: generated"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


_DEFAULT_CONFIG = {
    "alpha": 3.0,
    "bandwidth": 10000000.0,
    "box_side": 100.0,
    "epochs": 5000,
    "learn_rate": 0.05,
    "min_sep": 5.0,
    "n": 3,
    "noise": 4.14e-14,
    "p_max": 23.0,
    "p_min": 1e-06,
    "payload": 8480000.0,
    "rate_factor": 1.0,
    "seed": 0,
}
_GA_CONFIG = {"generations": 100000, "population": 50}


# each command echoes only the keys it reads: compare parses the GA's but
# never runs it
@pytest.mark.parametrize(
    "command, own",
    [
        ("solve", {"strategy": "greedy", "scene": None, **_GA_CONFIG}),
        ("compare", {"n": "3,4,5", "epochs": None, "trials": 15}),
        ("aoi", {"compute_delay": 0.0, "looptime": 0.1, "period": 0.1, "scene": None}),
        ("verify", {"gap_threshold": 0.05, "instances": 10}),
    ],
)
def test_default_config_record(command, own):
    cfg, _ = _resolve(build_parser().parse_args([command]))
    expected = {"type": "config", "command": command, **_DEFAULT_CONFIG, **own}
    # compared as JSON so that 23 and 23.0, or 1 and true, differ
    assert json.dumps(_config_record(cfg), sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_config_file_integers_echoed_as_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "p_max": 23, "seed": 5}))
    out = tmp_path / "r.jsonl"
    assert run_cli(["solve", "--config", cfg, "--epochs", 20, "--out", out]) == 0
    assert '"p_max": 23,' in out.read_text().splitlines()[0]


@pytest.mark.parametrize(
    "args, code",
    [
        (["solve", "--strategy", "default", "--n", 2], 0),
        (["solve", "--n", 4, "--seed", 3, "--epochs", 300], 0),
        (["solve", "--strategy", "genetic", "--n", 3, "--p-min", 1, "--generations", 300], 0),
        (["solve", "--scene", "{tmp}/coords.txt", "--epochs", 300], 0),
        (["compare", "--n", "2,3", "--trials", 2, "--seed", 5, "--epochs", 100,
          "--generations", 150, "--population", 16, "--plot-out", "{tmp}/plot.txt"], 0),
        (["aoi", "--config", "{tmp}/aoi.json", "--n", 5, "--seed", 9, "--epochs", 300], 0),
        (["verify", "--instances", 1, "--epochs", 300], 0),
        (["verify", "--n", 3, "--instances", 2, "--seed", 2, "--epochs", 300,
          "--gap-threshold", 0], 2),
    ],
    ids=["solve-default", "solve-greedy", "solve-genetic", "solve-scene", "compare",
         "aoi-int-config", "verify-ok", "verify-exceeded"],
)
def test_text_renders_from_records(args, code, tmp_path, capsys):
    # the text report is drawn from the records alone: reading the --out
    # records back and rendering them reproduces stdout exactly
    (tmp_path / "coords.txt").write_text("coords\n0 0\n30 40\n60 0\n")
    (tmp_path / "aoi.json").write_text(
        json.dumps({"looptime": 1, "period": 1, "compute_delay": 0, "rate_factor": 1})
    )
    argv = [str(a).format(tmp=tmp_path) for a in args]
    records_out, text_out = tmp_path / "r.jsonl", tmp_path / "r.txt"
    assert run_cli(argv + ["--out", records_out]) == code
    stdout = capsys.readouterr().out
    records = read_records(records_out)
    render = _COMMANDS[argv[0]][1]
    assert stdout == render(records) + "\n"
    if "--plot-out" in argv:
        assert (tmp_path / "plot.txt").read_text() == _plot_series(records)
    assert run_cli(argv + ["--format", "text", "--out", text_out]) == code
    assert capsys.readouterr().out == stdout
    assert text_out.read_text() == stdout


def _fmt_matrix_reference(m, title):
    """_fmt_matrix as it stood, formatting every numpy scalar on its own."""
    lines = [title]
    for row in m:
        lines.append("  " + "  ".join(f"{v:>12.6g}" for v in row))
    return "\n".join(lines)


def test_fmt_matrix_text_unchanged():
    rng = np.random.default_rng(4)
    for n in range(2, 65):
        m = 10.0 ** rng.uniform(-323.3, 300.0, size=(n, n))
        m *= rng.choice([-1.0, 1.0], size=(n, n))
        m[rng.random((n, n)) < 0.1] = 0.0
        m[rng.random((n, n)) < 0.05] = -0.0
        m[0, 0] = 5e-324
        np.fill_diagonal(m[1:], [np.inf, -np.inf, np.nan, 1.0, 123456.5][: n - 1])
        assert _fmt_matrix(m, "t:").encode() == _fmt_matrix_reference(m, "t:").encode()


def _square_float_lists(n):
    return st.lists(st.lists(st.floats(), min_size=n, max_size=n), min_size=n, max_size=n)


_EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               np.inf, -np.inf, np.nan, 7, -123456789]  # the last two Python ints


# 300 derandomized draws: the same examples on every run, about 1 s.  Any
# float64: signed zeros, subnormals, infinities and nan included.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(_square_float_lists))
@example([_EDGE_CELLS[k:] + _EDGE_CELLS[:k] for k in range(len(_EDGE_CELLS))])
def test_fmt_matrix_matches_format_spec(m):
    # the records hold lists of Python floats; numpy rows give np.float64
    assert _fmt_matrix(m, "t:") == _fmt_matrix_reference(m, "t:")
    assert _fmt_matrix(np.array(m), "t:") == _fmt_matrix_reference(m, "t:")
