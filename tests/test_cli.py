"""End-to-end CLI behavior: reports, exit codes, determinism."""

import json

import numpy as np
import pytest

from v2vaoi.cli import _config_record, _resolve, build_parser, main


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
            "verify", "--n", 2, "--instances", 2, "--seed", 1,
            "--epochs", 100, "--generations", 150, "--out", out,
        ]
    )
    assert code == 0
    records = read_records(out)
    for rec in records:
        if rec["type"] == "verify_instance":
            assert rec["greedy_gap"] == 0.0
    verdict = records[-1]
    assert verdict["type"] == "verify_verdict" and verdict["ok"]
    assert "OK" in capsys.readouterr().out


def test_verify_equilateral_scene_tiny_gap(tmp_path):
    scene = tmp_path / "equilateral.txt"
    scene.write_text("3\n0 20 20\n20 0 20\n20 20 0\n")
    out = tmp_path / "verify.jsonl"
    code = run_cli(
        [
            "verify", "--scene", scene, "--n", 3, "--instances", 1,
            "--generations", 400, "--out", out,
        ]
    )
    assert code == 0
    instance = [r for r in read_records(out) if r["type"] == "verify_instance"][0]
    assert instance["greedy_gap"] < 0.01


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
            "--epochs", 1, "--generations", 100, "--gap-threshold", 1e-12,
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
    ],
)
def test_bad_input_exits_1(args, tmp_path, two_vehicle_scene, capsys):
    (tmp_path / "string_seed.json").write_text('{"seed": "abc"}')
    (tmp_path / "bool_p_max.json").write_text('{"p_max": true}')
    (tmp_path / "number.json").write_text("3")
    (tmp_path / "latin1.json").write_bytes(b'{"scene": "\xe9"}')
    (tmp_path / "bad_strategy.json").write_text('{"strategy": "annealing"}')
    (tmp_path / "nan_header.txt").write_text("nan\n0 10\n10 0\n")
    argv = [a.format(tmp=tmp_path, scene=two_vehicle_scene) for a in args]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["compare", "--help"]) == 0
    assert "--plot-out" in capsys.readouterr().out


_DEFAULT_CONFIG = {
    "alpha": 3.0,
    "bandwidth": 10000000.0,
    "box_side": 100.0,
    "epochs": 5000,
    "generations": 100000,
    "learn_rate": 0.05,
    "min_sep": 5.0,
    "n": 3,
    "noise": 4.14e-14,
    "p_max": 23.0,
    "p_min": 1e-06,
    "payload": 8480000.0,
    "population": 50,
    "rate_factor": 1.0,
    "scene": None,
    "seed": 0,
}


@pytest.mark.parametrize(
    "command, own",
    [
        ("solve", {"strategy": "greedy"}),
        ("compare", {"n": "3,4,5", "epochs": None, "trials": 15}),
        ("aoi", {"compute_delay": 0.0, "looptime": 0.1, "period": 0.1}),
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
