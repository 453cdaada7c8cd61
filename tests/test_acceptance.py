"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin.  Run with -s to see every line."""

import json
import time

import numpy as np

from v2vaoi.allocator import (
    AllocationProblem,
    GeneticConfig,
    GreedyConfig,
    check_feasible,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
)
from v2vaoi.aoi import _round_offsets
from v2vaoi.channel import (
    ChannelParams,
    DistanceMatrix,
    PowerMatrix,
    compute_delay_matrix,
    compute_snr_matrix,
)
from v2vaoi.cli import main
from v2vaoi.metrics import ComparisonConfig, run_comparison
from v2vaoi.proxy import (
    BACKBONE_CURVE,
    CONSTANT_TRANSMISSION_CURVE,
    LINEAR_COEFFICIENT_CURVE,
    estimate_ap,
)
from v2vaoi.scenario import ScenarioSpec, generate_scene
from v2vaoi.seeds import derive_seed

PARAMS = ChannelParams()


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def random_problem(seed, n):
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=seed))
    return AllocationProblem(PARAMS, dist)


def test_criterion_1_channel_closed_form():
    dist = DistanceMatrix([[0.0, 10.0], [10.0, 0.0]])
    power = PowerMatrix([[0.0, 23.0], [23.0, 0.0]])
    snr = compute_snr_matrix(PARAMS, dist, power)
    expected = 23.0 / (10.0**3 * 4.14e-14)
    snr_ok = abs(snr[0, 1] - expected) <= 1e-12 * expected

    delay = compute_delay_matrix(PARAMS, np.array([[0.0, 1.0], [1.0, 0.0]]))
    delay_ok = delay[0, 1] == 0.848
    report(
        1,
        "channel closed form",
        snr_ok and delay_ok,
        f"snr rel err {abs(snr[0, 1] - expected) / expected:.2e}, "
        f"delay {delay[0, 1]!r} vs 0.848 exact",
    )


def test_criterion_2_exact_optimality_gap():
    t0 = time.time()
    worst_greedy, worst_genetic = 0.0, 0.0
    for k in range(10):
        problem = random_problem(derive_seed(11, k, 0), 3)
        exact_obj = exact_pa(problem).objective_min_snr
        greedy_obj = greedy_pa(problem).objective_min_snr
        genetic_obj = genetic_pa(
            problem, GeneticConfig(rng_seed=derive_seed(11, k, 1))
        ).objective_min_snr
        worst_greedy = max(worst_greedy, (exact_obj - greedy_obj) / exact_obj)
        worst_genetic = max(worst_genetic, (exact_obj - genetic_obj) / exact_obj)
    elapsed = time.time() - t0
    report(
        2,
        "optimality gap against the exact optimum over 10 scenes",
        worst_greedy <= 0.05 and worst_genetic <= 0.05 and elapsed < 120,
        f"worst greedy gap {worst_greedy:.2%}, worst genetic gap "
        f"{worst_genetic:.2%}, {elapsed:.0f}s",
    )


def test_criterion_3_comparison_patterns():
    t0 = time.time()
    details = []
    ok = True
    for n in (3, 4, 5):
        spec = ScenarioSpec(n, rng_seed=derive_seed(7, n))
        comp = run_comparison(spec, 15, ComparisonConfig())
        agg = {a["strategy"]: a for a in comp["aggregates"]}
        d, g, ge = agg["default"], agg["greedy_epoch5000"], agg["genetic"]
        rmse_ok = g["rmse_vs_reference"] < 0.01 * d["rmse_vs_reference"]
        var_ok = d["delay_variance"] > 1e3 * g["delay_variance"]
        mean_gap = abs(g["delay_mean"] - ge["delay_mean"])
        mean_ok = mean_gap <= 0.10 * ge["delay_mean"]
        ok = ok and rmse_ok and var_ok and mean_ok
        details.append(
            f"n={n}: rmse ratio {g['rmse_vs_reference'] / d['rmse_vs_reference']:.1e}, "
            f"var ratio {d['delay_variance'] / g['delay_variance']:.1e}, "
            f"mean rel {mean_gap / ge['delay_mean']:.1e}"
        )
    elapsed = time.time() - t0
    report(
        3,
        "strategy comparison patterns, 15 trials at n=3,4,5",
        ok and elapsed < 600,
        "; ".join(details) + f"; {elapsed:.0f}s",
    )


def test_criterion_4_greedy_epoch_ablation():
    ok = True
    details = []
    for n in (3, 4, 5):
        for k in range(2):
            problem = random_problem(derive_seed(23, n, k), n)
            objs = [
                greedy_pa(problem, GreedyConfig(max_epochs=e)).objective_min_snr
                for e in (50, 500, 5000)
            ]
            ladder_ok = objs[0] <= objs[1] <= objs[2]
            history = np.array(greedy_pa(problem).history)
            series_ok = bool(np.all(np.diff(history) >= 0))
            ok = ok and ladder_ok and series_ok
            details.append(f"n={n}/{k}: {objs[0]:.3g}<={objs[1]:.3g}<={objs[2]:.3g}")
    report(4, "greedy epoch-budget ablation", ok, "; ".join(details))


def test_criterion_5_payload_linearity(tmp_path):
    base, scaled = tmp_path / "base.jsonl", tmp_path / "scaled.jsonl"
    args = ["solve", "--n", "4", "--seed", "13", "--strategy", "greedy"]
    assert main(args + ["--out", str(base)]) == 0
    assert main(args + ["--rate-factor", "0.2154", "--out", str(scaled)]) == 0

    def delays(path):
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec["type"] == "solve_result":
                return np.array(rec["delay_s"])
        raise AssertionError("missing solve_result record")

    d_base, d_scaled = delays(base), delays(scaled)
    exact = np.array_equal(d_scaled, d_base * 0.2154)
    report(
        5,
        "rate factor scales every delay exactly",
        exact,
        f"max abs diff {np.max(np.abs(d_scaled - d_base * 0.2154)):.3g}",
    )


def test_criterion_6_probabilistic_rounding_statistics():
    # one array call draws what 100,000 one-delay calls would
    rng = np.random.default_rng(20260808)
    draws = _round_offsets(np.full(100_000, 0.25), 0.1, rng) * 0.1
    loop_rng = np.random.default_rng(20260808)
    one = np.array([0.25])
    loop = np.array([_round_offsets(one, 0.1, loop_rng)[0] * 0.1 for _ in range(1000)])
    assert draws[:1000].tobytes() == loop.tobytes()
    values = set(np.unique(draws))
    values_ok = values == {2 * 0.1, 3 * 0.1}
    mean = float(draws.mean())
    mean_ok = abs(mean - 0.25) < 0.001
    report(
        6,
        "probabilistic rounding statistics",
        values_ok and mean_ok,
        f"mean {mean:.5f}, values {sorted(values)}",
    )


def test_criterion_7_proxy_knots_and_ordering():
    curves = (BACKBONE_CURVE, CONSTANT_TRANSMISSION_CURVE, LINEAR_COEFFICIENT_CURVE)
    knot_ok = True
    for curve in curves:
        for row in curve.samples:
            knot_ok = knot_ok and estimate_ap(curve, row[0]) == (row[1], row[2], row[3])
    queries = np.linspace(0.0, 1.5, 301)
    order_ok, monotone_ok = True, True
    for curve in curves:
        prev = None
        for q in queries:
            ap30, ap50, ap70 = estimate_ap(curve, q)
            order_ok = order_ok and ap30 >= ap50 >= ap70
            if prev is not None:
                monotone_ok = monotone_ok and all(
                    p >= c - 1e-12 for p, c in zip(prev, (ap30, ap50, ap70))
                )
            prev = (ap30, ap50, ap70)
    report(
        7,
        "proxy sample exactness and ordering",
        knot_ok and order_ok and monotone_ok,
        f"knots exact {knot_ok}, iou order {order_ok}, monotone {monotone_ok}",
    )


def test_criterion_8_feasibility_universal():
    t0 = time.time()
    greedy_cfg = GreedyConfig(max_epochs=40)
    violations = 0
    checked = 0
    for case in range(1000):
        n = 2 + case % 4
        problem = random_problem(derive_seed(31, case), n)
        genetic_cfg = GeneticConfig(
            rng_seed=derive_seed(31, case, 1),
            population_size=12,
            max_generations=25,
            stagnation_limit=25,
        )
        for result in (
            default_pa(problem),
            greedy_pa(problem, greedy_cfg),
            genetic_pa(problem, genetic_cfg),
        ):
            checked += 1
            if check_feasible(result.power, PARAMS):
                violations += 1
    report(
        8,
        "feasibility over 1000 random instances x 3 strategies",
        violations == 0,
        f"{violations} violations in {checked} solves, {time.time() - t0:.0f}s",
    )


def test_criterion_9_compare_determinism(tmp_path):
    outputs = []
    for name, jobs in (("a.jsonl", 1), ("b.jsonl", 4), ("c.jsonl", 1)):
        out = tmp_path / name
        code = main(
            [
                "compare", "--n", "3,4", "--trials", "3", "--seed", "77",
                "--epochs", "300", "--generations", "400", "--population", "24",
                "--jobs", str(jobs), "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(
        9,
        "byte-identical compare output across runs and --jobs",
        identical,
        f"{len(outputs[0])} bytes per run",
    )
