"""Command-line entry point: reproducible experiments over the simulator.

Four commands:
  solve    - one scene, one strategy; prints power/SNR/delay matrices.
  compare  - repeated trials of every strategy with summary statistics.
  aoi      - information-age and proxy perception report per mode.
  verify   - heuristics against the exact optimum on random or given scenes.

Every report embeds the fully resolved configuration.  Machine-readable
output is line-delimited JSON; with a fixed master seed it is byte-identical
across runs regardless of --jobs.
"""

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .allocator import (
    AllocationProblem,
    GeneticConfig,
    GreedyConfig,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
)
from .aoi import AoiConfig, aoi_summary, build_aoi_records
from .channel import ChannelParams
from .errors import DomainError, SimulationError
from .metrics import ComparisonConfig, run_comparison
from .proxy import estimate_scene_ap
from .scenario import ScenarioSpec, generate_scene, load_distance_matrix
from .seeds import derive_seed

_ALL = ("solve", "compare", "aoi", "verify")

# Every flag as (key, type, default, help, commands).  The key names the flag
# (box_side is --box-side) and is also its config-file key and the name it is
# echoed under.  The type is int, float, str or a tuple of choices; a default
# of None means the value may be left unset.  A key listed twice takes a
# different type or default on different commands.  Library defaults are the
# dataclass field defaults (ChannelParams.alpha is the default alpha).
_FLAGS = (
    ("scene", str, None, "distance-matrix or coords file", _ALL),
    ("seed", int, 0, "master seed (u64)", _ALL),
    ("box_side", float, ScenarioSpec.box_side_m, None, _ALL),
    ("min_sep", float, ScenarioSpec.min_separation_m, None, _ALL),
    ("rate_factor", float, 1.0,
     "payload scale in (0, 1]; delays scale exactly with it", _ALL),
    ("out", str, None, "write a machine-readable report here", _ALL),
    ("format", ("text", "records"), "records", None, _ALL),
    ("config", str, None, "JSON file with flag defaults; flags win", _ALL),
    ("learn_rate", float, GreedyConfig.learn_rate, None, _ALL),
    ("epochs", int, GreedyConfig.max_epochs, "greedy epoch budget", ("solve", "aoi", "verify")),
    # unset keeps compare's epoch ablation ladder
    ("epochs", int, None, "greedy epoch budget", ("compare",)),
    ("generations", int, GeneticConfig.max_generations, "GA generation cap", _ALL),
    ("population", int, GeneticConfig.population_size, "GA population size", _ALL),
    ("alpha", float, ChannelParams.alpha, None, _ALL),
    ("bandwidth", float, ChannelParams.bandwidth_hz, "channel bandwidth [Hz]", _ALL),
    ("noise", float, ChannelParams.noise_w, "noise power [W]", _ALL),
    ("p_min", float, ChannelParams.p_min_w, None, _ALL),
    ("p_max", float, ChannelParams.p_max_w, None, _ALL),
    ("payload", float, ChannelParams.payload_bits, "payload size [bits]", _ALL),
    ("n", int, 3, None, ("solve", "aoi", "verify")),
    ("n", str, "3,4,5", "comma-separated vehicle counts, e.g. 3,4,5", ("compare",)),
    ("strategy", ("default", "greedy", "genetic"), "greedy", None, ("solve",)),
    ("trials", int, 15, None, ("compare",)),
    ("jobs", int, 1, "worker threads over trials", ("compare",)),
    ("plot_out", str, None, "write x/y series for external plotting", ("compare",)),
    ("looptime", float, AoiConfig.looptime_s, "perception cycle [s]", ("aoi",)),
    ("period", float, AoiConfig.sample_period_s, "sensor sampling period [s]", ("aoi",)),
    ("compute_delay", float, AoiConfig.compute_delay_s, None, ("aoi",)),
    ("instances", int, 10, None, ("verify",)),
    ("gap_threshold", float, 0.05, None, ("verify",)),
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2vaoi",
        description="V2V channel simulator with max-min-SNR power allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    for key, kind, _, help_text, names in _FLAGS:
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        for name in names:
            commands[name].add_argument(
                "--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                help=help_text, **typed,
            )
    return parser


def _check_type(key: str, value, kind, default) -> None:
    if value is None and default is None:
        return
    if isinstance(kind, tuple):
        ok, wanted = value in kind, "one of " + ", ".join(kind)
    elif kind is float:
        # a JSON integer is a valid float; NaN and infinity are not
        ok, wanted = isinstance(value, (int, float)) and math.isfinite(value), "a finite number"
    else:
        ok, wanted = isinstance(value, kind), "an integer" if kind is int else "a string"
    if not ok or isinstance(value, bool):
        raise DomainError(f"{key} must be {wanted}, got {value!r}")


def _vehicle_counts(text: str) -> list:
    try:
        counts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        counts = []
    if not counts:
        raise DomainError(f"n must list vehicle counts such as 3,4,5, got {text!r}")
    return counts


def _resolve(args: argparse.Namespace) -> tuple:
    """defaults < config file < explicit flags, validated before any work.

    Returns the merged dict, which the config record echoes, and the solver
    settings built from it; building them runs the library's own checks,
    ComparisonConfig's rate_factor check included, for every command.
    """
    command = args.command
    table = {key: (kind, default) for key, kind, default, _, names in _FLAGS if command in names}
    explicit = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = explicit.get("config")
    from_file = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                from_file = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise DomainError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise DomainError(f"config file {config_path} must hold a JSON object")
        unknown = set(from_file) - set(table)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
    cfg = {key: default for key, (_, default) in table.items()}
    cfg.update(from_file)
    cfg.update(explicit)
    cfg["command"] = command
    for key, (kind, default) in table.items():
        _check_type(key, cfg[key], kind, default)

    if command == "compare":
        if cfg["scene"]:
            raise DomainError("compare generates its own scenes and takes no --scene")
        _vehicle_counts(cfg["n"])
    for key in ("jobs", "instances"):
        if key in cfg and cfg[key] < 1:
            raise DomainError(f"{key} must be at least 1, got {cfg[key]}")
    if command == "verify" and cfg["scene"] and cfg["instances"] != 1:
        raise DomainError("use --instances 1 with a fixed --scene file")
    if command == "verify" and not (0 <= cfg["gap_threshold"] <= 1):
        raise DomainError(f"gap_threshold must be in [0, 1], got {cfg['gap_threshold']}")

    epochs = cfg["epochs"]
    solvers = ComparisonConfig(
        params=ChannelParams(
            alpha=cfg["alpha"],
            bandwidth_hz=cfg["bandwidth"],
            noise_w=cfg["noise"],
            p_min_w=cfg["p_min"],
            p_max_w=cfg["p_max"],
            payload_bits=cfg["payload"],
        ),
        greedy=GreedyConfig(
            learn_rate=cfg["learn_rate"],
            max_epochs=GreedyConfig.max_epochs if epochs is None else epochs,
        ),
        genetic=GeneticConfig(
            population_size=cfg["population"], max_generations=cfg["generations"]
        ),
        greedy_epoch_ladder=(
            ComparisonConfig.greedy_epoch_ladder if epochs is None else (epochs,)
        ),
        rate_factor=cfg["rate_factor"],
    )
    return cfg, solvers


def _scene_spec(cfg: dict, n: int, *stream: int) -> ScenarioSpec:
    return ScenarioSpec(
        n_vehicles=n,
        box_side_m=cfg["box_side"],
        min_separation_m=cfg["min_sep"],
        rng_seed=derive_seed(cfg["seed"], *stream),
    )


def _make_scene(cfg: dict):
    if cfg["scene"]:
        dist = load_distance_matrix(cfg["scene"])
        return dist, f"file {cfg['scene']}"
    dist, _ = generate_scene(_scene_spec(cfg, cfg["n"], 0))
    return dist, f"generated (n={cfg['n']}, seed={cfg['seed']})"


_FMT_CELL = "{:>12.6g}".format


def _fmt_matrix(m: np.ndarray, title: str) -> str:
    rows = ("  " + "  ".join(map(_FMT_CELL, row)) for row in m.tolist())
    return "\n".join([title, *rows])


def _fmt_table(headers, rows) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    for r in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out)


def _write_file(path, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_output(cfg: dict, text: str, records: list) -> None:
    print(text)
    if cfg["out"] and cfg["format"] == "records":
        _write_file(cfg["out"], "".join(json.dumps(rec) + "\n" for rec in records))
    elif cfg["out"]:
        _write_file(cfg["out"], text + "\n")


# execution details that cannot change any computed number; keeping them out
# of the echoed config lets runs that differ only in I/O or worker count
# produce byte-identical record files
_NON_EXPERIMENT_KEYS = frozenset({"out", "format", "plot_out", "jobs", "config"})


def _config_record(cfg: dict) -> dict:
    keys = sorted(k for k in cfg if k not in _NON_EXPERIMENT_KEYS)
    return {"type": "config", **{k: cfg[k] for k in keys}}


def cmd_solve(cfg: dict, solvers: ComparisonConfig) -> int:
    dist, scene_desc = _make_scene(cfg)
    problem = AllocationProblem(solvers.params, dist)
    strategy = cfg["strategy"]
    if strategy == "default":
        result = default_pa(problem)
    elif strategy == "greedy":
        result = greedy_pa(problem, solvers.greedy)
    else:
        genetic = replace(solvers.genetic, rng_seed=derive_seed(cfg["seed"], 1))
        result = genetic_pa(problem, genetic)
    delay = result.metrics.delay_s * cfg["rate_factor"]
    max_delay = float(np.max(delay))

    text = "\n".join(
        [
            f"scene: {scene_desc}",
            f"strategy: {strategy} (epochs used {result.epochs_used}, "
            f"converged {result.converged})",
            f"objective: min SNR {result.objective_min_snr:.6g}, "
            f"max delay {max_delay:.6g} s (rate factor {cfg['rate_factor']})",
            "",
            _fmt_matrix(result.power.p, "power matrix [W]:"),
            "",
            _fmt_matrix(result.metrics.snr, "SNR matrix:"),
            "",
            _fmt_matrix(delay, "delay matrix [s]:"),
        ]
    )
    records = [
        _config_record(cfg),
        {
            "type": "solve_result",
            "strategy": strategy,
            "scene": scene_desc,
            "objective_min_snr": result.objective_min_snr,
            "objective_max_delay_s": max_delay,
            "epochs_used": result.epochs_used,
            "converged": result.converged,
            "distances_m": dist.d.tolist(),
            "power_w": result.power.p.tolist(),
            "snr": result.metrics.snr.tolist(),
            "delay_s": delay.tolist(),
        },
    ]
    _write_output(cfg, text, records)
    return 0


def cmd_compare(cfg: dict, solvers: ComparisonConfig) -> int:
    specs = [_scene_spec(cfg, n, n) for n in _vehicle_counts(cfg["n"])]
    blocks = []
    records = [_config_record(cfg)]
    plot_series = {}
    for spec in specs:
        n = spec.n_vehicles
        comparison = run_comparison(spec, cfg["trials"], solvers, jobs=cfg["jobs"])
        rows = [
            (
                agg.strategy_name,
                f"{agg.rmse_vs_reference:.6g}",
                f"{agg.delay_variance:.6g}",
                f"{agg.delay_mean:.6g}",
            )
            for agg in comparison.aggregates
        ]
        blocks.append(
            f"n={n} ({cfg['trials']} trials, reference {comparison.reference_strategy}, "
            f"{comparison.variance_convention})\n"
            + _fmt_table(
                ("strategy", "rmse_vs_genetic [s]", "variance [s^2]", "mean [s]"), rows
            )
        )
        records.append(
            {
                "type": "comparison",
                "n": n,
                "trials": cfg["trials"],
                "reference_strategy": comparison.reference_strategy,
                "variance_convention": comparison.variance_convention,
                "aggregates": [
                    {
                        "strategy": agg.strategy_name,
                        "rmse_vs_reference": agg.rmse_vs_reference,
                        "delay_variance": agg.delay_variance,
                        "delay_mean": agg.delay_mean,
                    }
                    for agg in comparison.aggregates
                ],
                "per_trial": [
                    {
                        "trial_index": rec.trial_index,
                        "scene_seed": rec.scene_seed,
                        "strategies": [
                            {
                                "strategy": s.strategy_name,
                                "min_snr": s.min_snr,
                                "epochs_used": s.epochs_used,
                                "rmse_vs_reference": s.rmse_vs_reference,
                            }
                            for s in rec.strategies
                        ],
                    }
                    for rec in comparison.trials
                ],
            }
        )
        for agg in comparison.aggregates:
            for metric, value in (
                ("rmse_vs_genetic", agg.rmse_vs_reference),
                ("variance", agg.delay_variance),
                ("mean", agg.delay_mean),
            ):
                plot_series.setdefault(f"{metric}.{agg.strategy_name}", []).append(
                    (n, value)
                )
    if cfg["plot_out"]:
        lines = []
        for name in sorted(plot_series):
            lines.append(f"# series {name}\n")
            lines.extend(f"{x} {y!r}\n" for x, y in plot_series[name])
        _write_file(cfg["plot_out"], "".join(lines))
    _write_output(cfg, "\n\n".join(blocks), records)
    return 0


def cmd_aoi(cfg: dict, solvers: ComparisonConfig) -> int:
    aoi_cfg = AoiConfig(
        compute_delay_s=cfg["compute_delay"],
        sample_period_s=cfg["period"],
        looptime_s=cfg["looptime"],
        rng_seed=derive_seed(cfg["seed"], 2),
    )
    dist, scene_desc = _make_scene(cfg)
    problem = AllocationProblem(solvers.params, dist)
    n = dist.n
    modes = [
        ("zero_delay", np.zeros((n, n))),
        ("default", default_pa(problem).metrics.delay_s * cfg["rate_factor"]),
        ("greedy", greedy_pa(problem, solvers.greedy).metrics.delay_s * cfg["rate_factor"]),
    ]
    rows = []
    records = [_config_record(cfg)]
    for mode, delays in modes:
        ages = build_aoi_records(delays, aoi_cfg).snapped_age_s
        summary = aoi_summary(ages, aoi_cfg.looptime_s)
        estimate = estimate_scene_ap(ages)
        rows.append(
            (
                mode,
                f"{summary.max_age_s:.4g}",
                f"{summary.mean_age_s:.4g}",
                f"{summary.age_variance:.4g}",
                summary.stale_count,
                f"{estimate.ap30:.3f}",
                f"{estimate.ap50:.3f}",
                f"{estimate.ap70:.3f}",
            )
        )
        records.append(
            {
                "type": "aoi_mode",
                "mode": mode,
                "scene": scene_desc,
                "max_age_s": summary.max_age_s,
                "mean_age_s": summary.mean_age_s,
                "age_variance": summary.age_variance,
                "stale_count": summary.stale_count,
                "effective_max_age_s": summary.effective_max_age_s,
                "effective_mean_age_s": summary.effective_mean_age_s,
                "proxy_ap30": estimate.ap30,
                "proxy_ap50": estimate.ap50,
                "proxy_ap70": estimate.ap70,
                "proxy_label": estimate.label,
            }
        )
    text = (
        f"scene: {scene_desc}; looptime {aoi_cfg.looptime_s} s, "
        f"period {aoi_cfg.sample_period_s} s, compute delay "
        f"{aoi_cfg.compute_delay_s} s\n"
        f"(AP columns are proxy estimates; effective ages add the looptime)\n"
        + _fmt_table(
            (
                "mode",
                "max_age [s]",
                "mean_age [s]",
                "variance",
                "stale",
                "ap30*",
                "ap50*",
                "ap70*",
            ),
            rows,
        )
    )
    _write_output(cfg, text, records)
    return 0


def cmd_verify(cfg: dict, solvers: ComparisonConfig) -> int:
    rows = []
    records = [_config_record(cfg)]
    worst_greedy_gap = 0.0
    for k in range(cfg["instances"]):
        if cfg["scene"]:
            dist = load_distance_matrix(cfg["scene"])
        else:
            dist, _ = generate_scene(_scene_spec(cfg, cfg["n"], k, 0))
        problem = AllocationProblem(solvers.params, dist)
        exact = exact_pa(problem)
        greedy = greedy_pa(problem, solvers.greedy)
        genetic = genetic_pa(
            problem, replace(solvers.genetic, rng_seed=derive_seed(cfg["seed"], k, 1))
        )
        gaps = {
            name: max(0.0, (exact.objective_min_snr - obj) / exact.objective_min_snr)
            for name, obj in (
                ("greedy", greedy.objective_min_snr),
                ("genetic", genetic.objective_min_snr),
            )
        }
        worst_greedy_gap = max(worst_greedy_gap, gaps["greedy"])
        rows.append(
            (
                k,
                f"{exact.objective_min_snr:.6g}",
                f"{greedy.objective_min_snr:.6g}",
                f"{gaps['greedy']:.4%}",
                f"{genetic.objective_min_snr:.6g}",
                f"{gaps['genetic']:.4%}",
            )
        )
        records.append(
            {
                "type": "verify_instance",
                "instance": k,
                "oracle_min_snr": exact.objective_min_snr,
                "greedy_min_snr": greedy.objective_min_snr,
                "greedy_gap": gaps["greedy"],
                "genetic_min_snr": genetic.objective_min_snr,
                "genetic_gap": gaps["genetic"],
            }
        )
    verdict = worst_greedy_gap <= cfg["gap_threshold"]
    text = (
        _fmt_table(
            ("instance", "exact", "greedy", "greedy_gap", "genetic", "genetic_gap"),
            rows,
        )
        + f"\nworst greedy gap {worst_greedy_gap:.4%} vs threshold "
        f"{cfg['gap_threshold']:.4%}: {'OK' if verdict else 'EXCEEDED'}"
    )
    records.append(
        {
            "type": "verify_verdict",
            "worst_greedy_gap": worst_greedy_gap,
            "gap_threshold": cfg["gap_threshold"],
            "ok": verdict,
        }
    )
    _write_output(cfg, text, records)
    return 0 if verdict else 2


_COMMANDS = {
    "solve": (cmd_solve, "solve one scene with one strategy"),
    "compare": (cmd_compare, "strategy comparison over repeated trials"),
    "aoi": (cmd_aoi, "information-age and proxy perception report"),
    "verify": (cmd_verify, "check heuristics against the exact optimum"),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed "error: ..." and exits 2; here 2 means only
        # that verify's threshold was exceeded
        return 1 if exc.code else 0
    try:
        cfg, solvers = _resolve(args)
        return _COMMANDS[args.command][0](cfg, solvers)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())
