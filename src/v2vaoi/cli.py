"""Command-line entry point: reproducible experiments over the simulator.

Four commands:
  solve    - one scene, one strategy; prints power/SNR/delay matrices.
  compare  - repeated trials of the even split and greedy against the exact
             optimum, with summary statistics.
  aoi      - information-age and proxy perception report per mode.
  verify   - compare at one n plus a verdict on greedy's worst gap.

Every command solves through metrics.solve_scene, which looks strategies up
in metrics.STRATEGIES and derives each scene and GA seed by one rule.  Each
command takes only the flags it reads, but for compare's --generations,
--population and --jobs: the GA runs only in solve --strategy genetic and
compare runs its trials serially, so these three move no number.

Each command returns its records, the config record first, and builds no
text: the text report is rendered from those records alone, so --format
text and records carry the same values.  The config record embeds the
fully resolved configuration.  Machine-readable output is line-delimited
JSON; with a fixed master seed it is byte-identical across runs.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .allocator import GeneticConfig, GreedyConfig
from .allocator import greedy_pa  # noqa: F401  perfbench's tracer test reads cli.greedy_pa
from .aoi import AoiConfig, aoi_summary, build_aoi_records
from .channel import ChannelParams
from .errors import DomainError, SimulationError
from .metrics import STRATEGIES, ComparisonConfig, run_comparison
from .metrics import scene_seed, solve_scene
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
    ("scene", str, None, "distance-matrix or coords file", ("solve", "aoi")),
    ("seed", int, 0, "master seed (u64)", _ALL),
    ("box_side", float, ScenarioSpec.box_side_m, None, _ALL),
    ("min_sep", float, ScenarioSpec.min_separation_m, None, _ALL),
    ("rate_factor", float, ChannelParams.rate_factor,
     "payload scale in (0, 1]; delays scale exactly with it", _ALL),
    ("out", str, None, "write a machine-readable report here", _ALL),
    ("format", ("text", "records"), "records", None, _ALL),
    ("config", str, None, "JSON file with flag defaults; flags win", _ALL),
    ("learn_rate", float, GreedyConfig.learn_rate, None, _ALL),
    ("epochs", int, GreedyConfig.max_epochs, "greedy epoch budget", ("solve", "aoi", "verify")),
    # unset keeps compare's epoch ablation ladder
    ("epochs", int, None, "greedy epoch budget", ("compare",)),
    ("generations", int, GeneticConfig.max_generations, "GA generation cap", ("solve", "compare")),
    ("population", int, GeneticConfig.population_size, "GA population size", ("solve", "compare")),
    ("alpha", float, ChannelParams.alpha, None, _ALL),
    ("bandwidth", float, ChannelParams.bandwidth_hz, "channel bandwidth [Hz]", _ALL),
    ("noise", float, ChannelParams.noise_w, "noise power [W]", _ALL),
    ("p_min", float, ChannelParams.p_min_w, None, _ALL),
    ("p_max", float, ChannelParams.p_max_w, None, _ALL),
    ("payload", float, ChannelParams.payload_bits, "payload size [bits]", _ALL),
    ("n", int, 3, None, ("solve", "aoi", "verify")),
    ("n", str, "3,4,5", "comma-separated vehicle counts, e.g. 3,4,5", ("compare",)),
    ("strategy", tuple(STRATEGIES), "greedy", None, ("solve",)),
    ("trials", int, 15, None, ("compare",)),
    ("jobs", int, 1, "ignored: trials always run serially", ("compare",)),
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
    commands = {name: sub.add_parser(name, help=text) for name, (_, _, text) in _COMMANDS.items()}
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
    ChannelParams' rate_factor check included, for every command.
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
    if not (0 <= cfg["seed"] < 2**64):  # derive_seed would wrap it silently
        raise DomainError(f"seed must be in [0, 2**64), got {cfg['seed']}")

    if command == "compare":
        _vehicle_counts(cfg["n"])
    for key in ("jobs", "instances"):
        if key in cfg and cfg[key] < 1:
            raise DomainError(f"{key} must be at least 1, got {cfg[key]}")
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
            rate_factor=cfg["rate_factor"],
        ),
        greedy=GreedyConfig(
            learn_rate=cfg["learn_rate"],
            max_epochs=GreedyConfig.max_epochs if epochs is None else epochs,
        ),
        genetic=GeneticConfig(
            population_size=cfg.get("population", GeneticConfig.population_size),
            max_generations=cfg.get("generations", GeneticConfig.max_generations),
        ),
        greedy_epoch_ladder=(
            ComparisonConfig.greedy_epoch_ladder if epochs is None else (epochs,)
        ),
    )
    return cfg, solvers


def _scene_spec(cfg: dict, n: int, rng_seed: int) -> ScenarioSpec:
    return ScenarioSpec(n, cfg["box_side"], cfg["min_sep"], rng_seed)


def _make_scene(cfg: dict):
    """The scene file, or the scene drawn for the master seed."""
    if cfg["scene"]:
        dist = load_distance_matrix(cfg["scene"])
        return dist, f"file {cfg['scene']}"
    dist, _ = generate_scene(_scene_spec(cfg, cfg["n"], scene_seed(cfg["seed"])))
    return dist, f"generated (n={cfg['n']}, seed={cfg['seed']})"


def _fmt_matrix(m, title: str) -> str:
    row = "  %12.6g" * len(m)  # one template per square row; the bytes of "{:>12.6g}"
    return "\n".join([title, *(row % tuple(cells) for cells in m)])


# a table column is (header, record key, cell format); a compare header
# takes the record's reference strategy for its {}
_COMPARE_COLUMNS = (
    ("strategy", "strategy", "{}"),
    ("rmse_vs_{} [s]", "rmse_vs_reference", "{:.6g}"),
    ("gap_vs_exact", "gap_vs_exact", "{:.4%}"),
    ("variance [s^2]", "delay_variance", "{:.6g}"),
    ("mean [s]", "delay_mean", "{:.6g}"),
)
_AOI_COLUMNS = (
    ("mode", "mode", "{}"),
    ("max_age [s]", "max_age_s", "{:.4g}"),
    ("mean_age [s]", "mean_age_s", "{:.4g}"),
    ("variance", "age_variance", "{:.4g}"),
    ("stale", "stale_count", "{}"),
    ("ap30*", "proxy_ap30", "{:.3f}"),
    ("ap50*", "proxy_ap50", "{:.3f}"),
    ("ap70*", "proxy_ap70", "{:.3f}"),
)


def _compare_columns(rec: dict) -> list:
    reference = rec["reference_strategy"]
    return [(header.format(reference), key, fmt) for header, key, fmt in _COMPARE_COLUMNS]


def _fmt_table(columns, recs) -> str:
    cells = [[header for header, _, _ in columns]]
    cells += [[fmt.format(rec[key]) for _, key, fmt in columns] for rec in recs]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
    )


def _write_file(path, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc.strerror or exc}") from exc


# execution details that cannot change any computed number (jobs is parsed,
# validated and ignored); keeping them out of the echoed config lets runs
# that differ only in I/O produce byte-identical record files
_NON_EXPERIMENT_KEYS = frozenset({"out", "format", "plot_out", "jobs", "config"})


def _config_record(cfg: dict) -> dict:
    keys = sorted(k for k in cfg if k not in _NON_EXPERIMENT_KEYS)
    return {"type": "config", **{k: cfg[k] for k in keys}}


def cmd_solve(cfg: dict, solvers: ComparisonConfig) -> list:
    dist, scene_desc = _make_scene(cfg)
    strategy = cfg["strategy"]
    result = solve_scene(solvers, dist, (strategy,), cfg["seed"])[strategy]
    return [
        _config_record(cfg),
        {
            "type": "solve_result",
            "strategy": strategy,
            "scene": scene_desc,
            "objective_min_snr": result.objective_min_snr,
            "objective_max_delay_s": result.objective_max_delay_s,
            "epochs_used": result.epochs_used,
            "stop_reason": result.stop_reason,
            "distances_m": dist.d.tolist(),
            "power_w": result.power.p.tolist(),
            "snr": result.snr.tolist(),
            "delay_s": result.delay_s.tolist(),
        },
    ]


def text_solve(records: list) -> str:
    config, result = records
    return "\n".join(
        [
            f"scene: {result['scene']}",
            f"strategy: {result['strategy']} (epochs used {result['epochs_used']}, "
            f"stop {result['stop_reason']})",
            f"objective: min SNR {result['objective_min_snr']:.6g}, "
            f"max delay {result['objective_max_delay_s']:.6g} s "
            f"(rate factor {config['rate_factor']})",
            "",
            _fmt_matrix(result["power_w"], "power matrix [W]:"),
            "",
            _fmt_matrix(result["snr"], "SNR matrix:"),
            "",
            _fmt_matrix(result["delay_s"], "delay matrix [s]:"),
        ]
    )


def cmd_compare(cfg: dict, solvers: ComparisonConfig) -> list:
    specs = [_scene_spec(cfg, n, derive_seed(cfg["seed"], n)) for n in _vehicle_counts(cfg["n"])]
    return [_config_record(cfg)] + [run_comparison(spec, cfg["trials"], solvers) for spec in specs]


def text_compare(records: list) -> str:
    return "\n\n".join(
        f"n={rec['n']} ({rec['trials']} trials, reference {rec['reference_strategy']}, "
        f"{rec['variance_convention']})\n" + _fmt_table(_compare_columns(rec), rec["aggregates"])
        for rec in records[1:]
    )


def _plot_series(records: list) -> str:
    """One x/y series per compare table column and strategy, x = n; a series
    is named by its column header's first word and the strategy."""
    series = {}
    for rec in records[1:]:
        columns = _compare_columns(rec)[1:]
        for agg in rec["aggregates"]:
            for header, key, _ in columns:
                name = f"{header.split()[0]}.{agg['strategy']}"
                series.setdefault(name, []).append(f"{rec['n']} {agg[key]!r}\n")
    return "".join(f"# series {name}\n" + "".join(series[name]) for name in sorted(series))


def cmd_aoi(cfg: dict, solvers: ComparisonConfig) -> list:
    aoi_cfg = AoiConfig(
        compute_delay_s=cfg["compute_delay"],
        sample_period_s=cfg["period"],
        looptime_s=cfg["looptime"],
        rng_seed=derive_seed(cfg["seed"], 2),
    )
    dist, scene_desc = _make_scene(cfg)
    solved = solve_scene(solvers, dist, ("default", "greedy"), cfg["seed"])
    modes = [("zero_delay", np.zeros((dist.n, dist.n)))]
    modes += [(name, result.delay_s) for name, result in solved.items()]
    records = [_config_record(cfg)]
    for mode, delays in modes:
        ages = build_aoi_records(delays, aoi_cfg)
        summary = aoi_summary(ages, aoi_cfg)
        estimate = estimate_scene_ap(ages)
        records.append(
            {
                "type": "aoi_mode",
                "mode": mode,
                "scene": scene_desc,
                **vars(summary),  # AoiSummary's fields are record keys, in order
                "proxy_ap30": estimate.ap30,
                "proxy_ap50": estimate.ap50,
                "proxy_ap70": estimate.ap70,
                "proxy_label": estimate.label,
            }
        )
    return records


def text_aoi(records: list) -> str:
    config, modes = records[0], records[1:]
    return (
        f"scene: {modes[0]['scene']}; looptime {config['looptime']} s, "
        f"period {config['period']} s, compute delay {config['compute_delay']} s\n"
        "(AP columns are proxy estimates; effective ages add the looptime)\n"
        + _fmt_table(_AOI_COLUMNS, modes)
    )


def cmd_verify(cfg: dict, solvers: ComparisonConfig) -> list:
    comparison = run_comparison(_scene_spec(cfg, cfg["n"], cfg["seed"]), cfg["instances"], solvers)
    greedy = f"greedy_epoch{cfg['epochs']}"
    rows = [row for trial in comparison["per_trial"] for row in trial["strategies"]]
    worst = max(row["gap_vs_exact"] for row in rows if row["strategy"] == greedy)
    threshold = cfg["gap_threshold"]
    verdict = {"type": "verify_verdict", "worst_greedy_gap": worst, "gap_threshold": threshold,
               "ok": worst <= threshold}
    return [_config_record(cfg), comparison, verdict]


def text_verify(records: list) -> str:
    verdict = records[-1]
    return (
        text_compare(records[:-1])
        + f"\nworst greedy gap {verdict['worst_greedy_gap']:.4%} vs threshold "
        f"{verdict['gap_threshold']:.4%}: {'OK' if verdict['ok'] else 'EXCEEDED'}"
    )


_COMMANDS = {
    "solve": (cmd_solve, text_solve, "solve one scene with one strategy"),
    "compare": (cmd_compare, text_compare, "strategy comparison over repeated trials"),
    "aoi": (cmd_aoi, text_aoi, "information-age and proxy perception report"),
    "verify": (cmd_verify, text_verify, "compare at one n with a verdict on greedy's gap"),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed "error: ..." and exits 2; here 2 means only
        # that verify's threshold was exceeded
        return 1 if exc.code else 0
    run, render, _ = _COMMANDS[args.command]
    try:
        cfg, solvers = _resolve(args)
        records = run(cfg, solvers)
        if cfg.get("plot_out"):  # a compare flag
            _write_file(cfg["plot_out"], _plot_series(records))
        text = render(records)
        if cfg["out"] and cfg["format"] == "records":
            _write_file(cfg["out"], "".join(json.dumps(rec) + "\n" for rec in records))
        elif cfg["out"]:
            _write_file(cfg["out"], text + "\n")
        print(text, flush=True)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early (say, `| head`); stdout goes to devnull so
        # that the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if records[-1].get("ok", True) else 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
