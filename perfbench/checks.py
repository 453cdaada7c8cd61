"""Correctness checks and the quality figure for one call's ``--out`` records.

The checks restate the model's guarantees independently of the program:
per-link power bounds and per-vehicle budgets, finite positive delays, the
interference bound min SNR <= 1/(n-2), AP inside [0, 1] and at most n*n
stale links.  They run outside the timer and report problems as strings.
"""

import math

# absolute slack on every power constraint, in watts
POWER_SLACK_W = 1e-9

# relative slack on the min-SNR bound, for rounding in the last digits
SNR_BOUND_SLACK = 1e-9

EXPECTED_RESULTS = {"solve": "solve_result", "compare": "comparison", "aoi": "aoi_mode"}


def _check_solve(rec, cfg):
    problems = []
    p_min, p_max = cfg["p_min"], cfg["p_max"]
    power = rec["power_w"]
    n = len(power)
    for i, row in enumerate(power):
        if row[i] != 0.0:
            problems.append(f"P[{i}][{i}] = {row[i]} is not zero")
        for j, p in enumerate(row):
            if i != j and not (p_min - POWER_SLACK_W <= p <= p_max + POWER_SLACK_W):
                problems.append(f"P[{i}][{j}] = {p} W outside [{p_min}, {p_max}]")
        if sum(row) > p_max + POWER_SLACK_W:
            problems.append(f"row {i} sums to {sum(row)} W over budget {p_max}")
    for i, row in enumerate(rec["delay_s"]):
        for j, d in enumerate(row):
            if i != j and not (math.isfinite(d) and d > 0):
                problems.append(f"delay[{i}][{j}] = {d} is not finite and positive")
    if n > 2:
        problems += _check_min_snr(rec["objective_min_snr"], n, rec["strategy"])
    return problems


def _check_min_snr(min_snr, n, label):
    bound = 1.0 / (n - 2)
    if not (0 < min_snr <= bound * (1 + SNR_BOUND_SLACK)):
        return [f"{label}: min SNR {min_snr} outside (0, 1/(n-2) = {bound}]"]
    return []


def _check_comparison(rec, cfg):
    n = rec["n"]
    problems = []
    for trial in rec["per_trial"]:
        for s in trial["strategies"]:
            label = f"trial {trial['trial_index']} {s['strategy']}"
            problems += _check_min_snr(s["min_snr"], n, label)
    return problems


def _check_aoi(rec, cfg):
    problems = []
    n = cfg["n"]
    for key in ("proxy_ap30", "proxy_ap50", "proxy_ap70"):
        if not (0.0 <= rec[key] <= 1.0):
            problems.append(f"{rec['mode']}: {key} = {rec[key]} outside [0, 1]")
    if not (0 <= rec["stale_count"] <= n * n):
        problems.append(f"{rec['mode']}: stale_count {rec['stale_count']} > n^2 = {n * n}")
    return problems


_CHECKS = {"solve_result": _check_solve, "comparison": _check_comparison, "aoi_mode": _check_aoi}


def check_records(records):
    """Problems found in one call's records; an empty list means correct."""
    if not records or records[0].get("type") != "config":
        return ["records do not start with the config record"]
    cfg = records[0]
    wanted = EXPECTED_RESULTS.get(cfg.get("command"))
    results = [r for r in records[1:] if r.get("type") == wanted]
    if not results:
        return [f"no {wanted} record for command {cfg.get('command')!r}"]
    problems = []
    for rec in results:
        try:
            problems += _CHECKS[wanted](rec, cfg)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed {wanted} record: {exc!r}")
    return problems


def quality_gaps(records):
    """Deterministic quality of one call's results, one gap per result.

    Solver results give the certified gap 1 - min_snr * (n - 2) against
    the interference bound 1/(n-2).  The aoi report holds no solver result;
    its default and greedy modes give 1 - ap50 / ap50 of the zero-delay
    mode of the same scene, the proxy AP lost to transmission delay.
    """
    gaps = []
    for rec in records:
        kind = rec.get("type")
        if kind == "solve_result":
            n = len(rec["power_w"])
            gaps.append(1.0 - rec["objective_min_snr"] * (n - 2))
        elif kind == "comparison":
            for trial in rec["per_trial"]:
                gaps += [1.0 - s["min_snr"] * (rec["n"] - 2) for s in trial["strategies"]]
    modes = {r["mode"]: r for r in records if r.get("type") == "aoi_mode"}
    if "zero_delay" in modes:
        ideal = modes["zero_delay"]["proxy_ap50"]
        gaps += [1.0 - r["proxy_ap50"] / ideal for m, r in modes.items() if m != "zero_delay"]
    return gaps
