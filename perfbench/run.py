#!/usr/bin/env python3
"""Benchmark of the v2vaoi command line.

    python3 perfbench/run.py --workload greedy-scale --seed 1 --seconds 30 --trace 0

Calls ``v2vaoi.cli.main`` in this process, from the sources of this
checkout, on seeded argument lists (see workloads.py), with stdout sent to
a counting sink and ``--out`` pointed at a scratch file.  Every call's
records are checked and hashed outside the timer.

--trace 0 first times several fresh processes that import the package and
make one warm-up call (``setup_s``), then runs whole cycles until the fixed
prefix is done and ``--seconds`` have passed, and reports the end-to-end
metrics.  --trace 1 runs the fixed prefix once plainly and once under the
timing shims of tracer.py, requires identical record digests from both,
and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it record the environment, the tail
percentile and the sha256 of every ``--out`` file.
"""

import os

# pinned before numpy loads; the set-up probes inherit them
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench.calibration import SpeedLog  # noqa: E402
from perfbench.checks import check_records, quality_gaps  # noqa: E402
from perfbench.tracer import Tracer, layer_metric_spec, layer_metrics, shims  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# measuring stops past this many seconds, so that a run ends within 180 s
DEADLINE_S = 140.0

# (metric, unit) of the untraced run, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("scenes_per_s", "1/s"),
    ("scene_p50_s", "s"),
    ("scene_tail_s", "s"),
    ("certified_gap_mean", "ratio"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Call:
    start: float  # perf_counter when the call began
    latency_s: float
    problems: list
    digest: str
    emitted_bytes: int  # stdout plus --out file
    gaps: list
    scale: float = 1.0  # wall to calibrated seconds, see calibration.py

    @property
    def calibrated_s(self):
        return self.latency_s * self.scale


class _Sink(io.TextIOBase):
    """Stdout stand-in that counts what the CLI prints and keeps none of it."""

    def __init__(self):
        super().__init__()
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


def run_call(cli, argv, out_path):
    """One timed CLI call; its records are read, checked and hashed after."""
    out_path.unlink(missing_ok=True)
    sink = _Sink()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main([*argv, "--out", str(out_path)])
    except (Exception, SystemExit):
        status = None
        problems.append(traceback.format_exc())
    latency = time.perf_counter() - start
    if status not in (0, None):
        problems.append(f"exit status {status}")
    data = out_path.read_bytes() if out_path.exists() else b""
    gaps = []
    if status == 0:
        try:
            records = [json.loads(line) for line in data.splitlines()]
            problems += check_records(records)
            gaps = quality_gaps(records)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"unreadable records: {exc!r}")
    if problems:
        print(f"{' '.join(argv)}: {problems[0]}", file=sys.stderr)
    return Call(start, latency, problems, hashlib.sha256(data).hexdigest(), sink.chars + len(data), gaps)


def run_cycles(cli, cycles, out_path, speed, min_cycles, seconds, t_process):
    """Run whole cycles until min_cycles are done and ``seconds`` have passed,
    or until the deadline.

    Samples the machine speed after every call.  Returns one list of calls
    per cycle.
    """
    done = []
    t0 = time.perf_counter()
    for cycle in cycles:
        now = time.perf_counter()
        if len(done) >= min_cycles and now - t0 >= seconds:
            break
        if now - t_process > DEADLINE_S:
            break
        calls = []
        for argv in cycle:
            calls.append(run_call(cli, argv, out_path))
            speed.sample()
        done.append(calls)
    return done


def prefix_calls(workload, seed):
    """Number of calls in the workload's fixed prefix."""
    return sum(len(c) for c in itertools.islice(workload.cycles(seed), workload.prefix_cycles))


def cut_off(unfinished):
    """Report prefix calls the deadline left unrun; they count as failed."""
    if unfinished:
        print(f"error: the deadline left {unfinished} prefix calls unrun; "
              "they count as failed", file=sys.stderr)
    return unfinished


def calibrate(speed, cycles):
    """Scale every call by the machine speed around it."""
    for call in (c for cycle in cycles for c in cycle):
        call.scale = speed.scale(call.start, call.start + call.latency_s)


def measure_setup(workload, speed):
    """Median calibrated seconds from process start to a returned warm-up call."""
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"), json.dumps(workload.warmup)]
    spans = []
    speed.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        started = time.monotonic()
        proc = subprocess.run(
            probe, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        spans.append((start, float(proc.stdout.split()[-1]) - started))
        speed.sample()
    return statistics.median(wall * speed.scale(start, start + wall) for start, wall in spans)


def tail(latencies, percentile):
    """Nearest-rank percentile of the latencies and the count beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{k: os.environ.get(k) for k in THREAD_PINS},
    }


def measured_run(cli, workload, seed, seconds, out_path, t_process):
    speed = SpeedLog()
    setup_s = measure_setup(workload, speed)
    run_call(cli, workload.warmup, out_path)
    speed.sample()
    cycles = run_cycles(
        cli, workload.cycles(seed), out_path, speed, workload.prefix_cycles, seconds, t_process
    )
    calibrate(speed, cycles)
    calls = [c for cycle in cycles for c in cycle]
    prefix = [c for cycle in cycles[: workload.prefix_cycles] for c in cycle]
    unfinished = cut_off(prefix_calls(workload, seed) - len(prefix))
    attempted = len(calls) + unfinished
    passed = sum(1 for c in calls if not c.problems)
    failed = attempted - passed
    scenes = passed * workload.scenes_per_call
    per_scene = [
        sum(c.calibrated_s for c in cycle) / (len(cycle) * workload.scenes_per_call)
        for cycle in cycles
    ]
    tail_s, beyond = tail(per_scene, workload.tail_percentile)
    gaps = [g for c in prefix for g in c.gaps]
    calibrated = sum(c.calibrated_s for c in calls)
    wall = sum(c.latency_s for c in calls)
    values = {
        "setup_s": setup_s,
        "scenes_per_s": scenes / calibrated,
        "scene_p50_s": statistics.median(per_scene),
        "scene_tail_s": tail_s,
        "certified_gap_mean": statistics.fmean(gaps) if gaps else 1.0,
        "success_rate": passed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = [
        f"calls {len(calls)}, prefix {len(prefix)}, unfinished {unfinished}, failed {failed}",
        f"scene_tail_s is p{workload.tail_percentile} of {len(per_scene)} cycle samples, "
        f"{beyond} beyond it",
        f"calls took {wall!r} s wall, {calibrated!r} s calibrated; "
        f"wall scenes_per_s {scenes / wall!r}; {len(speed.took)} speed samples",
        f"per-scene samples of the cycles: {json.dumps(per_scene)}",
    ]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return calls, prefix, attempted, failed, metrics, info


def traced_run(cli, workload, seed, out_path, t_process):
    tracer = Tracer()
    plain, traced = [], []
    speed = SpeedLog()
    run_call(cli, workload.warmup, out_path)
    speed.sample()
    # plain and traced passes of each prefix cycle alternate, so drift in
    # the machine's speed lands on both sides of the overhead ratio
    for cycle in itertools.islice(workload.cycles(seed), workload.prefix_cycles):
        plain += run_cycles(cli, [cycle], out_path, speed, 1, 0.0, t_process)
        with shims(tracer):
            traced += run_cycles(cli, [cycle], out_path, speed, 1, 0.0, t_process)
    calibrate(speed, plain + traced)
    plain = [c for cycle in plain for c in cycle]
    traced = [c for cycle in traced for c in cycle]
    pairs = list(zip(plain, traced))
    unfinished = cut_off(2 * prefix_calls(workload, seed) - len(plain) - len(traced))
    attempted = len(plain) + len(traced) + unfinished
    mismatched = sum(1 for a, b in pairs if a.digest != b.digest)
    failed = unfinished + sum(1 for c in plain if c.problems) + sum(
        1 for a, b in pairs if b.problems or a.digest != b.digest
    )
    overhead = (
        sum(b.calibrated_s for _, b in pairs) / sum(a.calibrated_s for a, _ in pairs) - 1.0
    )
    values = layer_metrics(tracer, sum(b.emitted_bytes for b in traced), overhead)
    # span times are wall times; bring them to calibrated seconds as well
    factor = statistics.median(b.scale for b in traced)
    metrics = {}
    for name, unit, _ in layer_metric_spec():
        metrics[name] = (values[name] * factor if unit in ("s", "us") else values[name], unit)
    info = [
        f"traced {len(traced)} calls, each also run plainly, {len(tracer.start)} spans, "
        f"{mismatched} record digests differ, {unfinished} calls unrun; "
        f"span times scaled by {factor!r}"
    ]
    return plain + traced, plain, attempted, failed, metrics, info


def main(argv=None):
    t_process = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "v2vaoi" / "__init__.py").is_file():
        print(f"error: no v2vaoi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from v2vaoi import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: v2vaoi was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        out_path = workdir / "out.jsonl"
        if args.trace:
            calls, prefix, attempted, failed, metrics, info = traced_run(
                cli, workload, args.seed, out_path, t_process
            )
        else:
            calls, prefix, attempted, failed, metrics, info = measured_run(
                cli, workload, args.seed, args.seconds, out_path, t_process
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    combined = hashlib.sha256("".join(c.digest for c in prefix).encode()).hexdigest()
    print(f"# perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for line in info:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(f"# records sha256 of the {len(prefix)} prefix calls: {combined}")
    print(f"# records sha256 per call: {json.dumps([c.digest for c in calls])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
