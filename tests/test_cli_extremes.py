"""Every flag at its extremes: argvs drawn from cli._FLAGS, run in process.

Whatever the values, a run exits 0, 1 or 2, says why it failed in one
`error:` line that blames a flag the argv set, if it names one, emits no
warning and writes only finite numbers.
"""

import contextlib
import io
import json
import math
import re
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2vaoi.cli import _COMMANDS, _FLAGS, main

FLOAT_EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e300, sys.float_info.max)
ORDINARY_FLOATS = (0.5, 3.0, 100.0)
SEEDS = (0, 2**64 - 1, 2**64)
INTS = (-1, 0, 1, 2, 3, 8, 64, 65)  # vehicle counts and --jobs
VEHICLE_LISTS = ("3", "2,5", "64", "0", "-1", "3,x", ",")
# Counts that multiply a run's work are always set: to a small valid value,
# or, when drawn, to an invalid one too.  This bounds the runtime only; the
# other tests run their defaults.
WORK_COUNTS = {"trials", "instances", "epochs", "generations", "population"}
SMALL_COUNTS = (1, 2, 30)
# Path flags stay unset; every run writes its report to --out.
PATHS = {"scene", "config", "plot_out", "out"}
# Up to this many flags per argv take drawn values, so that some runs pass
# every check and reach the solvers.
MAX_DRAWN = 3

# The spellings error messages use for a flag's value, each mapped to the flags
# that set it.  A derived quantity names every flag it follows from.
_SCENE = ("box_side", "min_sep")
SPELLINGS = {
    **{key: (key,) for key, _, _, _, _ in _FLAGS if key not in PATHS | {"format"}},
    "p_max_w": ("p_max",),
    "p_min_w": ("p_min",),
    "noise_w": ("noise",),
    "bandwidth_hz": ("bandwidth",),
    "payload_bits": ("payload",),
    "box_side_m": ("box_side",),
    "box": ("box_side",),
    "min_separation_m": ("min_sep",),
    "separation": ("min_sep",),
    "distances": _SCENE,
    "path loss": ("alpha", *_SCENE),
    "vehicles": ("n",),
    "max_epochs": ("epochs",),
    "max_generations": ("generations",),
    "population_size": ("population",),
    "sample_period_s": ("period",),
    "sample period": ("period",),
    "sampling periods": ("period",),
    "looptime_s": ("looptime",),
    "compute_delay_s": ("compute_delay",),
    "compute delay": ("compute_delay",),
}


def _named_flags(message: str) -> set:
    """The flags an error message names, by SPELLINGS, each as a whole word."""
    return {
        flag for spelling, flags in SPELLINGS.items()
        if re.search(rf"(?<![\w.]){re.escape(spelling)}(?!\w)", message)
        for flag in flags
    }


def _values(key: str, kind, default) -> st.SearchStrategy:
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if key in WORK_COUNTS:
        return st.sampled_from((0, -1, *SMALL_COUNTS))
    if key == "seed":
        return st.sampled_from(SEEDS)
    if kind is float:
        return st.sampled_from((*FLOAT_EXTREMES, *ORDINARY_FLOATS, default))
    if kind is int:
        return st.sampled_from(INTS)
    return st.sampled_from(VEHICLE_LISTS)  # compare's --n, the one non-path string


def _argv(command: str) -> st.SearchStrategy:
    rows = {key: (kind, default) for key, kind, default, _, names in _FLAGS
            if command in names and key not in PATHS}
    counts = {key: st.sampled_from(SMALL_COUNTS) for key in rows if key in WORK_COUNTS}

    def flags(keys: list) -> st.SearchStrategy:
        return st.fixed_dictionaries({**counts, **{key: _values(key, *rows[key]) for key in keys}})

    drawn = st.lists(st.sampled_from(sorted(rows)), max_size=MAX_DRAWN, unique=True)
    return drawn.flatmap(flags).map(
        lambda values: [command] + [
            arg for key, value in values.items()
            for arg in ("--" + key.replace("_", "-"), str(value))
        ]
    )


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("extremes") / "out.dat"


def test_named_flags():
    assert _named_flags("p_max_w 1e+301 W over noise_w 4.14e-14 W") == {"p_max", "noise"}
    assert _named_flags("supported scale is n <= 64") == {"n"}
    assert _named_flags("mean delay_mean over trials overflows") == {"trials"}
    # a field that contains a flag's key names that flag once, by its own spelling
    assert _named_flags("looptime_s must be finite") == {"looptime"}
    # path keys are no spellings: "out" in prose names no flag
    assert _named_flags("put a distance between vehicles out of float range") == {"n"}
    assert _named_flags("min SNR 1e-300 overflows a delay") == set()


# 300 derandomized draws, the same on every run, and three explicit
# examples: about 3 s on two cores.  The first is a box whose candidates'
# distance overflows in placement, the second a compute delay that
# overflows in sampling periods, the third a transmission delay that does
# so at the SNR its noise leaves.
@settings(max_examples=300, deadline=None, derandomize=True)
@example(argv=["solve", "--box-side", str(sys.float_info.max)])
@example(argv=["aoi", "--epochs", "2", "--payload", "100", "--compute-delay",
               str(sys.float_info.max)])
@example(argv=["aoi", "--epochs", "2", "--noise", "1e303"])
@given(argv=st.sampled_from(tuple(_COMMANDS)).flatmap(_argv))
def test_every_flag_at_its_extremes(argv, out_path):
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out_path)])
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert [str(w.message) for w in caught] == [], argv
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        named = _named_flags(err)
        set_flags = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")}
        assert not named or named & set_flags, (argv, err, named)
        return
    assert err == "", (argv, err)
    if "text" not in argv:  # --format records, the default
        for line in out_path.read_text().splitlines():
            numbers = list(_numbers(json.loads(line)))
            assert all(math.isfinite(x) for x in numbers), (argv, line[:200])


def test_transmission_delay_overflow_names_payload_and_bandwidth():
    # a finite transmission delay that overflows in sampling periods names
    # the payload and bandwidth it follows from, and the noise, powers and
    # path loss that set its SNR; a compute delay that overflows names none
    stdout = io.StringIO()
    for flag, value in (("bandwidth", "1e-300"), ("noise", "1e303")):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["aoi", "--epochs", "2", f"--{flag}", value])
        err = stderr.getvalue()
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert {"bandwidth", "payload", "noise", flag} <= _named_flags(err), err
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["aoi", "--epochs", "2", "--compute-delay", str(sys.float_info.max)])
    assert code == 1 and _named_flags(stderr.getvalue()) == {"compute_delay", "period"}
