"""The north-star invariant: with a fixed master seed, what the CLI writes is
byte-identical from run to run, whatever --jobs says, and equal to the
digests pinned below.

Each argv runs in process through cli.main in both --format values, with
--out (and --plot-out for compare), from a scratch working directory that
holds the scene file, so the relative scene path echoed into the records is
the same on every machine.  A warning is written to stderr as one
`Category: message` line, without the source path a console run shows.

The digests compare only on the numpy and Python they were made on.  On
every platform, the same runs are also checked against golden values in
pinned_golden.json: per argv, the exit code, stderr up to its first digit,
every scalar field of every record, and the min, max and sum of each
matrix's off-diagonal cells.

A deliberate change of results re-pins the rows it changes, once, and
CHANGES.md lists each with its old and new digests.  Run this file as a
script to print the current digest table, or with --golden to print the
golden values:

    PYTHONPATH=src python tests/test_pinned_records.py
    PYTHONPATH=src python tests/test_pinned_records.py --golden > tests/pinned_golden.json
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest

from v2vaoi.cli import main

COORDS_SCENE = ("tri.txt", "coords\n0 0\n30 40\n60 0\n")

ARGVS = (
    "solve --n 64 --epochs 1000 --seed 1",
    "solve --n 16 --p-min 1 --epochs 1000 --seed 2",
    "solve --strategy genetic --n 4 --p-min 5 --generations 300",
    "solve --strategy default --n 2",
    "solve --n 5 --rate-factor 0.2154 --seed 3",
    "solve --scene tri.txt",
    "solve --strategy exact --n 64 --seed 1",
    "solve --strategy exact --n 16 --p-min 0.3 --seed 1",
    "compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400",
    "compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400 --jobs 2",
    "compare --n 2 --trials 1 --epochs 20 --generations 20",
    "compare --n 3,4 --trials 2 --seed 7",
    "aoi --n 64 --epochs 50 --compute-delay 0.05 --seed 1",
    "aoi --n 4 --seed 9 --looptime 0.3 --rate-factor 0.2154",
    "verify --n 5 --instances 2 --seed 2",
    "verify --n 5 --instances 2 --seed 2 --gap-threshold 0",
    "verify --scene tri.txt --instances 1 --epochs 300 --generations 300",
    "solve --n 3 --rate-factor 5e-324",
    "solve --n 3 --payload 1e308 --bandwidth 1e-300",
    "solve --n 3 --payload 1e-310",
    "solve --n 3 --noise 1e300",
)
FORMATS = ("records", "text")

# The numpy and Python versions the digests were made on; another numpy may
# round the last bit of a float differently.
PINNED_ON = ("2.4.6", "3.11.7")

# (argv, format): (exit code, then the first 16 hex digits of the sha256 of
# stdout, --out, --plot-out (None outside compare) and stderr)
PINNED = {
    ("solve --n 64 --epochs 1000 --seed 1", "records"):
        (0, "eb38e2a4393b5949", "35605c5a55132e17", None, "e3b0c44298fc1c14"),
    ("solve --n 64 --epochs 1000 --seed 1", "text"):
        (0, "eb38e2a4393b5949", "eb38e2a4393b5949", None, "e3b0c44298fc1c14"),
    ("solve --n 16 --p-min 1 --epochs 1000 --seed 2", "records"):
        (0, "3cc3c7782989c08d", "935ceadece7b057a", None, "e3b0c44298fc1c14"),
    ("solve --n 16 --p-min 1 --epochs 1000 --seed 2", "text"):
        (0, "3cc3c7782989c08d", "3cc3c7782989c08d", None, "e3b0c44298fc1c14"),
    ("solve --strategy genetic --n 4 --p-min 5 --generations 300", "records"):
        (0, "de4a52667f6acb3d", "b5632afa87df1aae", None, "e3b0c44298fc1c14"),
    ("solve --strategy genetic --n 4 --p-min 5 --generations 300", "text"):
        (0, "de4a52667f6acb3d", "de4a52667f6acb3d", None, "e3b0c44298fc1c14"),
    ("solve --strategy default --n 2", "records"):
        (0, "89afa88a910890bd", "e2254e8154ed4e73", None, "e3b0c44298fc1c14"),
    ("solve --strategy default --n 2", "text"):
        (0, "89afa88a910890bd", "89afa88a910890bd", None, "e3b0c44298fc1c14"),
    ("solve --n 5 --rate-factor 0.2154 --seed 3", "records"):
        (0, "fcc42d6ce368fb62", "7f71a29a22428b31", None, "e3b0c44298fc1c14"),
    ("solve --n 5 --rate-factor 0.2154 --seed 3", "text"):
        (0, "fcc42d6ce368fb62", "fcc42d6ce368fb62", None, "e3b0c44298fc1c14"),
    ("solve --scene tri.txt", "records"):
        (0, "b7fcc6b710f61b02", "00f8cf23c8e961cf", None, "e3b0c44298fc1c14"),
    ("solve --scene tri.txt", "text"):
        (0, "b7fcc6b710f61b02", "b7fcc6b710f61b02", None, "e3b0c44298fc1c14"),
    ("solve --strategy exact --n 64 --seed 1", "records"):
        (0, "6ca3a87c184bdb10", "905ceda6c8eac866", None, "e3b0c44298fc1c14"),
    ("solve --strategy exact --n 64 --seed 1", "text"):
        (0, "6ca3a87c184bdb10", "6ca3a87c184bdb10", None, "e3b0c44298fc1c14"),
    ("solve --strategy exact --n 16 --p-min 0.3 --seed 1", "records"):
        (0, "0578e563f4fec2cc", "8acee039d1b90e4f", None, "e3b0c44298fc1c14"),
    ("solve --strategy exact --n 16 --p-min 0.3 --seed 1", "text"):
        (0, "0578e563f4fec2cc", "0578e563f4fec2cc", None, "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400", "records"):
        (0, "3e9c807b63663501", "e8939d5ca9e348d0", "f1384417a624a3ee", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400", "text"):
        (0, "3e9c807b63663501", "3e9c807b63663501", "f1384417a624a3ee", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400 --jobs 2", "records"):
        (0, "3e9c807b63663501", "e8939d5ca9e348d0", "f1384417a624a3ee", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400 --jobs 2", "text"):
        (0, "3e9c807b63663501", "3e9c807b63663501", "f1384417a624a3ee", "e3b0c44298fc1c14"),
    ("compare --n 2 --trials 1 --epochs 20 --generations 20", "records"):
        (0, "accbb37ba8b1db08", "d07c1ee835999576", "0e95038188611d53", "e3b0c44298fc1c14"),
    ("compare --n 2 --trials 1 --epochs 20 --generations 20", "text"):
        (0, "accbb37ba8b1db08", "accbb37ba8b1db08", "0e95038188611d53", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7", "records"):
        (0, "4818de84ca713bff", "3f88a1450c683bf6", "c7fe9eb6e519a48d", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7", "text"):
        (0, "4818de84ca713bff", "4818de84ca713bff", "c7fe9eb6e519a48d", "e3b0c44298fc1c14"),
    ("aoi --n 64 --epochs 50 --compute-delay 0.05 --seed 1", "records"):
        (0, "878f6f2a9eac6578", "4d064f30854f5a6c", None, "e3b0c44298fc1c14"),
    ("aoi --n 64 --epochs 50 --compute-delay 0.05 --seed 1", "text"):
        (0, "878f6f2a9eac6578", "878f6f2a9eac6578", None, "e3b0c44298fc1c14"),
    ("aoi --n 4 --seed 9 --looptime 0.3 --rate-factor 0.2154", "records"):
        (0, "299d579c38960231", "cc4f8ac5c92577a5", None, "e3b0c44298fc1c14"),
    ("aoi --n 4 --seed 9 --looptime 0.3 --rate-factor 0.2154", "text"):
        (0, "299d579c38960231", "299d579c38960231", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2", "records"):
        (0, "8528b9599afacac9", "61c3211cea6a3d1c", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2", "text"):
        (0, "8528b9599afacac9", "8528b9599afacac9", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2 --gap-threshold 0", "records"):
        (2, "c9e825fc0f5ebd05", "e16837f4eed02b21", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2 --gap-threshold 0", "text"):
        (2, "c9e825fc0f5ebd05", "c9e825fc0f5ebd05", None, "e3b0c44298fc1c14"),
    ("verify --scene tri.txt --instances 1 --epochs 300 --generations 300", "records"):
        (1, "e3b0c44298fc1c14", None, None, "9970ff5f49ef9e0c"),
    ("verify --scene tri.txt --instances 1 --epochs 300 --generations 300", "text"):
        (1, "e3b0c44298fc1c14", None, None, "9970ff5f49ef9e0c"),
    ("solve --n 3 --rate-factor 5e-324", "records"):
        (1, "e3b0c44298fc1c14", None, None, "c882b61125d1fb3e"),
    ("solve --n 3 --rate-factor 5e-324", "text"):
        (1, "e3b0c44298fc1c14", None, None, "c882b61125d1fb3e"),
    ("solve --n 3 --payload 1e308 --bandwidth 1e-300", "records"):
        (1, "e3b0c44298fc1c14", None, None, "ce42b972f560bb7a"),
    ("solve --n 3 --payload 1e308 --bandwidth 1e-300", "text"):
        (1, "e3b0c44298fc1c14", None, None, "ce42b972f560bb7a"),
    ("solve --n 3 --payload 1e-310", "records"):
        (1, "e3b0c44298fc1c14", None, None, "388517dff6aa61b7"),
    ("solve --n 3 --payload 1e-310", "text"):
        (1, "e3b0c44298fc1c14", None, None, "388517dff6aa61b7"),
    ("solve --n 3 --noise 1e300", "records"):
        (0, "01a32cca36ef0028", "c82991c7b1fe1292", None, "e3b0c44298fc1c14"),
    ("solve --n 3 --noise 1e300", "text"):
        (0, "01a32cca36ef0028", "01a32cca36ef0028", None, "e3b0c44298fc1c14"),
}


# Golden floats compare at this relative tolerance, and every other value
# exactly.  It allows a last-bit difference in a platform's float kernels
# to grow through a solve; a solver whose path diverges fails it.  On
# PINNED_ON every golden value equals the written one exactly.
GOLDEN_REL_TOL = 1e-9

# Exact's delay_variance where no floor binds is rounding noise: every exact
# link has one SNR, so its delays differ by a few rounding steps and their
# population variance is at most (BALANCED_VARIANCE_K * eps * delay_mean)**2.
# A row there is checked against that bound instead of GOLDEN_REL_TOL.  The
# largest pinned value, 1.15e-31 s**2 at a 1.45 s mean, needs k = 1.05, and
# the worst of 20 scenes at each n = 3, 4, 5, 8, 16, 32, 64 needs 1.91.
BALANCED_VARIANCE_K = 4.0

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_golden.json")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _show_warning(message, category, *_args, **_kwargs):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run_outputs(argv: str, fmt: str) -> tuple:
    """`v2vaoi <argv> --format <fmt>` run in the current directory: its exit
    code, stdout, the bytes of --out and --plot-out (None if not written)
    and stderr."""
    for name in ("out.dat", "plot.dat"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
    extra = ["--format", fmt, "--out", "out.dat"]
    if argv.startswith("compare"):
        extra += ["--plot-out", "plot.dat"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _show_warning
            code = main(argv.split() + extra)
    written = []
    for name in ("out.dat", "plot.dat"):
        if os.path.exists(name):
            with open(name, "rb") as fh:
                written.append(fh.read())
        else:
            written.append(None)
    return code, stdout.getvalue(), *written, stderr.getvalue()


def digests(output: tuple) -> tuple:
    """A run_outputs tuple as its PINNED row: the exit code, then the digests
    of stdout, --out, --plot-out and stderr."""
    code, stdout, out, plot, stderr = output
    files = [None if data is None else _digest(data) for data in (out, plot)]
    return (code, _digest(stdout.encode()), *files, _digest(stderr.encode()))


def _golden_fields(value, path: str):
    """(path, value) of every scalar under value; a matrix (a list of lists,
    square with a zero diagonal in every record) gives the min, max and sum
    of its off-diagonal cells instead of its cells."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _golden_fields(item, f"{path}.{key}")
    elif isinstance(value, list) and value and isinstance(value[0], list):
        cells = [cell for i, row in enumerate(value) for j, cell in enumerate(row) if i != j]
        yield from ((f"{path}.min", min(cells)), (f"{path}.max", max(cells)))
        yield f"{path}.sum", math.fsum(cells)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _golden_fields(item, f"{path}.{index}")
    else:
        yield path, value


def golden_values(output: tuple) -> dict:
    """The golden values of a records-format run: its exit code, stderr up
    to its first digit, and _golden_fields of each record, keyed by the
    record's line index."""
    code, _, out, _, stderr = output
    values = {"exit_code": code, "stderr_head": re.match(r"\D*", stderr).group()}
    records = [] if out is None else out.decode().splitlines()
    for index, line in enumerate(records):
        values.update(_golden_fields(json.loads(line), str(index)))
    return values


def _golden_match(got, want, rel_tol: float = GOLDEN_REL_TOL) -> bool:
    if type(got) is float and type(want) is float:
        return math.isclose(got, want, rel_tol=rel_tol)
    return type(got) is type(want) and got == want


def balanced_exact_rows(values: dict) -> list:
    """The key prefixes of exact's rows in every comparison record whose
    exact trials all ran at most 2 row tests: the SIR-balanced prediction
    certified where no floor binds, or n = 2, whose two links are
    symmetric."""
    rows = {}  # record index: its exact rows' key prefixes
    for key, value in values.items():
        row, _, field = key.rpartition(".")
        if field == "strategy" and value == "exact":
            rows.setdefault(row.partition(".")[0], []).append(row)
    return [
        row
        for record, heads in rows.items()
        if values[f"{record}.type"] == "comparison"
        and all(values.get(f"{head}.epochs_used", 0) <= 2 for head in heads)
        for row in heads
    ]


def _skip_off_pinned_platform():
    running = (np.__version__, platform.python_version())
    if running != PINNED_ON:
        pytest.skip(
            f"pinned on numpy {PINNED_ON[0]} / Python {PINNED_ON[1]}; "
            f"this is numpy {running[0]} / Python {running[1]}"
        )


def run_all(workdir) -> dict:
    """Every (argv, format) run in workdir, which receives the scene file."""
    name, text = COORDS_SCENE
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return {(argv, fmt): run_outputs(argv, fmt) for argv in ARGVS for fmt in FORMATS}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: f"{key[0]} [{key[1]}]")
def test_outputs_match_pinned_digests(outputs, key):
    _skip_off_pinned_platform()
    assert digests(outputs[key]) == PINNED[key]


def test_every_argv_is_pinned():
    assert set(PINNED) == {(argv, fmt) for argv in ARGVS for fmt in FORMATS}


@pytest.mark.parametrize("argv", ARGVS)
def test_outputs_match_golden_values(outputs, argv):
    # on any platform, at GOLDEN_REL_TOL
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)[argv]
    got = golden_values(outputs[(argv, "records")])
    assert list(got) == list(want)
    balanced = balanced_exact_rows(got)
    limit = BALANCED_VARIANCE_K * sys.float_info.epsilon
    over = [
        row for row in balanced
        if not got[f"{row}.delay_variance"] <= (limit * got[f"{row}.delay_mean"]) ** 2
    ]
    assert over == [], {row: got[f"{row}.delay_variance"] for row in over}
    unchecked = {f"{row}.delay_variance" for row in balanced}
    mismatched = [
        key for key in want if key not in unchecked and not _golden_match(got[key], want[key])
    ]
    assert mismatched == [], {key: (got[key], want[key]) for key in mismatched}


@pytest.mark.parametrize("argv", ARGVS)
def test_golden_values_equal_written_values(outputs, argv):
    # on PINNED_ON the golden file holds what the code writes, bit for bit
    _skip_off_pinned_platform()
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)[argv]
    got = golden_values(outputs[(argv, "records")])
    assert list(got) == list(want)
    differ = [key for key in want if not _golden_match(got[key], want[key], rel_tol=0.0)]
    assert differ == [], {key: (got[key], want[key]) for key in differ}


def test_every_argv_has_golden_values():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        assert list(json.load(fh)) == list(ARGVS)


def test_outputs_repeat_and_ignore_jobs(outputs, tmp_path):
    # on any platform: a second run gives the same bytes, and --jobs 2,
    # which compare ignores, gives what the serial argv gives
    assert run_all(tmp_path) == outputs
    serial = "compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400"
    for fmt in FORMATS:
        assert outputs[(serial + " --jobs 2", fmt)] == outputs[(serial, fmt)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = run_all(scratch)
    if sys.argv[1:] == ["--golden"]:
        golden = {argv: golden_values(table[(argv, "records")]) for argv in ARGVS}
        print(json.dumps(golden, indent=1))
        sys.exit()
    print("PINNED = {")
    for (argv, fmt), output in table.items():
        code, *cells = digests(output)
        cells = ", ".join([str(code)] + ["None" if d is None else f'"{d}"' for d in cells])
        print(f'    ("{argv}", "{fmt}"):\n        ({cells}),')
    print("}")
