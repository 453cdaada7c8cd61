"""The north-star invariant: with a fixed master seed, what the CLI writes is
byte-identical from run to run, under --jobs too, and equal to the digests
pinned below.

Each argv runs in process through cli.main in both --format values, with
--out (and --plot-out for compare), from a scratch working directory that
holds the scene file, so the relative scene path echoed into the records is
the same on every machine.  A warning is written to stderr as one
`Category: message` line, without the source path a console run shows.

A deliberate change of results re-pins the rows it changes, once, and
CHANGES.md lists each with its old and new digests.  Run this file as a
script to print the current table:

    PYTHONPATH=src python tests/test_pinned_records.py
"""

import contextlib
import hashlib
import io
import os
import platform
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
    "compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400",
    "compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400 --jobs 2",
    "compare --n 2 --trials 1 --epochs 20 --generations 20",
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
        (0, "8608dbbb0efbb8a5", "d6b4f11d2602831e", None, "e3b0c44298fc1c14"),
    ("solve --n 64 --epochs 1000 --seed 1", "text"):
        (0, "8608dbbb0efbb8a5", "8608dbbb0efbb8a5", None, "e3b0c44298fc1c14"),
    ("solve --n 16 --p-min 1 --epochs 1000 --seed 2", "records"):
        (0, "247c9e6b9b2be444", "95d44b2e0c92ecd2", None, "e3b0c44298fc1c14"),
    ("solve --n 16 --p-min 1 --epochs 1000 --seed 2", "text"):
        (0, "247c9e6b9b2be444", "247c9e6b9b2be444", None, "e3b0c44298fc1c14"),
    ("solve --strategy genetic --n 4 --p-min 5 --generations 300", "records"):
        (0, "9b48f6ea6447f444", "8010792a1dd2acda", None, "e3b0c44298fc1c14"),
    ("solve --strategy genetic --n 4 --p-min 5 --generations 300", "text"):
        (0, "9b48f6ea6447f444", "9b48f6ea6447f444", None, "e3b0c44298fc1c14"),
    ("solve --strategy default --n 2", "records"):
        (0, "1bd1b5c3da887be9", "fedd37a60c43f26f", None, "e3b0c44298fc1c14"),
    ("solve --strategy default --n 2", "text"):
        (0, "1bd1b5c3da887be9", "1bd1b5c3da887be9", None, "e3b0c44298fc1c14"),
    ("solve --n 5 --rate-factor 0.2154 --seed 3", "records"):
        (0, "ef60d2591e743ad5", "60d45f47e11874fe", None, "e3b0c44298fc1c14"),
    ("solve --n 5 --rate-factor 0.2154 --seed 3", "text"):
        (0, "ef60d2591e743ad5", "ef60d2591e743ad5", None, "e3b0c44298fc1c14"),
    ("solve --scene tri.txt", "records"):
        (0, "3c7da3d5abd9525c", "3440475d4d770762", None, "e3b0c44298fc1c14"),
    ("solve --scene tri.txt", "text"):
        (0, "3c7da3d5abd9525c", "3c7da3d5abd9525c", None, "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400", "records"):
        (0, "565f9da3d00b1d26", "3a42339caa43ed9f", "8517e0273437effa", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400", "text"):
        (0, "565f9da3d00b1d26", "565f9da3d00b1d26", "8517e0273437effa", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400 --jobs 2", "records"):
        (0, "565f9da3d00b1d26", "3a42339caa43ed9f", "8517e0273437effa", "e3b0c44298fc1c14"),
    ("compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400 --jobs 2", "text"):
        (0, "565f9da3d00b1d26", "565f9da3d00b1d26", "8517e0273437effa", "e3b0c44298fc1c14"),
    ("compare --n 2 --trials 1 --epochs 20 --generations 20", "records"):
        (0, "2b7d1d7deef3ebdd", "5996bbf03c42e2e7", "59786a0f7b15e387", "e3b0c44298fc1c14"),
    ("compare --n 2 --trials 1 --epochs 20 --generations 20", "text"):
        (0, "2b7d1d7deef3ebdd", "2b7d1d7deef3ebdd", "59786a0f7b15e387", "e3b0c44298fc1c14"),
    ("aoi --n 64 --epochs 50 --compute-delay 0.05 --seed 1", "records"):
        (0, "878f6f2a9eac6578", "2e9601f56bbebf15", None, "e3b0c44298fc1c14"),
    ("aoi --n 64 --epochs 50 --compute-delay 0.05 --seed 1", "text"):
        (0, "878f6f2a9eac6578", "878f6f2a9eac6578", None, "e3b0c44298fc1c14"),
    ("aoi --n 4 --seed 9 --looptime 0.3 --rate-factor 0.2154", "records"):
        (0, "299d579c38960231", "08d6e6a0502ec24d", None, "e3b0c44298fc1c14"),
    ("aoi --n 4 --seed 9 --looptime 0.3 --rate-factor 0.2154", "text"):
        (0, "299d579c38960231", "299d579c38960231", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2", "records"):
        (0, "520b186cdb7fa9f1", "6327a4fcbda6ce17", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2", "text"):
        (0, "520b186cdb7fa9f1", "520b186cdb7fa9f1", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2 --gap-threshold 0", "records"):
        (2, "1d0a7c1ea527e396", "25d8858b8cde5e0b", None, "e3b0c44298fc1c14"),
    ("verify --n 5 --instances 2 --seed 2 --gap-threshold 0", "text"):
        (2, "1d0a7c1ea527e396", "1d0a7c1ea527e396", None, "e3b0c44298fc1c14"),
    ("verify --scene tri.txt --instances 1 --epochs 300 --generations 300", "records"):
        (0, "0a91fda164483b27", "dae636316a6556aa", None, "e3b0c44298fc1c14"),
    ("verify --scene tri.txt --instances 1 --epochs 300 --generations 300", "text"):
        (0, "0a91fda164483b27", "0a91fda164483b27", None, "e3b0c44298fc1c14"),
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
        (0, "2c9a530fcead3658", "2787ead2d9c26c2a", None, "e3b0c44298fc1c14"),
    ("solve --n 3 --noise 1e300", "text"):
        (0, "2c9a530fcead3658", "2c9a530fcead3658", None, "e3b0c44298fc1c14"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _show_warning(message, category, *_args, **_kwargs):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run_outputs(argv: str, fmt: str) -> tuple:
    """`v2vaoi <argv> --format <fmt>` run in the current directory: its exit
    code and the digests of stdout, --out, --plot-out and stderr."""
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
                written.append(_digest(fh.read()))
        else:
            written.append(None)
    return (
        code,
        _digest(stdout.getvalue().encode()),
        *written,
        _digest(stderr.getvalue().encode()),
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
    running = (np.__version__, platform.python_version())
    if running != PINNED_ON:
        pytest.skip(
            f"digests pinned on numpy {PINNED_ON[0]} / Python {PINNED_ON[1]}; "
            f"this is numpy {running[0]} / Python {running[1]}"
        )
    assert outputs[key] == PINNED[key]


def test_every_argv_is_pinned():
    assert set(PINNED) == {(argv, fmt) for argv in ARGVS for fmt in FORMATS}


def test_outputs_repeat_and_ignore_jobs(outputs, tmp_path):
    # on any platform: a second run gives the same bytes, and two worker
    # threads give what one gives
    assert run_all(tmp_path) == outputs
    serial = "compare --n 3,4 --trials 2 --seed 7 --epochs 300 --generations 400"
    for fmt in FORMATS:
        assert outputs[(serial + " --jobs 2", fmt)] == outputs[(serial, fmt)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = run_all(scratch)
    print("PINNED = {")
    for (argv, fmt), (code, *digests) in table.items():
        cells = ", ".join([str(code)] + ["None" if d is None else f'"{d}"' for d in digests])
        print(f'    ("{argv}", "{fmt}"):\n        ({cells}),')
    print("}")
