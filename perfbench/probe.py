"""Set-up probe: import v2vaoi from this checkout and make one warm-up call.

Run as ``python3 perfbench/probe.py '<argv as JSON>'``.  The last line of
stdout is ``time.monotonic()`` when the warm-up call has returned; the
parent subtracts the moment it started the process.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from v2vaoi import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(json.loads(sys.argv[1]))
print(repr(time.monotonic()))
sys.exit(status)
