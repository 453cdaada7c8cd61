"""README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    # one namespace, as a reader pasting them in order: a later block reads
    # an earlier one's ages
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    code = "".join(blocks)
    for name in ("build_aoi_records(", "aoi_summary(", "run_comparison("):
        assert name in code, name
    assert capsys.readouterr().out
