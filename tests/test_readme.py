"""The README's library example runs against the package as it is, so a
removed or renamed public name fails here instead of going stale there."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} (Library entry points)", "exec"), {})
