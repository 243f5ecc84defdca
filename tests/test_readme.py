"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
