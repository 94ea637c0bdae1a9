"""The README's library examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    """The python code blocks under "## Library", in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_examples_run():
    blocks = _library_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use the names earlier ones bind
        exec(compile(block, str(README), "exec"), namespace)
