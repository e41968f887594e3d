"""The README's code stays runnable against the library it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    namespace = {}
    exec(compile(block, "README.md (Library surface)", "exec"), namespace)
    assert len(namespace["alloc"].orders) == len(namespace["part"].ranges) == 2
