"""The README's python code runs, and each of its ``# True`` lines holds.

A renamed or removed public name then breaks this test, not only the docs.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_python_blocks_run_and_hold():
    claims = 0
    for i, block in enumerate(BLOCKS):
        namespace = {}
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if comment.strip() == "True":
                assert eval(code, namespace), line
                claims += 1
    assert claims >= 1  # the quick start's Monte-Carlo check
