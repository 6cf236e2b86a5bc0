"""The Python examples in README.md run against the package as documented."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_python_block_runs(k):
    exec(compile(BLOCKS[k], f"README.md python block {k}", "exec"), {})
