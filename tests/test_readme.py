"""README examples stay executable: every ```pycon block runs as a doctest."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# The fence lines are cut off here: handed to doctest whole, the closing
# fence would read as expected output of the block's last example.
_PYCON = re.compile(r"^```pycon\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def _blocks() -> list[tuple[int, str]]:
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)), m.group(1)) for m in _PYCON.finditer(text)]


def test_readme_has_pycon_blocks():
    assert len(_blocks()) >= 2


@pytest.mark.parametrize(
    "lineno,source", [pytest.param(n, src, id=f"block{i}") for i, (n, src) in enumerate(_blocks())]
)
def test_readme_pycon_block(lineno, source):
    test = doctest.DocTestParser().get_doctest(source, {}, f"README.md:{lineno + 1}", str(README), lineno)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0, f"README block at line {lineno + 1} failed; see the doctest report above"
