"""README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order(capsys):
    # each block uses names the ones before it defined, as a reader runs them
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    # the first block's printed report and its commented result
    assert "levelled down:" in capsys.readouterr().out
    assert namespace["report"].levelled_down_groups[0] == ("Male", "selection_rate")
