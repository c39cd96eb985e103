"""The README's quick-start Python block runs as printed.

The block drives the public API by hand; a rename or removal there would
otherwise leave the README broken without failing any test.  Its regret is
pinned, so the block must also still play the same decisions."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_block_runs_and_keeps_its_regret():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    quick = [block for block in blocks if "regret = 0.0" in block]
    assert len(quick) == 1
    namespace = {}
    exec(compile(quick[0], str(README), "exec"), namespace)
    assert namespace["regret"] == 7.1810605434105845
