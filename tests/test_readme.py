"""The README's library example runs and gives the values its comments name."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _example_block():
    text = README.read_text()
    section = text.split("## Library in one example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_matches_its_comments():
    scope = {}
    exec(compile(_example_block(), str(README), "exec"), scope)
    la = scope["la"]
    assert la.nf.s == (1,)
    (point,) = la.certificate.points
    assert point.ambient == (0, 0, 0, 1) and point.multiplicity == 2
    assert la.everyp1.applies
