"""The README's library example runs and gives the values its comments
name, and its exit-code table matches the command line."""

import re
from pathlib import Path

from fanosing import cli

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


def test_exit_code_table_matches_cli():
    """The README lists exactly the cli.EXIT_* codes, 0 to 5."""
    section = README.read_text().split("### Exit codes", 1)[1]
    table = section.split("\n\n", 2)[1]
    listed = [int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)]
    codes = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert listed == codes == list(range(6))
