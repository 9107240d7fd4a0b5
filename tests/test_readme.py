"""The README's library example runs and gives the values its comments
name, its command-line block runs, its format blocks parse as written, and
its exit-code table matches the command line."""

import re
import shlex
from pathlib import Path

from fanosing import cli
from fanosing.forms import parse_form

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang=""):
    section = README.read_text().split(heading, 1)[1]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def _example_block():
    return _block("## Library in one example", "python")


def test_library_example_matches_its_comments():
    scope = {}
    exec(compile(_example_block(), str(README), "exec"), scope)
    la = scope["la"]
    assert la.nf.s == (1,)
    (point,) = la.certificate.points
    assert point.ambient == (0, 0, 0, 1) and point.multiplicity == 2
    assert la.everyp1.applies


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Every command of the README's command-line block exits 0, run on the
    library example's cone, the Fermat-type surface x1^3 + x2^3 + x3^3 over
    F_7 (which contains [1:0:0:0]) and the README's pencil block."""
    cone = re.search(r'parse_form\("""(.*?)"""\)', _example_block(), re.S)
    (tmp_path / "cone.form").write_text(cone.group(1))
    (tmp_path / "surface.form").write_text(
        "field Fp 7\nvars 4\n1 0 3 0 0\n1 0 0 3 0\n1 0 0 0 3\n")
    (tmp_path / "pencil.txt").write_text(_block("### Pencil files"))
    monkeypatch.chdir(tmp_path)
    commands = _block("## Command line", "sh").splitlines()
    assert len(commands) == 6
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "fanosing"
        if ">" in argv:
            argv = argv[:argv.index(">")]
        assert cli.main(argv[1:]) == 0, line
    capsys.readouterr()
    assert (tmp_path / "report.json").is_file()


def test_format_blocks_parse_as_written(tmp_path, capsys):
    """The '#' comments of the README's form and pencil blocks are read as
    comments: the blocks are valid input files as they stand."""
    P = parse_form(_block("### Form files"))
    assert (P.degree, P.nvars, str(P.field), len(P.terms)) == (3, 4, "Q", 2)
    path = tmp_path / "pencil.txt"
    path.write_text(_block("### Pencil files"))
    assert cli.main(["pencil-nf", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "block sizes: (2, 1)"


def test_exit_code_table_matches_cli():
    """The README lists exactly the cli.EXIT_* codes, 0 to 5."""
    section = README.read_text().split("### Exit codes", 1)[1]
    table = section.split("\n\n", 2)[1]
    listed = [int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)]
    codes = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert listed == codes == list(range(6))
