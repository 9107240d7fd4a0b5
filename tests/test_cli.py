"""Command line behavior: exit codes, deterministic JSON, field overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fanosing import singular
from fanosing.cli import main
from fanosing.corpus import cone, fermat
from fanosing.forms import format_form, parse_form
from fanosing.linalg import QQ, parse_field
from fanosing.pencil import NotConstantRankTwo
from fanosing.singular import analyze_line
from fanosing.tangent import LineFrame


@pytest.fixture
def cone_file(tmp_path):
    X = cone(fermat(2, 3, QQ))
    path = tmp_path / "cone.form"
    path.write_text(format_form(X.P))
    return str(path)


@pytest.fixture
def fermat7_file(tmp_path):
    X = fermat(3, 3, parse_field("Fp:7"))
    path = tmp_path / "fermat7.form"
    path.write_text(format_form(X.P))
    return str(path)


def test_analyze_success(cone_file, capsys):
    code = main(["analyze", cone_file, "--line", "1,-1,0,0;0,0,0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "singular point [0:0:0:1]" in out
    assert "multiplicity 2" in out


def test_analyze_line_off_surface(cone_file, capsys):
    code = main(["analyze", cone_file, "--line", "1,0,0,0;0,1,0,0"])
    assert code == 2
    assert "not contained" in capsys.readouterr().out


def test_analyze_json_deterministic(cone_file, tmp_path, capsys):
    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    assert main(["analyze", cone_file, "--line", "1,-1,0,0;0,0,0,1",
                 "--json", str(j1)]) == 0
    assert main(["analyze", cone_file, "--line", "1,-1,0,0;0,0,0,1",
                 "--json", str(j2)]) == 0
    assert j1.read_bytes() == j2.read_bytes()
    data = json.loads(j1.read_text())
    assert data["exit"] == 0
    assert data["normal_form"]["s"] == [1]
    assert data["certificate"]["points"][0]["ambient"] == [0, 0, 0, 1]
    assert data["certificate"]["points"][0]["multiplicity"] == 2
    # the input is echoed for replay
    assert data["input"]["line"] == "1,-1,0,0;0,0,0,1"
    assert "field Q" in data["input"]["form"]


def test_lines_enumeration(fermat7_file, capsys):
    code = main(["lines", fermat7_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("27 line(s)")
    assert len(out.strip().splitlines()) == 28


def test_lines_budget_exceeded(fermat7_file, capsys):
    assert main(["lines", fermat7_file, "--budget", "100"]) == 4
    assert "2850" in capsys.readouterr().out


def test_budget_zero_reports_the_estimate(fermat7_file, capsys):
    for command in ("lines", "conjecture"):
        assert main([command, fermat7_file, "--budget", "0"]) == 4
        assert "2850 candidates (budget 0)" in capsys.readouterr().out


def test_lines_through_budget_exceeded(fermat7_file, tmp_path, capsys):
    j = tmp_path / "t.json"
    assert main(["lines", fermat7_file, "--through", "1,6,0,0",
                 "--budget", "1", "--json", str(j)]) == 4
    data = json.loads(j.read_text())
    assert data["exit"] == 4 and data["estimate"] == 57


def test_lines_through_off_point(fermat7_file, capsys):
    code = main(["lines", fermat7_file, "--through", "[1:0:0:0]"])
    assert code == 2


def test_conjecture_with_field_reduction(cone_file, capsys):
    code = main(["conjecture", cone_file, "--field", "Fp:7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lines: 9" in out
    assert "[0:0:0:1]" in out
    assert "exceptions: 0" in out


def test_conjecture_refuses_small_characteristic(cone_file, capsys):
    """The refusal names the CLI flag, --force, in its line and in the JSON
    error; the library's message names force=True."""
    assert main(["conjecture", cone_file, "--field", "Fp:3"]) == 5
    out = capsys.readouterr().out
    assert "characteristic" in out
    assert "--force" in out and "force=True" not in out
    assert main(["conjecture", cone_file, "--field", "Fp:3", "--json", "-"]) == 5
    error = json.loads(capsys.readouterr().out)["error"]
    assert "--force" in error and "force=True" not in error


def test_conjecture_budget_exceeded_reports_estimate(fermat7_file, capsys):
    assert main(["conjecture", fermat7_file, "--budget", "100"]) == 4
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("error: ") and "(budget 100)" in line
    assert main(["conjecture", fermat7_file, "--budget", "100",
                 "--json", "-"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["exit"] == 4 and data["estimate"] > 100
    assert "report" not in data


def test_analyze_entirely_singular_line(tmp_path, capsys):
    """x0*x2^2 + x1*x3^2 over F_7 is singular along span(e0, e1): the
    pencil is trivial (m = 0), so there is no normal form, generator set or
    filtration, and the certificate is the whole line."""
    path = tmp_path / "whole.form"
    path.write_text("field Fp 7\nvars 4\n1 1 0 2 0\n1 0 1 0 2\n")
    argv = ["analyze", str(path), "--line", "1,0,0,0;0,1,0,0"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "tangent dim: 4   pi dim: 2   m: 0"
    assert out[2].startswith("pencil trivial")
    assert out[3] == "singular: entire line (gradient vanishes identically)"
    assert main(argv + ["--json", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["normal_form"] is data["generators"] is data["filtration"] is None
    assert data["certificate"]["whole_line"] is True


def test_gcd_without_rational_zero(tmp_path, capsys):
    """The planted line span(e0, e1) of seed 110 has gcd s^2 + 4t^2, which
    has no zero over F_7: analyze certifies no rational point, and the
    survey lists it, and one more such line, as exceptions."""
    assert main(["gen", "random-with-line", "--n", "3", "--d", "3",
                 "--p", "7", "--seed", "110"]) == 0
    path = tmp_path / "r110.form"
    path.write_text(capsys.readouterr().out)
    assert main(["analyze", str(path), "--line", "1,0,0,0;0,1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "singular points: none rational (" in out
    assert main(["conjecture", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "exceptions: 2" in out
    exceptions = [ln for ln in out if ln.startswith("  no-rational-point: ")]
    assert len(exceptions) == 2
    assert exceptions[0].startswith("  no-rational-point: 1,0,0,0;0,1,0,0 "
                                    "(gcd 1*s^2 + 4*t^2 has no rational zero")


def test_gen_cone_reads_its_base(tmp_path, capsys):
    base = tmp_path / "base.form"
    base.write_text(format_form(fermat(2, 3, QQ).P))
    assert main(["gen", "cone", "--base", str(base), "--extra", "2"]) == 0
    got = parse_form(capsys.readouterr().out)
    assert got == cone(fermat(2, 3, QQ), extra=2).P and got.nvars == 5


def test_rank_one_line_pencil_propagates(cone_file, monkeypatch, capsys):
    """A line's pencil has no rank-one element, so a NotConstantRankTwo from
    it is a bug: analyze_line lets it propagate, and analyze ends with exit 1
    and one stderr line, not exit 3."""
    def refuse(pencil):
        raise NotConstantRankTwo("planted refusal")

    monkeypatch.setattr(singular, "normal_form", refuse)
    X = cone(fermat(2, 3, QQ))
    with pytest.raises(NotConstantRankTwo, match="planted refusal"):
        analyze_line(X, LineFrame(QQ, (1, -1, 0, 0), (0, 0, 0, 1)))
    assert main(["analyze", cone_file, "--line", "1,-1,0,0;0,0,0,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: planted refusal\n"


def test_field_override_rejects_fp_to_q(fermat7_file, capsys):
    assert main(["analyze", fermat7_file, "--line", "1,0,0,3;0,1,3,0",
                 "--field", "Q"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_pencil_nf_roundtrip(tmp_path, capsys):
    pfile = tmp_path / "pencil.txt"
    pfile.write_text("field Q\nm 3\nelement 1,0,0;0,-1,0\n")
    code = main(["pencil-nf", str(pfile)])
    out = capsys.readouterr().out
    assert code == 0
    assert "block sizes: (2, 1)" in out


def test_pencil_nf_decomposable(tmp_path, capsys):
    pfile = tmp_path / "bad.txt"
    pfile.write_text("field Q\nm 2\nelement 1,0;0,0\n")
    assert main(["pencil-nf", str(pfile)]) == 3


def test_ruled_with_twist(capsys):
    code = main(["ruled", "--k", "2", "--d1", "1,3", "--d2", "2,5",
                 "--twist-p", "3", "--twist-l", "0,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D1.D2 = 7" in out
    assert "cone bound: 4" in out
    assert "twist class: (3, 7)" in out


def test_gen_fermat_parses_back(capsys):
    code = main(["gen", "fermat", "--n", "3", "--d", "3", "--field", "Fp:7"])
    out = capsys.readouterr().out
    assert code == 0
    P = parse_form(out)
    assert P.degree == 3 and P.nvars == 4 and P.field.p == 7


def test_python_dash_m_runs_main(capsys):
    """python -m fanosing runs the same main as the fanosing command, from
    a checkout with src on the path."""
    argv = ["gen", "fermat", "--n", "2", "--d", "3", "--field", "Fp:7"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    got = subprocess.run([sys.executable, "-m", "fanosing"] + argv, env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout == want


def test_gen_random_with_line_json(tmp_path, capsys):
    j = tmp_path / "g.json"
    code = main(["gen", "random-with-line", "--n", "4", "--d", "3",
                 "--p", "11", "--seed", "5", "--json", str(j)])
    assert code == 0
    data = json.loads(j.read_text())
    assert data["line"] == "1,0,0,0,0;0,1,0,0,0"
    assert data["form"].startswith("field Fp 11")


def test_usage_error_is_exit_one(capsys):
    assert main(["analyze"]) == 1
    assert main(["lines", "/nonexistent/path.form"]) == 1


@pytest.mark.parametrize("command, text, lineno", [
    ("lines", "field Fp:7\nvars\n1 3 0 0 0\n", 2),
    ("lines", "field\nvars 4\n1 3 0 0 0\n", 1),
    ("pencil-nf", "field Q\nm\nelement 1,0;0,1\n", 2),
    ("pencil-nf", "field\nm 2\nelement 1,0;0,1\n", 1),
    ("pencil-nf", "field Q\nm 2\nelement\n", 3),
    ("lines", "field Fp:7\nvars x\n1 3 0 0 0\n", 2),
    ("pencil-nf", "field Q\nm two\nelement 1,0;0,1\n", 2),
    ("pencil-nf", "field Q\nm -1\n", 2),
    ("lines", "field Fp:7\nvars 4\n1 3 0 0 0\n1 0 x 0 0\n", 4),
    ("lines", "field Q\nvars 2 7\n1 2 0\n", 2),
    ("lines", "field Q\nvars 0\n1\n", 2),
    ("lines", "field Fp:7\nvars 4\n1 3 0 0\n", 3),
    ("lines", "field Fp:7\nvars 4\n1 3 0 0 0\n1 4 0 0 -1\n", 4),
    ("pencil-nf", "field Q\nm 2\nelement 1,0;0,1,0\n", 3),
    ("pencil-nf", "field Q\nm 2\nelement 1,0;0,1\nvector 1,1;0,1\n", 4),
])
def test_malformed_header_is_one_line_error(tmp_path, capsys, command, text,
                                            lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "line %d" % lineno in err[0] and "needs" in err[0]
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command, text, message", [
    ("lines", "field Q\nvars 2\nfield Q\n1 2 0\n",
     "line 3: repeated 'field' header"),
    ("lines", "field Q\nvars 2\n1 2 0\nvars 2\n",
     "line 4: repeated 'vars' header"),
    ("lines", "field Q\nvars 2\n1/2 2 0\nfield Fp 7\n1 0 2\n",
     "line 4: repeated 'field' header"),
    ("lines", "field Fp 5\nfield Fp 7\nvars 2\n1 2 0\n",
     "line 2: repeated 'field' header"),
    ("pencil-nf", "m 2\nfield Q\nfield Q\nelement 1,0;0,1\n",
     "line 3: repeated 'field' header"),
    ("pencil-nf", "field Q\nm 2\nelement 1,0;0,1\nm 3\n",
     "line 4: repeated 'm' header"),
    ("lines", "1 3 0 0 0\nfield Q\nvars 4\n",
     "line 1: '1 3 0 0 0' comes before the 'field' and 'vars' headers"),
    ("lines", "field Q\n1 3 0 0 0\nvars 4\n",
     "line 2: '1 3 0 0 0' comes before the 'field' and 'vars' headers"),
    ("pencil-nf", "\nm 2\nelement 1,0;0,1\nfield Q\n",
     "line 3: 'element 1,0;0,1' comes before the 'field' and 'm' headers"),
    ("pencil-nf", "field Q\nm 2\nelement 1,0\n",
     "line 3: line spec must be 'v1;v2'"),
    ("lines", "field Q\n", "missing 'field' or 'vars' header"),
    ("pencil-nf", "# element 1,0;0,1\n", "missing 'field' or 'm' header"),
], ids=["form-field-twice", "form-vars-after-terms", "form-field-switch",
        "form-fp5-then-fp7", "pencil-field-twice", "pencil-m-after-elements",
        "form-term-first", "form-term-between-headers", "pencil-element-first",
        "pencil-element-no-semicolon", "form-no-vars", "pencil-no-headers"])
def test_misplaced_or_missing_header_is_one_line_error(tmp_path, capsys,
                                                       command, text, message):
    """Each header appears once, before the first body line: a repeat (or
    a body line before both headers) is refused at its line, never read
    as a switch of field or count."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + message)
    assert captured.out == ""


_CUBIC = "field Q\nvars 4\n1 3 0 0 0\n1 0 3 0 0\n"


@pytest.mark.parametrize("form, argv, message", [
    (_CUBIC, ["analyze", "{f}", "--line", "1/0,0,0,0;0,1,0,0"],
     "zero denominator in '1/0'"),
    ("field Q\nvars 4\n1/0 3 0 0 0\n", ["lines", "{f}", "--field", "Fp:7"],
     "zero denominator in '1/0'"),
    (_CUBIC, ["lines", "{f}", "--field", "Fp:7", "--through", "1/0,1,0,0"],
     "zero denominator in '1/0'"),
    (_CUBIC, ["analyze", "{f}", "--line", "0,0,1,0;0,0,0,1", "--field", "Fp:0"],
     "needs a prime characteristic, got 0"),
    ("field Fp 0\nvars 4\n1 3 0 0 0\n",
     ["analyze", "{f}", "--line", "0,0,1,0;0,0,0,1"],
     "needs a prime characteristic, got 0"),
    ("", ["gen", "random-with-line", "--p", "0"], "prime p, got p = 0"),
    ("field Q\nvars 4\n1 3 0 0 0\nabc 0 3 0 0\n",
     ["lines", "{f}", "--field", "Fp:7"],
     "line 4: coefficient: expected an integer or a fraction a/b, got 'abc'"),
    (_CUBIC, ["analyze", "{f}", "--line", "1,x,0,0;0,0,1,0"],
     "entry 2 of '1,x,0,0': expected an integer or a fraction a/b, got 'x'"),
    (_CUBIC, ["lines", "{f}", "--field", "Fp:7", "--through", "[1:6:0:z]"],
     "entry 4 of '[1:6:0:z]': expected an integer or a fraction a/b, got 'z'"),
    ("field Q\nm 2\nelement 1,0;0,y\n", ["pencil-nf", "{f}"],
     "entry 2 of '0,y': expected an integer or a fraction a/b, got 'y'"),
    (_CUBIC, ["lines", "{f}", "--field", "Fp:7", "--through", "0,0,0,0"],
     "zero vector does not define a projective point"),
    (_CUBIC, ["lines", "{f}", "--field", "Fp:7", "--through", "0,0,0,7"],
     "zero vector does not define a projective point"),
    (_CUBIC, ["lines", "{f}", "--field", "Fp:x"],
     "field Fp needs an integer characteristic, got 'x'"),
    ("field Fp x\nvars 4\n1 3 0 0 0\n", ["lines", "{f}"],
     "line 1: field Fp needs an integer characteristic, got 'x'"),
    ("\nfield Fp x\nm 2\n", ["pencil-nf", "{f}"],
     "line 2: field Fp needs an integer characteristic, got 'x'"),
    ("", ["ruled", "--k", "2", "--d1", "a,3", "--d2", "2,5"],
     "divisor class 'a,3' needs integers a,b"),
    ("", ["ruled", "--k", "2", "--d1", "1,3", "--d2", "2,5", "--twist-p", "3",
          "--twist-l", "x,1"],
     "divisor class 'x,1' needs integers a,b"),
    ("", ["gen", "random-with-line", "--p", "7", "--d", "0"],
     "needs degree d >= 1, got d = 0"),
    ("", ["gen", "cone"], "cone needs --base"),
    ("", ["gen", "random-with-line"], "random-with-line needs --p"),
    ("", ["ruled", "--k", "2", "--d1", "1,3", "--d2", "2,5", "--twist-p", "3"],
     "--twist-p needs --twist-l"),
    ("", ["ruled", "--k", "2", "--d1", "1,3,0", "--d2", "2,5"],
     "divisor class must be 'a,b'"),
    (_CUBIC, ["analyze", "{f}", "--line", "1,0,0,0;0,1,0"],
     "ragged matrix: vector length is not 4"),
    (_CUBIC, ["analyze", "{f}", "--line", "0,0,1,0;0,0,3,0"],
     "line frame needs two independent spanning vectors"),
    (_CUBIC, ["lines", "{f}", "--field", "Fp:7", "--budget", "-1"],
     "argument --budget: needs a non-negative integer, got -1"),
    (_CUBIC, ["conjecture", "{f}", "--field", "Fp:7", "--budget", "-1"],
     "argument --budget: needs a non-negative integer, got -1"),
    (_CUBIC, ["lines", "{f}", "--field", "Fp:7", "--budget", "abc"],
     "argument --budget: invalid int value: 'abc'"),
    (_CUBIC, ["gen", "cone", "--base", "{f}", "--extra", "0"],
     "need at least one new variable"),
    ("", ["gen", "random-with-line", "--n", "1", "--p", "7"],
     "need n >= 2 for a complement direction"),
    ("", ["gen", "fermat", "--n", "0"],
     "need an ambient projective space of dimension >= 1"),
    ("", ["gen", "fermat", "--d", "0"], "defining form must have degree >= 1"),
], ids=["line-spec", "form-coefficient", "through-point", "field-option-fp0",
        "form-header-fp0", "gen-p0", "form-coefficient-literal",
        "line-spec-literal", "through-point-literal", "pencil-element-literal",
        "through-zero-point", "through-zero-point-mod-p", "field-option-literal",
        "form-header-literal", "pencil-header-literal", "ruled-class-literal",
        "twist-class-literal", "gen-d0", "gen-cone-no-base", "gen-random-no-p",
        "twist-p-without-l", "ruled-class-shape", "line-spec-ragged",
        "line-spec-dependent", "lines-budget-negative",
        "conjecture-budget-negative", "lines-budget-literal",
        "gen-cone-extra0", "gen-random-n1", "gen-fermat-n0", "gen-fermat-d0"])
def test_bad_scalar_or_characteristic_is_one_line_error(tmp_path, capsys, form,
                                                        argv, message):
    path = tmp_path / "in.form"
    path.write_text(form)
    assert main([a.format(f=path) for a in argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert "Traceback" not in captured.err + captured.out
