"""Fuzz the command line parsers: random form files, line specs, points and
pencil files, built from small integers, '/', ':' and junk tokens.

Whatever the input, main returns a documented exit code (0-5) and lets no
exception escape, and an input error (exit 1) is one 'error:' line on
stderr.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanosing.cli import main

FIELDS = st.sampled_from(["Q", "Q", "Fp:5", "Fp:7", "Fp 7", "Fp:2", "Fp:3"])
INT = st.integers(-3, 3).map(str)
SCALARS = st.one_of(INT, INT, st.builds("{}/{}".format, INT,
                                         st.integers(1, 3).map(str)))
JUNK = st.sampled_from(["/", ":", "1/0", "0/0", "2/-3", "-", "x", "", "[",
                        "]", ";", ",", "1e2", "Fp", "Fp:0", "Fp:1", "Fp:4",
                        "Fp:-5", "F7", "Q", "vars", "field", "m", "element",
                        "-1", "0", "9"])


def _spoil(draw, lines):
    """Clean token lines, sometimes with one token swapped for junk, a junk
    line added or the lines shuffled."""
    lines = [list(toks) for toks in lines]
    if draw(st.integers(0, 2)) == 0:
        toks = lines[draw(st.integers(0, len(lines) - 1))]
        toks[draw(st.integers(0, len(toks) - 1))] = draw(JUNK)
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.lists(st.one_of(SCALARS, JUNK), max_size=4)))
    if draw(st.integers(0, 9)) == 0:
        lines = draw(st.permutations(lines))
    return lines


@st.composite
def vectors(draw, length):
    """A point or vector: comma, colon or bracket style, sometimes spoiled."""
    if draw(st.integers(0, 4)) == 0:
        length = draw(st.integers(0, 6))
    entries = draw(st.lists(SCALARS, min_size=length, max_size=length))
    if entries and draw(st.integers(0, 4)) == 0:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(JUNK)
    style = draw(st.sampled_from(",:["))
    if style == "[":
        return "[" + ":".join(entries) + "]"
    return style.join(entries)


@st.composite
def line_specs(draw, nvars):
    standard = ";".join(",".join("1" if j == i else "0" for j in range(nvars))
                        for i in (0, 1))
    if draw(st.booleans()):
        return standard
    sep = draw(st.sampled_from([";", ";", ";", ",", ";;"]))
    return draw(vectors(nvars)) + sep + draw(vectors(nvars))


@st.composite
def form_files(draw):
    """Homogeneous forms; with planted=True every monomial involves x2..,
    so the line span(e0, e1) lies on the hypersurface."""
    nvars = draw(st.integers(2, 5))
    degree = draw(st.integers(1, 4))
    planted = nvars > 2 and draw(st.booleans())
    lines = [["field", draw(FIELDS)], ["vars", str(nvars)]]
    for _ in range(draw(st.integers(1, 5))):
        idx = draw(st.lists(st.integers(0, nvars - 1), min_size=degree,
                            max_size=degree))
        if planted:
            idx[0] = draw(st.integers(2, nvars - 1))
        lines.append([draw(SCALARS)] + [str(idx.count(i)) for i in range(nvars)])
    lines = _spoil(draw, lines)
    return nvars, "\n".join(" ".join(toks) for toks in lines) + "\n"


@st.composite
def pencil_files(draw):
    m = draw(st.integers(0, 4))
    lines = [["field", draw(FIELDS)], ["m", str(m)]]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(["element", draw(vectors(m)) + ";" + draw(vectors(m))])
    lines = _spoil(draw, lines)
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@st.composite
def invocations(draw):
    """(argv with {f} for the input file, text of the input file)."""
    command = draw(st.sampled_from(["analyze", "lines", "pencil-nf"]))
    if command == "pencil-nf":
        return ["pencil-nf", "{f}"], draw(pencil_files())
    nvars, text = draw(form_files())
    argv = [command, "{f}"]
    if command == "analyze":
        argv.append("--line=" + draw(line_specs(nvars)))
    else:
        argv += ["--budget", "2000"]
        if draw(st.booleans()):
            argv.append("--through=" + draw(vectors(nvars)))
    if draw(st.integers(0, 3)) == 0:
        argv.append("--field=" + draw(st.one_of(FIELDS, JUNK)))
    return argv, text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(invocations())
def test_cli_fuzz_exit_codes(tmp_path, invocation):
    argv, text = invocation
    path = tmp_path / "input.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(f=path) for a in argv])
    assert code in range(6)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
