"""Quick tests of the benchmark itself: a tiny run of each workload, the
traced wrappers, and every oracle fed a deliberately wrong answer."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from fanosing import singular  # noqa: E402
from fanosing.pencil import NotConstantRankTwo  # noqa: E402
from perfbench import oracles, tracer, workloads  # noqa: E402
from perfbench.run import REFERENCE, Ledger  # noqa: E402

W = workloads.WORKLOADS
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _tiny(name, count):
    w = W[name]
    ledger = Ledger(w, w.make(1, count))
    for i in range(count):
        ledger.run(i)
    return ledger


@pytest.mark.parametrize("name,count", [("analyze-fp", 6), ("analyze-q", 8),
                                        ("analyze-bigp", 2), ("survey", 1),
                                        ("pencil-nf", 12)])
def test_tiny_run_is_correct_and_matches_reference(name, count):
    ledger = _tiny(name, count)
    assert ledger.failed_ops() == 0, ledger.verdicts
    frozen = json.loads(REFERENCE.read_text())["1"][name]
    assert [d for _, d in ledger.digests] == frozen[:count]


def test_inputs_depend_on_seed_only():
    a = [workloads.digest({"P": repr(x.X.P)}) for x in W["analyze-q"].make(3, 8)]
    b = [workloads.digest({"P": repr(x.X.P)}) for x in W["analyze-q"].make(3, 8)]
    c = [workloads.digest({"P": repr(x.X.P)}) for x in W["analyze-q"].make(4, 8)]
    assert a == b != c


def test_command_prints_one_result_line():
    out = subprocess.run(RUN + ["--workload", "analyze-fp", "--seed", "1",
                                "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {"ops_per_s", "op_p50_ms", "op_p95_ms",
                                   "peak_rss_mb", "setup_s"}


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "analyze-fp", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_tracer_counts_and_restores():
    w = W["analyze-fp"]
    inputs = w.make(1, 4)
    original = singular.analyze_line
    tr = tracer.Tracer()
    with tr:
        assert singular.analyze_line is not original
        for inp in inputs:
            w.op(inp)
    assert singular.analyze_line is original
    assert tr.calls["singular.analyze_line"] == 4
    assert tr.calls["tangent.restricted_contractions"] == 12
    top = tr.self_s["singular.analyze_line"]
    assert 0 <= top <= tr.total_s["singular.analyze_line"]
    metrics = tr.metrics(passes=1)
    names = {n + s for n, *_ in tracer.TARGETS for s in (".calls", ".self_s")}
    assert names <= set(metrics)


# ---------------------------------------------------------------------------
# every oracle rejects a wrong answer


def _first(name, pred, count=40):
    w = W[name]
    for inp in w.make(1, count):
        res = w.op(inp)
        if pred(res):
            return inp, res
    raise AssertionError("no suitable instance")


def test_analyze_oracle_rejects_a_non_singular_point():
    inp, la = _first("analyze-q", lambda la: la.certificate is not None
                     and la.certificate.points)
    assert oracles.analyze_failures(inp, la) == []
    cert = la.certificate
    sp = dataclasses.replace(cert.points[0], ambient=inp.frame.e1)
    if oracles._Arith(inp.X.field.p).gradient_vanishes(inp.X.P, inp.frame.e1):
        sp = dataclasses.replace(sp, ambient=inp.frame.point(1, 1))
    bad = dataclasses.replace(la, certificate=dataclasses.replace(
        cert, points=(sp,) + cert.points[1:]))
    assert oracles.analyze_failures(inp, bad)


def test_analyze_oracle_rejects_image_not_contained():
    inp, la = _first("analyze-fp", lambda la: la.gens is not None)
    bad = dataclasses.replace(la, image_contained=False)
    assert oracles.analyze_failures(inp, bad)


def test_analyze_oracle_rejects_a_short_kernel():
    inp, la = _first("analyze-fp", lambda la: la.tangent.kernel.dim > 0)
    k = la.tangent.kernel
    short = dataclasses.replace(k, basis=k.basis[1:])
    bad = dataclasses.replace(la, tangent=dataclasses.replace(
        la.tangent, kernel=short, tangent_dim=short.dim))
    assert oracles.analyze_failures(inp, bad)


def test_analyze_oracle_rejects_a_wrong_normal_form():
    inp, la = _first("analyze-fp", lambda la: la.nf is not None
                     and la.nf.m >= 2)
    nf = la.nf
    swapped = dataclasses.replace(nf, adapted_basis=nf.adapted_basis[::-1])
    if oracles.normal_form_failures(la.tangent.pencil, swapped) == []:
        swapped = dataclasses.replace(nf, s=(nf.m,), r=1)
    bad = dataclasses.replace(la, nf=swapped)
    assert oracles.analyze_failures(inp, bad)


def test_survey_oracle_rejects_wrong_count_and_lost_vertex():
    w = W["survey"]
    inp = w.make(1, 1)[0]
    rep = w.op(inp)
    assert inp.kind == "cone-f7" and oracles.survey_failures(inp, rep) == []
    assert oracles.survey_failures(inp, dataclasses.replace(rep, num_lines=8))
    assert oracles.survey_failures(inp, dataclasses.replace(rep, certified=()))
    one = inp.X.field.one()
    off = (one, one, one, one)
    assert oracles.survey_failures(inp, dataclasses.replace(
        rep, certified=rep.certified + (off,)))
    fermat = dataclasses.replace(inp, kind="fermat-p3-f13")
    assert oracles.survey_failures(fermat, rep)


def test_pencil_oracle_rejects_wrong_outcomes():
    w = W["pencil-nf"]
    inputs = w.make(1, w.count)
    ok = next(x for x in inputs if x.sizes and len(x.sizes) > 1)
    rank_one = next(x for x in inputs if x.sizes is None)
    nf = w.op(ok)
    assert oracles.pencil_failures(ok, nf) == []
    assert oracles.pencil_failures(rank_one, w.op(rank_one)) == []
    assert oracles.pencil_failures(ok, dataclasses.replace(nf, s=(nf.m,),
                                                           r=1))
    assert oracles.pencil_failures(ok, NotConstantRankTwo("refused"))
    assert oracles.pencil_failures(rank_one, nf)
