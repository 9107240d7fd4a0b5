"""Benchmark of the fanosing library calls: line analysis, surveys and pencil
normal forms.

    python3 perfbench/run.py --workload analyze-fp --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh interpreters that import the package and build the inputs), ops per
second and per-op latency, and peak resident memory.  Times are read off
the work clock of workclock.py, which removes the machine's speed drift;
the plain wall-clock figures go to standard error.  --trace 1 replays the
workload's leading inputs untraced and then with timing wrappers around
each layer, checks that both give the same answers, and reports per-layer
calls, self time and work counts per pass.

Every answer is checked by an independent oracle (oracles.py); an op that
raises or fails its oracle counts in "failed".  For the seeds in
reference.json the digest of each answer must also match the frozen one,
and the first differing op is named on a mismatch.  Any problem makes
"correct" false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
from perfbench.workclock import WorkClock  # noqa: E402  (standard library only)
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
SETUP_RUNS = 5


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, one at a time."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Ledger:
    """Every op's input index, duration and answer digest, and the verdict
    of the oracle on each distinct (input, digest) pair."""

    def __init__(self, workload, inputs):
        from perfbench.oracles import FAILURES
        from perfbench.workloads import digest
        self.digest = digest
        self.w = workload
        self.inputs = inputs
        self.check = FAILURES[workload.name]
        self.spans = []                 # (start, end) per op, perf_counter
        self.digests = []               # (input index, digest) per op
        self.verdicts = {}              # (input index, digest) -> failures

    def run(self, i: int):
        inp = self.inputs[i]
        t0 = perf_counter()
        try:
            result = self.w.op(inp)
        except Exception as e:       # an unexpected exception fails the op
            self.spans.append((t0, perf_counter()))
            key = (i, "raised")
            self.digests.append(key)
            self.verdicts[key] = ["raised %s: %s" % (type(e).__name__, e)]
            return
        self.spans.append((t0, perf_counter()))
        d = self.digest(self.w.record(result))
        key = (i, d)
        self.digests.append(key)
        if key not in self.verdicts:
            self.verdicts[key] = self.check(inp, result)

    def durations(self, clock=None) -> list:
        """Seconds per op; nominal seconds on the work clock if given."""
        if clock is None:
            return [t1 - t0 for t0, t1 in self.spans]
        return [clock.nominal(t0, t1) for t0, t1 in self.spans]

    def failed_ops(self) -> int:
        return sum(1 for key in self.digests if self.verdicts[key])


def run_ops(ledger: Ledger, seconds: float, limit: int, group: int) -> int:
    """Ops over inputs[0:limit] cyclically, in whole groups, until seconds
    have gone; the number of ops run."""
    start = perf_counter()
    i = 0
    while True:
        for _ in range(group):
            ledger.run(i % limit)
            i += 1
        if perf_counter() - start >= seconds:
            return i


def latency_metrics(ledger: Ledger, durations: list) -> dict:
    """Median time of each input over its runs, then the median, p95 and
    throughput of those.  Taking each input's median first keeps a stall
    of the machine during one op out of the figures."""
    runs = {}
    for (i, _), dur in zip(ledger.digests, durations):
        runs.setdefault(i, []).append(dur)
    per_input = [statistics.median(v) for v in runs.values()]
    q = statistics.quantiles(per_input, n=100, method="inclusive") \
        if len(per_input) > 1 else per_input * 99
    return {
        "ops_per_s": (len(per_input) / sum(per_input), "1/s"),
        "op_p50_ms": (q[49] * 1e3, "ms"),
        "op_p95_ms": (q[94] * 1e3, "ms"),
    }


def reference_mismatch(name: str, seed: int, ledger: Ledger):
    """First op whose answer digest differs from the frozen one, or None."""
    if not REFERENCE.exists():
        return None
    frozen = json.loads(REFERENCE.read_text()).get(str(seed), {}).get(name)
    if frozen is None:
        return None
    for op, (i, d) in enumerate(ledger.digests):
        if d != frozen[i]:
            return "op %d (input %d): digest %s, frozen %s" % (op, i, d,
                                                               frozen[i])
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up seconds, exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fanosing" / "__init__.py").is_file():
        print("error: no package source at %s" % (ROOT / "src" / "fanosing"),
              file=sys.stderr)
        return 2
    for p in (str(ROOT), str(ROOT / "src")):
        if p not in sys.path:
            sys.path.insert(0, p)
    with WorkClock() as clock:
        t0 = perf_counter()
        from perfbench.workloads import WORKLOADS
        w = WORKLOADS.get(args.workload)
        inputs = w.make(args.seed, w.count) if w else None
        t1 = perf_counter()
    if w is None:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))), file=sys.stderr)
        return 2
    if args.setup_only:
        print("%.9f" % clock.nominal(t0, t1))
        return 0

    problems = []
    ledger = Ledger(w, inputs)
    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed)
        gc.collect()
        gc.freeze()     # the inputs are the benchmark's: keep full
                        # collections during the ops from scanning them
        with WorkClock() as clock:
            run_ops(ledger, args.seconds, len(inputs), w.group)
        metrics = latency_metrics(ledger, ledger.durations(clock))
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print("wall-clock figures, drift not removed: %s" % json.dumps(
            {k: v for k, (v, _) in latency_metrics(
                ledger, ledger.durations()).items()}), file=sys.stderr)
    else:
        metrics = traced_run(ledger, args.seconds, w.trace_count, problems)

    answers = {}
    for i, d in ledger.digests:
        answers.setdefault(i, set()).add(d)
    problems += ["input %d: %d different answers in one run" % (i, len(ds))
                 for i, ds in sorted(answers.items()) if len(ds) > 1]
    mismatch = reference_mismatch(args.workload, args.seed, ledger)
    if mismatch:
        problems.append("answer differs from the frozen reference at "
                        + mismatch)
    failed = ledger.failed_ops()
    for key, fails in sorted(ledger.verdicts.items(), key=str):
        for f in fails:
            problems.append("input %d: %s" % (key[0], f))
    for p in problems[:20]:
        print("FAIL: %s" % p, file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(ledger.digests),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


def traced_run(ledger: Ledger, seconds: float, limit: int, problems) -> dict:
    """Whole passes over inputs[0:limit], untraced for half the time, then
    traced for the other half; per-layer metrics per traced pass.  Spans
    leave out the work clock's slices, and self times are scaled to
    nominal seconds by the traced phase's mean speed."""
    from perfbench.tracer import Tracer
    with WorkClock() as clock:
        plain = run_ops(ledger, seconds / 2, limit, limit)
        tracer = Tracer(now=lambda: perf_counter() - clock.sliced)
        t0 = perf_counter()
        with tracer:
            passes = run_ops(ledger, seconds / 2, limit, limit) // limit
        t1 = perf_counter()
    durations = ledger.durations(clock)
    untraced = plain / sum(durations[:plain])
    traced = (len(durations) - plain) / sum(durations[plain:])
    first, replay = ledger.digests[:limit], ledger.digests[plain:plain + limit]
    if replay != first:
        i = next(i for i, (a, b) in enumerate(zip(first, replay)) if a != b)
        problems.append("traced answer differs from untraced at input %d" % i)
    scale = clock.speed(t0, t1)
    print(tracer.report(passes, scale), file=sys.stderr)
    metrics = tracer.metrics(passes, scale)
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (untraced - traced, "1/s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
