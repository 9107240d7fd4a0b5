"""Freeze the digests of the user-visible answers into reference.json.

    python3 perfbench/freeze.py

runs every input of every workload once for each frozen seed, refuses to
write if any oracle fails, and records one digest per input.  Re-freeze only
when an intended change of output is made, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import REFERENCE, Ledger  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# the default seed, and a second one kept for confirming later claims
SEEDS = (1, 2)


def main() -> int:
    frozen = {}
    for seed in SEEDS:
        for name, w in WORKLOADS.items():
            ledger = Ledger(w, w.make(seed, w.count))
            for i in range(w.count):
                ledger.run(i)
            bad = {k: v for k, v in ledger.verdicts.items() if v}
            if bad:
                print("seed %d %s: oracle failures %r" % (seed, name, bad),
                      file=sys.stderr)
                return 1
            frozen.setdefault(str(seed), {})[name] = \
                [d for _, d in ledger.digests]
            print("seed %d %-12s %d digests" % (seed, name, w.count))
    REFERENCE.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
