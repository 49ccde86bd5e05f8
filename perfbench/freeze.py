"""Freeze the reference outputs of every generated benchmark operation.

Usage, from the root of a source checkout:

    python3 perfbench/freeze.py

Runs every variant of every generated scaling and orbit operation once,
applies the same cross-checks as a benchmark run, and writes
``perfbench/references.json``: the status, exit code and sha256 of the
verdict bytes, or the status alone for an ERROR verdict or an exception.
Refreezing is a behaviour change of the program under test: say why in
the change that does it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.run import import_cli  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    cli = import_cli()
    references = {}
    checker = workloads.Checker(references)
    for name in ("scaling", "orbit"):
        plan = workloads.PLANS[name]()
        plan.write_files()
        checker.decide_full(cli, plan.simulated_files())
        start = time.perf_counter()
        results = []
        for op in plan.all_generated():
            out = workloads.execute(cli, op)
            references[op.key] = workloads.reference_of(out)
            results.append((op, out))
        checker.cross_check(results)
        statuses: dict = {}
        for _, out in results:
            statuses[out.status] = statuses.get(out.status, 0) + 1
        print(f"{name}: {len(results)} operations in "
              f"{time.perf_counter() - start:.1f} s, {statuses}")
    if checker.mismatches:
        for message in checker.mismatches:
            print(f"cross-check failed: {message}", file=sys.stderr)
        return 1
    path = ROOT / workloads.REFERENCES
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(references)} references to {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
