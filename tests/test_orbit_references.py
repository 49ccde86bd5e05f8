"""The orbit oracle's answers on the benchmark's generated maps match their
references.

perfbench/ generates torus rotations, skew products, Jordan-block tori and
Heisenberg maps for its orbit workload and freezes the digest of every
`simulate` answer in perfbench/references.json; the default test paths do
not run it.  This test writes every variant of every generated orbit map,
simulates each with one trial at the workload's horizon through the
command line, and checks the outputs against those references, with the
oracle never falsifying a map whose exact `full` verdict is AA.  It only
reads perfbench/.
"""

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from nilaa import cli  # noqa: E402
from perfbench import systems, workloads  # noqa: E402


def test_orbit_answers_match_the_frozen_references(tmp_path):
    checker = workloads.Checker(
        workloads.load_references(ROOT / workloads.REFERENCES))
    paths = []
    for kind, _ in workloads.ORBIT:
        for variant in range(systems.VARIANTS):
            path = tmp_path / f"orbit_{kind}_{variant}.json"
            path.write_text(json.dumps(systems.orbit_map(kind, variant),
                                       indent=1), encoding="utf-8")
            paths.append(path)
    checker.decide_full(cli, paths)
    results = []
    for path in paths:
        op = workloads.Op(f"{path.name} simulate",
                          ("simulate", str(path), "--trials", "1",
                           "--horizon", str(workloads.ORBIT_HORIZON)),
                          member=path.stem)
        out = workloads.execute(cli, op)
        checker.check(op, out)
        results.append((op, out))
    checker.cross_check(results)
    assert checker.mismatches == []
    assert len(results) == 32
    assert not any(out.errored for _, out in results)
    assert Counter(checker.full_status.values()) == {"AA": 24, "NOT_AA": 8}
