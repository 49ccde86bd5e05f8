"""The verdicts on the benchmark's scaling systems match their references.

perfbench/ generates Heisenberg, filiform and Jordan-torus systems past the
corpus sizes and freezes the digest of every verdict in
perfbench/references.json; the default test paths do not run it.  This
test writes one variant of each scaling member, runs each of its criteria
through the command line and checks the outputs against those references,
so a change that moves a verdict byte on a large system fails here.  It
only reads perfbench/.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from nilaa import cli  # noqa: E402
from perfbench import systems, workloads  # noqa: E402


def test_scaling_verdicts_match_the_frozen_references(tmp_path):
    checker = workloads.Checker(
        workloads.load_references(ROOT / workloads.REFERENCES))
    results = []
    members = [(family, size, kind, criteria)
               for family, sizes, kinds, criteria in workloads.SCALING
               for size in sizes for kind in kinds]
    for index, (family, size, kind, criteria) in enumerate(members):
        system = getattr(systems, family)(size, kind, index % systems.VARIANTS)
        path = tmp_path / f"{system['name']}.json"
        path.write_text(json.dumps(system, indent=1), encoding="utf-8")
        for criterion in criteria:
            argv = (("suspend", str(path)) if criterion == "suspend" else
                    ("decide", str(path), "--criterion", criterion))
            op = workloads.Op(f"{path.name} {criterion}", argv,
                              member=system["name"])
            out = workloads.execute(cli, op)
            checker.check(op, out)
            results.append((op, out))
    checker.cross_check(results)
    assert checker.mismatches == []
    assert len(results) == 51
    assert sum(out.errored for _, out in results) == 8
