"""The operations of each workload and the checks on their outputs.

An operation is one ``nilaa`` command line, run in-process through
``nilaa.cli.main`` with stdout captured, so it returns the verdict bytes a
user of the command gets and pays for parsing and validation as a user
does.  Workloads:

corpus   the non-simulate golden checks of ``corpus/manifest.json``, in
         manifest order, byte-compared to the goldens.
scaling  generated Heisenberg, filiform and Jordan-torus systems past the
         corpus sizes, decided by ``full``, ``basepoint``, ``torus``
         (abelian members) and checked by ``suspend``.
orbit    ``simulate`` on the corpus simulate checks (golden-compared) and
         on generated torus and Heisenberg maps with one trial each at a
         fixed horizon.

Generated outputs are compared with the digests in ``references.json``.
A reference that records an error (an ``ERROR`` verdict, or an exception
out of ``cli.main``) is checked by status only, and an operation that now
answers where it used to fail is accepted and counted as an improvement.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

from perfbench import systems

CORPUS = Path("src") / "nilaa" / "corpus"
REFERENCES = Path("perfbench") / "references.json"
WORK = Path("perfbench") / "out" / "work"

ORBIT_HORIZON = 500
ERROR_STATUSES = ("ERROR", "raise")

FBS = ("full", "basepoint", "suspend")
FBTS = ("full", "basepoint", "torus", "suspend")

# family, sizes, member kinds, criteria.  The largest sizes run one member
# and one or two criteria, so that a pass stays within the run time.
# filiform class 7 and basepoint/suspend on Jordan tori of dimension >= 7
# exceed the BCH class cap and answer ERROR; suspend on a fiber of
# dimension > 7 raises out of cli.main (the coset reducer's dimension cap).
SCALING = (
    ("heisenberg", (5, 7), ("aa", "not"), FBS),
    ("heisenberg", (11,), ("not",), ("full",)),
    ("filiform", (3, 4), ("aa", "not"), FBS),
    ("filiform", (5,), ("not",), ("full",)),
    ("filiform", (7,), ("aa", "not"), FBS),
    ("jordan_torus", (4, 7), ("aa", "not"), FBTS),
    ("jordan_torus", (8,), ("aa",), ("suspend",)),
    ("jordan_torus", (10,), ("not",), ("full", "torus")),
)

# Generated orbit map kind, operations per pass.  With the 4 corpus
# checks a pass has 41 operations, so 3 passes give the 100 samples the
# 90th percentile needs; the counts put the median in the middle of the
# Jordan maps and the 90th percentile among the Heisenberg maps, not on
# the edge of a cluster of similar times.
ORBIT = (("rotation", 17), ("skew", 2), ("jordan", 12), ("heisenberg", 6))


@dataclass(frozen=True)
class Op:
    key: str                    # names the reference: "<file> <criterion>"
    argv: tuple
    member: str = ""            # generated file stem, e.g. jordan7_aa_3
    golden: str | None = None   # corpus golden verdict text
    golden_exit: int | None = None

    @property
    def criterion(self) -> str:
        return self.key.rsplit(" ", 1)[1]


@dataclass(frozen=True)
class Outcome:
    status: str                 # verdict status, or "raise"
    code: int                   # exit code; -1 when cli.main raised
    text: str
    error: str = ""             # exception type when cli.main raised

    @property
    def errored(self) -> bool:
        return self.status in ERROR_STATUSES


def execute(cli, op: Op) -> Outcome:
    """Run one command through ``cli.main`` as a user would."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an escaping exception is an outcome here
        return Outcome("raise", -1, "", type(exc).__name__)
    text = out.getvalue()
    return Outcome(json.loads(text)["status"], code, text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_of(outcome: Outcome) -> dict:
    """The frozen form of an outcome: status only for errors."""
    if outcome.status == "raise":
        return {"status": "raise", "error": outcome.error}
    if outcome.status == "ERROR":
        return {"status": "ERROR", "exit": outcome.code}
    return {"status": outcome.status, "exit": outcome.code,
            "sha256": digest(outcome.text)}


def _decide(path: Path, criterion: str) -> tuple:
    if criterion == "suspend":
        return ("suspend", path.as_posix())
    return ("decide", path.as_posix(), "--criterion", criterion)


# ---- plans ----

class Plan:
    """The operations of one workload: files, warm-up and timed passes."""

    def files(self) -> dict:
        """Generated system files to write, by path."""
        return {}

    def warmup(self) -> list:
        raise NotImplementedError

    def next_pass(self, rng) -> list:
        raise NotImplementedError

    def all_generated(self) -> list:
        """Every generated operation of every variant (for freezing)."""
        return []

    def simulated_files(self) -> list:
        """Generated maps that the orbit oracle simulates."""
        return []

    def write_files(self) -> None:
        for path, content in self.files().items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(content, indent=1), encoding="utf-8")


def corpus_ops(simulate: bool) -> list:
    """Manifest checks in manifest order: the simulate ones or the rest."""
    manifest = json.loads((CORPUS / "manifest.json").read_text("utf-8"))
    ops = []
    for entry in manifest["entries"]:
        path = CORPUS / entry["file"]
        jobs = [("validate", entry["validate"])]
        jobs += [(run["criterion"], run) for run in entry["runs"]]
        for criterion, job in jobs:
            if (criterion == "simulate") != simulate:
                continue
            if criterion in ("validate", "simulate"):
                argv = (criterion, path.as_posix())
            else:
                argv = _decide(path, criterion)
            golden = (CORPUS / job["golden"]).read_text("utf-8")
            ops.append(Op(f"{entry['file']} {criterion}", argv,
                          golden=golden, golden_exit=job["exit_code"]))
    return ops


class CorpusPlan(Plan):
    def __init__(self):
        self.ops = corpus_ops(simulate=False)

    def warmup(self) -> list:
        return list(self.ops)

    def next_pass(self, rng) -> list:
        return list(self.ops)


class ScalingPlan(Plan):
    def __init__(self):
        self.members = [(family, size, kind, criteria)
                        for family, sizes, kinds, criteria in SCALING
                        for size in sizes for kind in kinds]

    def _system(self, family, size, kind, variant) -> dict:
        return getattr(systems, family)(size, kind, variant)

    def _ops(self, family, size, kind, criteria, variant) -> list:
        system = self._system(family, size, kind, variant)
        path = WORK / "scaling" / f"{system['name']}.json"
        return [Op(f"{path.name} {c}", _decide(path, c), member=system["name"])
                for c in criteria]

    def files(self) -> dict:
        out = {}
        for family, size, kind, _ in self.members:
            for variant in range(systems.VARIANTS):
                system = self._system(family, size, kind, variant)
                out[WORK / "scaling" / f"{system['name']}.json"] = system
        return out

    def warmup(self) -> list:
        """Variant 0 of each family's first size, every criterion."""
        first = {}
        for family, size, _, _ in self.members:
            first.setdefault(family, size)
        return [op for family, size, kind, criteria in self.members
                if first[family] == size
                for op in self._ops(family, size, kind, criteria, 0)]

    def next_pass(self, rng) -> list:
        ops = []
        for family, size, kind, criteria in self.members:
            ops += self._ops(family, size, kind, criteria,
                             rng.randrange(systems.VARIANTS))
        rng.shuffle(ops)
        return ops

    def all_generated(self) -> list:
        return [op for family, size, kind, criteria in self.members
                for variant in range(systems.VARIANTS)
                for op in self._ops(family, size, kind, criteria, variant)]


class OrbitPlan(Plan):
    def __init__(self):
        self.corpus = corpus_ops(simulate=True)

    def _op(self, kind, variant) -> Op:
        path = WORK / "orbit" / f"orbit_{kind}_{variant}.json"
        argv = ("simulate", path.as_posix(), "--trials", "1",
                "--horizon", str(ORBIT_HORIZON))
        return Op(f"{path.name} simulate", argv, member=path.stem)

    def files(self) -> dict:
        return {WORK / "orbit" / f"orbit_{kind}_{v}.json":
                systems.orbit_map(kind, v)
                for kind, _ in ORBIT for v in range(systems.VARIANTS)}

    def simulated_files(self) -> list:
        return list(self.files())

    def warmup(self) -> list:
        return [self.corpus[0]] + [self._op(kind, 0) for kind, _ in ORBIT]

    def next_pass(self, rng) -> list:
        ops = list(self.corpus)
        for kind, count in ORBIT:
            ops += [self._op(kind, rng.randrange(systems.VARIANTS))
                    for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def all_generated(self) -> list:
        return [self._op(kind, v) for kind, _ in ORBIT
                for v in range(systems.VARIANTS)]


PLANS = {"corpus": CorpusPlan, "scaling": ScalingPlan, "orbit": OrbitPlan}


# ---- checks ----

RETURNS = re.compile(r"forward returns found for (\d+) of (\d+) probes")


class Checker:
    """Compares outcomes with goldens, references and cross-checks."""

    def __init__(self, references: dict):
        self.references = references
        self.mismatches: list[str] = []
        self.improved = 0
        self.full_status: dict[str, str] = {}   # orbit file -> full verdict

    def _fail(self, op: Op, why: str) -> None:
        self.mismatches.append(f"{op.key}: {why}")

    def check(self, op: Op, out: Outcome) -> None:
        if op.golden is not None:
            if out.text != op.golden or out.code != op.golden_exit:
                self._fail(op, f"differs from its golden (status "
                               f"{out.status}, exit {out.code})")
            return
        ref = self.references.get(op.key)
        if ref is None:
            self._fail(op, "no frozen reference")
        elif ref["status"] in ERROR_STATUSES:
            if not out.errored:
                self.improved += 1
            elif ref["status"] == "ERROR" and out.status == "raise":
                self._fail(op, f"raised {out.error}; the reference is an "
                               f"ERROR verdict")
        elif out.errored:
            self._fail(op, f"{out.status} {out.error}".strip())
        elif digest(out.text) != ref["sha256"] or out.code != ref["exit"]:
            self._fail(op, f"verdict digest differs (status {out.status}, "
                           f"reference {ref['status']})")

    def cross_check(self, results: list) -> None:
        """torus == full on abelian members; no Falsified where full is AA."""
        by_member: dict = {}
        for op, out in results:
            if op.member and not out.errored:
                by_member.setdefault(op.member, {})[op.criterion] = (op, out)
        for member, verdicts in by_member.items():
            if "torus" in verdicts and "full" in verdicts:
                op, torus = verdicts["torus"]
                full = verdicts["full"][1]
                if torus.status != full.status:
                    self._fail(op, f"torus {torus.status} but full "
                                   f"{full.status}")
            if "simulate" in verdicts:
                op, sim = verdicts["simulate"]
                if sim.status == "Falsified" and \
                        self.full_status.get(member) == "AA":
                    self._fail(op, "the oracle falsified an AA system")

    def decide_full(self, cli, paths) -> None:
        """Exact full verdicts of simulated maps, for the oracle
        cross-check."""
        for path in paths:
            out = execute(cli, Op(f"{path.name} full", _decide(path, "full")))
            self.full_status[path.stem] = out.status


def load_references(path) -> dict:
    return json.loads(Path(path).read_text("utf-8"))


def returns_ratio(outcomes) -> tuple[int, int]:
    """(probes with forward returns, trials) over simulate outcomes."""
    hits = trials = 0
    for out in outcomes:
        match = RETURNS.search(out.text) if out.text else None
        if match:
            hits += int(match.group(1))
            trials += int(match.group(2))
    return hits, trials
