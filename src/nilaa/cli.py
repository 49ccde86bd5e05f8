"""Command-line entry point.

Subcommands: validate, decide, suspend, simulate, corpus.  stdout carries
one canonical verdict JSON object (corpus run prints one line per check
instead); human-readable diagnostics go to stderr.  Exit codes: 0 for
AA/pass-like verdicts, 1 for NOT_AA/fail-like verdicts, 2 for
INCONCLUSIVE, 3 for errors.

A process loads only what its subcommand runs.  `suspension` and `orbit`
are imported inside the functions that run them: `orbit` (with `csv` for
--dump) only for simulate, `suspension` only for suspend and for the
one-dimension-up stage of the basepoint decider.  The result records are
built by the private `_record` decorator, not by `dataclasses`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from . import io as nio
from .criteria import (ValidationError, basepoint_decide, full_decide,
                       lie_necessary, minimality_check, power_unipotent,
                       torus_decide, translation_decide,
                       two_generator_analysis)
from .nilgrp import ClassCapExceeded

# exact points at which suspend checks the embedding of the fiber
SUSPEND_SAMPLES = 10

# criterion -> its verdict dict on a validated system.  The functions are
# looked up when called, so a wrapper installed on a module name sees them.
# power-unipotent reads U in lattice coordinates (the system's U_L), where a
# U that preserves the lattice is integral; its spectrum does not depend on
# the basis.
CRITERIA = {
    "full": lambda s: nio.verdict_to_dict(full_decide(s)),
    "basepoint": lambda s: nio.verdict_to_dict(basepoint_decide(s)),
    "torus": lambda s: nio.verdict_to_dict(torus_decide(s)),
    "translation": lambda s: nio.verdict_to_dict(translation_decide(s)),
    "lie": lambda s: nio.lie_report_to_dict(lie_necessary(s)),
    "power-unipotent": lambda s: nio.verdict_to_dict(
        power_unipotent(s.lattice_automorphism)),
    "minimality": lambda s: nio.verdict_to_dict(minimality_check(s)),
    "two-generator": lambda s: nio.two_generator_report_to_dict(
        two_generator_analysis(s)),
}


def _error(criterion: str, message: str) -> dict:
    return nio.make_verdict_dict(nio.ERROR, criterion, None, [message])


def _write_failure(path, exc: OSError) -> str:
    return f"cannot write {path}: {exc.strerror or exc}"


def _load(path, criterion: str):
    """The validated system of a file, or the ERROR verdict dict that says
    why there is none."""
    try:
        return nio.parse_system(path)
    except (nio.ParseError, ClassCapExceeded) as exc:
        return _error(criterion, str(exc))
    except ValidationError as exc:
        return nio.make_verdict_dict(
            nio.ERROR, criterion, nio.validation_failure_dict(exc),
            [f"the system file fails validation at {exc.check}"])


def _validate_result(path) -> dict:
    """VALID, INVALID with the file's notes and its first failing check,
    or ERROR for a file that cannot be read or parsed.  The file is read
    once: the notes of an invalid file ride on its ValidationError."""
    try:
        system = nio.parse_system(path)
    except ValidationError as exc:
        failure = nio.validation_failure_dict(exc)
        notes = [*exc.notes, f"first failing check: {failure['check']}; "
                             f"{failure['witness']}"]
        return nio.make_verdict_dict(nio.INVALID, "validate", failure, notes)
    except (nio.ParseError, ClassCapExceeded) as exc:
        return _error("validate", str(exc))
    notes = list(system.notes)
    notes.append("algebra, lattice, automorphism and lattice "
                 "preservation all check out")
    return nio.make_verdict_dict(nio.VALID, "validate", None, notes)


def _decide_result(path, criterion: str) -> dict:
    system = _load(path, criterion)
    if isinstance(system, dict):
        return system
    try:
        return CRITERIA[criterion](system)
    except ValueError as exc:  # raised with its final message
        return _error(criterion, str(exc))


def _suspend_result(path, out) -> dict:
    from .suspension import (Mismatch, embedding_consistency_check,
                             monodromy_adjoint_check, suspend)
    system = _load(path, "suspend")
    if isinstance(system, dict):
        return system
    try:
        susp = suspend(system)
    except ValueError as exc:
        return _error("suspend", str(exc))
    notes = [f"fiber dimension {system.dim}, suspension dimension "
             f"{susp.dim}"]
    if not monodromy_adjoint_check(susp):
        return _error("suspend", "monodromy adjoint check failed")
    notes.append("monodromy adjoint check: passed")
    try:
        embedding_consistency_check(susp, samples=SUSPEND_SAMPLES)
    except Mismatch as exc:
        return _error("suspend", f"embedding consistency failed: {exc}")
    notes.append(f"embedding consistency: {SUSPEND_SAMPLES} exact samples")
    if out is not None:
        payload = nio.suspension_to_dict(susp, system.name)
        try:
            Path(out).write_text(nio.canonical_json(payload),
                                 encoding="utf-8")
        except OSError as exc:
            return _error("suspend", _write_failure(out, exc))
        notes.append("suspension data written")
    return nio.make_verdict_dict(nio.PASS, "suspend", None, notes)


def _number(value, what: str, integer: bool = False):
    """value as a Fraction, or as an int when integer; ValueError naming
    the setting if it is not one.

    A JSON boolean is not a number here, although Python's bool is an int,
    and a non-integral value is not truncated to an integer setting.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"simulate {what} must be a number, "
                         f"got {value!r}") from None
    if not integer:
        return number
    if number.denominator != 1:
        raise ValueError(f"simulate {what} must be an integer, got {value!r}")
    return int(number)


def _numeric_map(system) -> tuple:
    """Build the numeric oracle map and the probe list from a system."""
    from .orbit import NumericAffine
    config = dict(system.simulate or {})
    values = config.get("values") or {}
    if not isinstance(values, dict):
        raise ValueError("simulate values must be an object")
    values = {key: _number(val, f"value of {key}")
              for key, val in values.items()}
    missing = [p for p in system.translation.params if p not in values]
    if missing:
        raise ValueError(f"simulate needs numeric values for parameters "
                         f"{missing}")
    affine = NumericAffine(system, system.translation.substitute(values))
    probes = None
    if config.get("probe") is not None:
        if not isinstance(config["probe"], list):
            raise ValueError("simulate probe must be a list")
        probes = [tuple(_number(v, "probe entry") for v in config["probe"])]
        if len(probes[0]) != system.dim:
            raise ValueError(f"simulate probe needs {system.dim} entries")
    return affine, probes, config


def _simulate_result(path, eps=None, horizon=None, seed=None, trials=None,
                     dump=None) -> dict:
    from .orbit import ITERATE_CAP, aa_empirical_test, trajectory
    system = _load(path, "simulate")
    if isinstance(system, dict):
        return system
    try:
        affine, probes, config = _numeric_map(system)
        eps = _number(eps if eps is not None else config.get("eps", 1e-3),
                      "eps")
        if eps <= 0:
            raise ValueError("simulate eps must be positive")
        horizon = _number(horizon if horizon is not None
                          else config.get("horizon", 10 ** 5), "horizon",
                          integer=True)
        seed = _number(seed if seed is not None else config.get("seed", 0),
                       "seed", integer=True)
        trials = _number(trials if trials is not None
                         else config.get("trials", 5), "trials",
                         integer=True)
        if trials < 1:
            raise ValueError("simulate trials must be at least 1")
        steps = 0 if dump is None else _number(config.get("dump_steps", 200),
                                               "dump_steps", integer=True)
        # the orbit oracle walks at most ITERATE_CAP steps from a point
        for what, value, low in (("horizon", horizon, 1),
                                 ("dump_steps", steps, 0)):
            if not low <= value <= ITERATE_CAP:
                raise ValueError(f"simulate {what} must be between {low} "
                                 f"and {ITERATE_CAP}, got {value}")
    except ValueError as exc:
        return _error("simulate", str(exc))
    try:
        # opened before the test runs, so an unwritable path answers at once
        handle = nullcontext() if dump is None else open(
            dump, "w", newline="", encoding="utf-8")
    except OSError as exc:
        return _error("simulate", _write_failure(dump, exc))
    try:
        # closed once, on leaving the block, where a failed flush still
        # answers ERROR
        with handle:
            report = aa_empirical_test(affine, trials, eps, horizon, seed,
                                       probes=probes)
            if dump is not None:
                import csv
                start = probes[0] if probes else tuple([0] * affine.dim)
                writer = csv.writer(handle)
                writer.writerow(["k"] + [f"x{i + 1}"
                                         for i in range(affine.dim)])
                for k, point in trajectory(affine, start, steps):
                    writer.writerow([k] + [float(v) for v in point])
    except OSError as exc:
        return _error("simulate", _write_failure(dump, exc))
    return nio.aa_report_to_dict(report)


def _corpus_run(stdout) -> int:
    base = nio.corpus_dir()
    manifest = nio.load_manifest()
    failures = 0
    checks = 0
    for entry in sorted(manifest["entries"], key=lambda e: e["file"]):
        path = base / entry["file"]
        jobs = [("validate", entry["validate"])]
        for run in entry.get("runs", []):
            jobs.append((run["criterion"], run))
        for criterion, job in jobs:
            if criterion == "validate":
                result = _validate_result(path)
            elif criterion == "simulate":
                result = _simulate_result(path)
            else:
                result = _decide_result(path, criterion)
            produced = nio.canonical_json(result)
            golden = (base / job["golden"]).read_text(encoding="utf-8")
            code = nio.exit_code_for(result["status"])
            problems = []
            if produced != golden:
                problems.append(f"output differs from golden {job['golden']}")
            if code != job["exit_code"]:
                problems.append(f"expected exit {job['exit_code']}, got {code}")
            checks += 1
            failures += bool(problems)
            print(f"{entry['file']} {criterion}: "
                  f"{'FAIL' if problems else 'PASS'}", file=stdout)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
    print(f"{checks - failures}/{checks} corpus checks passed",
          file=stdout)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilaa",
        description="Almost-automorphy criteria for affine maps of "
                    "nilmanifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a system file")
    p.add_argument("file")

    p = sub.add_parser("decide", help="run one criterion on a system file")
    p.add_argument("file")
    p.add_argument("--criterion", required=True, choices=CRITERIA)

    p = sub.add_parser("suspend", help="build and check the suspension")
    p.add_argument("file")
    p.add_argument("--out", help="write the suspension data as JSON")

    p = sub.add_parser("simulate", help="empirical almost-automorphy test")
    p.add_argument("file")
    p.add_argument("--eps", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--dump", help="write a trajectory CSV to this path")

    p = sub.add_parser("corpus", help="bundled example systems")
    p.add_argument("action", choices=["run"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        result = _validate_result(args.file)
    elif args.command == "decide":
        result = _decide_result(args.file, args.criterion)
    elif args.command == "suspend":
        result = _suspend_result(args.file, args.out)
    elif args.command == "simulate":
        result = _simulate_result(args.file, eps=args.eps,
                                  horizon=args.horizon, seed=args.seed,
                                  trials=args.trials, dump=args.dump)
    else:
        return _corpus_run(sys.stdout)
    sys.stdout.write(nio.canonical_json(result))
    return nio.exit_code_for(result["status"])


if __name__ == "__main__":
    sys.exit(main())
