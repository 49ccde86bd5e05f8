"""System files, verdict files, and certificate serialization.

A system file is JSON with exact rational data: dimensions, 1-based
structure constants, an optional lattice basis (rows are generators),
an automorphism matrix of rational strings and a translation of
polynomial strings over declared parameters.  No floating point is
accepted on this symbolic path; floats appear only inside the optional
"simulate" block consumed by the numeric oracle.

Every rational of a file is read by parse_rational, which names the
field of a malformed or over-long literal.  A matrix has one form, its
integer form (ratlin.QMatrix.int_rows), and the loader builds it
straight from the nonzero literals as it reads them
(ratlin._int_qmatrix): a "0" is skipped and a "1" is not parsed.  The
Fraction entries are a view of that form, made only when first read.
The structure constants become the algebra, which holds only its integer
form (nilalg.LieAlgebraSpec.from_sparse); its Fraction table is read only
to print a suspended algebra (suspension_to_dict).

A verdict file has exactly four fields: status, criterion, certificate,
notes.  Serialization is canonical (sorted keys, two-space indent,
trailing newline), so byte comparison of verdict files is meaningful.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .criteria import (FAIL, PASS, AffineSystem, CosetObstruction,
                       InvariantSubtorus, NotFixed, ObstructionBracket,
                       SpectralObstruction, UnipotentPower, ValidationError,
                       Verdict, WitnessSubspace, make_system)
from .poly import ParamVector, Poly, _int, _poly, parse_poly
from .ratlin import QSubspace, _int_qmatrix

VALID = "VALID"
INVALID = "INVALID"
ERROR = "ERROR"

# The supported scope: a larger dim is rejected before the algebra is
# allocated, and a translation entry of larger total degree before any
# product is expanded.  The corpus and the generated benchmark families
# stay at d <= 17 and degree <= 1.
MAX_DIM = 64
MAX_DEGREE = 64


class ParseError(ValueError):
    """Malformed input file; location names the offending field."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


# ---- rationals and polynomials ----

_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)(?:/([1-9]\d*))?\s*")
# most entries of a system file are these; Fractions are immutable, so
# every occurrence can share one object
_LITERALS = {"0": Fraction(0), "1": Fraction(1)}


def _rational(value) -> Fraction | None:
    """value as a Fraction if it is an integer (not a boolean) or a string
    like "3", "-1/2" with optional surrounding whitespace, else None.
    Raises ValueError on a literal longer than the interpreter's digit
    limit for int() (poly._int), which parse_rational reports."""
    if isinstance(value, int):
        return None if isinstance(value, bool) else Fraction(value)
    if isinstance(value, str):
        q = _LITERALS.get(value)
        if q is not None:
            return q
        m = _RATIONAL_RE.fullmatch(value)
        if m:
            num, den = m.groups()
            return Fraction(_int(num), _int(den)) if den else Fraction(_int(num))
    return None


def parse_rational(value, location: str, index: int | None = None) -> Fraction:
    """An integer, or a string like "3", "-1/2"; floats are rejected.

    Every rational of a file is read here.  A ParseError names location,
    followed by [index] when one is given, built only for a failure; a
    literal past the interpreter's digit limit for int() fails too."""
    try:
        q = _rational(value)
    except ValueError as exc:  # poly._int's one message for an over-long literal
        raise ParseError(_at(location, index), str(exc)) from None
    if q is not None:
        return q
    if isinstance(value, bool):
        raise ParseError(_at(location, index), "expected a rational, got a boolean")
    raise ParseError(_at(location, index), f"expected an integer or 'p/q', got {value!r}")


def _at(location: str, index: int | None) -> str:
    return location if index is None else f"{location}[{index}]"


def _polynomial(value, params, location: str) -> Poly:
    """An integer or a polynomial string over params (see poly.parse_poly)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Poly.constant(value, params)
    if not isinstance(value, str):
        raise ParseError(location, f"expected a polynomial string, got "
                                   f"{value!r}")
    # the callers have checked that params are distinct names
    if value == "0":
        return _poly(params, {})
    if value == "1":
        return _poly(params, {(0,) * len(params): _LITERALS["1"]})
    try:
        return parse_poly(value, params)
    except ValueError as exc:
        raise ParseError(location, str(exc)) from None


# ---- system files ----

_SYSTEM_KEYS = {"dim", "params", "structure_constants", "lattice_basis",
                "automorphism", "translation", "name",
                "designated_generators", "description", "notes", "simulate",
                "space"}
_SIMULATE_KEYS = {"probe", "eps", "horizon", "seed", "trials", "values",
                  "space", "dump_steps"}


def _rationals(values, location) -> list:
    """A JSON list of rationals; entry j is located at location[j]."""
    if not isinstance(values, list):
        raise ParseError(location, "expected a list of rationals")
    return [parse_rational(v, location, j) for j, v in enumerate(values)]


def _parse_matrix(data, dim, location, transpose: bool = False):
    """dim rows of dim rationals each, as a QMatrix (its transpose with
    transpose) whose integer form is made here from the nonzero literals
    as they are read: a "0" is skipped and a "1" is not parsed.  Its
    Fraction entries are made when first read."""
    if not isinstance(data, list) or len(data) != dim:
        raise ParseError(location, f"expected {dim} rows")
    rows = [[] for _ in range(dim)]
    for i, row in enumerate(data):
        where = f"{location}[{i}]"
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(where, f"expected {dim} entries")
        for j in [j for j, v in enumerate(row) if v != "0"]:
            v = row[j]
            q = 1 if v == "1" else parse_rational(v, where, j)
            if q:
                if transpose:
                    rows[j].append((i, q))
                else:
                    rows[i].append((j, q))
    den = math.lcm(*(q.denominator for row in rows for _, q in row))
    return _int_qmatrix(dim, den, [[(j, q.numerator * (den // q.denominator)) for j, q in row]
                                   for row in rows])


def _parse_structure_constants(data, dim, location):
    if not isinstance(data, list):
        raise ParseError(location, "expected a list of (i, j, k, value)")
    seen = {}
    for idx, entry in enumerate(data):
        where = f"{location}[{idx}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(where, "expected [i, j, k, value]")
        i, j, k, raw = entry
        for name, v in (("i", i), ("j", j), ("k", k)):
            if type(v) is not int or not 1 <= v <= dim:
                raise ParseError(where, f"index {name} must be in 1..{dim}")
        if i == j:
            raise ParseError(where, "bracket of a vector with itself")
        value = parse_rational(raw, where)
        lo, hi = min(i, j), max(i, j)
        signed = value if i < j else -value
        key = (lo, hi, k)
        if key in seen:
            if seen[key] != signed:
                raise ParseError(where, f"antisymmetry conflict for "
                                        f"[xi{i}, xi{j}] on xi{k}")
            raise ParseError(where, f"duplicate structure constant "
                                    f"({i}, {j}, {k})")
        seen[key] = signed
    return [(lo, hi, k, val) for (lo, hi, k), val in seen.items()
            if val != 0]


def system_from_dict(data: dict, source: str = "<memory>") -> AffineSystem:
    """Build a validated system from a decoded JSON object."""
    if not isinstance(data, dict):
        raise ParseError(source, "top level must be an object")
    unknown = set(data) - _SYSTEM_KEYS
    if unknown:
        raise ParseError(source, f"unknown keys: {sorted(unknown)}")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{source}:dim", "dim must be a positive integer")
    params = data.get("params", [])
    if (not isinstance(params, list)
            or any(not isinstance(p, str) or not p.isidentifier()
                   for p in params)
            or len(set(params)) != len(params)):
        raise ParseError(f"{source}:params",
                         "params must be distinct identifiers")
    params = tuple(params)

    from .nilalg import LieAlgebraSpec
    entries = _parse_structure_constants(
        data.get("structure_constants", []), dim,
        f"{source}:structure_constants")

    # the fields with one row per dimension are read before the algebra is
    # built, so a dim they contradict is reported before it is allocated
    lattice = None
    if data.get("lattice_basis") is not None:
        # file rows are generators; LogLattice wants them as columns
        lattice = _parse_matrix(data["lattice_basis"], dim,
                                f"{source}:lattice_basis", transpose=True)

    automorphism = None
    if data.get("automorphism") is not None:
        automorphism = _parse_matrix(data["automorphism"], dim,
                                     f"{source}:automorphism")

    translation = None
    if data.get("translation") is not None:
        raw = data["translation"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise ParseError(f"{source}:translation",
                             f"expected {dim} polynomial strings")
        polys = [_polynomial(v, params, f"{source}:translation[{i}]")
                 for i, v in enumerate(raw)]
        for i, poly in enumerate(polys):
            if poly.degree() > MAX_DEGREE:
                raise ParseError(f"{source}:translation[{i}]",
                                 f"degree exceeds the supported scope "
                                 f"(total degree <= {MAX_DEGREE})")
        translation = ParamVector(params, polys)

    gens = None
    if data.get("designated_generators") is not None:
        raw = data["designated_generators"]
        where = f"{source}:designated_generators"
        if not isinstance(raw, list) or len(raw) != 2:
            raise ParseError(where, "expected exactly two generators")
        gens = [_rationals(g, f"{where}[{i}]") for i, g in enumerate(raw)]
        if any(len(g) != dim for g in gens):
            raise ParseError(where, f"generators must have {dim} entries")

    # after the row fields, so that a dim they contradict is named first
    if dim > MAX_DIM:
        raise ParseError(f"{source}:dim",
                         f"dim exceeds the supported scope (dimension <= {MAX_DIM})")

    simulate = data.get("simulate")
    if simulate is not None:
        if not isinstance(simulate, dict):
            raise ParseError(f"{source}:simulate", "expected an object")
        unknown = set(simulate) - _SIMULATE_KEYS
        if unknown:
            raise ParseError(f"{source}:simulate",
                             f"unknown keys: {sorted(unknown)}")
        simulate = dict(simulate)
    # legacy key: the value is still checked, but the orbit oracle takes
    # the group law and the lattice from the system itself
    for where, block in ((source, data), (f"{source}:simulate",
                                          simulate or {})):
        if block.get("space") not in (None, "Torus", "Heisenberg3"):
            raise ParseError(f"{where}:space",
                             "space must be 'Torus' or 'Heisenberg3'")

    notes = data.get("notes", [])
    if not isinstance(notes, list) or any(not isinstance(n, str)
                                          for n in notes):
        raise ParseError(f"{source}:notes", "notes must be strings")

    algebra = LieAlgebraSpec.from_sparse(dim, entries)
    try:
        return make_system(algebra, lattice=lattice, automorphism=automorphism,
                           translation=translation,
                           name=str(data.get("name", "")),
                           designated_generators=gens,
                           description=str(data.get("description", "")),
                           notes=tuple(notes), simulate=simulate)
    except ValidationError as exc:
        exc.notes = tuple(notes)  # no system holds them; validate reports them
        raise


def parse_system(path) -> AffineSystem:
    """Read and fully validate a system file.

    Raises ParseError for malformed files, ValidationError (with the
    first failing check and the file's notes) for well-formed but
    inconsistent systems, and nilgrp.ClassCapExceeded for a valid
    algebra of class above the cap.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ParseError(str(path), str(exc)) from exc
    return system_from_dict(_decode(raw, path.name), source=path.name)


def _decode(raw, source: str):
    """The JSON value of raw, UTF-8 bytes or text.

    Raises ParseError naming source where the bytes are not UTF-8, the
    text is not JSON, the nesting is deeper than the recursion limit or an
    integer literal is longer than the interpreter's digit limit.
    """
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes)
                          else raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}",
                         exc.msg) from exc
    except (RecursionError, ValueError) as exc:
        raise ParseError(source, str(exc)) from exc


# ---- certificates ----

def _vector_strings(vec) -> list:
    return [str(v) for v in vec]


def serialize_certificate(cert) -> dict | None:
    if cert is None:
        return None
    if isinstance(cert, WitnessSubspace):
        return {"kind": "witness_subspace",
                "ambient_dim": cert.subspace.ambient_dim,
                "basis": [_vector_strings(row) for row in
                          cert.subspace.basis],
                "shift": None if cert.shift is None
                else _vector_strings(cert.shift)}
    if isinstance(cert, ObstructionBracket):
        return {"kind": "obstruction_bracket",
                "left": _vector_strings(cert.left),
                "right": _vector_strings(cert.right),
                "bracket": _vector_strings(cert.bracket)}
    if isinstance(cert, NotFixed):
        return {"kind": "not_fixed",
                "vector": _vector_strings(cert.vector),
                "image": _vector_strings(cert.image),
                "monomial": cert.monomial}
    if isinstance(cert, CosetObstruction):
        return {"kind": "coset_obstruction",
                "params": list(cert.vector.params),
                "vector": [str(p) for p in cert.vector.entries],
                "generators": [_vector_strings(g) for g in cert.generators]}
    if isinstance(cert, SpectralObstruction):
        return {"kind": "spectral_obstruction",
                "factor": _vector_strings(cert.factor)}
    if isinstance(cert, UnipotentPower):
        return {"kind": "unipotent_power", "power": cert.power}
    if isinstance(cert, InvariantSubtorus):
        return {"kind": "invariant_subtorus",
                "covectors": [_vector_strings(c) for c in cert.covectors]}
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


def parse_certificate(data):
    """Rebuild a certificate object from its serialized form; a missing or
    mistyped field raises ParseError naming the kind and the field."""
    if data is None:
        return None
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("certificate", "expected an object with a kind")
    kind = data["kind"]
    loc = f"certificate({kind})"

    def field(name, types=list):
        if name not in data:
            raise ParseError(f"{loc}.{name}", "missing field")
        value = data[name]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ParseError(f"{loc}.{name}",
                             f"expected {types.__name__}, got {value!r}")
        return value

    def vector(name):
        return tuple(_rationals(field(name), f"{loc}.{name}"))

    def vectors(name):
        return tuple(tuple(_rationals(row, f"{loc}.{name}[{i}]"))
                     for i, row in enumerate(field(name)))

    if kind == "witness_subspace":
        dim, basis = field("ambient_dim", int), vectors("basis")
        if any(len(row) != dim for row in basis):
            raise ParseError(f"{loc}.basis", f"expected vectors of length {dim}")
        shift = None if data.get("shift") is None else vector("shift")
        return WitnessSubspace(QSubspace(dim, basis), shift)
    if kind == "obstruction_bracket":
        return ObstructionBracket(vector("left"), vector("right"),
                                  vector("bracket"))
    if kind == "not_fixed":
        monomial = None if data.get("monomial") is None else \
            field("monomial", str)
        return NotFixed(vector("vector"), vector("image"), monomial)
    if kind == "coset_obstruction":
        params = tuple(field("params") if "params" in data else ())
        if not all(isinstance(p, str) for p in params):
            raise ParseError(f"{loc}.params", "expected a list of names")
        if len(set(params)) != len(params):
            raise ParseError(f"{loc}.params", "expected distinct names")
        polys = [_polynomial(p, params, f"{loc}.vector[{i}]")
                 for i, p in enumerate(field("vector"))]
        return CosetObstruction(ParamVector(params, polys),
                                vectors("generators"))
    if kind == "spectral_obstruction":
        return SpectralObstruction(vector("factor"))
    if kind == "unipotent_power":
        return UnipotentPower(field("power", int))
    if kind == "invariant_subtorus":
        return InvariantSubtorus(vectors("covectors"))
    if kind in ("validation_failure", "falsification_witness"):
        return dict(data)
    raise ParseError(loc, "unknown certificate kind")


# ---- verdict files ----

def make_verdict_dict(status: str, criterion: str, certificate,
                      notes=()) -> dict:
    if certificate is not None and not isinstance(certificate, dict):
        certificate = serialize_certificate(certificate)
    return {"status": status, "criterion": criterion,
            "certificate": certificate, "notes": [str(n) for n in notes]}


def verdict_to_dict(verdict: Verdict) -> dict:
    return make_verdict_dict(verdict.status, verdict.criterion,
                             verdict.certificate, verdict.notes)


def lie_report_to_dict(report) -> dict:
    notes = [
        "composite map condition ((U - I) after the defect family): "
        + ("passed" if report.composite_zero else "failed"),
        "image bracket condition: "
        + ("passed" if report.image_abelian else "failed"),
    ]
    if report.witness is not None:
        which, i, j, text = report.witness
        notes.append(f"witness for {which}: entry ({i + 1}, {j + 1}) = "
                     f"{text}")
    notes.append("these conditions are necessary, not sufficient")
    return make_verdict_dict(PASS if report.passed else FAIL, "lie", None,
                             notes)


def two_generator_report_to_dict(report) -> dict:
    agree = report.coefficients == report.matrix_coefficients
    notes = [f"chain length n = {report.n}",
             "curve coefficients: "
             + ", ".join(map(str, report.coefficients)),
             "matrix coefficients: "
             + ", ".join(map(str, report.matrix_coefficients))]
    notes.extend(report.notes)
    return make_verdict_dict(PASS if agree else FAIL, "two-generator",
                             None, notes)


def aa_report_to_dict(report) -> dict:
    certificate = None
    if report.witness is not None:
        w = report.witness
        certificate = {"kind": "falsification_witness",
                       "probe": _vector_strings(w.probe),
                       "target": _vector_strings(w.target),
                       "sequence": list(w.sequence),
                       "forward_distance": w.forward_distance,
                       "backward_distance": w.backward_distance}
    notes = [f"trials = {report.trials}, horizon = {report.horizon}, "
             f"eps = {report.epsilon_forward}, seed = {report.seed}"]
    notes.extend(report.notes)
    notes.append("a Falsified verdict is conclusive up to rounding; "
                 "ConsistentWithAA is evidence, not proof")
    return make_verdict_dict(report.verdict, "simulate", certificate, notes)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_verdict(text) -> dict:
    """Decode and shape-check a verdict file, given as text or as UTF-8
    bytes."""
    data = _decode(text, "verdict")
    if not isinstance(data, dict) or set(data) != {"status", "criterion",
                                                   "certificate", "notes"}:
        raise ParseError("verdict", "expected exactly the fields status, "
                                    "criterion, certificate, notes")
    if not isinstance(data["notes"], list):
        raise ParseError("verdict:notes", "notes must be a list")
    parse_certificate(data["certificate"])  # shape check
    return data


def exit_code_for(status: str) -> int:
    if status in ("AA", VALID, PASS, "Minimal", "ConsistentWithAA"):
        return 0
    if status in ("NOT_AA", INVALID, FAIL, "NotMinimal", "Falsified"):
        return 1
    if status == "INCONCLUSIVE":
        return 2
    return 3


def validation_failure_dict(exc: ValidationError) -> dict:
    return {"kind": "validation_failure", "check": exc.check,
            "witness": describe_validation_witness(exc)}


def describe_validation_witness(exc: ValidationError) -> str:
    if exc.check == "is_automorphism":
        pair, residual = exc.witness
        i, j = pair
        return (f"pair ({i + 1}, {j + 1}); residual "
                f"({', '.join(map(str, residual))})")
    return str(exc.witness)


# ---- suspension files ----

def suspension_to_dict(susp, base_name: str = "") -> dict:
    """Serialize a suspended system: big algebra, monodromy, fiber data.

    The suspension lattice is the monodromy-twisted product of a circle
    and the fiber lattice; it is generally not the integer span of any
    basis, so it is recorded as the pair (monodromy, fiber lattice).
    """
    big = susp.big_algebra
    constants = []
    for (i, j), vec in sorted(big.table.items()):
        for k, c in enumerate(vec):
            if c != 0:
                constants.append([i + 1, j + 1, k + 1, str(c)])
    return {
        "name": f"suspension of {base_name}" if base_name else "suspension",
        "dim": big.dim,
        "structure_constants": constants,
        "monodromy": [_vector_strings(row) for row in susp.monodromy.entries],
        "fiber_lattice_basis": [
            _vector_strings(susp.fiber_lattice.generator(i))
            for i in range(susp.fiber_lattice.dim)],
        "embedded_translation": [str(p) for p in
                                 susp.embedded_translation.entries],
        "notes": ["coordinates are (circle, fiber); the circle generator "
                  "acts on the fiber by the monodromy derivation"],
    }


# ---- corpus access ----

def corpus_dir() -> Path:
    from importlib import resources
    return Path(resources.files("nilaa") / "corpus")


def corpus_file(name: str) -> Path:
    path = corpus_dir() / name
    if not path.exists():
        raise FileNotFoundError(f"no corpus file named {name}")
    return path


def load_manifest() -> dict:
    return json.loads((corpus_dir() / "manifest.json").read_text(encoding="utf-8"))
