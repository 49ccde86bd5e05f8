"""File formats, certificate round-trips and the command line."""

import csv
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

from nilaa import cli as ncli
from nilaa import io as nio
from nilaa.criteria import (CosetObstruction, InvariantSubtorus, NotFixed,
                            ObstructionBracket, SpectralObstruction,
                            UnipotentPower, WitnessSubspace)
from nilaa.poly import ParamVector, Poly, parse_poly
from nilaa.ratlin import QMatrix, QSubspace


# ---- rationals ----

def test_parse_rational_accepts_exact_forms():
    assert nio.parse_rational("1/2", "x") == F(1, 2)
    assert nio.parse_rational("-3", "x") == F(-3)
    assert nio.parse_rational(5, "x") == F(5)
    assert nio.parse_rational("0", "x") == 0
    assert nio.parse_rational("+7/3", "x") == F(7, 3)


@pytest.mark.parametrize("bad", [0.5, "0.5", "1/0", "1/-2", "1e3", "",
                                 "1 / 2", True, None, [1]])
def test_parse_rational_rejects_inexact_forms(bad):
    with pytest.raises(nio.ParseError):
        nio.parse_rational(bad, "x")


def test_rational_string_round_trips():
    for v in (F(0), F(-1, 2), F(22, 7), F(5)):
        assert nio.parse_rational(str(v), "x") == v


# ---- polynomials ----

def test_parse_polynomial_grammar():
    def ev(text, params, **values):
        return parse_poly(text, params).substitute(values)

    assert ev("t^2 - 1/2*t + 3", ("t",), t=F(2)) == F(6)
    assert ev("1/2 + t", ("t",), t=F(1, 2)) == 1
    assert ev("-t", ("t",), t=F(3)) == -3
    assert ev("s*t", ("s", "t"), s=F(2), t=F(3)) == 6
    # system files also take plain integers as translation entries
    system = nio.system_from_dict(_minimal_dict(translation=[0]))
    assert system.translation[0] == Poly.constant(0, ("t",))
    assert ev("2*t^3", ("t",), t=F(1, 2)) == F(1, 4)


def test_parse_polynomial_round_trips_through_str():
    for text in ("t^2 - 1/2*t + 3", "0", "-t", "s*t", "1/12"):
        params = ("s", "t")
        p = parse_poly(text, params)
        again = parse_poly(str(p), params)
        assert again == p


@pytest.mark.parametrize("bad", ["0.5", "u", "t t", "2**t", "", "t^",
                                 "t^-1", "(t)", "1/2/3", "t^2.5", "t +",
                                 "t$", "u + t", "1/0*t"])
def test_parse_polynomial_rejects(bad):
    with pytest.raises(ValueError):
        parse_poly(bad, ("t",))
    # in a system file the error names the file and the field
    with pytest.raises(nio.ParseError) as info:
        nio.system_from_dict(_minimal_dict(translation=[bad]),
                             source="sys.json")
    assert info.value.location == "sys.json:translation[0]"


# ---- structure constants ----

def _parse_sc(entries, dim=3):
    return nio._parse_structure_constants(entries, dim, "c")


def test_structure_constants_antisymmetry_conflict():
    with pytest.raises(nio.ParseError, match="antisymmetry conflict"):
        _parse_sc([[1, 2, 3, "1"], [2, 1, 3, "1"]])


def test_structure_constants_duplicate_rejected():
    with pytest.raises(nio.ParseError, match="duplicate"):
        _parse_sc([[1, 2, 3, "1"], [1, 2, 3, "1"]])
    # a consistent mirror entry is still a duplicate of the same bracket
    with pytest.raises(nio.ParseError, match="duplicate"):
        _parse_sc([[1, 2, 3, "1"], [2, 1, 3, "-1"]])


def test_structure_constants_bounds_and_shape():
    with pytest.raises(nio.ParseError, match="itself"):
        _parse_sc([[1, 1, 2, "1"]])
    with pytest.raises(nio.ParseError, match="1..3"):
        _parse_sc([[1, 4, 2, "1"]])
    with pytest.raises(nio.ParseError):
        _parse_sc([[1, 2, 3]])
    assert _parse_sc([[2, 1, 3, "1"]]) == [(1, 2, 3, F(-1))]
    assert _parse_sc([[1, 2, 3, "0"]]) == []


# ---- system files ----

def _minimal_dict(**extra):
    data = {"dim": 1, "params": ["t"],
            "structure_constants": [],
            "lattice_basis": [["1"]],
            "automorphism": [["1"]],
            "translation": ["t"]}
    data.update(extra)
    return data


def test_system_from_dict_minimal():
    system = nio.system_from_dict(_minimal_dict(name="line"))
    assert system.name == "line"
    assert system.algebra.dim == 1


def test_system_from_dict_rejects_unknown_key():
    with pytest.raises(nio.ParseError, match="unknown"):
        nio.system_from_dict(_minimal_dict(extra_field=1))


def test_system_from_dict_requires_dim():
    data = _minimal_dict()
    del data["dim"]
    with pytest.raises(nio.ParseError, match="dim"):
        nio.system_from_dict(data)


def test_system_from_dict_optional_maps_default():
    system = nio.system_from_dict({"dim": 2, "params": []})
    assert system.automorphism == QMatrix.identity(2)
    assert all(p.is_zero() for p in system.translation.entries)


def test_lattice_file_rows_are_generators():
    data = {"dim": 2, "params": [],
            "structure_constants": [],
            "lattice_basis": [["1", "1/2"], ["0", "1/3"]],
            "automorphism": [["1", "0"], ["0", "1"]],
            "translation": ["0", "0"]}
    system = nio.system_from_dict(data)
    assert system.lattice.generator(0) == (F(1), F(1, 2))
    assert system.lattice.generator(1) == (F(0), F(1, 3))


def test_designated_generators_must_be_a_pair():
    data = _minimal_dict(designated_generators=[["1"]])
    with pytest.raises(nio.ParseError, match="two"):
        nio.system_from_dict(data)
    # each generator is a list; a string is not read digit by digit
    for gens, where in (([0, ["1"]], "[0]"), ([None, None], "[0]"),
                        ([["1"], "1"], "[1]")):
        with pytest.raises(nio.ParseError, match="expected a list") as info:
            nio.system_from_dict(_minimal_dict(designated_generators=gens))
        assert info.value.location == f"<memory>:designated_generators{where}"
    data = {"dim": 3, "designated_generators": ["123", ["1", "2", "3"]]}
    with pytest.raises(nio.ParseError, match="expected a list"):
        nio.system_from_dict(data)


def test_space_key_is_checked_in_both_places():
    for data, where in ((_minimal_dict(space="Klein"), "<memory>:space"),
                        (_minimal_dict(simulate={"space": "Klein"}),
                         "<memory>:simulate:space")):
        with pytest.raises(nio.ParseError) as info:
            nio.system_from_dict(data)
        assert info.value.location == where
    for space in ("Torus", "Heisenberg3"):  # legacy values select nothing
        system = nio.system_from_dict(_minimal_dict(space=space))
        assert system.simulate is None


def test_parse_system_reports_json_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 1,\n  "params": [}\n', encoding="utf-8")
    with pytest.raises(nio.ParseError) as info:
        nio.parse_system(path)
    assert ":2:" in info.value.location


# ---- certificate round-trips ----

CERTIFICATES = [
    WitnessSubspace(QSubspace(3, ((F(1), F(0), F(2)),)), (F(0), F(-1), F(0))),
    WitnessSubspace(QSubspace(2, ()), None),
    ObstructionBracket((F(0), F(1)), (F(1), F(0)), (F(1), F(1))),
    NotFixed((F(0), F(1)), (F(1), F(0)), "t"),
    NotFixed((F(1),), (F(0),), None),
    CosetObstruction(ParamVector(("t",), [Poly.variable("t", ("t",)),
                                          Poly.constant(F(1, 2), ("t",))]),
                     ((F(1), F(0)), (F(0), F(2)))),
    SpectralObstruction((F(1), F(1), F(1))),
    UnipotentPower(6),
    InvariantSubtorus(((F(1), F(-1)),)),
    None,
]


@pytest.mark.parametrize("cert", CERTIFICATES,
                         ids=lambda c: type(c).__name__)
def test_certificate_serialization_round_trips(cert):
    data = nio.serialize_certificate(cert)
    rebuilt = nio.parse_certificate(data)
    assert nio.serialize_certificate(rebuilt) == data


def _certificate_fields():
    """(serialized certificate, field name) for every field of every kind."""
    out = {}
    for cert in CERTIFICATES[:-1]:
        data = nio.serialize_certificate(cert)
        for name in sorted(set(data) - {"kind"}):
            out.setdefault(f"{data['kind']}.{name}", (data, name))
    return out


CERTIFICATE_FIELDS = _certificate_fields()
OPTIONAL_FIELDS = ("shift", "monomial", "params")


@pytest.mark.parametrize("data, name", CERTIFICATE_FIELDS.values(),
                         ids=CERTIFICATE_FIELDS.keys())
def test_malformed_certificate_field_is_a_parse_error(data, name):
    location = f"certificate({data['kind']}).{name}"
    with pytest.raises(nio.ParseError) as info:
        nio.parse_certificate({**data, name: True})
    assert info.value.location == location
    if name not in OPTIONAL_FIELDS:
        with pytest.raises(nio.ParseError) as info:
            nio.parse_certificate({k: v for k, v in data.items() if k != name})
        assert info.value.location == location


def test_malformed_certificate_row_is_a_parse_error():
    with pytest.raises(nio.ParseError) as info:
        nio.parse_certificate({"kind": "invariant_subtorus",
                               "covectors": [["1"], 5]})
    assert info.value.location == "certificate(invariant_subtorus).covectors[1]"
    with pytest.raises(nio.ParseError) as info:
        nio.parse_certificate({"kind": "witness_subspace", "ambient_dim": 2,
                               "basis": [["1"]]})
    assert info.value.location == "certificate(witness_subspace).basis"


def test_opaque_certificates_pass_through():
    for kind in ("validation_failure", "falsification_witness"):
        data = {"kind": kind, "extra": "x"}
        assert nio.parse_certificate(data) == data


def test_unknown_certificate_kind_rejected():
    with pytest.raises(nio.ParseError):
        nio.parse_certificate({"kind": "mystery"})
    with pytest.raises(TypeError):
        nio.serialize_certificate(object())


# ---- verdict files ----

def test_verdict_round_trip_is_byte_identical():
    verdict = nio.make_verdict_dict(
        "NOT_AA", "full", CERTIFICATES[2], notes=["a", "b"])
    text = nio.canonical_json(verdict)
    assert nio.canonical_json(nio.parse_verdict(text)) == text
    assert text.endswith("\n")


def test_parse_verdict_requires_exact_shape():
    good = nio.make_verdict_dict("AA", "full", None)
    with pytest.raises(nio.ParseError):
        nio.parse_verdict(nio.canonical_json({**good, "extra": 1}))
    bad = dict(good)
    del bad["notes"]
    with pytest.raises(nio.ParseError):
        nio.parse_verdict(nio.canonical_json(bad))
    with pytest.raises(nio.ParseError):
        nio.parse_verdict(nio.canonical_json({**good, "notes": "oops"}))


def test_exit_code_table():
    zeros = ["AA", "VALID", "PASS", "Minimal", "ConsistentWithAA"]
    ones = ["NOT_AA", "INVALID", "FAIL", "NotMinimal", "Falsified"]
    assert [nio.exit_code_for(s) for s in zeros] == [0] * 5
    assert [nio.exit_code_for(s) for s in ones] == [1] * 5
    assert nio.exit_code_for("INCONCLUSIVE") == 2
    assert nio.exit_code_for("anything else") == 3


# ---- command line ----

def _corpus(name):
    return str(nio.corpus_file(name))


def _run_main(capsys, *argv):
    code = ncli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.startswith("{") else out


def test_cli_validate_valid_file(capsys):
    code, verdict = _run_main(capsys, "validate", _corpus("heisenberg.json"))
    assert code == 0
    assert verdict["status"] == "VALID"
    assert verdict["criterion"] == "validate"


def test_cli_validate_reports_first_failing_check(capsys):
    code, verdict = _run_main(capsys, "validate",
                              _corpus("paper_example_4d.json"))
    assert code == 1
    assert verdict["status"] == "INVALID"
    cert = verdict["certificate"]
    assert cert["kind"] == "validation_failure"
    assert cert["check"] == "is_automorphism"
    assert cert["witness"] == "pair (1, 3); residual (0, 0, 0, 1)"
    assert any("first failing check" in n for n in verdict["notes"])


def test_cli_validate_missing_file(capsys):
    code, verdict = _run_main(capsys, "validate", "no_such_file.json")
    assert code == 3
    assert verdict["status"] == "ERROR"


def test_cli_decide_full(capsys):
    code, verdict = _run_main(capsys, "decide", _corpus("torus_skew.json"),
                              "--criterion", "full")
    assert code == 0
    assert verdict["status"] == "AA"
    assert verdict["certificate"]["kind"] == "witness_subspace"


def test_cli_decide_inapplicable_criterion(capsys):
    code, verdict = _run_main(capsys, "decide", _corpus("heisenberg.json"),
                              "--criterion", "translation")
    assert code == 3
    assert verdict["status"] == "ERROR"


def test_cli_decide_inconclusive(capsys):
    code, verdict = _run_main(capsys, "decide",
                              _corpus("torus_skew_rational.json"),
                              "--criterion", "minimality")
    assert code == 2
    assert verdict["status"] == "INCONCLUSIVE"


@pytest.mark.parametrize("automorphism, power", [
    ([["1", "1/2"], ["0", "1"]], 1),
    ([["0", "-1/2"], ["2", "0"]], 4),
])
def test_cli_power_unipotent_reads_u_in_lattice_coordinates(
        capsys, tmp_path, automorphism, power):
    # U preserves the lattice spanned by (1, 0) and (0, 2) but is not
    # integral in the standard basis
    path = _write_system(tmp_path, name="scaled_torus", dim=2,
                         structure_constants=[],
                         lattice_basis=[["1", "0"], ["0", "2"]],
                         automorphism=automorphism)
    code, verdict = _run_main_checked(capsys, "validate", path)
    assert (code, verdict["status"]) == (0, "VALID")
    code, verdict = _run_main_checked(capsys, "decide", path,
                                      "--criterion", "power-unipotent")
    assert code == 0
    assert verdict == {"status": "PASS", "criterion": "power-unipotent",
                       "certificate": {"kind": "unipotent_power",
                                       "power": power},
                       "notes": [f"U^{power} is unipotent"]}


def test_cli_run_criterion_dispatch():
    from nilaa.criteria import NonAbelian
    system = nio.parse_system(_corpus("free_nilpotent_2_3.json"))
    for criterion in ncli.CRITERIA:
        if criterion in ("torus", "translation"):
            continue  # hypotheses fail for this system, tested below
        result = ncli.CRITERIA[criterion](system)
        assert result["criterion"] == criterion
        assert set(result) == {"status", "criterion", "certificate", "notes"}
    # dispatch does not swallow hypothesis errors; the CLI wrapper does
    with pytest.raises(NonAbelian):
        ncli.CRITERIA["torus"](system)


def test_cli_suspend_writes_data(capsys, tmp_path):
    out = tmp_path / "susp.json"
    code, verdict = _run_main(capsys, "suspend",
                              _corpus("torus_skew_translation.json"),
                              "--out", str(out))
    assert code == 0
    assert verdict["status"] == "PASS"
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["dim"] == 3
    assert data["monodromy"] == [["0", "1"], ["0", "0"]]
    assert data["embedded_translation"] == ["1", "-1/2*t", "t"]
    assert data["structure_constants"] == [[1, 3, 2, "1"]]


def test_cli_simulate_dump_csv(capsys, tmp_path):
    out = tmp_path / "orbit.csv"
    code, verdict = _run_main(capsys, "simulate",
                              _corpus("torus_rotation_1d.json"),
                              "--horizon", "500", "--trials", "1",
                              "--dump", str(out))
    assert code == 0
    assert verdict["status"] == "ConsistentWithAA"
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["k", "x1"]
    assert len(rows) == 202  # header + steps 0..200
    assert rows[1][0] == "0"
    assert all(0 <= float(r[1]) < 1 for r in rows[1:])


@pytest.mark.parametrize("argv", [
    ("suspend", "torus_skew_translation.json", "--out"),
    ("simulate", "torus_rotation_1d.json", "--horizon", "500", "--trials",
     "1", "--dump"),
], ids=["suspend-out", "simulate-dump"])
def test_cli_answers_error_for_an_unwritable_output_path(capsys, tmp_path,
                                                         argv):
    target = tmp_path / "missing" / "x"
    command, name, *options = argv
    code, verdict = _run_main_checked(capsys, command, _corpus(name),
                                      *options, str(target))
    assert code == 3
    assert verdict["status"] == "ERROR"
    assert verdict["criterion"] == command
    assert verdict["notes"] == [f"cannot write {target}: "
                                f"No such file or directory"]
    assert not target.parent.exists()


def test_cli_simulate_checks_the_dump_path_before_the_test(capsys, tmp_path,
                                                           monkeypatch):
    import nilaa.orbit

    def refuse(*args, **kwargs):
        raise AssertionError("the empirical test ran before the dump "
                             "path was opened")

    monkeypatch.setattr(nilaa.orbit, "aa_empirical_test", refuse)
    target = tmp_path / "missing" / "x.csv"
    code, verdict = _run_main_checked(capsys, "simulate",
                                      _corpus("torus_skew.json"),
                                      "--horizon", "1000000", "--trials",
                                      "20", "--dump", str(target))
    assert code == 3
    assert verdict["notes"] == [f"cannot write {target}: "
                                f"No such file or directory"]


def _translated_heisenberg(tmp_path, entry):
    """heisenberg_translation.json with parameters t, s and the given first
    translation entry."""
    data = json.loads(nio.corpus_file("heisenberg_translation.json")
                      .read_text(encoding="utf-8"))
    data["params"] = ["t", "s"]
    data["translation"] = [entry, "0", "0"]
    data["simulate"]["values"] = {"t": 0.2347, "s": 0.5}
    return _write_system(tmp_path, **data)


_COMMANDS = (("validate",), ("decide", "--criterion", "full"), ("suspend",),
             ("simulate", "--horizon", "200"))


@pytest.mark.parametrize("entry", ["t^65", "t^100000", "t^32*s^33",
                                   "1 + t^40*s^40"])
def test_cli_rejects_a_translation_past_the_degree_scope(capsys, tmp_path,
                                                         entry):
    assert nio.MAX_DEGREE == 64
    path = _translated_heisenberg(tmp_path, entry)
    for command, *options in _COMMANDS:
        code, verdict = _run_main_checked(capsys, command, path, *options)
        assert code == 3
        assert verdict["status"] == "ERROR"
        assert verdict["notes"] == [
            "system.json:translation[0]: degree exceeds the supported "
            "scope (total degree <= 64)"]


@pytest.mark.parametrize("entry", ["t^64", "t^32*s^32 + s"])
def test_cli_answers_a_translation_at_the_degree_bound(capsys, tmp_path,
                                                       entry):
    path = _translated_heisenberg(tmp_path, entry)
    statuses = []
    for command, *options in _COMMANDS:
        code, verdict = _run_main_checked(capsys, command, path, *options)
        assert code == 0
        statuses.append(verdict["status"])
    assert statuses == ["VALID", "AA", "PASS", "ConsistentWithAA"]


def test_cli_simulate_ignores_the_legacy_space_key(capsys, tmp_path):
    raw = json.loads(nio.corpus_file("heisenberg_translation.json")
                     .read_text(encoding="utf-8"))
    assert raw["space"] == "Heisenberg3"
    outputs = []
    for name, space in (("with.json", "Heisenberg3"), ("without.json", None)):
        data = dict(raw, space=space) if space else \
            {k: v for k, v in raw.items() if k != "space"}
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        assert ncli.main(["simulate", str(path), "--horizon", "600"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["status"] == "ConsistentWithAA"


def test_cli_simulate_runs_past_the_coset_dimension_cap_on_a_torus(
        capsys, tmp_path):
    # an abelian group reduces in lattice coordinates, in any dimension
    d = 8
    eye = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    skew = [row[:] for row in eye]
    skew[0][1] = "1"
    for matrix, translation, found in ((eye, ["t"] * d, 2),
                                       (skew, ["0"] * (d - 1) + ["t"], 0)):
        path = _write_system(tmp_path, dim=d, params=["t"],
                             structure_constants=[], lattice_basis=eye,
                             automorphism=matrix, translation=translation,
                             simulate={"values": {"t": "0.2347"},
                                       "horizon": 300, "trials": 2})
        code, verdict = _run_main_checked(capsys, "simulate", path)
        assert code == 0
        assert verdict["status"] == "ConsistentWithAA"
        assert f"forward returns found for {found} of 2 probes" \
            in verdict["notes"]


def _write_system(tmp_path, **data):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _run_main_checked(capsys, *argv):
    """Run the CLI; no exception may escape and stderr holds no traceback."""
    code = ncli.main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out)


def test_cli_suspend_passes_past_the_coset_dimension_cap(capsys, tmp_path):
    # an 8-dim torus, and the 11-dim Heisenberg algebra with a central
    # lattice vector halved, sheared x_i -> x_i + y_i and translated along y_1
    n, d = 5, 11
    shear = [["1" if i == j or i == n + j else "0" for j in range(d)]
             for i in range(d)]
    lattice = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    lattice[d - 1][d - 1] = "1/2"
    heisenberg = dict(
        dim=d, params=["t"],
        structure_constants=[[i + 1, n + i + 1, d, "1"] for i in range(n)],
        lattice_basis=lattice, automorphism=shear,
        translation=["0"] * n + ["t"] + ["0"] * (d - n - 1))
    for data in (dict(dim=8), heisenberg):
        path = _write_system(tmp_path, **data)
        code, verdict = _run_main_checked(capsys, "suspend", path)
        assert code == 0
        assert verdict["status"] == "PASS"
        assert verdict["notes"][0] == (f"fiber dimension {data['dim']}, "
                                       f"suspension dimension "
                                       f"{data['dim'] + 1}")


def test_cli_simulate_refuses_a_non_abelian_group_past_the_neighbour_cap(
        capsys, tmp_path):
    # the 9-dim Heisenberg algebra with its central lattice vector halved
    n, d = 4, 9
    lattice = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    lattice[d - 1][d - 1] = "1/2"
    path = _write_system(
        tmp_path, dim=d, lattice_basis=lattice,
        structure_constants=[[i + 1, n + i + 1, d, "1"] for i in range(n)],
        translation=["1/3"] + ["0"] * (d - 1))
    code, verdict = _run_main_checked(capsys, "simulate", path)
    assert (code, verdict["status"], verdict["notes"]) == (3, "ERROR", [
        "the orbit oracle's lattice neighbour search supports dimension "
        "<= 7 on a non-abelian group"])


def test_cli_simulate_reports_a_lattice_basis_with_no_reduction_ordering(
        capsys, tmp_path):
    # heisenberg.json on another basis of its lattice: xi_3 enters only
    # through generator 2, xi_1 + xi_3/2, so only generator 1 shifts cleanly
    data = json.loads(nio.corpus_file("heisenberg.json")
                      .read_text(encoding="utf-8"))
    data["lattice_basis"] = [["1", "0", "0"], ["0", "1", "0"],
                             ["1", "0", "1/2"]]
    path = _write_system(tmp_path, **data)
    code, verdict = _run_main_checked(capsys, "validate", path)
    assert (code, verdict["status"]) == (0, "VALID")
    code, verdict = _run_main_checked(capsys, "simulate", path)
    assert (code, verdict["status"], verdict["notes"]) == (3, "ERROR", [
        "no reduction ordering: none of [0, 2] shifts cleanly after [1]"])


@pytest.mark.parametrize("data, note", [
    ({"dim": True, "translation": ["1/2"]},
     "system.json:dim: dim must be a positive integer"),
    ({"dim": 10 ** 30, "structure_constants": [[1, 2, 3, "1"]],
      "lattice_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
     f"system.json:lattice_basis: expected {10 ** 30} rows"),
    ({"dim": 10 ** 30, "structure_constants": [[1, 2, 3, "1"]],
      "translation": ["0", "0", "0"]},
     f"system.json:translation: expected {10 ** 30} polynomial strings"),
    ({"dim": 3, "designated_generators": [0, ["1", "0", "0"]]},
     "system.json:designated_generators[0]: expected a list of rationals"),
    ({"dim": 10 ** 30, "structure_constants": [[1, 2, 3, "1"]]},
     "system.json:dim: dim exceeds the supported scope (dimension <= 64)"),
    ({"dim": 3, "structure_constants": [[True, 2, 3, "1"]]},
     "system.json:structure_constants[0]: index i must be in 1..3"),
], ids=["dim-true", "huge-dim-lattice", "huge-dim-translation",
        "generator-not-a-list", "huge-dim-structure-constants",
        "structure-index-true"])
def test_cli_rejects_a_dim_or_generator_the_file_contradicts(capsys, tmp_path,
                                                            data, note):
    path = _write_system(tmp_path, **data)
    for argv in (("validate", path), ("decide", path, "--criterion", "full")):
        code, verdict = _run_main_checked(capsys, *argv)
        assert code == 3
        assert verdict["status"] == "ERROR"
        assert verdict["notes"] == [note]


def test_cli_answers_error_for_a_class_above_the_bch_cap(capsys, tmp_path):
    # the filiform algebra of dimension 8 is valid (Jacobi and nilpotency
    # hold) but has class 7, out of scope; so is the class-7 suspension of
    # a 7-dimensional Jordan-block torus, reached by the basepoint decider
    note = "nilpotency class 7 exceeds the supported scope (class <= 6)"
    filiform = _write_system(
        tmp_path, dim=8,
        structure_constants=[[1, i, i + 1, "1"] for i in range(2, 8)])
    for argv in (("validate", filiform),
                 ("decide", filiform, "--criterion", "full"),
                 ("suspend", filiform)):
        code, verdict = _run_main_checked(capsys, *argv)
        assert code == 3
        assert verdict["status"] == "ERROR"
        assert verdict["certificate"] is None
        assert verdict["notes"] == [note]
    jordan = tmp_path / "jordan.json"
    jordan.write_text(json.dumps({
        "dim": 7, "params": ["t"],
        "automorphism": [["1" if j in (i, i + 1) else "0" for j in range(7)]
                         for i in range(7)],
        "translation": ["0"] * 6 + ["t"]}), encoding="utf-8")
    code, verdict = _run_main_checked(capsys, "decide", str(jordan),
                                      "--criterion", "basepoint")
    assert (code, verdict["status"], verdict["notes"]) == (3, "ERROR", [note])


def test_cli_reports_a_point_closure_witness(capsys, tmp_path):
    # every signed generator pair closes; bch(gen2, gen0 + gen1) does not
    diagonal = ("1", "1", "1", "1/2", "1/2", "1/4")
    path = _write_system(
        tmp_path, dim=6,
        structure_constants=[[1, 3, 4, "1"], [2, 3, 5, "1"],
                             [1, 5, 6, "1"], [2, 4, 6, "1"]],
        lattice_basis=[[diagonal[i] if i == j else "0" for j in range(6)]
                       for i in range(6)])
    code, verdict = _run_main_checked(capsys, "validate", path)
    assert code == 1
    assert verdict["status"] == "INVALID"
    assert verdict["certificate"]["check"] == "validate_lattice"
    assert verdict["certificate"]["witness"] == (
        "bch(gen2, gen0 + gen1) has non-integer lattice coordinates "
        "('1', '1', '1', '-1', '-1', '2/3')")


@pytest.mark.parametrize("lattice, automorphism, reason", [
    ([["1", "0"], ["0", "1"]], [["2", "0"], ["0", "1"]],
     "determinant 2 in lattice coordinates is not a unit"),
    ([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "0"]],
     "determinant 0 in lattice coordinates is not a unit"),
    ([["1", "0"], ["0", "1/2"]], [["1", "1"], ["0", "1"]],
     "matrix is not integral in lattice coordinates"),
    ([[{0: "1", 1: "1/2", 2: "3", 3: "1/5"}[i] if i == j else "0"
       for j in range(4)] for i in range(4)],
     [["1", "0", "0", "0"], ["1/2", "2", "0", "0"], ["0", "0", "1", "0"],
      ["0", "0", "1/15", "1"]],
     "determinant 2 in lattice coordinates is not a unit"),
], ids=["stretch", "singular", "shear-off-lattice", "diagonal-4d-det-2"])
def test_cli_torus_matrix_off_its_lattice_fails_at_preserves_lattice(
        capsys, tmp_path, lattice, automorphism, reason):
    # every matrix preserves the zero bracket, so the lattice check is
    # the one that must reject these
    path = _write_system(tmp_path, dim=len(lattice), lattice_basis=lattice,
                         automorphism=automorphism)
    code, verdict = _run_main_checked(capsys, "validate", path)
    assert code == 1
    assert verdict["status"] == "INVALID"
    assert verdict["certificate"]["check"] == "preserves_lattice"
    assert verdict["certificate"]["witness"] == reason


@pytest.mark.parametrize("data, witness", [
    (dict(dim=3, structure_constants=[[1, 2, 3, "1"]],
          lattice_basis=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]],
          automorphism=[["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]),
     "pair (1, 2); residual (-1, 0, 0)"),
    (dict(dim=5, structure_constants=[[1, 2, 3, "1"], [1, 3, 4, "1"],
                                      [2, 3, 5, "1"]],
          lattice_basis=[["1" if i == j else "0" for j in range(5)]
                         for i in range(2)]
          + [["0", "0", "1/2", "0", "0"], ["0", "0", "0", "1/12", "0"],
             ["0", "0", "0", "0", "1/12"]],
          automorphism=[["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                        ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"],
                        ["0", "0", "0", "0", "2"]]),
     "pair (2, 3); residual (0, 0, 0, 0, -1)"),
], ids=["heisenberg-center-into-x1", "free23-scaled-x5"])
def test_cli_non_automorphism_keeps_its_bracket_witness(capsys, tmp_path,
                                                        data, witness):
    path = _write_system(tmp_path, **data)
    code, verdict = _run_main_checked(capsys, "validate", path)
    assert code == 1
    assert verdict["status"] == "INVALID"
    assert verdict["certificate"]["check"] == "is_automorphism"
    assert verdict["certificate"]["witness"] == witness


def test_cli_singular_lattice_basis_is_a_validation_failure(capsys,
                                                           tmp_path):
    path = _write_system(tmp_path, dim=1, lattice_basis=[["0"]])
    code, verdict = _run_main_checked(capsys, "validate", path)
    assert code == 1
    assert verdict["status"] == "INVALID"
    assert verdict["certificate"]["check"] == "validate_lattice"
    assert verdict["certificate"]["witness"] == "lattice basis is singular"
    for argv in (("decide", path, "--criterion", "full"),
                 ("simulate", path)):
        code, verdict = _run_main_checked(capsys, *argv)
        assert code == 3
        assert verdict["status"] == "ERROR"


def test_cli_triangular_singular_lattice_basis_keeps_its_witness(capsys,
                                                                 tmp_path):
    # file rows are generators, so the basis matrix (generators as columns)
    # is lower triangular with a zero pivot in its middle
    path = _write_system(tmp_path, dim=3, structure_constants=[[1, 2, 3, "1"]],
                         lattice_basis=[["1", "0", "1/2"], ["0", "0", "1"],
                                        ["0", "0", "2"]])
    code, verdict = _run_main_checked(capsys, "validate", path)
    assert code == 1
    assert verdict["status"] == "INVALID"
    assert verdict["certificate"]["check"] == "validate_lattice"
    assert verdict["certificate"]["witness"] == "lattice basis is singular"


def test_loader_shares_literals_and_builds_checked_matrices():
    system = nio.parse_system(nio.corpus_file("heisenberg_translation.json"))
    assert nio._rational("0") is nio._rational("0") is not None
    assert nio._rational("1") == 1 and nio._rational(0) == 0
    for m in (system.lattice.basis, system.automorphism):
        assert m == QMatrix(m.entries)
        assert all(type(x) is F for row in m.entries for x in row)
    params = system.translation.params
    for text in ("0", "1"):
        assert nio._polynomial(text, params, "x") == parse_poly(text, params)


def test_cli_simulate_rejects_a_probe_of_the_wrong_length(capsys,
                                                          tmp_path):
    path = _write_system(tmp_path, dim=2, simulate={"probe": ["1/2"]})
    code, verdict = _run_main_checked(capsys, "simulate", path)
    assert code == 3
    assert verdict["notes"] == ["simulate probe needs 2 entries"]


@pytest.mark.parametrize("simulate, argv, note", [
    ({"values": {"t": None}}, (),
     "simulate value of t must be a number, got None"),
    ({"values": {"t": "1/0"}}, (),
     "simulate value of t must be a number, got '1/0'"),
    ({"values": ["t"]}, (), "simulate values must be an object"),
    ({"values": {"t": "1/3"}, "probe": [None]}, (),
     "simulate probe entry must be a number, got None"),
    ({"values": {"t": "1/3"}, "eps": "abc"}, (),
     "simulate eps must be a number, got 'abc'"),
    ({"values": {"t": "1/3"}, "eps": 0}, (), "simulate eps must be positive"),
    ({"values": {"t": "1/3"}}, ("--eps", "inf"),
     "simulate eps must be a number, got inf"),
    ({"values": {"t": "1/3"}, "horizon": "ten"}, (),
     "simulate horizon must be a number, got 'ten'"),
    ({"values": {"t": "1/3"}, "seed": None}, (),
     "simulate seed must be a number, got None"),
    ({"values": {"t": "1/3"}, "trials": [2]}, (),
     "simulate trials must be a number, got [2]"),
    ({"values": {"t": "1/3"}, "dump_steps": "all"}, ("--dump", "{tmp}"),
     "simulate dump_steps must be a number, got 'all'"),
    ({"values": {"t": "1/3"}}, ("--horizon", "100000000"),
     "simulate horizon must be between 1 and 1000000, got 100000000"),
    ({"values": {"t": "1/3"}}, ("--horizon", "-5"),
     "simulate horizon must be between 1 and 1000000, got -5"),
    ({"values": {"t": "1/3"}, "horizon": 0}, (),
     "simulate horizon must be between 1 and 1000000, got 0"),
    ({"values": {"t": "1/3"}}, ("--trials", "-2"),
     "simulate trials must be at least 1"),
    ({"values": {"t": "1/3"}, "trials": 0}, (),
     "simulate trials must be at least 1"),
    ({"values": {"t": "1/3"}, "dump_steps": -1}, ("--dump", "{tmp}"),
     "simulate dump_steps must be between 0 and 1000000, got -1"),
    ({"values": {"t": "1/3"}, "dump_steps": 10 ** 7}, ("--dump", "{tmp}"),
     "simulate dump_steps must be between 0 and 1000000, got 10000000"),
    # JSON booleans are not numbers, though Python's bool is an int
    ({"values": {"t": "1/3"}, "eps": True}, (),
     "simulate eps must be a number, got True"),
    ({"values": {"t": "1/3"}, "horizon": True}, (),
     "simulate horizon must be a number, got True"),
    ({"values": {"t": "1/3"}, "trials": True}, (),
     "simulate trials must be a number, got True"),
    ({"values": {"t": "1/3"}, "seed": False}, (),
     "simulate seed must be a number, got False"),
    ({"values": {"t": True}}, (),
     "simulate value of t must be a number, got True"),
    ({"values": {"t": "1/3"}, "probe": [False]}, (),
     "simulate probe entry must be a number, got False"),
    ({"values": {"t": "1/3"}, "dump_steps": True}, ("--dump", "{tmp}"),
     "simulate dump_steps must be a number, got True"),
    # integer settings are not truncated
    ({"values": {"t": "1/3"}, "horizon": 2.9}, (),
     "simulate horizon must be an integer, got 2.9"),
    ({"values": {"t": "1/3"}, "trials": 1.5}, (),
     "simulate trials must be an integer, got 1.5"),
    ({"values": {"t": "1/3"}, "seed": "1/2"}, (),
     "simulate seed must be an integer, got '1/2'"),
    ({"values": {"t": "1/3"}, "dump_steps": 2.5}, ("--dump", "{tmp}"),
     "simulate dump_steps must be an integer, got 2.5"),
], ids=["null-value", "zero-denominator-value", "values-list", "null-probe",
        "eps-text", "eps-zero", "eps-inf", "horizon-text", "seed-null",
        "trials-list", "dump-steps-text", "horizon-past-cap",
        "horizon-negative", "horizon-zero", "trials-negative", "trials-zero",
        "dump-steps-negative", "dump-steps-past-cap", "eps-bool",
        "horizon-bool", "trials-bool", "seed-bool", "value-bool",
        "probe-bool", "dump-steps-bool", "horizon-fraction",
        "trials-fraction", "seed-fraction", "dump-steps-fraction"])
def test_cli_simulate_rejects_malformed_values(capsys, tmp_path, simulate,
                                               argv, note):
    path = _write_system(tmp_path, dim=1, params=["t"], translation=["t"],
                         simulate=simulate)
    dump = tmp_path / "trajectory.csv"
    argv = [arg.format(tmp=dump) for arg in argv]
    code, verdict = _run_main_checked(capsys, "simulate", path, *argv)
    assert code == 3
    assert verdict["status"] == "ERROR"
    assert verdict["notes"] == [note]
    assert not dump.exists()


def test_cli_simulate_accepts_integral_values_of_integer_settings(capsys,
                                                                  tmp_path):
    dump = tmp_path / "trajectory.csv"
    path = _write_system(tmp_path, dim=1, params=["t"], translation=["t"],
                         simulate={"values": {"t": "1/3"}, "trials": 2.0,
                                   "horizon": "10", "seed": 3.0,
                                   "dump_steps": "4/2"})
    code, verdict = _run_main_checked(capsys, "simulate", path,
                                      "--dump", str(dump))
    assert code == 0
    assert verdict["status"] == "ConsistentWithAA"
    assert verdict["notes"][0] == "trials = 2, horizon = 10, eps = 0.001, seed = 3"
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3  # header, k = 0..2


def test_cli_simulate_ignores_dump_steps_without_dump(capsys, tmp_path):
    path = _write_system(tmp_path, dim=1, params=["t"], translation=["t"],
                         simulate={"values": {"t": "1/3"}, "trials": 1,
                                   "horizon": 10, "dump_steps": "all"})
    code, verdict = _run_main_checked(capsys, "simulate", path)
    assert code == 0
    assert verdict["status"] == "ConsistentWithAA"


def test_cli_zero_denominator_in_a_translation_is_a_parse_error(capsys,
                                                               tmp_path):
    path = _write_system(tmp_path, dim=1, params=["t"],
                         translation=["1/0*t"])
    code, verdict = _run_main_checked(capsys, "decide", path,
                                      "--criterion", "full")
    assert code == 3
    assert verdict["status"] == "ERROR"
    assert verdict["notes"] == [
        "system.json:translation[0]: zero denominator in '1/0'"]


def test_cli_parameter_named_like_a_defect_coordinate(capsys, tmp_path):
    # heisenberg_translation with its parameter t renamed X1
    data = json.loads(nio.corpus_file("heisenberg_translation.json")
                      .read_text(encoding="utf-8"))
    data.update(params=["X1"], translation=["X1", "0", "0"])
    del data["simulate"]  # its values name t
    path = _write_system(tmp_path, **data)
    for criterion in ("full", "translation"):
        expected = _run_main_checked(capsys, "decide",
                                     _corpus("heisenberg_translation.json"),
                                     "--criterion", criterion)
        code, verdict = _run_main_checked(capsys, "decide", path,
                                          "--criterion", criterion)
        assert (code, verdict) == expected
        assert verdict["status"] == "AA"


def test_cli_suspend_rejects_a_non_unipotent_automorphism(capsys, tmp_path):
    path = _write_system(tmp_path, dim=2, automorphism=[["2", "1"], ["1", "1"]])
    code, verdict = _run_main_checked(capsys, "suspend", path)
    assert code == 3
    assert verdict["status"] == "ERROR"
    assert verdict["notes"] == ["the automorphism is not unipotent: the "
                                "matrix has an eigenvalue other than 1"]


NON_UNIPOTENT = {"dim": 2, "automorphism": [["2", "1"], ["1", "1"]],
                 "translation": ["1/3", "0"]}
NOT_UNIPOTENT_NOTE = "the automorphism is not unipotent"


@pytest.mark.parametrize("data, argv, note", [
    (NON_UNIPOTENT, ("decide", "--criterion", "full"), NOT_UNIPOTENT_NOTE),
    (NON_UNIPOTENT, ("decide", "--criterion", "torus"), NOT_UNIPOTENT_NOTE),
    (NON_UNIPOTENT, ("decide", "--criterion", "lie"), NOT_UNIPOTENT_NOTE),
    # basepoint reaches the unipotency test through the suspension's log U
    (NON_UNIPOTENT, ("decide", "--criterion", "basepoint"),
     f"{NOT_UNIPOTENT_NOTE}: the matrix has an eigenvalue other than 1"),
    ({"dim": 3, "structure_constants": [[1, 2, 3, "1"]],
      "lattice_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]]},
     ("decide", "--criterion", "torus"),
     "the torus criterion requires an abelian algebra"),
    ({"dim": 2}, ("decide", "--criterion", "two-generator"),
     "hypothesis violated: two designated generators are required"),
], ids=["full", "torus", "lie", "basepoint", "torus-nonabelian",
        "two-generator"])
def test_cli_error_notes_state_their_reason_once(capsys, tmp_path, data,
                                                 argv, note):
    path = _write_system(tmp_path, **data)
    code, verdict = _run_main_checked(capsys, argv[0], path, *argv[1:])
    assert code == 3
    assert verdict["status"] == "ERROR"
    assert verdict["certificate"] is None
    assert verdict["notes"] == [note]


def test_cli_commands_load_an_invalid_system_the_same_way(capsys):
    # the corpus file whose matrix is not an automorphism of its algebra
    path = _corpus("paper_example_4d.json")
    expected = {
        "status": "ERROR",
        "certificate": {"kind": "validation_failure",
                        "check": "is_automorphism",
                        "witness": "pair (1, 3); residual (0, 0, 0, 1)"},
        "notes": ["the system file fails validation at is_automorphism"]}
    for argv, criterion in ((("decide", path, "--criterion", "full"), "full"),
                            (("suspend", path), "suspend"),
                            (("simulate", path), "simulate")):
        code, verdict = _run_main_checked(capsys, *argv)
        assert code == 3
        assert verdict == dict(expected, criterion=criterion)


def test_cli_locates_malformed_json_by_file_name_in_every_command(capsys,
                                                                  tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 1,\n  "params": [}\n', encoding="utf-8")
    for argv in (("validate",), ("decide", "--criterion", "full"),
                 ("suspend",), ("simulate",)):
        code, verdict = _run_main_checked(capsys, argv[0], str(path),
                                          *argv[1:])
        assert code == 3
        assert verdict["status"] == "ERROR"
        assert verdict["notes"] == ["broken.json:2:14: Expecting value"]


def test_cli_validate_reads_the_file_once(capsys, tmp_path, monkeypatch):
    # the notes of an invalid file come from its one parse, even when the
    # file is gone by the time the verdict is written
    path = tmp_path / "gone.json"
    path.write_text(nio.corpus_file("paper_example_4d.json").read_text(
        encoding="utf-8"), encoding="utf-8")
    notes = json.loads(path.read_text(encoding="utf-8"))["notes"]
    parse = nio.parse_system

    def parse_then_delete(target):
        try:
            return parse(target)
        finally:
            path.unlink()

    monkeypatch.setattr(nio, "parse_system", parse_then_delete)
    code, verdict = _run_main(capsys, "validate", str(path))
    assert not path.exists()
    assert code == 1 and verdict["status"] == "INVALID"
    assert notes and verdict["notes"] == notes + [
        "first failing check: is_automorphism; pair (1, 3); "
        "residual (0, 0, 0, 1)"]


def test_cli_suspend_notes_the_samples_it_checks(capsys, monkeypatch):
    import nilaa.suspension as nsusp
    counts = []
    check = nsusp.embedding_consistency_check

    def counting(system, susp, samples):
        counts.append(samples)
        return check(system, susp, samples=samples)

    monkeypatch.setattr(nsusp, "embedding_consistency_check", counting)
    monkeypatch.setattr(ncli, "SUSPEND_SAMPLES", 12)
    code, verdict = _run_main(capsys, "suspend", _corpus("torus_skew.json"))
    assert code == 0 and counts == [12]
    assert "embedding consistency: 12 exact samples" in verdict["notes"]


def test_cli_corpus_run_names_a_byte_mismatch(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(nio.corpus_dir(), corpus)
    golden = corpus / "golden" / "heisenberg.full.json"
    golden.write_text(golden.read_text(encoding="utf-8") + " ",
                      encoding="utf-8")
    monkeypatch.setattr(nio, "corpus_dir", lambda: corpus)
    assert ncli.main(["corpus", "run"]) == 1
    captured = capsys.readouterr()
    assert "heisenberg.json full: FAIL" in captured.out
    assert "46/47 corpus checks passed" in captured.out
    assert captured.err == ("  output differs from golden "
                            "golden/heisenberg.full.json\n")


def test_cli_corpus_run_passes(capsys):
    code = ncli.main(["corpus", "run"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[-1].endswith("corpus checks passed")
    assert all(line.endswith(": PASS") for line in lines[:-1])


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "nilaa.cli", "decide",
         _corpus("torus_jordan3.json"), "--criterion", "torus"],
        capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 1
    verdict = nio.parse_verdict(result.stdout)
    assert verdict["status"] == "NOT_AA"
    assert verdict["certificate"]["kind"] == "not_fixed"
