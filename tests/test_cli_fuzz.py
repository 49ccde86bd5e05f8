"""Seeded fuzzing of the command line on mutated corpus files.

Each mutant is a corpus system with one value replaced, somewhere in its
JSON tree, by a value from a fixed list.  Every command must answer with a
verdict JSON object and its exit code; no exception may escape and no
traceback may reach stderr, whatever the mutant.  Mutated golden verdicts
must parse or raise ParseError.  Files that fail before any JSON value
exists answer ERROR from every command and raise ParseError as verdicts.
"""

import copy
import json
import random

from nilaa import cli as ncli
from nilaa import io as nio

SEED = 20261018
# Replacement values: wrong types, edge numbers and malformed strings.
VALUES = (True, False, None, 0, 1, -1, 2, 1.5, "1", "-1/2", "1/0", "123",
          "t", "abc", "", [], [0], ["1"], [None], [[]], {}, {"t": "1/3"})
# dim is never made unbounded: a dim that no field contradicts is built in
# full.  10**30 goes only into files that have a row field, which rejects
# it, and nonzero structure constants, which fail on it before allocating.
DIMS = (True, False, None, 0, -1, 2, 8, "3", 1.5)
# simulate --horizon and --trials values outside the scope; none of them
# may start a long scan.
OUT_OF_SCOPE = (0, -1, -5)
HUGE_DIM = 10 ** 30
ROW_FIELDS = ("lattice_basis", "automorphism", "translation")


def _paths(node, prefix=()):
    """Every position in a JSON tree below the root, parents first."""
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(data, path, value):
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _mutants(rng):
    """Per corpus system: every value of DIMS for dim, and for each other
    top-level key two mutants, each at a depth drawn first and then a
    position at that depth, so short lists are hit as often as long ones."""
    for path in sorted(nio.corpus_dir().glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "dim" not in data:
            continue  # the manifest
        dims = DIMS
        if data["structure_constants"] and any(f in data for f in ROW_FIELDS):
            dims += (HUGE_DIM,)
        for value in dims:
            yield path.stem, _replace(data, ("dim",), value)
        for key in sorted(set(data) - {"dim"}):
            by_depth = {}
            for position in [(key,), *_paths(data[key], (key,))]:
                by_depth.setdefault(len(position), []).append(position)
            for _ in range(2):
                depth = rng.choice(sorted(by_depth))
                yield path.stem, _replace(data, rng.choice(by_depth[depth]),
                                          rng.choice(VALUES))


def test_cli_answers_every_mutated_corpus_file(capsys, tmp_path):
    rng = random.Random(SEED)
    scope_rng = random.Random(SEED)  # leaves the mutant stream of rng as it was
    seen_statuses = set()
    for n, (stem, data) in enumerate(_mutants(rng)):
        path = tmp_path / f"{stem}-{n}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for argv in (("validate",),
                     ("decide", "--criterion", rng.choice(list(ncli.CRITERIA))),
                     ("suspend",),
                     ("simulate", "--trials", "1", "--horizon", "50")):
            args = [argv[0], str(path), *argv[1:]]
            code = ncli.main(args)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, (args, data)
            verdict = json.loads(captured.out)
            assert set(verdict) == {"status", "criterion", "certificate", "notes"}
            assert code == nio.exit_code_for(verdict["status"]), (args, data)
            seen_statuses.add(verdict["status"])
        args = ["simulate", str(path),
                "--horizon", str(scope_rng.choice(OUT_OF_SCOPE)),
                "--trials", str(scope_rng.choice(OUT_OF_SCOPE))]
        code = ncli.main(args)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err, (args, data)
        assert json.loads(captured.out)["status"] == "ERROR", (args, data)
        assert code == 3, (args, data)
    # the mutants reach past parsing as well as failing in it
    assert {"ERROR", "VALID"} <= seen_statuses


def test_mutated_goldens_parse_or_raise_parse_error():
    for path in sorted((nio.corpus_dir() / "golden").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for position in _paths(data):
            for value in VALUES:
                mutant = nio.canonical_json(_replace(data, position, value))
                try:
                    nio.parse_verdict(mutant)
                except nio.ParseError:
                    pass


# Files that fail before any JSON value exists: bytes that are not UTF-8,
# nesting deeper than the recursion limit, and an integer literal longer
# than the interpreter's 4300-digit limit for int().
MALFORMED = {
    "not_utf8": b'{"name": "\xff", "dim": 1}',
    "too_deep": b"[" * 100000 + b"]" * 100000,
    "long_integer": b'{"dim": ' + b"7" * 5000 + b"}",
}


def test_every_command_answers_error_on_malformed_bytes(capsys, tmp_path):
    for name, raw in sorted(MALFORMED.items()):
        path = tmp_path / f"{name}.json"
        path.write_bytes(raw)
        for argv in (("validate",), ("suspend",), ("simulate",),
                     *(("decide", "--criterion", c) for c in ncli.CRITERIA)):
            code = ncli.main([argv[0], str(path), *argv[1:]])
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, (name, argv)
            verdict = json.loads(captured.out)
            assert verdict["status"] == "ERROR", (name, argv)
            assert verdict["notes"][0].startswith(f"{name}.json"), (name, argv)
            assert code == 3, (name, argv)


def test_parse_verdict_raises_parse_error_on_malformed_bytes():
    for name, raw in sorted(MALFORMED.items()):
        for given in (raw, raw.decode("utf-8", "replace")):
            try:
                nio.parse_verdict(given)
            except nio.ParseError as exc:
                assert str(exc).startswith("verdict"), name
            else:
                raise AssertionError(f"{name} parsed as a verdict")


# A rational literal past the interpreter's 4300-digit limit for int(), in
# each field of rationals: (field, position of the literal in the field).
LONG_LITERAL = "1/" + "3" * 4400
LONG_LITERAL_FIELDS = (("structure_constants", (0, 3)), ("lattice_basis", (2, 2)),
                       ("automorphism", (0, 1)), ("designated_generators", (1, 0)),
                       ("translation", (2,)))


def test_every_command_answers_error_on_an_over_long_literal(capsys, tmp_path):
    data = json.loads(nio.corpus_file("heisenberg.json").read_text(encoding="utf-8"))
    data["translation"] = ["0", "0", "0"]
    for field, position in LONG_LITERAL_FIELDS:
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(_replace(data, (field, *position), LONG_LITERAL)),
                        encoding="utf-8")
        for argv in (("validate",), ("suspend",), ("simulate",),
                     *(("decide", "--criterion", c) for c in ncli.CRITERIA)):
            code = ncli.main([argv[0], str(path), *argv[1:]])
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, (field, argv)
            verdict = json.loads(captured.out)
            assert verdict["status"] == "ERROR", (field, argv)
            location = f"{field}.json:{field}[{position[0]}]"
            assert verdict["notes"][0].startswith(location), (field, argv)
            assert "limit" in verdict["notes"][0], (field, argv)
            assert code == 3, (field, argv)
