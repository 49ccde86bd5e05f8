"""Every corpus output that no golden pins, frozen as sha256 digests.

The goldens pin 47 (file, command) pairs.  This module pins the rest of
what the CLI prints or writes for the corpus files:

- stdout and exit code of every other pair of a corpus file with
  `validate`, the 8 criteria, `suspend` and `simulate` (`simulate` with
  `--trials 1 --horizon 500`, which keeps the slow non-torus files fast);
- the file that `suspend --out` writes for each corpus file;
- the CSV that `simulate --dump` writes for each file with a `simulate`
  golden, and the verdict printed beside it;
- stdout and exit code of `validate` and `decide --criterion full` on
  generated files that fail one stage of validation each, and on files
  with a rational literal past the interpreter's digit limit in each
  field of rationals and in a translation entry, so that every run of
  this module (CI runs it as a script with asserts stripped and in dev
  mode) reaches those failure paths too.

The digests live in `pinned_outputs.json`.  After a deliberate change of
output, rebuild it with `PYTHONPATH=src python tests/test_pinned_outputs.py`
and say which digests changed and why.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nilaa import cli as ncli
from nilaa import io as nio

PINNED = Path(__file__).with_name("pinned_outputs.json")
COMMANDS = ("validate", *ncli.CRITERIA, "suspend", "simulate")
SIMULATE_FLAGS = ("--trials", "1", "--horizon", "500")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _argv(name: str, command: str) -> list[str]:
    path = str(nio.corpus_dir() / name)
    if command in ("validate", "suspend"):
        return [command, path]
    if command == "simulate":
        return [command, path, *SIMULATE_FLAGS]
    return ["decide", path, "--criterion", command]


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = ncli.main(argv)
    return {"exit": code, "stdout": _sha(out.getvalue().encode("utf-8"))}


# Corpus files with one change each: (label, corpus file, field, value).
# One fails each stage of make_system that a file can reach, and the
# rest hold an over-long literal.
LONG_LITERAL = "1/" + "3" * 4400
GENERATED = (
    ("jacobi", "heisenberg.json", "structure_constants",
     [[1, 2, 3, "1"], [1, 3, 1, "1"]]),
    ("not_nilpotent", "heisenberg.json", "structure_constants",
     [[1, 2, 3, "1"], [1, 3, 2, "1"]]),
    ("singular_lattice", "heisenberg.json", "lattice_basis",
     [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]),
    ("open_lattice", "heisenberg.json", "lattice_basis",
     [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    ("not_automorphism", "heisenberg.json", "automorphism",
     [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]),
    ("off_lattice", "heisenberg.json", "automorphism",
     [["1", "1/2", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    ("determinant", "heisenberg.json", "automorphism",
     [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]),
    ("free_not_automorphism", "free_nilpotent_2_3.json", "automorphism",
     [["1", "0", "0", "0", "0"], ["1/3", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"],
      ["0", "0", "0", "1", "0"], ["0", "0", "1/3", "0", "1"]]),
    ("long_structure_constant", "heisenberg.json", "structure_constants",
     [[1, 2, 3, LONG_LITERAL]]),
    ("long_lattice_entry", "heisenberg.json", "lattice_basis",
     [["1", "0", "0"], ["0", "1", "0"], ["0", "0", LONG_LITERAL]]),
    ("long_automorphism_entry", "heisenberg.json", "automorphism",
     [["1", LONG_LITERAL, "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    ("long_generator_entry", "heisenberg.json", "designated_generators",
     [["0", "1", "0"], [LONG_LITERAL, "0", "0"]]),
    ("long_translation_entry", "heisenberg.json", "translation",
     ["0", "0", LONG_LITERAL]),
)
GENERATED_COMMANDS = ("validate", "full")


def _generated(label: str) -> bytes:
    _, name, field, value = next(g for g in GENERATED if g[0] == label)
    data = json.loads((nio.corpus_dir() / name).read_text(encoding="utf-8"))
    data[field] = value
    return json.dumps(data, indent=1).encode("utf-8")


def _cases() -> list[tuple[str, str, str]]:
    """(key, corpus file, kind): kind is a command, "suspend --out",
    "simulate --dump", or "generated <command>" on the file of a label of
    GENERATED in place of a corpus file."""
    manifest = nio.load_manifest()["entries"]
    cases = []
    for entry in sorted(manifest, key=lambda e: e["file"]):
        name = entry["file"]
        golden = {"validate"} | {run["criterion"] for run in entry.get("runs", [])}
        cases += [(f"{name} {c}", name, c) for c in COMMANDS if c not in golden]
        cases.append((f"{name} suspend --out", name, "suspend --out"))
        if "simulate" in golden:
            cases.append((f"{name} simulate --dump", name, "simulate --dump"))
    cases += [(f"generated {label}.json {c}", label, f"generated {c}")
              for label, *_ in GENERATED for c in GENERATED_COMMANDS]
    return cases


def _outputs(name: str, kind: str, tmp: Path) -> dict:
    tmp = tmp / kind.replace(" ", "_") / name
    tmp.mkdir(parents=True)
    if kind.startswith("generated "):
        path = tmp / f"{name}.json"
        path.write_bytes(_generated(name))
        command = kind.split()[1]
        return _run(["validate", str(path)] if command == "validate" else
                    ["decide", str(path), "--criterion", command])
    if kind == "suspend --out":
        target = tmp / "suspension.json"
        result = _run(_argv(name, "suspend") + ["--out", str(target)])
    elif kind == "simulate --dump":
        target = tmp / "orbit.csv"
        result = _run(_argv(name, "simulate") + ["--dump", str(target)])
    else:
        return _run(_argv(name, kind))
    result["file"] = _sha(target.read_bytes()) if target.exists() else None
    return result


CASES = _cases()


def test_every_unpinned_pair_is_listed():
    pairs = [c for c in CASES if " " not in c[2]]
    assert len(pairs) == 63
    assert len([c for c in CASES if c[2].startswith("generated ")]) == 2 * len(GENERATED)
    assert sorted(key for key, *_ in CASES) == sorted(
        json.loads(PINNED.read_text(encoding="utf-8")))


@pytest.mark.parametrize("key, name, kind", CASES, ids=[c[0] for c in CASES])
def test_output_is_unchanged(key, name, kind, tmp_path):
    expected = json.loads(PINNED.read_text(encoding="utf-8"))[key]
    assert _outputs(name, kind, tmp_path) == expected


def freeze(tmp: Path) -> None:
    pinned = {key: _outputs(name, kind, tmp) for key, name, kind in CASES}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        freeze(Path(tmp))
