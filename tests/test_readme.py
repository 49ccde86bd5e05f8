"""The README's examples run as written.

The Python example of the library section runs, and each line it prints
matches the `# ...` comment on its print() call.  Each `nilaa` line of
the command-line block runs as `python -m nilaa.cli`, from a temporary
directory so that the files it writes land there, and answers a verdict
(exit 0, 1 or 2) without a traceback.
"""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _commands() -> list[list[str]]:
    block = next(b for b in _blocks("sh") if "nilaa corpus run" in b)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("nilaa ")]


def test_python_example_prints_what_its_comments_say():
    (example,) = _blocks("python")
    expected = [line.split("#", 1)[1].strip() for line in example.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


COMMANDS = _commands()


def test_every_command_line_runs():
    assert len(COMMANDS) == 7


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:2]) for a in COMMANDS])
def test_command_line_example_answers(argv, tmp_path):
    argv = [str(ROOT / a) if a.startswith("src/") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "nilaa.cli", *argv],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, encoding="utf-8", timeout=120)
    assert result.returncode in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout
