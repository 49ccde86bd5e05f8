"""Every name the package exports or the benchmark traces is still defined.

The benchmark in perfbench/ wraps the functions listed in
perfbench/layers.py by name; a refactor that renames or deletes one of them
would break the traced run, which the default test paths do not reach.
The package resolves the names of nilaa.__all__ lazily, so a stale export
only fails when it is used.
"""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import nilaa  # noqa: E402
from perfbench.layers import target_names  # noqa: E402
from perfbench.tracer import _resolve  # noqa: E402


def test_every_traced_name_resolves():
    names = target_names()
    assert "ratlin.rref" in names and "ratlin.QMatrix.det" in names
    missing = []
    for name in names:
        try:
            _, _, original = _resolve(name)
        except (AttributeError, ImportError) as exc:
            missing.append(f"{name}: {exc}")
            continue
        if not callable(original):
            missing.append(f"{name}: not callable")
    assert not missing


def test_every_exported_name_resolves():
    missing = []
    for name in nilaa.__all__:
        try:
            getattr(nilaa, name)
        except (AttributeError, ImportError) as exc:
            missing.append(f"{name}: {exc}")
    assert not missing
