"""Tests of the benchmark harness itself.

Run from the root of a source checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import layers, run, workloads
from perfbench.tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_one_pass_of_each_workload_checks_out(workload):
    bench = run.Bench(workload, seed=7)
    try:
        bench.setup()
        loop = bench.timed(0, min_ops=1)
    finally:
        bench.speed.close()
    assert loop["passes"] == 1
    assert bench.checker.mismatches == []
    assert bench.attempted == len(loop["times"]) > 0


def test_a_corrupted_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    references = workloads.load_references(workloads.REFERENCES)
    warm = run.Bench("orbit", seed=0).plan.warmup()
    key = next(op.key for op in warm if op.golden is None)
    references[key]["sha256"] = "0" * 64
    path = tmp_path / "references.json"
    path.write_text(json.dumps(references), encoding="utf-8")
    monkeypatch.setattr(workloads, "REFERENCES", path)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "COLD_SAMPLES", 1)
    code = run.main(["--workload", "orbit", "--seed", "0", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def _snapshot() -> dict:
    """Every attribute of every nilaa module and class, by identity, and
    the contents of module-level dicts."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not isinstance(module, types.ModuleType) or \
                not (name == "nilaa" or name.startswith("nilaa.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, dict):
                out[(name, attr, "items")] = [(k, id(v))
                                              for k, v in value.items()]
            if isinstance(value, type) and value.__module__ == name:
                for key, item in vars(value).items():
                    out[(name, attr, key)] = id(item)
    return out


def test_tracing_restores_every_attribute():
    cli = run.import_cli()
    for module in layers.TARGETS:
        __import__(f"nilaa.{module}")
    before = _snapshot()
    tracer = Tracer(layers.target_names())
    with tracer:
        assert _snapshot() != before
        op = workloads.Op("heisenberg.json full", workloads._decide(
            workloads.CORPUS / "heisenberg.json", "full"))
        outcome = workloads.execute(cli, op)
    assert _snapshot() == before
    assert outcome.status == "AA"
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["cli.main"] == 1
    # cli reaches full_decide through its dispatch dict
    assert calls["criteria.full_decide"] == 1
    assert calls["ratlin.charpoly"] > 0
    assert all(s >= -1e-9 for s in tracer.self_s)


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        layers.metric_names()
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(workloads.PLANS)


def test_without_the_source_the_run_fails_quietly(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
