"""Run one nilaa benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload corpus|scaling|orbit --seed N \\
        --seconds S --trace 0|1

Load is a closed loop in one process: one operation at a time, no
threads.  The timed loop runs whole passes over the workload's operations,
at least 100 operations and otherwise as close to ``--seconds`` as whole
passes allow.  Every output is checked; the run exits with 1 if any check
fails, and with 2 if the checkout has no ``nilaa`` source.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
interpreters), operations per second, the median and 90th percentile
operation time, the share of operations answered without ERROR or an
exception, peak resident memory and the cold-start time of the command
line.  Times are reported at a reference machine speed (see speed.py);
the raw times go to the run record.  --trace 1 runs each pass untraced
and then traced, and reports the per-layer metrics of ``layers.py`` per
traced pass, with the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; failed counts the checks that failed.  An
ERROR verdict or an exception that matches its reference is what the
program answers at that commit: it shows in answered_frac, not in
failed.  A record with the run environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402
from perfbench.speed import Speed  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 3
MIN_SAMPLES = 100   # leaves 10 samples above the 90th percentile
COLD_SAMPLES = 11
COLD_FILE = "src/nilaa/corpus/torus_rotation_1d.json"
COLD_GOLDEN = "src/nilaa/corpus/golden/torus_rotation_1d.full.json"
OUT = Path("perfbench") / "out"

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms.p50", "ms"),
              ("op_ms.p90", "ms"), ("answered_frac", "ratio"),
              ("peak_rss_mb", "MB"), ("cli_cold_ms", "ms"))


class SourceMissing(RuntimeError):
    pass


def import_cli():
    """Import nilaa.cli from this checkout's src directory."""
    src = ROOT / "src"
    if not (src / "nilaa" / "__init__.py").is_file():
        raise SourceMissing(f"no nilaa package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import nilaa.cli as cli
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SourceMissing(f"nilaa imported from {cli.__file__}, not {src}")
    return cli


class Bench:
    """One workload's set-up, timed passes and checks."""

    def __init__(self, workload: str, seed: int):
        self.plan = workloads.PLANS[workload]()
        self.rng = random.Random(seed)
        self.checker = workloads.Checker(
            workloads.load_references(workloads.REFERENCES))
        self.speed = Speed()
        self.cli = None
        self.attempted = 0
        self.answered = 0

    def setup(self) -> None:
        """Import, write the inputs, take the oracle's exact verdicts and
        warm up; everything before the first timed operation."""
        self.cli = import_cli()
        self.plan.write_files()
        self.checker.decide_full(self.cli, self.plan.simulated_files())
        self._run(self.plan.warmup())

    def _run(self, ops, loop=None, tracer=None, between=None) -> None:
        results = []
        clock = time.perf_counter
        for op in ops:
            if tracer is not None:
                tracer.request += 1
            start = clock()
            out = workloads.execute(self.cli, op)
            took = clock() - start
            if loop is not None:
                loop["raw"].append(took)
                loop["times"].append(took * self.speed.factor())
                loop["outcomes"].append(out)
            self.checker.check(op, out)
            results.append((op, out))
            if between is not None:
                between()
        self.checker.cross_check(results)
        if loop is not None:
            loop["passes"] += 1
            loop["ops_per_pass"] = dict(Counter(op.criterion for op in ops))

    def _count(self, loop: dict) -> dict:
        self.attempted += len(loop["times"])
        self.answered += sum(not out.errored for out in loop["outcomes"])
        return loop

    def timed(self, seconds: float, min_ops=None, cold=None) -> dict:
        """Whole passes, at least `min_ops` operations (default
        MIN_SAMPLES), ending as near `seconds` as whole passes allow.

        Between operations the loop probes the machine's speed and takes
        the cold-start samples that are due; the time they take is not
        counted."""
        min_ops = MIN_SAMPLES if min_ops is None else min_ops
        clock = time.perf_counter
        loop = _new_loop()
        paused = 0.0
        start = clock()

        def between():
            nonlocal paused
            began = clock()
            self.speed.sample_if_due()
            if cold is not None and cold.due(began - start - paused):
                cold.take(self.speed)
            paused += clock() - began

        self.speed.sample()
        while True:
            self._run(self.plan.next_pass(self.rng), loop, None, between)
            elapsed = clock() - start - paused
            if len(loop["times"]) >= min_ops and \
                    elapsed + elapsed / loop["passes"] / 2 >= seconds:
                break
        if cold is not None:
            cold.finish(self.speed)
        return self._count(loop)

    def traced(self, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
        """Each pass twice, untraced then traced, until `seconds` have
        passed: both sides see the same operations on the same machine,
        so their difference is the tracing overhead."""
        plain, traced = _new_loop(), _new_loop()
        start = time.perf_counter()
        self.speed.sample()
        while time.perf_counter() - start < seconds:
            ops = self.plan.next_pass(self.rng)
            self._run(ops, plain, None, self.speed.sample_if_due)
            with tracer:
                self._run(ops, traced, tracer, self.speed.sample_if_due)
        return self._count(plain), self._count(traced)


def _new_loop() -> dict:
    return {"raw": [], "times": [], "outcomes": [], "passes": 0}


def _spawn_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first timed
    operation being ready."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("READY"):
        raise RuntimeError(f"set-up sample failed: {proc.stderr[-2000:]}")
    return float(lines[-1].split()[1]) - start


class ColdStart:
    """Wall times of a fresh ``python -m nilaa.cli decide`` on a small
    corpus file, sampled evenly over `seconds` of the timed loop so that a
    short slow spell of the machine touches few of them."""

    def __init__(self, samples: int, seconds: float):
        self.samples = samples
        self.interval = seconds / samples
        self.raw: list[float] = []
        self.times: list[float] = []
        self.ok = True
        self.golden = (ROOT / COLD_GOLDEN).read_text("utf-8")

    def due(self, elapsed: float) -> bool:
        return (len(self.times) < self.samples
                and elapsed >= len(self.times) * self.interval)

    def take(self, speed: Speed) -> None:
        raw, scaled = speed.measure(self._run_once)
        self.raw.append(raw)
        self.times.append(scaled)

    def _run_once(self) -> float:
        cmd = [sys.executable, "-m", "nilaa.cli", "decide", COLD_FILE,
               "--criterion", "full"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        took = time.perf_counter() - start
        self.ok = self.ok and proc.returncode == 0 and \
            proc.stdout == self.golden
        return took

    def finish(self, speed: Speed) -> None:
        while len(self.times) < self.samples:
            self.take(speed)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timings(times: list, setup: list, cold: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_ms.p50": statistics.median(times) * 1000,
        "op_ms.p90": statistics.quantiles(times, n=10)[8] * 1000,
        "cli_cold_ms": statistics.median(cold) * 1000,
    }


def end_to_end(bench: Bench, loop: dict, setup: list,
               cold: ColdStart) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference speed, and the raw
    timings they come from."""
    metrics = _timings(loop["times"], [s[1] for s in setup], cold.times)
    metrics["answered_frac"] = bench.answered / bench.attempted
    metrics["peak_rss_mb"] = _peak_rss_mb()
    raw = _timings(loop["raw"], [s[0] for s in setup], cold.raw)
    return {name: metrics[name] for name, _ in END_TO_END}, raw


def _raw_ops_per_s(loop: dict) -> float:
    return len(loop["raw"]) / sum(loop["raw"])


def per_layer(tracer: Tracer, plain: dict, traced: dict) -> dict:
    """Per-layer metrics per traced pass, in raw seconds."""
    passes = traced["passes"]
    out = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = tracer.calls[i] / passes
        out[f"{name}.self_s"] = tracer.self_s[i] / passes
    sizes = tracer.defect_monomials
    out["nilgrp.defect_map.monomials"] = (float(statistics.mean(sizes))
                                          if sizes else 0.0)
    make_system = tracer.names.index("criteria.make_system")
    out["criteria.make_system.total_s"] = tracer.total_s[make_system] / passes
    hits, trials = workloads.returns_ratio(traced["outcomes"])
    out["orbit.returns_ratio"] = hits / trials if trials else 0.0
    # raw: the alternating passes share the machine's speed, and the
    # wrappers' allocations would slow the speed probe in traced passes
    out["trace.overhead_frac"] = 1 - (_raw_ops_per_s(traced)
                                      / _raw_ops_per_s(plain))
    return out


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over the nilaa sources and corpus, identifying the code run."""
    h = sha256()
    src = ROOT / "src" / "nilaa"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(src).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, loops: list) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [loop["passes"] for loop in loops],
        "ops": [len(loop["times"]) for loop in loops],
        "ops_per_pass": loops[-1]["ops_per_pass"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        import_cli()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed)
    if args.setup_only:
        bench.setup()
        print(f"READY {time.time():.6f}")
        return 0
    try:
        return _measure(args, bench)
    finally:
        bench.speed.close()


def _measure(args, bench: Bench) -> int:
    if args.trace:
        bench.setup()
        tracer = Tracer(layers.target_names())
        plain, traced = bench.traced(args.seconds, tracer)
        loops = [plain, traced]
        metrics = per_layer(tracer, plain, traced)
        units = dict(layers.metric_names())
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
        cold_ok = True
        raw = {}
    else:
        setup = [bench.speed.measure(
                     lambda: _spawn_setup(args.workload, args.seed))
                 for _ in range(SETUP_SAMPLES)]
        bench.setup()
        cold = ColdStart(COLD_SAMPLES, args.seconds)
        loop = bench.timed(args.seconds, cold=cold)
        cold_ok = cold.ok
        loops = [loop]
        metrics, raw = end_to_end(bench, loop, setup, cold)
        units = dict(END_TO_END)

    if not cold_ok:
        bench.checker.mismatches.append("cold start: output differs from "
                                        "its golden")
    mismatches = bench.checker.mismatches
    env = environment(args, loops)
    env["improved"] = bench.checker.improved
    env["error_frac"] = 1 - bench.answered / bench.attempted
    env["raw_timings"] = raw
    env["probe_ms"] = statistics.median(bench.speed.samples) * 1000
    env["mismatches"] = mismatches[:50]
    for message in mismatches[:20]:
        print(f"MISMATCH {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": not mismatches, "attempted": bench.attempted,
              "failed": len(mismatches),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, environment=env)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
