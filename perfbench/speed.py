"""Machine speed, measured by a fixed probe interleaved with the work.

The shared machine this benchmark runs on changes speed by 20-40% over
tens of seconds (one pure-Python loop measured 54 to 85 iterations per
second, second by second, on a 2-vCPU 2.1 GHz Xeon), which is more than
the run-to-run differences the benchmark must resolve.  Timings are
therefore reported at a reference speed: each raw time is multiplied by
``REFERENCE_S / probe time``, where the probe time is the median of the
most recent probes, taken between operations.  The probe is pure-Python
``Fraction`` arithmetic, the same kind of work nilaa does, and never
calls nilaa, so a change to nilaa cannot change it.  Raw times are kept
in the run record.

The probe runs in a helper process (this file run as a script, one probe
per line read from stdin), so the benchmark process's own state, such as
its heap or the tracer's records, cannot change the probe's speed.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Seconds one probe takes on the reference machine: a 2.1 GHz Xeon
# virtual machine with 2 vCPUs, CPython 3.11, in its faster periods.
REFERENCE_S = 0.002
EVERY_S = 0.25      # probe interval during a timed loop
RECENT = 5          # probes the speed factor takes the median of


def probe() -> float:
    """Seconds a fixed Fraction kernel takes now, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probe samples of one run and the factor they give.  Call close()
    to stop the helper process."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")
        self._helper = None

    def _probe(self) -> float:
        if self._helper is None:
            self._helper = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended")
        return float(line)

    def close(self) -> None:
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait(timeout=30)
            self._helper.stdout.close()
            self._helper = None

    def sample(self) -> None:
        self.samples.append(self._probe())
        self.last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def measure(self, run) -> tuple[float, float]:
        """Call `run`, which returns the seconds it measured, between
        probes; return those seconds raw and at the reference speed."""
        before = [self._probe() for _ in range(RECENT)]
        took = run()
        around = before + [self._probe() for _ in range(RECENT)]
        self.samples += around
        self.last = time.perf_counter()
        return took, took * REFERENCE_S / statistics.median(around)

    def factor(self) -> float:
        """Reference speed over the current speed: multiply a raw time
        by it to get the time at the reference speed."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.median(self.samples[-RECENT:])


if __name__ == "__main__":
    for _ in sys.stdin:
        print(probe(), flush=True)
