"""Host-speed correction for the timed sections of an untraced run.

On the shared 2-vCPU host the benchmark was built on, the same
interpreter-bound code ran at speeds up to 1.7 times apart. The speed changed
in episodes of a few seconds, independently on the two vCPUs. Timed as plain
wall time, one 8-12 s ``run_experiment`` pass of eval-products varied by
+-17 % between processes, and the run-to-run spread of the throughput exceeded
the 0.25 bound a regression gate may use.

While a HostClock runs, a timer signal interrupts the measured code every
INTERVAL_S and times a fixed probe: dict lookups over a small table, the same
kind of work as the program's. The probe runs once untimed first, so that it
is timed with its table in cache, whatever the program did to the cache
before. A timed section's seconds are its wall time less the time spent in the
interrupts inside it, scaled by REFERENCE_PROBE_S over the mean probe time
around it. That is the time the section would take at the host speed at which
the probe takes REFERENCE_PROBE_S. Over eight processes, the corrected time
of an eval-products pass varied with a standard deviation of 7 % of its
mean, against 12 % for the wall time, and that of 700 query-hub requests
2.4 %, against 12 %. The probe is independent of the program, so a change to the
program moves the corrected time as much as the wall time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.04
REFERENCE_PROBE_S = 1.0e-4
# Probes on each side of a section that also count towards its speed, so
# that a section shorter than INTERVAL_S still has some.
WINDOW_MARGIN = 2

_TABLE = {key: key * 7 for key in range(4096)}


def _probe() -> int:
    total = 0
    table = _TABLE
    for key in range(0, 4096, 4):
        total += table[key] & 255
    return total


class HostClock:
    """Times sections of work, corrected to the reference host speed while running.

    Use it as a context manager around the timed work. A clock that never
    ran takes no probes, and its ``seconds`` are plain wall seconds.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._interrupted = 0.0  # seconds spent in _tick
        self._saved_handler = None

    def __enter__(self) -> "HostClock":
        self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        warm = perf_counter()
        _probe()
        end = perf_counter()
        self.probes.append(end - warm)
        self._interrupted += end - start

    def mark(self) -> tuple[int, float, float]:
        """The start of a section, for ``since``."""
        return len(self.probes), self._interrupted, perf_counter()

    def since(self, mark) -> tuple[int, int, float]:
        """A section from ``mark`` to now: (first probe, end probe, wall seconds less interrupts)."""
        interrupted, now = self._interrupted, perf_counter()
        first, interrupted_at_mark, started = mark
        return first, len(self.probes), now - started - (interrupted - interrupted_at_mark)

    @staticmethod
    def wall_seconds(section) -> float:
        """A section's wall seconds less the interrupts in it, uncorrected."""
        return section[2]

    def seconds(self, section) -> float:
        """A section's seconds at the reference host speed."""
        first, end, net = section
        window = self.probes[max(0, first - WINDOW_MARGIN): end + WINDOW_MARGIN] or self.probes
        return net * REFERENCE_PROBE_S / statistics.mean(window) if window else net

    def speed(self) -> float:
        """Mean host speed over the run, relative to the reference speed."""
        return REFERENCE_PROBE_S / statistics.mean(self.probes) if self.probes else 1.0
