"""Machine-speed probe: scales measured times to a reference machine speed.

On a shared host the speed of this machine drifts by a quarter or more over
minutes (see NOTES.md), so raw times of the same code taken minutes apart
disagree by more than any useful bound.  The probe measures that drift while
the workload runs: an interval timer interrupts the main thread every
``PERIOD_S``, and the signal handler times one fixed pure-Python reference
loop (about a millisecond).  The handler runs on the thread that runs the
jobs, so it measures the CPU the program runs on; a probe thread would be
scheduled on the other, idle CPU, whose speed follows the program's less
closely.  The loop's mean duration over a window, against
``REF_NOMINAL_S``, gives the factor by which that window ran slower than
the reference speed:

    scaled time = raw time * REF_NOMINAL_S / mean reference duration

The mean leaves out the slowest quarter of the loops in the window: a loop
is sometimes preempted for many times its length, which is noise of that
sample, not the machine's speed.  The median would leave out more, but the
durations are bimodal and the median jumps between the two modes.  Of the
estimators tried (NOTES.md) this one followed the program's time best.

The probe costs the measured code about 2 % of its time, the same on every
commit.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
REF_ITERATIONS = 4000
# typical duration of one reference loop on the 2-CPU Intel Xeon VM (2.0 GHz,
# Python 3.11.7) the benchmark was written on, measured with the machine idle
REF_NOMINAL_S = 1.0e-3
SLOW_SHARE_DROPPED = 0.25


def reference_loop() -> int:
    """Fixed pure-Python work: integer arithmetic, a dict and a list, the
    operations the program's exact layers spend their time on."""
    acc = 0
    table = {}
    items = []
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 63] = acc
        items.append(acc & 255)
    return acc + len(table) + sum(items)


class SpeedProbe:
    """Reference-loop durations, sampled from a SIGALRM handler while the
    probe is used as a context manager; enter it on the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, duration)
        self._old_handler = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        # restart system calls the alarm interrupts, in every thread
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over measured speed in [start, end]: multiply a
        raw time of that window by this to scale it to the reference speed."""
        inside = sorted(d for t, d in self.samples if start <= t <= end)
        kept = inside[:max(1, round(len(inside) * (1 - SLOW_SHARE_DROPPED)))]
        return REF_NOMINAL_S / (sum(kept) / len(kept))
