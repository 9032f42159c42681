"""Host-speed calibration for the benchmark's time metrics.

On a shared host the same Python work can take twice as long from one
minute to the next, and the slowdown shows in CPU time as much as in
wall time, so timing CPU time instead does not remove it.  The drift is
slow (successive 0.1 s slices of work correlate at about 0.9), so a short
fixed workload run between the operations sees the same host speed as
the operations around it.

The fixed workload is the benchmark's own reference evaluator on a few
fixed terms: plain Python sets, lists and tuples, the kind of work
splitrel does.  It shares no code with splitrel, so a change to the
program under test cannot change it.  A time metric is reported at the
nominal host speed: each measured time is multiplied by
`NOMINAL_S / calibration`, where `calibration` is the median of the
`WINDOW` calibration passes before it and the `WINDOW` after it.
"""
from __future__ import annotations

import gc
import statistics
import time

import reference

# About one calibration pass on a 2-vCPU "Intel(R) Xeon(R) Processor" host
# with Python 3.11.7, where passes took 1.1 to 4.7 ms.  Any constant would
# do: it only sets the scale on which normalised times are reported.
NOMINAL_S = 0.002

# Passes on each side of a time that set its speed.  With a median over
# six, a pass slowed by an interrupt moves no time; the drift is slow
# enough that neighbouring passes still see the same host speed.
WINDOW = 3


def _chain(width: int, length: int, gens: tuple[str, ...]) -> str:
    factors = []
    for k in range(length):
        left = (5 * k + 3) % (width - 1)
        factors.append(f"pad({left}, {gens[k % len(gens)]}, {width - 2 - left})")
    return " . ".join(factors)


def _rb_chain(width: int, length: int) -> str:
    factors = []
    for k in range(length // 2):
        left = (5 * k + 3) % (width - 1)
        factors.append(f"pad({left}, delta(1), {width - 1 - left})")
        factors.append(f"pad({(left + 2) % width}, nabla(1), {width - 1 - (left + 2) % width})")
    return " . ".join(reversed(factors))


TERMS = [
    (_chain(12, 40, ("swap", "h")), "PF"),
    (_chain(12, 40, ("hbar", "swap")), "EF"),
    (_rb_chain(12, 40), "RB"),
]


def calibration_s() -> float:
    """Seconds for one pass of the fixed workload.

    The cyclic collector is paused during the pass, so that its cost does
    not depend on how many objects the program under test keeps alive.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for text, category in TERMS:
            reference.evaluate(text, category)
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


class Clock:
    """Measured times, each bracketed by calibration passes.

    `add` records one measured time; `calibrate` runs a calibration pass
    that closes the current segment of times.  `normalised` gives every
    recorded time at the nominal host speed, in the order added.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.segment: list[int] = []
        self.passes: list[float] = [calibration_s()]

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.segment.append(len(self.passes) - 1)

    def calibrate(self) -> None:
        self.passes.append(calibration_s())

    def normalised(self) -> list[float]:
        if self.segment and self.segment[-1] == len(self.passes) - 1:
            self.calibrate()
        speeds = [NOMINAL_S / statistics.median(
                      self.passes[max(0, s + 1 - WINDOW):s + 1 + WINDOW])
                  for s in range(len(self.passes) - 1)]
        return [seconds * speeds[s] for seconds, s in zip(self.raw, self.segment)]
