"""A clock that reads CPU time scaled to a reference CPU speed.

On a shared machine the speed of one CPU swings by a factor of about 1.7
within seconds, as other tenants come and go on the same cores, and for
whole runs at a time.  CPU time of this process leaves out the time other
processes held the CPU, but not this slowdown.  So while the track runs, a
profiling timer interrupts the program every ``INTERVAL_S`` of CPU time
and times a fixed calibration burst of the kinds of work the package does.
The program's CPU time since the last burst is counted at the median speed
of the last ``SMOOTHING`` bursts relative to ``REFERENCE_S``,
the burst's time on the reference CPU; the bursts' own time is left out.
A reading of ``clock()`` is thus the CPU seconds the program would have
taken on a CPU that runs the burst in ``REFERENCE_S``.

CPU time is the calling thread's: BLAS is pinned to one thread, so the
program runs on the main thread only.  Without the track running,
``clock()`` is plain thread CPU time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# the burst's CPU time on the reference CPU: its time in the fast spells of
# a 2-vCPU x86_64 cloud machine with numpy 2.4 and single-threaded OpenBLAS.
# Every timing of the benchmark is in these units; never change it.
REFERENCE_S = 0.0009
SMOOTHING = 3  # a segment is counted at the median speed of the last bursts

_rng = np.random.default_rng(20210421)
_W = _rng.standard_normal((25, 128)) * 0.2
_U = _rng.standard_normal((32, 128)) * 0.2
_X = _rng.standard_normal((48, 25))
_H = _rng.standard_normal(128)
_W4 = _rng.standard_normal((128, 512))
_WORDS = [f"w{i % 37}" for i in range(400)]


def burst() -> None:
    """The fixed calibration work: an LSTM-like recurrence, word counts and
    matrix-vector products.

    Measured in slow spells against fast ones, small numpy operations, the
    regex tokenizer and dictionary work slowed by 1.5-1.7 times, a
    128x512 product by 1.3 times, per-post predict at H=32 by 1.6 and a
    training step at H=128 by 1.35; this blend slows by about 1.5, so a
    slow spell misreads either end by less than a tenth.
    """
    h = np.zeros(32)
    c = np.zeros(32)
    for x in _X:
        z = x @ _W + h @ _U
        gates = 1.0 / (1.0 + np.exp(-z[:96]))
        c = gates[32:64] * c + gates[:32] * np.tanh(z[96:])
        h = gates[64:] * np.tanh(c)
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    for _ in range(35):
        np.tanh(_H @ _W4)


# (reference seconds so far, raw CPU time at the end of the last burst,
#  speed factor of the open segment, bursts so far); replaced whole, never
#  mutated, so a reader sees one consistent state
_state: tuple[float, float, float, int] = (0.0, 0.0, 1.0, 0)
_recent: list[float] = []
_samples: list[float] = []
_running = False
_busy = False


def _factor(seconds: float) -> float:
    _recent.append(seconds)
    del _recent[:-SMOOTHING]
    return REFERENCE_S / statistics.median(_recent)


def _tick(signum=None, frame=None) -> None:
    global _state, _busy
    if _busy:  # the timer fell due during a burst (about one tick in 25)
        return
    _busy = True
    reference, end, factor, count = _state
    start = time.thread_time()
    reference += (start - end) * factor
    burst()
    seconds = time.thread_time() - start
    _samples.append(seconds)
    _state = (reference, time.thread_time(), _factor(seconds), count + 1)
    _busy = False


def clock() -> float:
    """Reference CPU seconds while the track runs, else thread CPU seconds."""
    if not _running:
        return time.thread_time()
    while True:
        state = _state
        now = time.thread_time()
        if state is _state:  # no burst ran in between
            reference, end, factor, _ = state
            return reference + (now - end) * factor


def start() -> None:
    """Start the track: warm the burst up, then tick every ``INTERVAL_S``."""
    global _running
    if _running:
        return
    for _ in range(2 * SMOOTHING):
        _tick()
    _running = True
    signal.signal(signal.SIGPROF, _tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    global _running
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    signal.signal(signal.SIGPROF, signal.SIG_DFL)
    _running = False


def summary() -> dict:
    """How fast the CPU ran while the track was on, relative to the reference."""
    if not _samples:
        return {"bursts": 0}
    ordered = sorted(_samples)
    return {
        "bursts": len(ordered),
        "burst_median_s": statistics.median(ordered),
        "burst_p10_s": ordered[len(ordered) // 10],
        "burst_p90_s": ordered[(9 * len(ordered)) // 10],
        "reference_s": REFERENCE_S,
    }
