"""Samples the host's speed during a job, to express job times at one fixed speed.

On a shared host one core's speed drifts by half again over seconds to
minutes (clock boost and neighbours on the same physical core): the same
cold ``scan`` job reads 2.6 s in one minute and 4.4 s in the next, and
no statistic over a 40 s run removes drift that lasts longer than the
run.  A probe timed at the same moments as the job does.  ``start()``
arms a wall-clock timer; every ``INTERVAL_S`` its signal handler runs a
fixed probe and records how long it took.  ``scale(t0, t1)`` is the mean
of ``REFERENCE_S / probe time`` over the probes inside the window, so a
raw time multiplied by it is the time the job would take on a host whose
speed stays at the reference.  The probe does what ``harmlat`` spends
its time on, sums of multi-hundred-bit integers gathered through an
index table (as in the walk rows and the Laplacian cascade), and the
mean of speeds weighs every moment of the window alike.

The probe never touches ``harmlat``, so jobs stay cold; it records into
``array``s, so it creates no objects the cyclic garbage collector counts.
It costs about 2 % of the job, the same share in every job.  The
handler runs between bytecodes of the main thread, so it waits for a
long C call to return; the window then has fewer probes, not wrong ones.
"""

from __future__ import annotations

import signal
import time
from array import array

INTERVAL_S = 0.01
REFERENCE_S = 150e-6  # probe time at the reference speed, near this host's usual one
MIN_PROBES = 5  # a window with fewer probes is scaled by all probes of the process

_BIG = tuple(3**300 + i * 7**100 for i in range(64))
_IDX = tuple((i * 37) % 64 for i in range(2048))

_at = array("d")
_took = array("d")


def _probe() -> int:
    acc = 0
    for j in _IDX:
        acc += _BIG[j]
    return acc


def _on_alarm(signum, frame) -> None:
    t = time.perf_counter()
    _probe()
    _took.append(time.perf_counter() - t)
    _at.append(t)


def start() -> None:
    """Begin probing; windows are given in ``time.perf_counter`` seconds."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(t0: float, t1: float) -> tuple[float, int]:
    """(REFERENCE_S / probe time averaged over [t0, t1], probes used)."""
    took = [dt for at, dt in zip(_at, _took) if t0 <= at <= t1]
    if len(took) < MIN_PROBES:
        took = list(_took)
    if not took:
        raise RuntimeError("no speed probe ran; the job is too short to scale")
    return REFERENCE_S * sum(1 / dt for dt in took) / len(took), len(took)


if __name__ == "__main__":
    for _ in range(10):
        t = time.perf_counter()
        _probe()
        print(f"{(time.perf_counter() - t) * 1e6:.0f} us")
