"""Host-speed probe that rescales measured times to a fixed host speed.

On a shared two-vCPU Intel Xeon virtual machine (2.1 GHz) the same
vol-gamma-g3 run took anywhere from 2.3 s to 4.8 s depending on the
load of other tenants, in swings that last minutes, so medians of
30-second runs spread by 18 % (IQR over median).  A calibration loop
timed before and after a run, or on the other vCPU, did not follow
these swings; one interleaved with the run on the same vCPU does, and
brings the spread to 1-3 %.

So every 10 ms of wall time a SIGALRM handler runs a fixed piece of
Python (small objects, attribute access, dict stores, complex
arithmetic, like pleatbend's own inner loops) and records how long it
took.  The probe's mean duration over a phase, with its slowest tenth
dropped, measures the host's speed during exactly that phase.  A phase
time is then reported as

    (raw time - time spent in the probe) * REF_PROBE_S / probe mean,

the time the phase would have taken on a host where one probe takes
REF_PROBE_S.  The probe never touches pleatbend, so a change to the
program moves these times in proportion to the raw ones.  The probe
costs about 0.4 % of the run.
"""

import cmath
import signal
import time

INTERVAL_S = 0.01
REF_PROBE_S = 40e-6      # never change: it fixes the unit of every time
MIN_SAMPLES = 5


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _probe() -> None:
    table = {}
    z = complex(0.3, 0.4)
    for i in range(60):
        p = _Pair(z * i, (i, z))
        table[i & 15] = p.a + p.b[1]
        z = cmath.sqrt(z * z + 0.1)


class HostSpeed:
    """Interleaved probe samples; phases are delimited by ``mark()``."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def spent(self, since: int, until: int) -> float:
        """Seconds the probe itself took between two marks."""
        return sum(self.samples[since:until])

    def factor(self, since: int, until: int) -> float:
        """REF_PROBE_S over the trimmed mean probe time between two
        marks; all samples so far when the phase had too few."""
        window = self.samples[since:until]
        if len(window) < MIN_SAMPLES:
            window = self.samples[:until]
        window = sorted(window)[:max(1, len(window) * 9 // 10)]
        return REF_PROBE_S * len(window) / sum(window)

    def rescale(self, raw: float, since: int, until: int) -> float:
        """A phase time between two marks, at the reference host speed."""
        return (raw - self.spent(since, until)) * self.factor(since, until)
