"""A fixed reference loop that takes the machine's speed out of timings.

On a small shared VM the same pure-Python loop runs at full speed or at about
half of it, switching within milliseconds, and can stay mostly slow or mostly
fast for seconds to minutes.  Every timing the benchmark takes is therefore
paired with samples of a fixed reference loop, run in the same process while
it runs, and rescaled to a machine on which one sample takes exactly
NOMINAL_S:

    rescaled = raw * NOMINAL_S / (mean of the samples during and around it)

In a pass, a timer interrupts the program every SAMPLE_EVERY_S to run one
sample, whatever covtt is doing, and the clock the pass times with stops
while it runs.  As the speed switches within milliseconds, the mean of many
samples, not their median, tracks how slow an interval was.

The loop does the kind of work covtt does (calls, small and big integer
arithmetic, dict lookups, short strings) but imports nothing from covtt and
allocates no container the garbage collector tracks, so no change to covtt
can change its time.  A change that makes covtt faster makes the reported
times smaller; a machine that gets slower moves them far less than it moves
the raw times (code does not all slow by the loop's factor).
"""

from __future__ import annotations

import signal
import time

clock = time.perf_counter

# One reference sample on the 2-vCPU VM the benchmark was tuned on, in its
# fast phase (Python 3.11).  The value only fixes the scale of the reported
# times; any constant would do, as long as it never changes.
NOMINAL_S = 0.004
SAMPLE_EVERY_S = 0.1
NEAREST = 6


def _pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def _walk(a: int, b: int, n: int) -> int:
    # a loop, not recursion: a sample may interrupt covtt near the recursion limit
    for _ in range(n):
        a, b = b, _pair(a, b) & 0xFFFFFFFFFFFFFFFFFFFF
    return a ^ b


def _loop() -> int:
    table = {}
    acc = 0
    for i in range(6000):
        k = (i * 2654435761) & 0x3FF
        acc = (acc + table.get(k, i)) & 0xFFFFFFF
        table[k] = acc ^ i
    for i in range(300):
        acc ^= _walk(i, i + 1, 24)
        acc += len(str(acc & 0xFFFFFFFFFF))
    return acc


def samples(n: int) -> list[float]:
    """Seconds for each of n runs of the reference loop."""
    out = []
    for _ in range(n):
        t = clock()
        _loop()
        out.append(clock() - t)
    return out


class PassClock:
    """A clock that stops while the reference loop runs.

    Between start() and stop(), SIGALRM runs one reference sample every
    SAMPLE_EVERY_S.  now() leaves out the time spent in samples, so a sample
    taken inside a timed interval does not lengthen it.
    """

    def __init__(self):
        self.paused = 0.0
        self.refs: list[tuple[float, float]] = []   # (now() at the sample, seconds)
        self._sampling = False
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def now(self) -> float:
        # a sample may run between any two bytecodes: retry if one ran
        # between reading the pause total and the clock
        while True:
            paused = self.paused
            t = clock()
            if paused == self.paused:
                return t - paused

    def sample(self):
        if self._sampling:
            return
        self._sampling = True
        t = clock()
        _loop()
        end = clock()
        self.refs.append((t - self.paused, end - t))
        self.paused += end - t
        self._sampling = False

    def reference(self, start: float | None = None, end: float | None = None) -> float:
        """Mean of the samples taken during [start, end], or of the NEAREST
        samples when fewer were; of all samples when no interval is given."""
        if start is None:
            return sum(r for _, r in self.refs) / len(self.refs)

        def distance(ref):
            t = ref[0]
            return start - t if t < start else (t - end if t > end else 0.0)
        near = sorted(self.refs, key=distance)
        inside = sum(1 for ref in near if distance(ref) == 0.0)
        near = near[:max(inside, NEAREST)]
        return sum(r for _, r in near) / len(near)

    def rescale(self, start: float, end: float) -> float:
        return (end - start) * NOMINAL_S / self.reference(start, end)
