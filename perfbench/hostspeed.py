"""Host-speed reference: takes the host's drift out of the benchmark's times.

On a shared host the same pass can take 1.6 s or 3 s a minute apart
(range_limit on a 2-vCPU Intel Xeon KVM guest), because other tenants'
load changes how fast a vCPU runs; the process is not descheduled, so its
CPU time drifts with its wall time. While a
pass runs, a timer interrupts it every INTERVAL_S seconds and times a
short reference chunk that calls no cvqkd code. Over the pass,

    normalized = (elapsed - time spent in chunks) * mean(NOMINAL / chunk time)

which is the time the pass would take at the host speed at which the chunk
takes its nominal time. The chunks run on the same thread as the
workload, so they see the same host speed; a chunk that is due while the
workload is inside a C call runs when the call returns.

There is one chunk per kind of work, since a busy host slows each kind
by a different amount: "python" is an interpreter loop (the optimizer
workloads), "numpy" draws and transforms an array of normal variates (the
Monte Carlo workload) and "import" unmarshals the code object of a small
generated module, the bulk of what importing a package does (set-up).
Their nominal times were taken on that guest (Python 3.11, numpy 2.4).
They only set the scale: runs compared on one host share it, so they need
no re-tuning elsewhere.
"""

from __future__ import annotations

import marshal
import math
import signal
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.01


def _python_chunk() -> float:
    s = 0.0
    for i in range(1, 300):
        s += math.log(i) * 0.5 + (i % 7) / (i + 1.0)
    return s


class _NumpyChunk:
    def __init__(self):
        import numpy

        self.rng = numpy.random.default_rng(0)
        self.buf = numpy.empty(4096)
        self.exp = numpy.exp

    def __call__(self) -> float:
        self.rng.standard_normal(out=self.buf)
        self.exp(self.buf, out=self.buf)
        return float(self.buf.sum())


class _ImportChunk:
    def __init__(self):
        source = "\n".join(
            f"class C{i}:\n"
            f"    name = 'c{i}'\n"
            f"    def m(self, x, y={i}):\n"
            f"        return [x, y, 'k{i}', {i}.25]\n"
            f"def f{i}(*a, **k):\n"
            f"    return C{i}().m(*a, **k)"
            for i in range(50))
        self.blob = marshal.dumps(compile(source, "<reference>", "exec"))

    def __call__(self):
        return marshal.loads(self.blob)


# reference name -> (chunk factory, nominal chunk time in seconds). The
# nominal times are 5th percentiles on that host: of back-to-back chunks for
# "python" and "numpy"; for "import", of chunks sampled during set-up, where
# imports keep the chunk's data out of cache and it takes twice as long.
REFERENCES = {
    "python": (lambda: _python_chunk, 58e-6),
    "numpy": (_NumpyChunk, 66e-6),
    "import": (_ImportChunk, 130e-6),
}


class HostSpeed:
    """Samples the reference chunk while in a ``with`` block."""

    def __init__(self, reference: str):
        factory, self.nominal = REFERENCES[reference]
        self.chunk = factory()
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.chunk()
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy_s(self) -> float:
        """Time spent in reference chunks."""
        return sum(self.samples)

    @property
    def factor(self) -> float:
        """Mean of nominal / measured chunk time: below 1 on a slow host."""
        if not self.samples:
            raise RuntimeError("no host-speed sample: block shorter than "
                               f"{INTERVAL_S} s")
        return fmean([self.nominal / s for s in self.samples])

    def normalize(self, seconds: float) -> float:
        """``seconds`` measured across the block, less the chunks' time,
        at nominal host speed."""
        return (seconds - self.busy_s) * self.factor
