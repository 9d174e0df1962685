"""A fixed reference loop that measures how fast the machine runs right now.

The loop does the two kinds of work the kendalltrans commands spend their
time on, without calling kendalltrans: interpreted Python (it formats floats
into CSV text, parses them back and counts tuples of small integers) and
numpy over a pair-sized array (differences, signs and a relabelling
``np.unique``).  A shared host can slow one kind and not the other, so the
loop holds about as much of each.  Its inputs never change, so its time
changes only with the speed the host gives this process; run.py divides
every op's time by it.

On a shared 2-CPU x86-64 VM, over the 20-second windows of runs of three
to five minutes, scaling by a loop of this make (at about twice this size)
took the quartile spread of the median round from 0.24 to 0.06 on files,
from 0.22 to 0.06 on simulate and from 0.15 to 0.06 on score.  The
interpreted half alone did better on files and simulate (0.04 and 0.03)
but left score at 0.14; the numpy half alone brought score to 0.05 but
files and simulate only to 0.09 and 0.08.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np


class ReferenceLoop:
    """Times one pass of the fixed reference work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((750, 6)).tolist()
        self.pairs = list(zip(rng.integers(0, 30, 25000).tolist(),
                              rng.integers(0, 30, 25000).tolist()))
        n = 400
        self.x = rng.standard_normal(n)
        self.a = np.repeat(np.arange(n), n - 1)
        b = np.tile(np.arange(n - 1), n)
        self.b = b + (b >= self.a)
        self.labels = rng.integers(0, 3, self.a.size)

    def time(self) -> float:
        """Seconds for one pass."""
        start = perf_counter()
        text = "\n".join(",".join(repr(v) for v in row) for row in self.rows)
        parsed = [[float(cell) for cell in line.split(",")] for line in text.split("\n")]
        counts = Counter(self.pairs)
        signs = np.sign(self.x[self.b] - self.x[self.a]).astype(np.int64)
        states, relabelled = np.unique(3 * signs + self.labels, return_inverse=True)
        elapsed = perf_counter() - start
        if (parsed != self.rows or sum(counts.values()) != len(self.pairs)
                or states.size != 6 or relabelled.size != self.a.size):
            raise RuntimeError("reference loop computed a wrong result")
        return elapsed
