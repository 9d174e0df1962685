"""Spans and counters around the public functions of kendalltrans.

The tracer wraps functions from outside the package: every module attribute
that refers to a traced function is replaced by the wrapper, because the
modules import each other's functions by name (``analysis`` calls its own
``kendall_transform`` global, not ``transform.kendall_transform``).  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import os
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "kendalltrans"

#: span name -> (module, function) for every traced function
FUNCTION_SPANS = {
    "cli.main": ("cli", "main"),
    "tableio.read_table": ("tableio", "read_table"),
    "tableio.write_table": ("tableio", "write_table"),
    "tableio.read_transformed": ("tableio", "read_transformed"),
    "tableio.write_transformed": ("tableio", "write_transformed"),
    "transform.kendall_transform": ("transform", "kendall_transform"),
    "transform.copeland_inverse": ("transform", "copeland_inverse"),
    "integrate.merge_transformed": ("integrate", "merge_transformed"),
    "infotheory.mutual_information": ("infotheory", "mutual_information"),
    "infotheory.make_joint": ("infotheory", "make_joint"),
    "infotheory.conditional_mi": ("infotheory", "conditional_mi"),
    "infotheory.interaction_information": ("infotheory", "interaction_information"),
    "analysis.rank_features": ("analysis", "rank_features"),
    "analysis.simulate_multivariate": ("analysis", "simulate_multivariate"),
    "analysis.simulate_integration": ("analysis", "simulate_integration"),
}
#: the unpack step, a property of KendallSequence
CODES_SPAN = "transform.KendallSequence.codes"
SPAN_NAMES = (*FUNCTION_SPANS, CODES_SPAN)

COUNTERS = {
    "tableio.bytes_read": "B/round",
    "tableio.bytes_written": "B/round",
    "transform.pairs_encoded": "count/round",
    "infotheory.pairs_estimated": "count/round",
}

#: spans whose tracemalloc peak is reported per pair, and how pairs are counted
PEAK_SPANS = {
    "transform.kendall_transform": lambda args, result: result.m,
    "infotheory.mutual_information": lambda args, result: len(args[0]),
    "integrate.merge_transformed": lambda args, result: result.m,
}


def _count(name: str, args, result, counts: Counter) -> None:
    if name in ("tableio.read_table", "tableio.read_transformed"):
        counts["tableio.bytes_read"] += os.path.getsize(args[0])
    elif name in ("tableio.write_table", "tableio.write_transformed"):
        counts["tableio.bytes_written"] += os.path.getsize(args[0])
    elif name == "transform.kendall_transform":
        counts["transform.pairs_encoded"] += result.m
    elif name in (
        "infotheory.mutual_information",
        "infotheory.conditional_mi",
        "infotheory.interaction_information",
    ):
        counts["infotheory.pairs_estimated"] += len(args[0])


class Tracer:
    """In-memory spans ``(name, parent, start, end)`` plus counters.

    With ``memory=True`` the caller runs under tracemalloc and the tracer
    records, for each outermost :data:`PEAK_SPANS` call, its pair count and
    the peak bytes allocated above the level at entry.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self._stack: list[int] = []
        self._measuring = False
        self._patches: list[tuple[object, str, object]] = []

    def _call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append(index)
        measure = self.memory and name in PEAK_SPANS and not self._measuring
        if measure:
            self._measuring = True
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end)
            if measure:
                self._measuring = False
                peak = tracemalloc.get_traced_memory()[1] - base
        if measure:
            self.peaks[name].append((PEAK_SPANS[name](args, result), peak))
        _count(name, args, result, self.counts)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside the package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for name, (module, attr) in FUNCTION_SPANS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        seq_class = sys.modules[f"{PACKAGE}.transform"].KendallSequence
        original = vars(seq_class)["codes"]
        self._patches.append((seq_class, "codes", original))
        seq_class.codes = property(self.wrap(CODES_SPAN, original.fget), doc=original.__doc__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple[str, int, float, float]]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, parent, start, end) in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, memory: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round span calls, self time and counters, plus per-pair memory peaks."""
    calls: Counter = Counter()
    busy: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        busy[name] += own
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / rounds, "count/round")
        out[f"{name}.self_s"] = (busy[name] / rounds, "s/round")
    for name, unit in COUNTERS.items():
        out[name] = (tracer.counts[name] / rounds, unit)
    for name in PEAK_SPANS:
        # the largest call shows the per-pair cost; small calls show fixed overhead
        samples = memory.peaks.get(name, [])
        pairs, peak = max(samples, default=(1, 0))
        out[f"{name}.peak_bytes_per_pair"] = (peak / pairs, "B/pair")
    return out
