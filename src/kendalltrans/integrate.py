"""Merging of independently pair-encoded batches into one sequence space.

Encoding each batch separately strips any per-batch strictly increasing
distortion (a lost-calibration effect), so the encoded batches can be fused
without bias: within-batch pairs keep their states, relations across batches
stay unknown and are marked MISSING.  Downstream estimators skip missing
positions, so the fused system is usable directly for scoring and selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .transform import KendallSequence, Symbol

__all__ = ["BatchMap", "merge_transformed", "complete_fraction"]


@dataclass(frozen=True)
class BatchMap:
    """Placement of disjoint batches inside the merged object space."""

    sizes: tuple[int, ...]
    offsets: tuple[int, ...]

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "BatchMap":
        sizes = tuple(int(s) for s in sizes)
        if not sizes:
            raise DomainError("need at least one batch")
        if any(s < 2 for s in sizes):
            raise DomainError(f"every batch needs n >= 2, got sizes {sizes}")
        offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(sizes)[:-1]]))
        return cls(sizes=sizes, offsets=offsets)

    @property
    def total(self) -> int:
        return sum(self.sizes)


def merge_transformed(batches: Sequence[KendallSequence]) -> KendallSequence:
    """Fuse independently encoded batches of one feature.

    Batch order defines object order in the merged space.  Within-batch
    pairs keep the batch state; cross-batch pairs are MISSING.
    """
    batches = list(batches)
    if not batches:
        raise DomainError("need at least one batch")
    if len(batches) == 1:
        return batches[0]
    total = sum(seq.n for seq in batches)
    out = np.full((total, total - 1), Symbol.MISSING.value, dtype=np.uint8)
    o = 0
    for seq in batches:
        # Row o + a holds its within-batch pairs, in the batch's own order,
        # at the contiguous columns o .. o + n - 2.
        n = seq.n
        out[o : o + n, o : o + n - 1] = seq.codes.reshape(n, n - 1)
        o += n
    return KendallSequence(out.reshape(-1), total)


def complete_fraction(seq: KendallSequence) -> float:
    """Fraction of pair positions carrying an observed (non-MISSING) state."""
    return float((seq.codes != Symbol.MISSING.value).mean())
