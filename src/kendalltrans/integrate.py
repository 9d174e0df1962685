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
from .transform import KendallSequence, Symbol, _pair_arrays, pair_count

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


def merge_transformed(
    batches: Sequence[KendallSequence],
    batch_map: BatchMap | None = None,
) -> KendallSequence:
    """Fuse independently encoded batches of one feature.

    Batch order defines object order in the merged space.  Within-batch
    pairs copy the batch state at the offset-shifted position; cross-batch
    pairs are MISSING.
    """
    batches = list(batches)
    if batch_map is None:
        batch_map = BatchMap.from_sizes([k.n for k in batches])
    if len(batch_map.sizes) != len(batches):
        raise DomainError(
            f"batch map covers {len(batch_map.sizes)} batches, got {len(batches)}"
        )
    for k, (seq, size) in enumerate(zip(batches, batch_map.sizes)):
        if seq.n != size:
            raise DomainError(
                f"batch {k} has n={seq.n}, but the batch map expects {size}"
            )
    total = batch_map.total
    if len(batches) == 1:
        return batches[0]
    a_idx, b_idx = _pair_arrays(total)
    offsets = np.asarray(batch_map.offsets)
    batch_of = np.searchsorted(offsets, np.arange(total), side="right") - 1
    batch_a, batch_b = batch_of[a_idx], batch_of[b_idx]
    out = np.full(pair_count(total), Symbol.MISSING.value, dtype=np.uint8)
    # Within-batch pairs appear in merged row-major order batch by batch and,
    # inside a batch, in that batch's own row-major order.
    out[batch_a == batch_b] = np.concatenate([seq.codes for seq in batches])
    return KendallSequence(out, total)


def complete_fraction(seq: KendallSequence) -> float:
    """Fraction of pair positions carrying an observed (non-MISSING) state."""
    return float((seq.codes != Symbol.MISSING.value).mean())
