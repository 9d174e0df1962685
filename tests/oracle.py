"""Test oracles: plain, unoptimised forms of what the package computes.

The package's fast paths are checked against these helpers; none of them is
used by the package itself.
"""

import numpy as np


def _count_pairs_brute(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int]:
    """Direct O(n^2) ordered-pair counter, the reference for the merge-sort one."""
    if xs.size < 2:
        return 0, 0
    gx, lx = xs[:, None] > xs[None, :], xs[:, None] < xs[None, :]
    gy, ly = ys[:, None] > ys[None, :], ys[:, None] < ys[None, :]
    concordant = np.count_nonzero(gx & gy) + np.count_nonzero(lx & ly)
    discordant = np.count_nonzero(gx & ly) + np.count_nonzero(lx & gy)
    return int(concordant), int(discordant)


# The plug-in estimators as they were before they shared one count table:
# each entropy re-joins its code arrays and bincounts every position.  The
# non-zero counts come in the lexicographic order of the parts, which fixes
# the summation order that the one-table estimators must reproduce bit for
# bit.

def radix_joint(code_arrays) -> np.ndarray:
    """Joint states of aligned non-negative code arrays, ordered
    lexicographically by their parts and renumbered below the array size."""
    size = code_arrays[0].size
    joint, base = None, 1
    for codes in code_arrays:
        k = int(codes.max()) + 1
        if k > size:
            codes = np.unique(codes, return_inverse=True)[1]
            k = int(codes.max()) + 1
        joint = codes if joint is None else joint.astype(np.int64) * k + codes
        base *= k
        if base > size:
            joint = np.unique(joint, return_inverse=True)[1]
            base = int(joint.max()) + 1
    return joint


def plug_in_entropy(*code_arrays: np.ndarray) -> float:
    """Joint entropy in nats of aligned non-negative codes (0*log 0 := 0)."""
    joint = radix_joint(code_arrays)
    counts = np.bincount(joint)
    counts = counts[counts > 0]
    p = counts / joint.size
    return float(-(p * np.log(p)).sum())


def plug_in_mi(cx, cy) -> float:
    return plug_in_entropy(cx) + plug_in_entropy(cy) - plug_in_entropy(cx, cy)


def plug_in_cmi(cx, cy, cz) -> float:
    return (
        plug_in_entropy(cx, cz)
        + plug_in_entropy(cy, cz)
        - plug_in_entropy(cx, cy, cz)
        - plug_in_entropy(cz)
    )


def plug_in_interaction(cx, cy, cz) -> float:
    return plug_in_mi(cx, cy) - plug_in_cmi(cx, cy, cz)
