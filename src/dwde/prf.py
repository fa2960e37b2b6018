"""Counter-based pseudo-random function used for all seeded draws.

Every random choice in the package (environment sites, walk symbols,
start-site draws) is a pure function of a 64-bit seed plus an integer
index tuple, evaluated through a splitmix64-style mixing chain.  That
gives O(1) random access at any lattice site or (walk, step) pair and
bit-identical results regardless of evaluation order, chunking, or
thread scheduling.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Domain-separation constants so that e.g. environment draws and walk
# draws keyed on the same seed never collide.
DOMAIN_ENV = 0xE5F1A9C3D7B50211
DOMAIN_WALK = 0x1B2E4C8A9F3D6075
DOMAIN_START = 0x7A3C5E9B1D4F8027
DOMAIN_SEED = 0x4D9F2B6E8C1A7353


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def hash_u64(seed: int, *indices: int) -> int:
    """Hash a seed and an index tuple to a uniform 64-bit value."""
    h = mix64(seed & _MASK)
    for k in indices:
        h = mix64((h + _GOLDEN + (k & _MASK)) & _MASK)
    return h


def absorb_array(
    h: np.ndarray | int, k: np.ndarray | int, out: np.ndarray | None = None
) -> np.ndarray:
    """One absorb-and-mix round; vector twin of the scalar chain step.

    Either argument may be a scalar or a uint64/int64 array, as long as
    one is an array; negative integers are absorbed via their
    two's-complement 64-bit image.  A scalar ``k`` is folded into the
    round's constant, and with ``out`` (a uint64 array of the result's
    shape) the round runs in place there, so per step of a walk it is
    one add, three shift-xors and two multiplies.
    """
    def to_u64(x):
        if isinstance(x, np.ndarray):
            return x if x.dtype == np.uint64 else x.astype(np.int64, copy=False).view(np.uint64)
        return np.uint64(x & _MASK)

    if isinstance(k, np.ndarray):
        z = np.add(to_u64(h), to_u64(k), out=out)
        np.add(z, np.uint64(_GOLDEN), out=z)
    else:
        z = np.add(to_u64(h), to_u64(_GOLDEN + k), out=out)
    tmp = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if mult is not None:
            np.multiply(z, np.uint64(mult), out=z)
    return z


def hash_u64_array(seed: int, *indices: int, array: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hash_u64` with ``array`` as the final index."""
    return absorb_array(hash_u64(seed, *indices), array)


def choice_thresholds(weights: tuple[Fraction, ...]) -> np.ndarray:
    """Interior cumulative 64-bit edges for categorical draws.

    Category c covers the u64 range [edge[c-1], edge[c]), with implicit
    outer edges 0 and 2^64, so probabilities match the exact rational
    weights to within 2^-64 per interior edge.  Returns len(weights)-1
    edges; an empty array means a single certain category.
    """
    total = sum(weights)
    if total != 1:
        raise ValueError(f"weights sum to {total}, expected 1")
    cum = Fraction(0)
    edges = []
    for w in weights[:-1]:
        cum += w
        edges.append(int(cum * (1 << 64)))
    return np.array(edges, dtype=np.uint64)


def pick(thresholds: np.ndarray, u: int) -> int:
    """Scalar categorical draw from interior edges."""
    return int(np.searchsorted(thresholds, np.uint64(u), side="right"))


def pick_array(
    thresholds: np.ndarray, u: np.ndarray, out: np.ndarray | None = None, base=0
) -> np.ndarray:
    """Vectorized categorical draw from interior edges.

    Counts the edges ``<= u`` one edge at a time, which equals
    ``np.searchsorted(thresholds, u, side="right")`` and for the few
    edges of a categorical law is several times faster.  The count is
    added to ``base`` (a scalar or an array of u's shape) and written
    to ``out`` (int64) when given.
    """
    if out is None:
        out = np.empty(np.shape(u), dtype=np.int64)
    out[...] = base
    hit = np.empty(out.shape, dtype=bool)
    for edge in thresholds:
        np.greater_equal(u, edge, out=hit)
        out += hit
    return out
