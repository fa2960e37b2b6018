"""Counter-based pseudo-random function used for all seeded draws.

Every random choice in the package (environment sites, walk symbols,
start-site draws) is a pure function of a 64-bit seed plus an integer
index tuple, evaluated through a splitmix64-style mixing chain.  That
gives O(1) random access at any lattice site or (walk, step) pair and
bit-identical results regardless of evaluation order, chunking, or
thread scheduling.  A Markov chain is drawn a block of steps at a
time: one PRF round over the block's counters and one pick per state
give every state's candidate next state, and a select pass then
follows the chain through them (markov_path, markov_paths).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

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
    two's-complement 64-bit image.  The round's constant is added to
    ``k`` first, so a scalar ``k`` or a short column of step counters
    broadcast over ``h`` costs one pass of adds; with ``out`` (a uint64
    array of the result's shape) the round runs in place there, so per
    element it is one add, three shift-xors and two multiplies.
    """
    return _mix_in_place(_absorb(h, k, out))


def _absorb(h: np.ndarray | int, k: np.ndarray | int, out: np.ndarray | None) -> np.ndarray:
    """The add that starts an absorb round: h + k + the round constant."""
    if isinstance(k, np.ndarray):
        return np.add(_to_u64(h), _to_u64(k) + np.uint64(_GOLDEN), out=out)
    return np.add(_to_u64(h), _to_u64(_GOLDEN + k), out=out)


def _to_u64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    if isinstance(x, np.ndarray):
        return x if x.dtype == np.uint64 else x.astype(np.int64, copy=False).view(np.uint64)
    return np.uint64(x & _MASK)


# mix64's last step, z ^= z >> 31, changes only bits 0..32
_LAST_XOR_BITS = np.uint64((1 << 33) - 1)


def _mix_in_place(z: np.ndarray, last: bool = True) -> np.ndarray:
    """mix64 on every element of a uint64 array, in place; with
    last=False, all of it but the final shift-xor."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2), (31, None))[: 3 if last else 2]:
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if mult is not None:
            np.multiply(z, np.uint64(mult), out=z)
    return z


def hash_u64_array(seed: int, *indices: int, array: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hash_u64` with ``array`` as the final index."""
    return absorb_array(hash_u64(seed, *indices), array)


def hash_u64_seeds(seeds: np.ndarray, *indices: int) -> np.ndarray:
    """Vectorized :func:`hash_u64` over an array of seeds: entry i is
    ``hash_u64(seeds[i], *indices)``."""
    h = _mix_in_place(_to_u64(seeds).copy())
    for k in indices:
        h = absorb_array(h, k, out=h)
    return h


def choice_thresholds(weights: tuple[Fraction, ...]) -> np.ndarray:
    """Interior cumulative 64-bit edges for categorical draws.

    Category c covers the u64 range [edge[c-1], edge[c]), with implicit
    outer edges 0 and 2^64, so probabilities match the exact rational
    weights to within 2^-64 per interior edge.  A zero weight repeats an
    edge, so its category is never drawn; the edges after the last
    positive weight sit at 2^64, which no draw reaches, and are left
    out.  An empty array means a single certain category.
    """
    total = sum(weights)
    if total != 1:
        raise ValueError(f"weights sum to {total}, expected 1")
    cum = Fraction(0)
    edges = []
    for w in weights[:-1]:
        cum += w
        if cum == 1:
            break
        edges.append(int(cum * (1 << 64)))
    return np.array(edges, dtype=np.uint64)


def pick(thresholds: np.ndarray | list[int], u: int) -> int:
    """Scalar categorical draw from interior edges: the number of edges
    ``<= u``, as ``np.searchsorted(thresholds, u, side="right")``.  A
    caller drawing many sites from one law passes the edges as a list
    of ints, which saves converting the array on every draw."""
    if isinstance(thresholds, np.ndarray):
        thresholds = thresholds.tolist()
    return bisect_right(thresholds, u)


def pick_array(
    thresholds: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized categorical draw from interior edges.

    Counts the edges ``<= u`` one edge at a time, which equals
    ``np.searchsorted(thresholds, u, side="right")`` and for the few
    edges of a categorical law is several times faster: the first
    edge's comparison is written straight into the count, and each
    later one added to it.  The count is written to ``out`` (an integer
    array of u's shape, int64 by default) when given.
    """
    if out is None:
        out = np.empty(np.shape(u), dtype=np.int64)
    if len(thresholds) == 0:
        out[...] = 0
        return out
    np.greater_equal(u, thresholds[0], out=out)
    if len(thresholds) > 1:
        hit = np.empty(out.shape, dtype=bool)
        for edge in thresholds[1:]:
            np.greater_equal(u, edge, out=hit)
            out += hit
    return out


def pick_keyed(
    thresholds: np.ndarray,
    h: np.ndarray | int,
    k: np.ndarray | int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Categorical draws straight from (stream, counter) pairs: equal to
    ``pick_array(thresholds, absorb_array(h, k))``.

    The last step of mix64, ``z ^= z >> 31``, leaves bits 63..33 as
    they are, so when every edge has its low 33 bits zero, ``u >= edge``
    holds exactly when ``z >= edge`` does before that step, and the
    step is skipped.  That is the case for dyadic cell measures (the
    doubling map's halves, the quadruple map's quarters).  ``work`` is
    an optional uint64 scratch array of the result's shape for the
    mixed draws; ``out`` receives the picks as in pick_array.
    """
    last = bool(np.any(thresholds & _LAST_XOR_BITS))
    return pick_array(thresholds, _mix_in_place(_absorb(h, k, work), last), out=out)


def markov_path(u: np.ndarray, rows: Sequence[np.ndarray], state: int) -> list[int]:
    """One Markov chain driven by the draws ``u``, from ``state``.

    ``rows[s]`` holds the interior edges of the step out of state s, so
    draw ``u[t]`` moves the chain from s to ``pick(rows[s], u[t])``.
    One pick_array per row gives every state's candidate for every draw,
    and a pass over Python lists follows the chain through them.
    Returns the state after each draw.
    """
    candidates = [pick_array(row, u).tolist() for row in rows]
    path = []
    for t in range(len(u)):
        state = candidates[state][t]
        path.append(state)
    return path


def markov_paths(
    u: np.ndarray, rows: Sequence[np.ndarray], state: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Many Markov chains at once: :func:`markov_path` for every column.

    ``u`` is a (steps x chains) array of draws and ``state`` the chains'
    states before the first row.  Every state's candidates are picked
    into one (states x steps x chains) table, then each step is one
    gather from it across all chains.  Row t of ``out`` (an integer
    array of u's shape) receives the states after draw t.
    """
    steps, n = u.shape
    candidates = np.empty((len(rows),) + u.shape, dtype=out.dtype)
    for row, cand in zip(rows, candidates):
        pick_array(row, u, out=cand)
    flat = candidates.ravel()
    stride = np.int64(steps * n)
    # flat index of chain c's candidate at step t, less the state's term
    base = np.arange(n, dtype=np.int64)
    idx = np.empty(n, dtype=np.int64)
    prev = state
    for t in range(steps):
        np.multiply(prev, stride, out=idx)
        idx += base
        # every index is in range; "clip" lets take write out unbuffered
        np.take(flat, idx, out=out[t], mode="clip")
        prev = out[t]
        base += n
    return out
