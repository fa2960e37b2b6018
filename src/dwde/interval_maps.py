"""Piecewise-linear expanding Markov maps of [0, 1] with exact rational data.

The partition is 0 = b_0 < b_1 < ... < b_K = 1 with cells
a_j = [b_j, b_{j+1}) (0-indexed; x = 1 belongs to the last cell).  Every
branch is affine x -> s*x + t with |s| > 1 and must carry its cell onto
an exact union of cells, which makes every cylinder an interval with a
rational length computable by pulling endpoints back through branches.
Maps are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, log
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import prf
from .errors import (
    BadPartitionError,
    EnumerationTooLargeError,
    NonExpandingError,
    NonMarkovImageError,
    OutOfDomainError,
)

RationalLike = Fraction | int | str

DEFAULT_ENUMERATION_CAP = 10**7

Word = tuple[int, ...]


def as_fraction(value: RationalLike) -> Fraction:
    """Parse exact rational input ('p/q' strings, ints, Fractions)."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass an exact rational")
    return Fraction(value)


@dataclass(frozen=True)
class MarkovIntervalMap:
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    intercepts: tuple[Fraction, ...]
    image_sets: tuple[tuple[int, ...], ...]

    @property
    def num_cells(self) -> int:
        return len(self.slopes)

    @cached_property
    def measures(self) -> tuple[Fraction, ...]:
        b = self.breakpoints
        return tuple(b[j + 1] - b[j] for j in range(self.num_cells))

    @cached_property
    def full_branch(self) -> bool:
        everything = tuple(range(self.num_cells))
        return all(s == everything for s in self.image_sets)

    @cached_property
    def image_measures(self) -> tuple[Fraction, ...]:
        """m(T a_j) per cell."""
        return tuple(
            sum((self.measures[k] for k in imset), Fraction(0))
            for imset in self.image_sets
        )

    @cached_property
    def symbol_law(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The symbol chain of the coding under Lebesgue measure: per cell
        j, the pairs (k, m(a_k) / m(T a_j)) over the cells k of T a_j."""
        return tuple(
            tuple((k, self.measures[k] / self.image_measures[j]) for k in image)
            for j, image in enumerate(self.image_sets)
        )

    @cached_property
    def symbol_rows(self) -> tuple[np.ndarray, ...]:
        """Edges (prf.choice_thresholds) of symbol_law.

        Row j is the law of the symbol after j, 0 off the cells of T a_j,
        so a pick from it is a cell index; the last row, the chain's
        start state, is the marginal law m(a_k).  On a full-branch map
        every row is the marginal law.
        """
        rows = []
        for pairs in self.symbol_law:
            law = [Fraction(0)] * self.num_cells
            for k, p in pairs:
                law[k] = p
            rows.append(prf.choice_thresholds(law))
        rows.append(prf.choice_thresholds(self.measures))
        return tuple(rows)

    def cell_of(self, x: Fraction) -> int:
        """Index of the cell containing x; x = 1 belongs to the last cell."""
        if x < 0 or x > 1:
            raise OutOfDomainError(f"{x} is outside [0, 1]")
        if x == 1:
            return self.num_cells - 1
        lo, hi = 0, self.num_cells - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if x < self.breakpoints[mid + 1]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def cell_interval(self, j: int) -> tuple[Fraction, Fraction]:
        return self.breakpoints[j], self.breakpoints[j + 1]

    def coding(self, x: Fraction) -> Iterator[int]:
        """The symbols of x, Tx, T^2 x, ... without end: the exact orbit
        coder, equal step for step to cell_of and apply on Fractions.

        The point is an integer numerator N over a denominator D, and its
        cell is found by integer compares of N against the interior
        breakpoints times D.  With slopes and intercepts over their lcm
        S, a step is N <- (S s) N + (S t) D and D <- S D.  S = 1 for
        integer branches, so D and the scaled breakpoints stay fixed and
        a step is one multiplication by a small integer and one add.
        OutOfDomainError on the first symbol when x is outside [0, 1].
        """
        if x < 0 or x > 1:
            raise OutOfDomainError(f"{x} is outside [0, 1]")
        scale, slopes, intercepts, common, interior = self._integer_branches
        # N / D = x with D = x.denominator * common, so that every
        # breakpoint times D is an integer
        n = x.numerator * common
        thresholds = [b * x.denominator for b in interior]
        shifts = [t * x.denominator * common for t in intercepts]
        while True:
            j = bisect_right(thresholds, n)
            yield j
            n = slopes[j] * n + shifts[j]
            if scale != 1:
                thresholds = [b * scale for b in thresholds]
                shifts = [t * scale for t in shifts]

    @cached_property
    def _integer_branches(self) -> tuple[int, list[int], list[int], int, list[int]]:
        """(S, slopes * S, intercepts * S, L, interior breakpoints * L) with
        S the lcm of the branch denominators and L the interior
        breakpoints'."""
        scale = lcm(*(v.denominator for v in self.slopes + self.intercepts))
        interior = self.breakpoints[1:-1]
        common = lcm(*(b.denominator for b in interior))
        return (
            scale,
            [s.numerator * (scale // s.denominator) for s in self.slopes],
            [t.numerator * (scale // t.denominator) for t in self.intercepts],
            common,
            [b.numerator * (common // b.denominator) for b in interior],
        )


def build_map(
    breakpoints: Sequence[RationalLike],
    branches: Sequence[tuple[RationalLike, RationalLike]],
) -> MarkovIntervalMap:
    """Validate and construct a map from breakpoints and (slope, intercept) pairs.

    Raises BadPartitionError, NonExpandingError, or NonMarkovImageError
    when the data does not describe an expanding Markov map.
    """
    bps = tuple(as_fraction(b) for b in breakpoints)
    if len(bps) < 3:
        raise BadPartitionError("need at least two cells (K >= 2)")
    if bps[0] != 0 or bps[-1] != 1:
        raise BadPartitionError("breakpoints must start at 0 and end at 1")
    if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
        raise BadPartitionError("breakpoints must be strictly increasing")
    if len(branches) != len(bps) - 1:
        raise BadPartitionError(
            f"{len(bps) - 1} cells but {len(branches)} branches"
        )

    slopes = tuple(as_fraction(s) for s, _ in branches)
    intercepts = tuple(as_fraction(t) for _, t in branches)
    for j, s in enumerate(slopes):
        if abs(s) <= 1:
            raise NonExpandingError(f"branch {j} has |slope| = {abs(s)} <= 1")

    index_of_breakpoint = {b: i for i, b in enumerate(bps)}
    image_sets = []
    for j, (s, t) in enumerate(zip(slopes, intercepts)):
        ends = sorted((s * bps[j] + t, s * bps[j + 1] + t))
        lo, hi = ends
        if lo not in index_of_breakpoint or hi not in index_of_breakpoint:
            raise NonMarkovImageError(
                f"branch {j} image [{lo}, {hi}] does not align with breakpoints"
            )
        image_sets.append(
            tuple(range(index_of_breakpoint[lo], index_of_breakpoint[hi]))
        )
    return MarkovIntervalMap(bps, slopes, intercepts, tuple(image_sets))


def apply(m: MarkovIntervalMap, x: RationalLike) -> Fraction:
    """One step of the base map at an exact point."""
    x = as_fraction(x)
    j = m.cell_of(x)
    y = m.slopes[j] * x + m.intercepts[j]
    # x = 1 on the last branch may map to an endpoint of the image; clamp
    # into [0, 1] is never needed because images align with breakpoints,
    # but an image endpoint of 1 is legal.
    return y


def orbit(m: MarkovIntervalMap, x: RationalLike, n: int) -> list[Fraction]:
    """The points x, Tx, ..., T^n x."""
    pts = [as_fraction(x)]
    for _ in range(n):
        pts.append(apply(m, pts[-1]))
    return pts


def symbols_of_orbit(m: MarkovIntervalMap, x: RationalLike, n: int) -> Word:
    """The first n symbols of the coding of x (MarkovIntervalMap.coding)."""
    return tuple(j for _, j in zip(range(n), m.coding(as_fraction(x))))


def is_admissible(m: MarkovIntervalMap, word: Iterable[int]) -> bool:
    word = tuple(word)
    if not word:
        return False
    if any(not 0 <= w < m.num_cells for w in word):
        return False
    return all(b in m.image_sets[a] for a, b in zip(word, word[1:]))


def cylinder_interval(
    m: MarkovIntervalMap, word: Iterable[int]
) -> tuple[Fraction, Fraction] | None:
    """Endpoints of the interval [w_0, ..., w_{n-1}], or None if empty.

    Computed by pulling the terminal cell back through the affine
    branches; exact, and the source of cylinder_measure.
    """
    word = tuple(word)
    if not is_admissible(m, word):
        return None
    lo, hi = m.cell_interval(word[-1])
    for j in reversed(word[:-1]):
        s, t = m.slopes[j], m.intercepts[j]
        a, b = (lo - t) / s, (hi - t) / s
        lo, hi = (a, b) if a <= b else (b, a)
    return lo, hi


def cylinder_measure(m: MarkovIntervalMap, word: Iterable[int]) -> Fraction:
    """Exact Lebesgue measure of the rank-n cylinder; 0 if inadmissible."""
    iv = cylinder_interval(m, word)
    if iv is None:
        return Fraction(0)
    return iv[1] - iv[0]


def iter_cylinders(
    m: MarkovIntervalMap, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[Word, Fraction]]:
    """All admissible rank-n words with measures, lexicographic order.

    Measures are accumulated incrementally along the DFS using
    m([w.k]) = m([w]) * m(a_k) / m(T a_{last}), which agrees with
    cylinder_measure and keeps the enumeration linear in its output.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if m.num_cells**n > cap:
        raise EnumerationTooLargeError(
            f"{m.num_cells}^{n} words exceeds cap {cap}"
        )
    measures = m.measures
    law = m.symbol_law  # child measure ratios m(a_k) / m(T a_j)
    # piecewise-linear maps have few distinct cylinder masses per rank, so
    # the DFS carries a mass-class id: each distinct mass is interned once
    # and each (class, last symbol) row of child classes is built once
    masses: list[Fraction] = []
    class_of: dict[Fraction, int] = {}

    def intern(mass: Fraction) -> int:
        c = class_of.get(mass)
        if c is None:
            c = class_of[mass] = len(masses)
            masses.append(mass)
        return c

    children: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    stack: list[tuple[Word, int]] = [
        ((j,), intern(measures[j])) for j in reversed(range(m.num_cells))
    ]
    while stack:
        word, c = stack.pop()
        if len(word) == n:
            yield word, masses[c]
            continue
        j = word[-1]
        row = children.get((c, j))
        if row is None:
            row = children[(c, j)] = tuple(
                (k, intern(masses[c] * p)) for k, p in law[j]
            )
        if len(word) == n - 1:
            for k, child in row:
                yield word + (k,), masses[child]
        else:
            for k, child in reversed(row):
                stack.append((word + (k,), child))


def enumerate_cylinders(
    m: MarkovIntervalMap, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Word]:
    """Admissible rank-n words in lexicographic order."""
    return [w for w, _ in iter_cylinders(m, n, cap)]


@dataclass(frozen=True)
class GibbsBounds:
    inf_h: float
    sup_g: Fraction
    distortion_d: int
    big_image_inf: Fraction
    min_abs_slope: Fraction


def gibbs_bounds(m: MarkovIntervalMap) -> GibbsBounds:
    """Expansion and image constants of the map.

    For piecewise-linear branches the per-cylinder densities are
    constant, so the distortion constant is exactly 1; the potential
    infimum is ln of the smallest slope magnitude, kept both as a float
    and as the exact rational min_abs_slope for strict-inequality tests.
    """
    min_slope = min(abs(s) for s in m.slopes)
    return GibbsBounds(
        inf_h=log(min_slope),
        sup_g=Fraction(1) / min_slope,
        distortion_d=1,
        big_image_inf=min(m.image_measures),
        min_abs_slope=min_slope,
    )


# Common instances.

def doubling_map() -> MarkovIntervalMap:
    """x -> 2x mod 1 on two equal cells."""
    return build_map(["0", "1/2", "1"], [("2", "0"), ("2", "-1")])


def triple_map() -> MarkovIntervalMap:
    """x -> 3x mod 1 on three equal cells."""
    return equal_slope_map(3)


def equal_slope_map(k: int) -> MarkovIntervalMap:
    """x -> kx mod 1 on k equal cells (k >= 2); full branch."""
    if k < 2:
        raise BadPartitionError("need k >= 2")
    bps = [Fraction(i, k) for i in range(k + 1)]
    branches = [(Fraction(k), -Fraction(i)) for i in range(k)]
    return build_map(bps, branches)


# Structured-text (key-value tree) serialization.

def map_to_spec(m: MarkovIntervalMap) -> dict:
    return {
        "breakpoints": [str(b) for b in m.breakpoints],
        "branches": [
            {"slope": str(s), "intercept": str(t)}
            for s, t in zip(m.slopes, m.intercepts)
        ],
    }


def map_from_spec(spec: dict) -> MarkovIntervalMap:
    from .config import require_keys  # local import to avoid a cycle

    require_keys(spec, {"breakpoints", "branches"}, where="map")
    branches = []
    for i, br in enumerate(spec["branches"]):
        require_keys(br, {"slope", "intercept"}, where=f"map.branches[{i}]")
        branches.append((br["slope"], br["intercept"]))
    return build_map(spec["breakpoints"], branches)
