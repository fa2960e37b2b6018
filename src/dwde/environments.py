"""Deterministic environments: site-indexed families of transition functions.

A realization assigns one transition function from a finite support to
every lattice site, as a pure function of (model, env_seed, site).  The
i.i.d. kind draws each site through the counter-based PRF, so negative
and positive sites are equally O(1); the Markov kind runs the chain
forward from a stationary draw at site 0 and the time-reversed chain
backward, which is the canonical stationary two-sided extension.
`at()` memoizes the sites it draws, and memo writes are idempotent
(same value for the same site); an i.i.d. `index_window` draws its
whole window straight from the PRF without the memo.  Either way a
realization reads the same whichever sites were queried before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import prf
from .errors import InvalidModelError
from .interval_maps import RationalLike, as_fraction


@dataclass(frozen=True)
class TransitionFunction:
    """One lattice jump per partition cell."""

    jumps: tuple[int, ...]

    def __neg__(self) -> "TransitionFunction":
        return TransitionFunction(tuple(-j for j in self.jumps))

    @property
    def max_abs_jump(self) -> int:
        return max(abs(j) for j in self.jumps)

    @property
    def values(self) -> frozenset[int]:
        return frozenset(self.jumps)


def fn(*jumps: int) -> TransitionFunction:
    return TransitionFunction(tuple(int(j) for j in jumps))


FIXED = "fixed"
TWO_SIDED = "two_sided"
PERIODIC = "periodic"
IID = "iid"
MARKOV = "markov"


@dataclass(frozen=True)
class EnvironmentModel:
    kind: str
    support: tuple[TransitionFunction, ...]
    weights: tuple[Fraction, ...] | None = None
    transition: tuple[tuple[Fraction, ...], ...] | None = None
    stationary: tuple[Fraction, ...] | None = None
    # two_sided: support is (negative-side fn, nonnegative-side fn[, origin fn])
    # periodic: support is the repeating block, site i gets support[i mod len]

    @property
    def num_cells(self) -> int:
        return len(self.support[0].jumps)

    @property
    def jump_bound(self) -> int:
        return max(f.max_abs_jump for f in self.support)


def _check_support(support: Sequence[TransitionFunction]) -> tuple[TransitionFunction, ...]:
    support = tuple(support)
    if not support:
        raise InvalidModelError("support must be nonempty")
    k = len(support[0].jumps)
    if any(len(f.jumps) != k for f in support):
        raise InvalidModelError("all transition functions must share the cell count")
    return support


def fixed_model(f: TransitionFunction) -> EnvironmentModel:
    return EnvironmentModel(FIXED, _check_support([f]))


def two_sided_model(
    negative: TransitionFunction,
    nonnegative: TransitionFunction,
    origin: TransitionFunction | None = None,
) -> EnvironmentModel:
    """Fixed site-dependent environment split at the origin.

    Sites < 0 get `negative`, sites > 0 get `nonnegative`, and site 0
    gets `origin` (defaulting to `nonnegative`).
    """
    support = [negative, nonnegative]
    if origin is not None:
        support.append(origin)
    return EnvironmentModel(TWO_SIDED, _check_support(support))


def periodic_model(block: Sequence[TransitionFunction]) -> EnvironmentModel:
    return EnvironmentModel(PERIODIC, _check_support(block))


def iid_model(
    support: Sequence[TransitionFunction],
    weights: Sequence[RationalLike] | None = None,
) -> EnvironmentModel:
    support = _check_support(support)
    if weights is None:
        weights = [Fraction(1, len(support))] * len(support)
    w = tuple(as_fraction(x) for x in weights)
    if len(w) != len(support):
        raise InvalidModelError("one weight per support function required")
    if any(x < 0 for x in w) or sum(w) != 1:
        raise InvalidModelError("weights must be nonnegative rationals summing to 1")
    return EnvironmentModel(IID, support, weights=w)


def markov_model(
    support: Sequence[TransitionFunction],
    transition: Sequence[Sequence[RationalLike]],
    stationary: Sequence[RationalLike] | None = None,
) -> EnvironmentModel:
    """Finite-state ergodic Markov generation of the environment.

    The matrix must be row-stochastic and irreducible; the stationary
    vector is verified when given and solved exactly otherwise.
    """
    support = _check_support(support)
    n = len(support)
    rows = tuple(tuple(as_fraction(x) for x in row) for row in transition)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidModelError(f"transition matrix must be {n}x{n}")
    for r in rows:
        if any(x < 0 for x in r) or sum(r) != 1:
            raise InvalidModelError("matrix rows must be stochastic")
    if not _irreducible(rows):
        raise InvalidModelError("transition matrix must be irreducible")
    if stationary is None:
        pi = _solve_stationary(rows)
    else:
        pi = tuple(as_fraction(x) for x in stationary)
        if len(pi) != n or any(x <= 0 for x in pi) or sum(pi) != 1:
            raise InvalidModelError("stationary vector must be positive and sum to 1")
        for k in range(n):
            if sum(pi[j] * rows[j][k] for j in range(n)) != pi[k]:
                raise InvalidModelError("supplied vector is not stationary")
    return EnvironmentModel(MARKOV, support, transition=rows, stationary=pi)


def _irreducible(rows: tuple[tuple[Fraction, ...], ...]) -> bool:
    n = len(rows)
    for start in range(n):
        seen = {start}
        frontier = [start]
        while frontier:
            j = frontier.pop()
            for k in range(n):
                if rows[j][k] > 0 and k not in seen:
                    seen.add(k)
                    frontier.append(k)
        if len(seen) != n:
            return False
    return True


def _solve_stationary(rows: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, ...]:
    """Exact stationary vector of an irreducible stochastic matrix."""
    n = len(rows)
    # solve pi (P - I) = 0 with sum(pi) = 1: transpose and replace the
    # last equation by the normalization
    a = [[rows[j][k] - (1 if j == k else 0) for j in range(n)] for k in range(n)]
    a[n - 1] = [Fraction(1)] * n
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    pi = _gauss_solve(a, b)
    return tuple(pi)


def _gauss_solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise InvalidModelError("singular stationary system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _reversed_rows(
    rows: tuple[tuple[Fraction, ...], ...], pi: tuple[Fraction, ...]
) -> tuple[tuple[Fraction, ...], ...]:
    n = len(rows)
    return tuple(
        tuple(pi[k] * rows[k][j] / pi[j] for k in range(n)) for j in range(n)
    )


@dataclass
class EnvironmentRealization:
    """Lazily-indexed assignment site -> support index.

    `at(i)` is a pure function of (model, env_seed, i + offset); `shift`
    returns a view sharing the same memo so the shift identity
    at(shift(env, k), i) == at(env, i + k) holds by construction.
    """

    model: EnvironmentModel
    env_seed: int
    offset: int = 0
    _memo: dict[int, int] = field(default_factory=dict, repr=False)
    _chain_lo: int = field(default=0, repr=False)
    _chain_hi: int = field(default=0, repr=False)

    def at(self, i: int) -> TransitionFunction:
        return self.model.support[self.index_at(i)]

    def index_at(self, i: int) -> int:
        return self._base_index(i + self.offset)

    def shift(self, k: int) -> "EnvironmentRealization":
        env = EnvironmentRealization(self.model, self.env_seed, self.offset + k)
        env._memo = self._memo
        env._chain_lo = self._chain_lo
        env._chain_hi = self._chain_hi
        return env

    def _base_index(self, i: int) -> int:
        model = self.model
        if model.kind == FIXED:
            return 0
        if model.kind == TWO_SIDED:
            if i < 0:
                return 0
            if i > 0 or len(model.support) == 2:
                return 1
            return 2
        if model.kind == PERIODIC:
            return i % len(model.support)
        if model.kind == IID:
            got = self._memo.get(i)
            if got is None:
                u = prf.hash_u64(self.env_seed, prf.DOMAIN_ENV, i)
                got = prf.pick(self._thresholds(), u)
                self._memo[i] = got
            return got
        # MARKOV: extend the memoized chain out to i
        if not self._memo:
            u = prf.hash_u64(self.env_seed, prf.DOMAIN_ENV, 0)
            self._memo[0] = prf.pick(self._stationary_thresholds(), u)
            self._chain_lo = self._chain_hi = 0
        while self._chain_hi < i:
            j = self._chain_hi
            u = prf.hash_u64(self.env_seed, prf.DOMAIN_ENV, j + 1)
            self._memo[j + 1] = prf.pick(self._row_thresholds()[self._memo[j]], u)
            self._chain_hi = j + 1
        while self._chain_lo > i:
            j = self._chain_lo
            u = prf.hash_u64(self.env_seed, prf.DOMAIN_ENV, j - 1)
            self._memo[j - 1] = prf.pick(
                self._reversed_thresholds()[self._memo[j]], u
            )
            self._chain_lo = j - 1
        return self._memo[i]

    def index_window(self, lo: int, hi: int) -> np.ndarray:
        """Support indices for sites lo..hi inclusive (vectorized for iid)."""
        base_lo, base_hi = lo + self.offset, hi + self.offset
        model = self.model
        if model.kind == IID:
            sites = np.arange(base_lo, base_hi + 1, dtype=np.int64)
            u = prf.hash_u64_array(self.env_seed, prf.DOMAIN_ENV, array=sites)
            return prf.pick_array(self._thresholds(), u)
        return np.array(
            [self._base_index(i) for i in range(base_lo, base_hi + 1)], dtype=np.int64
        )

    def _thresholds(self) -> np.ndarray:
        t = getattr(self, "_thr", None)
        if t is None:
            t = prf.choice_thresholds(self.model.weights)
            object.__setattr__(self, "_thr", t)
        return t

    def _stationary_thresholds(self) -> np.ndarray:
        t = getattr(self, "_stat_thr", None)
        if t is None:
            t = prf.choice_thresholds(self.model.stationary)
            object.__setattr__(self, "_stat_thr", t)
        return t

    def _row_thresholds(self) -> list[np.ndarray]:
        t = getattr(self, "_row_thr", None)
        if t is None:
            t = [prf.choice_thresholds(row) for row in self.model.transition]
            object.__setattr__(self, "_row_thr", t)
        return t

    def _reversed_thresholds(self) -> list[np.ndarray]:
        t = getattr(self, "_rev_thr", None)
        if t is None:
            rev = _reversed_rows(self.model.transition, self.model.stationary)
            t = [prf.choice_thresholds(row) for row in rev]
            object.__setattr__(self, "_rev_thr", t)
        return t


class ReflectedEnvironment:
    """View of a realization under site reflection: at(i) = -base.at(-i).

    Used to check mirror symmetry of exact first-passage quantities.
    """

    def __init__(self, base: EnvironmentRealization):
        self.base = base
        self.model = base.model

    def at(self, i: int) -> TransitionFunction:
        return -self.base.at(-i)


def realize(model: EnvironmentModel, env_seed: int) -> EnvironmentRealization:
    if not isinstance(model, EnvironmentModel):
        raise InvalidModelError("realize expects an EnvironmentModel")
    return EnvironmentRealization(model, int(env_seed))


def env_at(env: EnvironmentRealization, i: int) -> TransitionFunction:
    return env.at(i)


def shift(env: EnvironmentRealization, k: int) -> EnvironmentRealization:
    return env.shift(k)


def reflect(env: EnvironmentRealization) -> ReflectedEnvironment:
    return ReflectedEnvironment(env)


@dataclass(frozen=True)
class SymmetryReport:
    is_symmetric: bool
    jump_bound: int
    uniformly_bounded: bool


def symmetry_and_bounds(model: EnvironmentModel) -> SymmetryReport:
    """Check the mirror-symmetry hypothesis and record the jump bound.

    Symmetric means: i.i.d. kind, and negating any support function
    lands back in the support with the same weight.  Finite support is
    always uniformly bounded; the flag is recorded for report clarity.
    """
    symmetric = False
    if model.kind == IID:
        weight_of = {}
        for f, w in zip(model.support, model.weights):
            weight_of[f.jumps] = weight_of.get(f.jumps, Fraction(0)) + w
        symmetric = all(
            weight_of.get(tuple(-j for j in jumps)) == w
            for jumps, w in weight_of.items()
        )
    return SymmetryReport(
        is_symmetric=symmetric,
        jump_bound=model.jump_bound,
        uniformly_bounded=True,
    )
