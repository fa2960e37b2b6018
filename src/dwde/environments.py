"""Deterministic environments: site-indexed families of transition functions.

A realization assigns one transition function from a finite support to
every lattice site, as a pure function of (model, env_seed, site).  The
i.i.d. kind draws each site through the counter-based PRF, so negative
and positive sites are equally O(1); the Markov kind runs the chain
forward from a stationary draw at site 0 and the time-reversed chain
backward, which is the canonical stationary two-sided extension.  Each
Markov site still draws the PRF keyed on the site, but the chain is
drawn in blocks (prf.markov_path): one PRF round over a block of sites,
one pick per state, and a select pass.  Each side grows geometrically,
every extension drawing at least as many sites as that side holds, so a
walk stepping one site at a time pays a logarithmic number of blocks.
`at()` memoizes the sites it draws, and memo writes are idempotent
(same value for the same site); an i.i.d. `index_window` draws its
whole window straight from the PRF without the memo.  Either way a
realization reads the same whichever sites were queried before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from . import prf
from .elimination import RHS, solve
from .errors import InvalidModelError, SingularSystemError
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


def require_cells(
    model: EnvironmentModel | Sequence[TransitionFunction] | None, num_cells: int
) -> None:
    """A transition function takes one jump per cell of the map.

    Checks a model or a bare support.  None, the model of an environment
    read only through `at`, is not checked.
    """
    support = model.support if isinstance(model, EnvironmentModel) else model or ()
    for f in support:
        if len(f.jumps) != num_cells:
            raise InvalidModelError(f"{len(f.jumps)}-cell functions on a {num_cells}-cell map")


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
    # solve pi (P - I) = 0 with sum(pi) = 1: transpose, replace the last
    # equation by the normalization and scale each equation to integers
    system = {}
    for k in range(n - 1):
        coeffs = [rows[j][k] - (1 if j == k else 0) for j in range(n)]
        den = lcm(*(x.denominator for x in coeffs))
        system[k] = {
            j: x.numerator * (den // x.denominator) for j, x in enumerate(coeffs) if x
        }
    system[n - 1] = {**{j: 1 for j in range(n)}, RHS: 1}
    try:
        return tuple(solve(system, range(n)))
    except SingularSystemError:
        raise InvalidModelError("singular stationary system") from None


def _reversed_rows(
    rows: tuple[tuple[Fraction, ...], ...], pi: tuple[Fraction, ...]
) -> tuple[tuple[Fraction, ...], ...]:
    n = len(rows)
    return tuple(
        tuple(pi[k] * rows[k][j] / pi[j] for k in range(n)) for j in range(n)
    )


class _MarkovSites:
    """The drawn sites of one Markov realization, shared by its shift views.

    ``right[i]`` is site i's support index and ``left[i]`` site -i's;
    both sides start at site 0's stationary draw, the right side steps
    by the transition rows and the left by the time-reversed rows, and
    site i draws hash_u64(env_seed, DOMAIN_ENV, i).
    """

    def __init__(self, model: EnvironmentModel, env_seed: int):
        self.key = prf.hash_u64(env_seed, prf.DOMAIN_ENV)
        origin = prf.pick(
            prf.choice_thresholds(model.stationary), prf.hash_u64(env_seed, prf.DOMAIN_ENV, 0)
        )
        self.right = [origin]
        self.left = [origin]
        self.forward = [prf.choice_thresholds(row) for row in model.transition]
        rev = _reversed_rows(model.transition, model.stationary)
        self.backward = [prf.choice_thresholds(row) for row in rev]

    def index(self, i: int) -> int:
        if i >= 0:
            if i >= len(self.right):
                self._extend(self.right, self.forward, i, 1)
            return self.right[i]
        if -i >= len(self.left):
            self._extend(self.left, self.backward, -i, -1)
        return self.left[-i]

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Support indices of sites lo..hi inclusive."""
        self.index(lo)
        self.index(hi)
        # sites lo..-1 are left[-lo..1] and sites 0..hi right[0..hi]
        left = self.left[max(1, -hi):max(1, 1 - lo)]
        right = self.right[max(0, lo):max(0, hi + 1)]
        return np.array(left[::-1] + right, dtype=np.int64)

    def _extend(self, side: list[int], rows: list[np.ndarray], j: int, sign: int) -> None:
        """Draw one block on ``side`` so that it reaches |site| j."""
        held = len(side)
        n = max(j + 1 - held, held)
        sites = sign * np.arange(held, held + n, dtype=np.int64)
        side += prf.markov_path(prf.absorb_array(self.key, sites), rows, side[-1])


@dataclass
class EnvironmentRealization:
    """Lazily-indexed assignment site -> support index.

    `at(i)` is a pure function of (model, env_seed, i + offset); `shift`
    returns a view sharing the same memo so the shift identity
    at(shift(env, k), i) == at(env, i + k) holds by construction.  The
    memo is a site -> index dict for the i.i.d. kind and the block-drawn
    chain (_MarkovSites) for the Markov kind.
    """

    model: EnvironmentModel
    env_seed: int
    offset: int = 0
    _memo: dict[int, int] | _MarkovSites | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._memo is None:
            if self.model.kind == MARKOV:
                self._memo = _MarkovSites(self.model, self.env_seed)
            else:
                self._memo = {}

    def at(self, i: int) -> TransitionFunction:
        return self.model.support[self.index_at(i)]

    def index_at(self, i: int) -> int:
        return self._base_index(i + self.offset)

    def shift(self, k: int) -> "EnvironmentRealization":
        return EnvironmentRealization(self.model, self.env_seed, self.offset + k, self._memo)

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
                got = prf.pick(self._thresholds()[1], u)
                self._memo[i] = got
            return got
        return self._memo.index(i)

    def index_window(self, lo: int, hi: int) -> np.ndarray:
        """Support indices for sites lo..hi inclusive (vectorized for iid
        and Markov)."""
        base_lo, base_hi = lo + self.offset, hi + self.offset
        model = self.model
        if model.kind == IID:
            sites = np.arange(base_lo, base_hi + 1, dtype=np.int64)
            key = prf.hash_u64(self.env_seed, prf.DOMAIN_ENV)
            return prf.pick_keyed(self._thresholds()[0], key, sites)
        if model.kind == MARKOV:
            return self._memo.window(base_lo, base_hi)
        return np.array(
            [self._base_index(i) for i in range(base_lo, base_hi + 1)], dtype=np.int64
        )

    def _thresholds(self) -> tuple[np.ndarray, list[int]]:
        """The i.i.d. law's interior edges as an array, for window draws,
        and as a list, for scalar ones; built once per realization."""
        t = getattr(self, "_thr", None)
        if t is None:
            edges = prf.choice_thresholds(self.model.weights)
            t = (edges, edges.tolist())
            object.__setattr__(self, "_thr", t)
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
