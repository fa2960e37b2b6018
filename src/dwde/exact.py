"""Exact oracles for the lattice walk: finite-state reductions and DP.

Under Lebesgue measure the symbol stream of a piecewise-linear Markov
map is an explicit finite-state Markov chain, so the law of the site
process is computable exactly.  For full-branch maps the symbols are
i.i.d. and the site process alone is a (site-inhomogeneous) Markov
chain; for general Markov maps the joint (symbol, site) chain is used.
A chain holds its site window as one class per site plus the distinct
per-class transition rows (SiteChainDP), built from one index_window
draw of a realization.  All probabilities are exact rationals except in
the float fast paths.
The exact inner loops run on Python ints: return_prob_by_time,
first_passage_measure and series_diagnostic carry integer numerators
over one common denominator per step, hit_before is one banded
fraction-free elimination (elimination.solve), and each builds one
Fraction per returned value.  The +/-1 sweeps (first_passage_measure's
comparison column, series_diagnostic) hold only the sites of the step's
parity, as lists advanced by elementwise adds; path_counts reads its
whole table off one binomial-difference row by the method of images,
and return_cylinder_count is a closed form.  The float fast paths all
run on one light-cone float DP kernel (_float_dp) that advances a stack
of solves together and resumes from the state it returns:
return_prob_curve and final_distribution are single-chain wrappers (a
stack of one), and float_dp_stack gives the curves and final laws of
many chains at once, running the absorbing and the free pass as one
merged stack until the absorbing pass's reach cut can bite (step
n // 2); each reads a chain's float jump table as one gather from its
per-class float rows (_float_jump_arrays).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log
from operator import add, mul
from typing import Iterable, Sequence

import numpy as np

from .elimination import RHS, solve
from .environments import EnvironmentRealization, TransitionFunction, require_cells
from .errors import (
    DegenerateAlphaError,
    EnumerationTooLargeError,
    HypothesisViolatedError,
    UnsupportedBaseError,
    UnsupportedJumpsError,
    WindowTooSmallError,
)
from .interval_maps import MarkovIntervalMap, RationalLike, as_fraction, gibbs_bounds

SITE = "site"
JOINT = "joint"

# transitions from one layer: (next_layer, jump, probability)
Transitions = tuple[tuple[int, int, Fraction], ...]


@dataclass
class SiteChainDP:
    """Finite-state reduction of the skew product over a site window.

    kind "site": a single layer whose per-site jump distribution is
    p_i(v) = sum of cell measures with jump v (full-branch reduction).
    kind "joint": one layer per partition cell with symbol-conditional
    transitions m(a_k)/m(T a_j); exact for any Markov base.

    The window [-W, W] is held as one class per site (`classes`, site i
    at index i + W) and the distinct per-class transitions (`rows`,
    one Transitions per layer), so sites with the same law share a row.
    """

    kind: str
    window: int
    layers: int
    init: tuple[Fraction, ...]
    classes: np.ndarray
    rows: tuple[tuple[Transitions, ...], ...]
    max_jump: int

    def classes_of(self, lo: int, hi: int) -> np.ndarray:
        """The classes of sites lo..hi, a view of `classes`."""
        if lo < -self.window or hi > self.window:
            site = lo if lo < -self.window else hi
            raise WindowTooSmallError(
                f"site {site} outside materialized window [-{self.window}, {self.window}]"
            )
        return self.classes[lo + self.window : hi + self.window + 1]

    def transitions_at(self, site: int) -> tuple[Transitions, ...]:
        return self.rows[self.classes_of(site, site)[0]]

    @property
    def site_transitions(self) -> dict[int, tuple[Transitions, ...]]:
        """Every window site's transitions, as a mapping site -> row."""
        rows = self.rows
        return {i: rows[c] for i, c in enumerate(self.classes.tolist(), -self.window)}

    def jump_dist(self, site: int) -> dict[int, Fraction]:
        """Marginal one-step jump distribution at a site (initial layer law)."""
        dist: dict[int, Fraction] = {}
        for j, layer in enumerate(self.transitions_at(site)):
            for _, v, p in layer:
                dist[v] = dist.get(v, Fraction(0)) + self.init[j] * p
        return dist


def site_dist_of(m: MarkovIntervalMap, f: TransitionFunction) -> Transitions:
    dist: dict[int, Fraction] = {}
    for j, v in enumerate(f.jumps):
        dist[v] = dist.get(v, Fraction(0)) + m.measures[j]
    return tuple((0, v, p) for v, p in sorted(dist.items()))


def build_site_chain(
    m: MarkovIntervalMap,
    env,
    window: int,
    joint: bool = False,
) -> SiteChainDP:
    """Materialize the exact per-site law of the walk over [-W, W].

    Full-branch maps reduce to a site-only chain; other Markov maps
    require joint=True (UnsupportedBaseError otherwise).  A realization
    is read with one index_window draw, any other environment with one
    env.at pass; max_jump is over the classes present in the window.
    """
    if window < 1:
        raise WindowTooSmallError("window must be >= 1")
    require_cells(getattr(env, "model", None), m.num_cells)
    if not m.full_branch and not joint:
        raise UnsupportedBaseError(
            "non-full-branch base needs the joint (symbol, site) chain"
        )
    if isinstance(env, EnvironmentRealization):
        support = env.model.support
        drawn = env.index_window(-window, window)
    else:
        index_of: dict[TransitionFunction, int] = {}
        drawn = np.array(
            [index_of.setdefault(env.at(i), len(index_of)) for i in range(-window, window + 1)],
            dtype=np.int64,
        )
        support = tuple(index_of)

    if joint:
        per_fn = [
            tuple(
                tuple((k, f.jumps[j], p) for k, p in pairs)
                for j, pairs in enumerate(m.symbol_law)
            )
            for f in support
        ]
        init = m.measures
        layers = m.num_cells
        kind = JOINT
    else:
        per_fn = [(site_dist_of(m, f),) for f in support]
        init = (Fraction(1),)
        layers = 1
        kind = SITE

    # support functions with equal transitions share one class
    class_of: dict[tuple[Transitions, ...], int] = {}
    fn_class = np.array(
        [class_of.setdefault(row, len(class_of)) for row in per_fn], dtype=np.int64
    )
    rows = tuple(class_of)
    classes = fn_class[drawn]
    max_jump = max(
        abs(v)
        for c in np.unique(classes).tolist()
        for layer in rows[c]
        for _, v, _ in layer
    )
    return SiteChainDP(kind, window, layers, init, classes, rows, max_jump)


def path_probability(chain: SiteChainDP, site_path: Sequence[int]) -> Fraction:
    """Exact probability that the walk realizes the given site path."""
    mass = list(chain.init)
    for t in range(len(site_path) - 1):
        site, jump = site_path[t], site_path[t + 1] - site_path[t]
        trans = chain.transitions_at(site)
        new = [Fraction(0)] * chain.layers
        for j, m_j in enumerate(mass):
            if m_j == 0:
                continue
            for k, v, p in trans[j]:
                if v == jump:
                    new[k] += m_j * p
        mass = new
    return sum(mass, Fraction(0))


def _check_reach(chain: SiteChainDP, start: int, n_steps: int) -> None:
    radius = abs(start) + ((n_steps + 1) // 2) * chain.max_jump
    if radius > chain.window:
        raise WindowTooSmallError(
            f"horizon {n_steps} from {start} can use sites out to {radius}, "
            f"window is {chain.window}"
        )


def return_prob_by_time(chain: SiteChainDP, start: int, n_steps: int) -> Fraction:
    """Exact probability of returning to the start site within n steps.

    States that can no longer return in the remaining time are pruned,
    which certifies the absence of boundary truncation.  The law is
    carried as integer numerators: every transition probability over
    one common denominator D, so the mass after t steps is over
    D^t times the initial law's, and one Fraction is built at the end.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _check_reach(chain, start, n_steps)
    half = ((n_steps + 1) // 2) * chain.max_jump
    den, weights = _common_weights(chain, start - half, start + half)
    # state (layer j, site i) is the int key i * layers + j; its moves are
    # (next key, distance of the landing site from the start, numerator)
    layers = chain.layers
    moves = {
        i * layers + j: tuple(
            ((i + v) * layers + k, abs(i + v - start), w) for k, v, w in row
        )
        for i, rows in weights.items()
        for j, row in enumerate(rows)
    }
    init_den = lcm(*(p.denominator for p in chain.init))
    mass = {
        start * layers + j: p.numerator * (init_den // p.denominator)
        for j, p in enumerate(chain.init)
        if p != 0
    }
    returned = 0  # over init_den * den**t after step t
    for t in range(1, n_steps + 1):
        new: dict[int, int] = {}
        reach = (n_steps - t) * chain.max_jump
        back = 0
        for key, c in mass.items():
            for to, dist, w in moves[key]:
                if not dist:
                    back += c * w
                elif dist <= reach:
                    got = new.get(to)
                    new[to] = c * w if got is None else got + c * w
        returned = returned * den + back
        mass = new
        if not mass:
            break
    return Fraction(returned, init_den * den**t)


def _common_weights(
    chain: SiteChainDP, lo: int, hi: int
) -> tuple[int, dict[int, tuple[tuple[tuple[int, int, int], ...], ...]]]:
    """The chain's transitions over sites lo..hi with every probability
    as an integer over one common denominator: (den, {site: per-layer
    rows of (next_layer, jump, numerator)}).  Each class present is
    converted once."""
    classes = chain.classes_of(lo, hi).tolist()
    present = {c: chain.rows[c] for c in classes}
    den = lcm(*(p.denominator for row in present.values() for layer in row for _, _, p in layer))
    ints = {
        c: tuple(
            tuple((k, v, p.numerator * (den // p.denominator)) for k, v, p in layer)
            for layer in row
        )
        for c, row in present.items()
    }
    return den, {i: ints[c] for i, c in enumerate(classes, lo)}


def _float_jump_arrays(
    chain: SiteChainDP, lo: int, hi: int
) -> tuple[list[int], np.ndarray]:
    """Sorted jump values and their (jumps x sites) float probabilities
    over sites lo..hi (site kind only): one float column per class
    present, gathered by the window's class array."""
    if chain.kind != SITE:
        raise UnsupportedBaseError("float DP fast path needs the site-kind chain")
    classes = chain.classes_of(lo, hi)
    present = np.unique(classes).tolist()
    jumps = sorted({v for c in present for _, v, _ in chain.rows[c][0]})
    position = {v: r for r, v in enumerate(jumps)}
    table = np.zeros((len(jumps), len(chain.rows)))
    for c in present:
        for _, v, p in chain.rows[c][0]:
            table[position[v], c] = float(p)
    return jumps, table[:, classes]


# steps between trims of the all-zero rows at the edges of the cone
_TRIM_EVERY = 16


def _float_dp(
    jumps: list[int],
    probs: np.ndarray,
    steps: range,
    reach: int,
    returned: np.ndarray | None = None,
    state: tuple[np.ndarray, int, int] | None = None,
) -> tuple[np.ndarray, int, int]:
    """The float DP kernel: steps t in `steps` of a stack of site laws,
    advanced together.

    `probs` is the site-major (jumps x sites x solves) table of the
    probability of each sorted jump value over the window start +/-
    radius, radius = (sites - 1) // 2; a solve lacking a jump value has
    probability 0 there, and adding its +0.0 products changes no bit.
    `state` = (dist, a, b) holds the stack's mass on window sites a..b,
    flat and site-major (site a + i of solve s is entry i * solves + s)
    and zero elsewhere; by default all mass sits on the start (window
    site radius), before step 1.  A step updates only the sites mass can
    reach, and at every step t divisible by _TRIM_EVERY the rows at the
    edges that are zero in every solve are dropped, so only exact zeros
    are skipped.  With `returned` (a (horizon + 1) x banked array), the
    first `banked` solves absorb: mass landing on the start at step t is
    banked into returned[t].  When every solve absorbs, sites that cannot
    reach the start by the last step of `steps` are cut.  Returns the
    state after that step, so a later call can resume from it.
    """
    radius = (probs.shape[1] - 1) // 2
    solves = probs.shape[2]
    banked = 0 if returned is None else returned.shape[1]
    # one flat row per jump value: a jump v moves mass by v * solves entries
    flat = probs.reshape(len(jumps), -1)
    shift = reach * solves
    offsets = [shift + v * solves for v in jumps]
    # the callers' radius keeps the cone inside the window
    dist, a, b = (np.ones(solves), radius, radius) if state is None else state
    for t in steps:
        size = (b - a + 1) * solves
        new = np.zeros(size + 2 * shift)
        for at, p in zip(offsets, flat[:, a * solves : (b + 1) * solves]):
            new[at : at + size] += dist * p
        a, b = a - reach, b + reach
        if banked == solves:
            left = (steps.stop - 1 - t) * reach
            lo, hi = max(a, radius - left), min(b, radius + left)
            new = new[(lo - a) * solves : (hi - a + 1) * solves]
            a, b = lo, hi
        if banked:
            at = (radius - a) * solves
            returned[t] = new[at : at + banked]
            new[at : at + banked] = 0.0
        if t % _TRIM_EVERY == 0:
            live = new != 0
            first = int(live.argmax())
            if live[first]:
                lo = first // solves
                hi = (live.size - 1 - int(live[::-1].argmax())) // solves
                if banked:  # keep the start's row to bank returns into
                    lo, hi = min(lo, radius - a), max(hi, radius - a)
                new = new[lo * solves : (hi + 1) * solves]
                a, b = a + lo, a + hi
        dist = new
    return dist, a, b


def _site_laws(state: tuple[np.ndarray, int, int], sites: int) -> np.ndarray:
    """The (sites x solves) laws of a kernel state, zero off its rows."""
    dist, a, b = state
    rows = dist.reshape(b - a + 1, -1)
    out = np.zeros((sites, rows.shape[1]))
    out[a : b + 1] = rows
    return out


def return_prob_curve(chain: SiteChainDP, start: int, n_steps: int) -> np.ndarray:
    """Float64 cumulative return probabilities P(return by t), t = 0..n.

    Fast path for horizons where exact rationals are impractical, run
    on the float DP kernel with absorption at the start site; same
    prune as the exact DP, so the only error is float rounding (each
    entry is a sum of products of exact probabilities, accurate to
    ~n_steps * machine epsilon).
    """
    _check_reach(chain, start, n_steps)
    radius = ((n_steps + 1) // 2) * chain.max_jump
    jumps, probs = _float_jump_arrays(chain, start - radius, start + radius)
    returned = np.zeros((n_steps + 1, 1))
    _float_dp(jumps, probs[:, :, None], range(1, n_steps + 1), chain.max_jump, returned)
    # the running sum of the banked mass, added in step order
    return np.cumsum(returned[:, 0])


def final_distribution(chain: SiteChainDP, start: int, n_steps: int) -> np.ndarray:
    """Float64 site distribution after n steps over start +/- n*max_jump,
    from the float DP kernel without absorption."""
    radius = n_steps * chain.max_jump
    if abs(start) + radius > chain.window:
        raise WindowTooSmallError(
            f"final distribution needs window >= {abs(start) + radius}"
        )
    jumps, probs = _float_jump_arrays(chain, start - radius, start + radius)
    state = _float_dp(jumps, probs[:, :, None], range(1, n_steps + 1), chain.max_jump)
    return _site_laws(state, 2 * radius + 1)[:, 0]


def float_dp_stack(
    chains: Iterable[SiteChainDP], start: int, n_steps: int, reach: int
) -> tuple[np.ndarray, np.ndarray]:
    """Return curves and final site laws of a stack of site-kind chains,
    advanced together on the float DP kernel.

    Row s of each result belongs to the s-th chain: curves[s] equals
    return_prob_curve(chain, start, n_steps) and laws[s] is the site law
    over start +/- n_steps*reach, which is final_distribution's padded
    with zeros where a chain's own max_jump is below `reach`.  Each chain
    is read once, right when it is drawn, and only its float columns are
    kept, so a generator of chains holds one chain at a time.

    The absorbing pass's cut cannot bite before step n_steps // 2, and
    until then both cones fit the absorbing pass's narrow window.  So
    the first half runs as one merged stack of 2S columns over that
    window, the first S absorbing and the last S free; its state is then
    split, and each half of it finishes its own pass.
    """
    radius = n_steps * reach
    columns = []
    for chain in chains:
        if chain.max_jump > reach:
            raise ValueError(f"max_jump {chain.max_jump} exceeds reach {reach}")
        if abs(start) + radius > chain.window:
            raise WindowTooSmallError(
                f"float DP stack needs window >= {abs(start) + radius}"
            )
        columns.append(_float_jump_arrays(chain, start - radius, start + radius))
    if not columns:
        raise ValueError("float DP stack needs at least one chain")
    jumps = sorted({v for chain_jumps, _ in columns for v in chain_jumps})
    position = {v: r for r, v in enumerate(jumps)}
    solves = len(columns)
    probs = np.zeros((len(jumps), 2 * radius + 1, solves))
    for s, (chain_jumps, table) in enumerate(columns):
        for v, row in zip(chain_jumps, table):
            probs[position[v], :, s] = row
    half = ((n_steps + 1) // 2) * reach
    narrow = probs[:, radius - half : radius + half + 1]
    mid = n_steps // 2
    returned = np.zeros((n_steps + 1, solves))
    merged = np.concatenate((narrow, narrow), axis=2)
    dist, a, b = _float_dp(jumps, merged, range(1, mid + 1), reach, returned)
    # row i of the merged state is [absorbing solves | free solves]
    rows = dist.reshape(-1, 2, solves)
    rest = range(mid + 1, n_steps + 1)
    _float_dp(jumps, narrow, rest, reach, returned, (rows[:, 0].ravel(), a, b))
    free = (rows[:, 1].ravel(), a + radius - half, b + radius - half)
    laws = _site_laws(_float_dp(jumps, probs, rest, reach, state=free), 2 * radius + 1)
    # the running sum of the banked mass, added in step order
    return np.cumsum(returned, axis=0).T, laws.T


def hit_before(
    chain: SiteChainDP, start: int, target_a: int, target_b: int
) -> Fraction:
    """Exact probability of reaching >= target_b before <= target_a.

    The hitting system (I - Q) h = r has one unknown per (layer, site)
    strictly between the targets.  Its rows are scaled to integers and
    ordered site-major, which makes it banded with half-width below
    (max_jump + 1) * layers, and one fraction-free elimination
    (elimination.solve) removes the unknowns from both ends toward the
    start site's, so its cost is linear in the number of sites.
    SingularSystemError when the walk can stay between the targets
    forever with positive probability.
    """
    if not target_a < start < target_b:
        raise ValueError("need target_a < start < target_b")
    if max(abs(target_a), abs(target_b)) > chain.window:
        raise WindowTooSmallError("targets outside materialized window")
    a, b, layers = target_a, target_b, chain.layers
    den, weights_at = _common_weights(chain, a + 1, b - 1)
    rows: dict[int, dict[int, int]] = {}
    for i, per_layer in weights_at.items():
        for j, weights in enumerate(per_layer):
            r = (i - a - 1) * layers + j
            row = {r: den}
            rhs = 0
            for k, v, w in weights:
                land = i + v
                if land >= b:
                    rhs += w
                elif land > a:
                    c = (land - a - 1) * layers + k
                    row[c] = row.get(c, 0) - w
            if rhs:
                row[RHS] = rhs
            rows[r] = {c: x for c, x in row.items() if x}
    first = (start - a - 1) * layers
    n = (b - a - 1) * layers
    order = itertools.chain(range(first), range(n - 1, first + layers - 1, -1))
    h = solve(rows, range(first, first + layers), order, (chain.max_jump + 1) * layers)
    return sum(chain.init[j] * h[j] for j in range(layers))


def path_counts(n_max: int, k_max: int) -> list[list[int]]:
    """c[n][k]: +/-1 paths from 0 of length 2n+k first hitting -k at the
    final step while staying strictly inside (-k, 0) in between.

    Exact integers; column k=0 is identically zero padding.  Columns
    k = 1 and 2 are the straight descent.  For k >= 3 a path is the
    forced step to -1, then L = 2n + k - 2 steps inside -(k-1)..-1
    ending at -(k-1), then the step to -k; by the method of images the
    middle part counts sum_{i = n (mod k)} d_L[i] with d_L[i] =
    C(L, i) - C(L, i - 1).  One row d_L, i = 0..L+1, is advanced by
    Pascal's rule (linear, so the differences obey it too), and each
    cell with 2n + k - 2 = L is one strided slice sum of it.
    """
    if n_max < 0 or k_max < 1:
        raise ValueError("need n_max >= 0 and k_max >= 1")
    table = [[0] * (k_max + 1) for _ in range(n_max + 1)]
    for k in range(1, min(k_max, 2) + 1):
        table[0][k] = 1
    if k_max < 3:
        return table
    d = [1, -1]  # d_0
    for length in range(1, 2 * n_max + k_max - 1):
        d = [1, *map(add, d, d[1:]), d[-1]]
        # the cells (n, k) with 2n + k - 2 = length and 3 <= k <= k_max
        lo, hi = max(0, (length + 3 - k_max) // 2), min(n_max, (length - 1) // 2)
        for n in range(lo, hi + 1):
            k = length + 2 - 2 * n
            table[n][k] = sum(d[n % k :: k])
    return table


def _passage_column(n_max: int, k: int) -> list[int]:
    """Column k of path_counts, c[n][k] for n = 0..n_max, by a corridor
    sweep: cheaper than path_counts' rows when one column is wanted."""
    column = [0] * (n_max + 1)
    if k <= 2:  # the straight descent; at k = 2 a path at -1 can only leave
        column[0] = 1
        return column
    # corridor positions -1 .. -(k-1), index 0 .. k-2.  At time t every
    # path sits at a position of parity t - 1, so the corridor is two
    # parity lists, even = positions 0, 2, ... and odd = 1, 3, ..., and
    # only the current one holds mass.  Position -(k-1) is the last entry
    # of its list, and a path of length t + 1 first hits -k iff it sits
    # there at time t.
    top_odd = k % 2  # the top position k - 2 is odd when k is odd
    even = [1] + [0] * ((k - 2) // 2)  # time 1: the first step must go down
    odd: list[int] = []
    for t in range(2, 2 * n_max + k):
        if t % 2:  # odd positions -> even: entry i from odd i - 1 and i
            even = [odd[0], *map(add, odd, odd[1:])]
            if not top_odd:
                even.append(odd[-1])
            counts = even
        else:  # even positions -> odd: entry i from even i and i + 1
            odd = list(map(add, even, even[1:]))
            if top_odd:
                odd.append(even[-1])
            counts = odd
        if t >= k - 1 and (t - k) % 2:
            column[(t + 1 - k) // 2] = counts[-1]
    return column


@dataclass(frozen=True)
class FirstPassageResult:
    value: Fraction
    comparison_bound: Fraction | None
    horizon: int


def first_passage_measure(
    m: MarkovIntervalMap,
    env,
    k: int,
    n_max: int,
    direction: int = -1,
) -> FirstPassageResult:
    """Measure of walks whose first exit from the start site reaches
    -k (direction=-1) or +k (+1) before ever revisiting 0, truncated at
    paths of length 2*n_max + k.

    Also evaluates the geometric comparison value
    (#cells - r)^k M^k * sum c_{n,k} (r (#cells - r) M^2)^n with M the
    cylinder decay rate, when every visited site has the same number of
    cells jumping toward the target.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    if not m.full_branch:
        raise UnsupportedBaseError("first-passage reduction needs a full-branch base")
    require_cells(getattr(env, "model", None), m.num_cells)
    sites = range(-k, 1) if direction == -1 else range(0, k + 1)
    # jump laws as integers over den, the lcm of the cell measures'
    den = lcm(*(p.denominator for p in m.measures))
    cell_weights = [p.numerator * (den // p.denominator) for p in m.measures]
    dists: dict[int, dict[int, int]] = {}
    plus_counts = set()
    for i in sites:
        f = env.at(i)
        if not f.values <= {1, -1}:
            raise UnsupportedJumpsError(f"site {i} has jumps {sorted(f.values)}")
        d: dict[int, int] = {}
        for j, v in enumerate(f.jumps):
            d[v] = d.get(v, 0) + cell_weights[j]
        dists[i] = d
        plus_counts.add(sum(1 for v in f.jumps if v == (1 if direction == 1 else -1)))

    target = direction * k
    horizon = 2 * n_max + k
    # corridor masses and the banked value are over den**steps
    first = dists[0].get(direction, 0)
    value = first if k == 1 else 0
    corridor = {direction: first} if k > 1 and first else {}
    steps = 1
    for t in range(2, horizon + 1):
        if not corridor:
            break
        new: dict[int, int] = {}
        hit = 0
        for i, mass in corridor.items():
            for v, w in dists[i].items():
                land = i + v
                if land == target:
                    hit += mass * w
                elif land != 0 and abs(land) < k:
                    got = new.get(land)
                    new[land] = mass * w if got is None else got + mass * w
        corridor = new
        value = value * den + hit
        steps = t

    bound = None
    if len(plus_counts) == 1:
        toward = plus_counts.pop()
        away = m.num_cells - toward
        sup_g = gibbs_bounds(m).sup_g
        counts = _passage_column(n_max, k)
        # sum_n c_n (x/y)^n with x/y = away * toward * sup_g^2, as the
        # integer sum_n c_n x^n y^(n_max - n) over y^n_max
        x = away * toward * sup_g.numerator**2
        y = sup_g.denominator**2
        total, x_n = 0, 1
        for n in range(n_max + 1):
            total = total * y + counts[n] * x_n
            x_n *= x
        bound = Fraction(
            (toward * sup_g.numerator) ** k * total,
            sup_g.denominator**k * y**n_max,
        )
    value = Fraction(value, den**steps)
    return FirstPassageResult(value=value, comparison_bound=bound, horizon=horizon)


def return_cylinder_count(
    m: MarkovIntervalMap, r: int, n: int, cell: int = 0, cap: int = 2000
) -> dict:
    """Count rank-(2n+1) words that start and end in a fixed cell with
    the induced site path returning to 0, for the canonical homogeneous
    environment jumping +1 on the first r cells.

    Returns the exact count ("enumerated") next to the combinatorial
    value r^n (#cells - r)^n C(2n, n).  The cell pins the first step and
    the final symbol; the other 2n - 1 steps take n - 1 more of the
    pinned step's kind and n of the other, so the count is
    C(2n - 1, n - 1) a^(n - 1) b^n, with a the number of cells jumping
    like the pinned step and b the rest.  It is <= the combinatorial
    value always.
    """
    k_cells = m.num_cells
    if not m.full_branch:
        raise UnsupportedBaseError("cylinder return counts need a full-branch base")
    if not 1 <= r <= k_cells - 1:
        raise HypothesisViolatedError(f"r must be within 1..{k_cells - 1}")
    if not 0 <= cell < k_cells:
        raise ValueError("cell out of range")
    if n > cap:
        raise EnumerationTooLargeError(f"n = {n} exceeds cap {cap}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return {"enumerated": 1, "combinatorial_bound": 1}
    up, down = r, k_cells - r
    same, other = (up, down) if cell < r else (down, up)
    return {
        "enumerated": comb(2 * n - 1, n - 1) * same ** (n - 1) * other**n,
        "combinatorial_bound": up**n * down**n * comb(2 * n, n),
    }


@dataclass(frozen=True)
class TransienceCertificate:
    holds: bool
    inf_h: float
    threshold: float
    direction: int | None
    exact_margin: Fraction  # min_slope^2 - 4 r (#cells - r); > 0 iff holds


def transience_certificate(
    m: MarkovIntervalMap,
    r: int,
    support: Sequence[TransitionFunction] | None = None,
) -> TransienceCertificate:
    """Expansion-rate transience test: holds iff the smallest cylinder
    decay rate beats sqrt(4 r (#cells - r)); compared exactly through
    min_slope^2 > 4 r (#cells - r).

    When a support is given, each function must jump +1 on exactly r
    cells and -1 on the rest (HypothesisViolatedError otherwise).
    """
    k_cells = m.num_cells
    if not m.full_branch:
        raise HypothesisViolatedError("certificate requires a full-branch base")
    if not 1 <= r <= k_cells - 1:
        raise HypothesisViolatedError(f"r must be within 1..{k_cells - 1}")
    if support is not None:
        for f in support:
            if not f.values <= {1, -1}:
                raise HypothesisViolatedError(f"jumps {sorted(f.values)} are not +/-1")
            plus = sum(1 for v in f.jumps if v == 1)
            if plus != r or len(f.jumps) != k_cells:
                raise HypothesisViolatedError(
                    f"function {f.jumps} does not have exactly r={r} cells at +1"
                )
    gb = gibbs_bounds(m)
    rhs = 4 * r * (k_cells - r)
    margin = gb.min_abs_slope**2 - rhs
    holds = margin > 0
    if not holds:
        direction = None
    elif 2 * r > k_cells:
        direction = 1
    elif 2 * r < k_cells:
        direction = -1
    else:
        direction = None
    return TransienceCertificate(
        holds=holds,
        inf_h=gb.inf_h,
        threshold=0.5 * log(rhs),
        direction=direction,
        exact_margin=margin,
    )


@dataclass(frozen=True)
class SeriesDiagnostic:
    theta: Fraction
    partial_sums: tuple[Fraction, ...]  # S_J for J = 0..lag_max
    increments: tuple[Fraction, ...]  # weighted return mass per lag
    geometric_bound: Fraction | None  # 4 r (#cells - r) M^2 if homogeneous

    def increment_ratios(self) -> list[tuple[int, Fraction]]:
        """Ratios of successive nonzero increments as (lag, ratio)."""
        out = []
        prev_lag = None
        for lag in range(1, len(self.increments)):
            if self.increments[lag] == 0:
                continue
            if prev_lag is not None:
                out.append((lag, self.increments[lag] / self.increments[prev_lag]))
            prev_lag = lag
        return out


def series_diagnostic(
    m: MarkovIntervalMap,
    env,
    cell: int,
    theta: RationalLike,
    lag_max: int,
) -> SeriesDiagnostic:
    """Partial sums of the weighted return series over the skew product.

    S_J sums, over lags j <= J, the theta-weighted measure of points of
    the chosen cell at site 0 that are back in that cell at site 0 after
    j steps.  Exact: the joint (symbol, site) law is propagated with
    integer numerators over a common denominator per step, one list per
    cell over the sites that can still be back at 0 by lag_max.  A step
    splits each cell's mass into its +1 and -1 movers by the
    environment's jump masks; each target cell then sums its preimage
    cells' arrivals times their weights.
    """
    theta = as_fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    if not 0 <= cell < m.num_cells:
        raise ValueError("cell out of range")
    if lag_max < 0:
        raise ValueError(f"lag_max must be >= 0, got {lag_max}")
    require_cells(getattr(env, "model", None), m.num_cells)
    n_cells = m.num_cells
    rows = m.symbol_law
    den = lcm(*(p.denominator for row in rows for _, p in row))
    # each target cell's column: its preimage cells grouped by weight
    columns = []
    for k in range(n_cells):
        by_weight: dict[int, list[int]] = {}
        for j, row in enumerate(rows):
            p = dict(row).get(k)
            if p:
                by_weight.setdefault(int(p * den), []).append(j)
        columns.append(tuple((w, tuple(js)) for w, js in by_weight.items()))
    # ups[j][i + lag_max] is 1 where cell j jumps +1 at site i, else 0
    ups: list[list[int]] = [[] for _ in range(n_cells)]
    plus_counts = set()
    for i in range(-lag_max, lag_max + 1):
        f = env.at(i)
        if not f.values <= {1, -1}:
            raise UnsupportedJumpsError(f"site {i} has jumps {sorted(f.values)}")
        for up, v in zip(ups, f.jumps):
            up.append(int(v == 1))
        plus_counts.add(sum(1 for v in f.jumps if v == 1))

    # At lag t the walk sits on sites of parity t inside the cone
    # |site| <= min(t, lag_max - t); mass beyond lag_max - t cannot come
    # back by lag_max.  numers[j][n] is the numerator of cell j at site
    # -h + 2n, with h the largest such site.
    scale = m.measures[cell] * (1 - theta) / (1 + theta)
    numers = [[int(j == cell)] for j in range(n_cells)]
    h = 0
    increments = [scale]  # lag 0: the set itself
    partial = [scale]
    denom_t = 1
    for t in range(1, lag_max + 1):
        lo, hi = lag_max - h, lag_max + h + 1
        grow = t <= lag_max - t
        arrivals = []
        for c, up in zip(numers, ups):
            up = up[lo:hi:2]
            if grow:  # site -h - 1 + 2n: up from entry n - 1, down from n
                c, up = [0, *c, 0], [0, *up, 0]
            # otherwise site -h + 1 + 2n: up from entry n, down from n + 1
            arrivals.append(
                [(x if ux else 0) + (0 if uy else y) for x, ux, y, uy in zip(c, up, c[1:], up[1:])]
            )
        h += 1 if grow else -1
        combined: dict[tuple, list[int]] = {}  # equal columns are summed once
        for column in columns:
            if column not in combined:
                combined[column] = _combine(column, arrivals, h + 1)
        numers = [combined[column] for column in columns]
        denom_t *= den
        ret = numers[cell][h // 2] if t % 2 == 0 else 0
        inc = Fraction(ret, denom_t) * scale if ret else Fraction(0)
        increments.append(inc)
        partial.append(partial[-1] + inc)

    bound = None
    if len(plus_counts) == 1:
        r = plus_counts.pop()
        sup_g = gibbs_bounds(m).sup_g
        bound = 4 * r * (m.num_cells - r) * sup_g**2
    return SeriesDiagnostic(
        theta=theta,
        partial_sums=tuple(partial),
        increments=tuple(increments),
        geometric_bound=bound,
    )


def _combine(
    column: tuple[tuple[int, tuple[int, ...]], ...], arrivals: list[list[int]], size: int
) -> list[int]:
    """One target cell's numerators: the sum over its (weight, preimage
    cells) groups of weight times the group's summed arrivals."""
    total: Iterable[int] | None = None
    for w, cells in column:
        group: Iterable[int] = arrivals[cells[0]]
        for j in cells[1:]:
            group = map(add, group, arrivals[j])
        term = map(mul, group, itertools.repeat(w))
        total = term if total is None else map(add, total, term)
    return [0] * size if total is None else list(total)


@dataclass(frozen=True)
class SolomonVerdict:
    expectation: float
    verdict: str  # "left" | "right" | "recurrent"


def solomon_classifier(
    alpha_support: Sequence[tuple[RationalLike, RationalLike]],
) -> SolomonVerdict:
    """Sign of the mean log-odds sum w * ln((1-alpha)/alpha).

    The verdict is decided exactly: with integer multiples of the
    rational weights, the expectation's sign equals the comparison of
    prod ((1-alpha)/alpha)^n against 1 in exact arithmetic.
    """
    if not alpha_support:
        raise ValueError("need at least one (alpha, weight) pair")
    pairs = [(as_fraction(a), as_fraction(w)) for a, w in alpha_support]
    for a, _ in pairs:
        if a <= 0 or a >= 1:
            raise DegenerateAlphaError(f"alpha = {a} must lie strictly inside (0, 1)")
    weights = [w for _, w in pairs]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    scale = lcm(*(w.denominator for w in weights))
    product = Fraction(1)
    for a, w in pairs:
        product *= ((1 - a) / a) ** int(w * scale)
    expectation = (log(product.numerator) - log(product.denominator)) / scale
    if product > 1:
        verdict = "left"
    elif product < 1:
        verdict = "right"
    else:
        verdict = "recurrent"
        expectation = 0.0
    return SolomonVerdict(expectation=expectation, verdict=verdict)
