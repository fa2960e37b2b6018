"""Exact oracles for the lattice walk: finite-state reductions and DP.

Under Lebesgue measure the symbol stream of a piecewise-linear Markov
map is an explicit finite-state Markov chain, so the law of the site
process is computable exactly.  For full-branch maps the symbols are
i.i.d. and the site process alone is a (site-inhomogeneous) Markov
chain; for general Markov maps the joint (symbol, site) chain is used.
All probabilities are exact rationals except in the float fast paths,
which all run on one light-cone float DP kernel (_float_dp) that
advances a stack of solves together: return_prob_curve and
final_distribution are single-chain wrappers (a stack of one), and
float_dp_stack gives the curves and final laws of many chains at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log
from typing import Iterable, Sequence

import numpy as np

from .environments import EnvironmentRealization, TransitionFunction
from .errors import (
    DegenerateAlphaError,
    EnumerationTooLargeError,
    HypothesisViolatedError,
    SingularSystemError,
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
    """

    kind: str
    window: int
    layers: int
    init: tuple[Fraction, ...]
    site_transitions: dict[int, tuple[Transitions, ...]]
    max_jump: int

    def transitions_at(self, site: int) -> tuple[Transitions, ...]:
        try:
            return self.site_transitions[site]
        except KeyError:
            raise WindowTooSmallError(
                f"site {site} outside materialized window [-{self.window}, {self.window}]"
            ) from None

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
    require joint=True (UnsupportedBaseError otherwise).
    """
    if window < 1:
        raise WindowTooSmallError("window must be >= 1")
    if not m.full_branch and not joint:
        raise UnsupportedBaseError(
            "non-full-branch base needs the joint (symbol, site) chain"
        )
    sites = range(-window, window + 1)
    site_transitions: dict[int, tuple[Transitions, ...]] = {}

    if joint:
        symbol_rows: list[Transitions] = []
        for j in range(m.num_cells):
            row = tuple(
                (k, 0, m.measures[k] / m.image_measures[j]) for k in m.image_sets[j]
            )
            symbol_rows.append(row)
        for i in sites:
            jumps = env.at(i).jumps
            site_transitions[i] = tuple(
                tuple((k, jumps[j], p) for k, _, p in symbol_rows[j])
                for j in range(m.num_cells)
            )
        init = m.measures
        layers = m.num_cells
        kind = JOINT
    else:
        # one shared Transitions tuple per distinct support function
        if isinstance(env, EnvironmentRealization):
            idx = env.index_window(-window, window)
            per_fn = [site_dist_of(m, f) for f in env.model.support]
            for pos, i in enumerate(sites):
                site_transitions[i] = (per_fn[int(idx[pos])],)
        else:
            cache: dict[tuple[int, ...], Transitions] = {}
            for i in sites:
                f = env.at(i)
                t = cache.get(f.jumps)
                if t is None:
                    t = cache[f.jumps] = site_dist_of(m, f)
                site_transitions[i] = (t,)
        init = (Fraction(1),)
        layers = 1
        kind = SITE

    max_jump = max(
        abs(v)
        for layers_at in site_transitions.values()
        for layer in layers_at
        for _, v, _ in layer
    )
    return SiteChainDP(kind, window, layers, init, site_transitions, max_jump)


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
    which certifies the absence of boundary truncation.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _check_reach(chain, start, n_steps)
    mass: dict[tuple[int, int], Fraction] = {
        (j, start): p for j, p in enumerate(chain.init) if p != 0
    }
    returned = Fraction(0)
    for t in range(1, n_steps + 1):
        new: dict[tuple[int, int], Fraction] = {}
        reach = (n_steps - t) * chain.max_jump
        for (j, site), m_js in mass.items():
            for k, v, p in chain.transitions_at(site)[j]:
                land = site + v
                if land == start:
                    returned += m_js * p
                elif abs(land - start) <= reach:
                    key = (k, land)
                    new[key] = new.get(key, Fraction(0)) + m_js * p
        mass = new
        if not mass:
            break
    return returned


def _float_jump_arrays(
    chain: SiteChainDP, lo: int, hi: int
) -> tuple[list[int], np.ndarray]:
    """Sorted jump values and their (jumps x sites) float probabilities
    over sites lo..hi (site kind only); each distinct per-site
    Transitions tuple is converted once, then gathered per site."""
    if chain.kind != SITE:
        raise UnsupportedBaseError("float DP fast path needs the site-kind chain")
    rows = [chain.transitions_at(i)[0] for i in range(lo, hi + 1)]
    distinct = list({id(row): row for row in rows}.values())
    class_of = {id(row): c for c, row in enumerate(distinct)}
    jumps = sorted({v for row in distinct for _, v, _ in row})
    position = {v: r for r, v in enumerate(jumps)}
    table = np.zeros((len(jumps), len(distinct)))
    for c, row in enumerate(distinct):
        for _, v, p in row:
            table[position[v], c] = float(p)
    return jumps, table[:, [class_of[id(row)] for row in rows]]


# steps between trims of the all-zero rows at the edges of the cone
_TRIM_EVERY = 16


def _float_dp(
    jumps: list[int], probs: np.ndarray, n_steps: int, reach: int, absorb: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The float DP kernel: n steps of a stack of site laws, all started
    at the centre of the window and advanced together.

    `probs` is the site-major (jumps x sites x solves) table of the
    probability of each sorted jump value over the window start +/-
    radius, radius = (sites - 1) // 2; a solve lacking a jump value has
    probability 0 there, and adding its +0.0 products changes no bit.
    Step t updates only the light cone start +/- t*reach, and every
    _TRIM_EVERY steps the rows at the cone's edges that are zero in
    every solve are dropped, so only exact zeros are skipped.  With
    `absorb`, mass landing on `start` is banked into curve[t] and sites
    that cannot reach `start` in the remaining steps are cut.
    Returns (curves (steps + 1 x solves), final laws (sites x solves)).
    """
    radius = (probs.shape[1] - 1) // 2
    solves = probs.shape[2]
    # one flat row per jump value: site i of solve s is entry
    # i * solves + s, so a jump v moves mass by v * solves entries
    flat = probs.reshape(len(jumps), -1)
    shift = reach * solves
    offsets = [shift + v * solves for v in jumps]
    returned = np.zeros((n_steps + 1, solves))
    # dist holds the mass on window sites a..b, zero elsewhere; the start
    # sits at site radius, and the callers' radius keeps the cone inside
    # the window
    a = b = radius
    dist = np.ones(solves)
    for t in range(1, n_steps + 1):
        size = (b - a + 1) * solves
        new = np.zeros(size + 2 * shift)
        for at, p in zip(offsets, flat[:, a * solves : (b + 1) * solves]):
            new[at : at + size] += dist * p
        a, b = a - reach, b + reach
        if absorb:
            left = (n_steps - t) * reach
            lo, hi = max(a, radius - left), min(b, radius + left)
            new = new[(lo - a) * solves : (hi - a + 1) * solves]
            a, b = lo, hi
            at = (radius - a) * solves
            returned[t] = new[at : at + solves]
            new[at : at + solves] = 0.0
        if t % _TRIM_EVERY == 0:
            live = new != 0
            first = int(live.argmax())
            if live[first]:
                lo = first // solves
                hi = (live.size - 1 - int(live[::-1].argmax())) // solves
                if absorb:  # keep the start's row to bank returns into
                    lo, hi = min(lo, radius - a), max(hi, radius - a)
                new = new[lo * solves : (hi + 1) * solves]
                a, b = a + lo, a + hi
        dist = new
    out = np.zeros((2 * radius + 1, solves))
    out[a : b + 1] = dist.reshape(-1, solves)
    # the running sum of the banked mass, added in step order
    return np.cumsum(returned, axis=0), out


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
    curve = _float_dp(jumps, probs[:, :, None], n_steps, chain.max_jump, absorb=True)[0]
    return curve[:, 0]


def final_distribution(chain: SiteChainDP, start: int, n_steps: int) -> np.ndarray:
    """Float64 site distribution after n steps over start +/- n*max_jump,
    from the float DP kernel without absorption."""
    radius = n_steps * chain.max_jump
    if abs(start) + radius > chain.window:
        raise WindowTooSmallError(
            f"final distribution needs window >= {abs(start) + radius}"
        )
    jumps, probs = _float_jump_arrays(chain, start - radius, start + radius)
    law = _float_dp(jumps, probs[:, :, None], n_steps, chain.max_jump, absorb=False)[1]
    return law[:, 0]


def float_dp_stack(
    chains: Iterable[SiteChainDP], start: int, n_steps: int, reach: int
) -> tuple[np.ndarray, np.ndarray]:
    """Return curves and final site laws of a stack of site-kind chains,
    advanced together on the float DP kernel: one absorbing pass and one
    free pass for the whole stack.

    Row s of each result belongs to the s-th chain: curves[s] equals
    return_prob_curve(chain, start, n_steps) and laws[s] is the site law
    over start +/- n_steps*reach, which is final_distribution's padded
    with zeros where a chain's own max_jump is below `reach`.  Each chain
    is read once, right when it is drawn, and only its float columns are
    kept, so a generator of chains holds one chain at a time.
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
    probs = np.zeros((len(jumps), 2 * radius + 1, len(columns)))
    for s, (chain_jumps, table) in enumerate(columns):
        for v, row in zip(chain_jumps, table):
            probs[position[v], :, s] = row
    half = ((n_steps + 1) // 2) * reach
    curves = _float_dp(
        jumps, probs[:, radius - half : radius + half + 1], n_steps, reach, absorb=True
    )[0]
    laws = _float_dp(jumps, probs, n_steps, reach, absorb=False)[1]
    return curves.T, laws.T


def hit_before(
    chain: SiteChainDP, start: int, target_a: int, target_b: int
) -> Fraction:
    """Exact probability of reaching >= target_b before <= target_a.

    Solved as a linear system in exact rationals; +/-1 site chains use
    a tridiagonal elimination, everything else dense Gauss.
    """
    if not target_a < start < target_b:
        raise ValueError("need target_a < start < target_b")
    if max(abs(target_a), abs(target_b)) > chain.window:
        raise WindowTooSmallError("targets outside materialized window")
    if chain.kind == SITE and chain.max_jump == 1:
        return _hit_before_tridiagonal(chain, start, target_a, target_b)
    return _hit_before_dense(chain, start, target_a, target_b)


def _hit_before_tridiagonal(
    chain: SiteChainDP, start: int, a: int, b: int
) -> Fraction:
    p_up: dict[int, Fraction] = {}
    p_dn: dict[int, Fraction] = {}
    p_stay: dict[int, Fraction] = {}
    for i in range(a + 1, b):
        for _, v, p in chain.transitions_at(i)[0]:
            {1: p_up, -1: p_dn, 0: p_stay}[v][i] = p
    # forward sweep: h(i) = alpha_i h(i+1) + beta_i with h(a)=0, h(b)=1;
    # holding probability folded into the normalization
    alpha, beta = Fraction(0), Fraction(0)
    coeffs = []
    for i in range(a + 1, b):
        stay = p_stay.get(i, Fraction(0))
        q = p_dn.get(i, Fraction(0))
        p = p_up.get(i, Fraction(0))
        den = 1 - stay - q * alpha
        if den == 0:
            raise SingularSystemError("tridiagonal elimination broke down")
        alpha, beta = p / den, q * beta / den
        coeffs.append((alpha, beta))
    h = Fraction(1)  # h(b)
    for i in range(b - 1, start - 1, -1):
        alpha, beta = coeffs[i - (a + 1)]
        h = alpha * h + beta
    return h


def _hit_before_dense(chain: SiteChainDP, start: int, a: int, b: int) -> Fraction:
    index: dict[tuple[int, int], int] = {}
    for i in range(a + 1, b):
        for j in range(chain.layers):
            index[(j, i)] = len(index)
    n = len(index)
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for (j, i), r in index.items():
        rows[r][r] = Fraction(1)
        for k, v, p in chain.transitions_at(i)[j]:
            land = i + v
            if land >= b:
                rows[r][n] += p
            elif land > a:
                rows[r][index[(k, land)]] -= p
    sol = _solve_dense(rows)
    return sum(
        chain.init[j] * sol[index[(j, start)]] for j in range(chain.layers)
    )


def _solve_dense(rows: list[list[Fraction]]) -> list[Fraction]:
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularSystemError("dense hitting system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


def path_counts(n_max: int, k_max: int) -> list[list[int]]:
    """c[n][k]: +/-1 paths from 0 of length 2n+k first hitting -k at the
    final step while staying strictly inside (-k, 0) in between.

    Exact integers; column k=0 is identically zero padding.
    """
    if n_max < 0 or k_max < 1:
        raise ValueError("need n_max >= 0 and k_max >= 1")
    table = [[0] * (k_max + 1) for _ in range(n_max + 1)]
    for k in range(1, k_max + 1):
        if k == 1:
            table[0][1] = 1
            continue
        # corridor positions -1 .. -(k-1), index 0 .. k-2; a path of
        # length t+1 first hits -k iff it sits at -(k-1) at time t
        width = k - 1
        counts = [0] * width
        counts[0] = 1  # time 1: the first step must go down
        length_needed = {2 * n + k: n for n in range(n_max + 1)}
        if 2 in length_needed:  # only k = 2 has a length-2 passage
            table[length_needed[2]][k] = counts[width - 1]
        for t in range(2, 2 * n_max + k):
            new = [0] * width
            for pos in range(width):
                c = counts[pos]
                if not c:
                    continue
                if pos > 0:
                    new[pos - 1] += c
                if pos + 1 < width:
                    new[pos + 1] += c
            counts = new
            if (t + 1) in length_needed:
                table[length_needed[t + 1]][k] = counts[width - 1]
    return table


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
    sites = range(-k, 1) if direction == -1 else range(0, k + 1)
    dists: dict[int, dict[int, Fraction]] = {}
    plus_counts = set()
    for i in sites:
        f = env.at(i)
        if not f.values <= {1, -1}:
            raise UnsupportedJumpsError(f"site {i} has jumps {sorted(f.values)}")
        d: dict[int, Fraction] = {}
        for j, v in enumerate(f.jumps):
            d[v] = d.get(v, Fraction(0)) + m.measures[j]
        dists[i] = d
        plus_counts.add(sum(1 for v in f.jumps if v == (1 if direction == 1 else -1)))

    target = direction * k
    horizon = 2 * n_max + k
    corridor: dict[int, Fraction] = {}
    value = Fraction(0)
    first = dists[0].get(direction, Fraction(0))
    if k == 1:
        value = first
    elif first:
        corridor[direction] = first
    for _ in range(2, horizon + 1):
        if not corridor:
            break
        new: dict[int, Fraction] = {}
        for i, mass in corridor.items():
            for v, p in dists[i].items():
                land = i + v
                if land == target:
                    value += mass * p
                elif land != 0 and abs(land) < k:
                    new[land] = new.get(land, Fraction(0)) + mass * p
        corridor = new

    bound = None
    if len(plus_counts) == 1:
        toward = plus_counts.pop()
        away = m.num_cells - toward
        sup_g = gibbs_bounds(m).sup_g
        counts = path_counts(n_max, k)
        bound = (
            Fraction(toward) ** k
            * sup_g**k
            * sum(
                counts[n][k] * (Fraction(away * toward) * sup_g**2) ** n
                for n in range(n_max + 1)
            )
        )
    return FirstPassageResult(value=value, comparison_bound=bound, horizon=horizon)


def return_cylinder_count(
    m: MarkovIntervalMap, r: int, n: int, cell: int = 0, cap: int = 2000
) -> dict:
    """Count rank-(2n+1) words that start and end in a fixed cell with
    the induced site path returning to 0, for the canonical homogeneous
    environment jumping +1 on the first r cells.

    Returns the exact enumerated count next to the combinatorial value
    r^n (#cells - r)^n C(2n, n); enumeration <= that value always,
    since the first symbol (hence first step) is pinned by the cell.
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
    combinatorial_bound = r**n * (k_cells - r) ** n * comb(2 * n, n)
    if n == 0:
        return {"enumerated": 1, "combinatorial_bound": 1}
    first_jump = 1 if cell < r else -1
    ways: dict[int, int] = {first_jump: 1}
    for _ in range(2 * n - 1):
        new: dict[int, int] = {}
        for site, c in ways.items():
            new[site + 1] = new.get(site + 1, 0) + c * r
            new[site - 1] = new.get(site - 1, 0) + c * (k_cells - r)
        ways = new
    enumerated = ways.get(0, 0)  # final symbol pinned to `cell`: one choice
    return {"enumerated": enumerated, "combinatorial_bound": combinatorial_bound}


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
    integer numerators over a common denominator per step.
    """
    theta = as_fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    if not 0 <= cell < m.num_cells:
        raise ValueError("cell out of range")
    rows = [
        [(k, m.measures[k] / m.image_measures[j]) for k in m.image_sets[j]]
        for j in range(m.num_cells)
    ]
    den = lcm(*(p.denominator for row in rows for _, p in row))
    weights = [[(k, int(p * den)) for k, p in row] for row in rows]
    jumps_at: dict[int, tuple[int, ...]] = {}
    plus_counts = set()
    for i in range(-lag_max, lag_max + 1):
        f = env.at(i)
        if not f.values <= {1, -1}:
            raise UnsupportedJumpsError(f"site {i} has jumps {sorted(f.values)}")
        jumps_at[i] = f.jumps
        plus_counts.add(sum(1 for v in f.jumps if v == 1))

    scale = m.measures[cell] * (1 - theta) / (1 + theta)
    numers: dict[tuple[int, int], int] = {(cell, 0): 1}
    increments = [scale]  # lag 0: the set itself
    partial = [scale]
    denom_t = 1
    for t in range(1, lag_max + 1):
        new: dict[tuple[int, int], int] = {}
        reach = lag_max - t
        for (j, site), c in numers.items():
            land = site + jumps_at[site][j]
            if abs(land) > reach:
                continue
            for k, w in weights[j]:
                key = (k, land)
                got = new.get(key)
                new[key] = c * w if got is None else got + c * w
        numers = new
        denom_t *= den
        ret = numers.get((cell, 0), 0)
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
