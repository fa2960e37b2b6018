"""The skew-product walk: exact orbits, seeded symbol sampling, ensembles.

Two simulation modes.  Exact mode iterates the base map on a rational
point, which is meaningful at desk-scale horizons (digits grow at most
linearly).  Symbolic mode never touches the base point: under Lebesgue
measure the symbol stream is an explicit i.i.d. (full branch) or
Markov (general branch) process, so sampling symbols reproduces the
walk's law exactly while costing O(1) per step.  Symbol draws come from
the counter-based PRF keyed on (seed, env index, walk index, step), so
ensembles are reproducible and order-independent; batches are evaluated
as numpy vectors across all (environment, walk) pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import prf
from .environments import EnvironmentModel, realize
from .errors import BudgetExceededError, HorizonZeroError, UnsupportedBaseError
from .interval_maps import MarkovIntervalMap

DEFAULT_STEP_BUDGET = 4 * 10**9

EXACT = "exact"
SYMBOLIC = "symbolic"


@dataclass(frozen=True)
class WalkState:
    x: Fraction | None
    site: int


@dataclass
class Trajectory:
    start_site: int
    n_steps: int
    mode: str
    final_site: int
    min_site: int
    max_site: int
    first_return_time: int | None
    hit_times: dict[int, int] = field(default_factory=dict)
    sites: list[int] | None = None  # thinned path, None unless recorded


def step(m: MarkovIntervalMap, env, state: WalkState) -> WalkState:
    """One application of (x, i) -> (Tx, i + f_i(x)); exact."""
    j = m.cell_of(state.x)
    x = m.slopes[j] * state.x + m.intercepts[j]
    return WalkState(x, state.site + env.at(state.site).jumps[j])


def uniform_rational_start(
    m: MarkovIntervalMap, n_steps: int, seed: int, *indices: int
) -> Fraction:
    """A seeded near-uniform rational point whose coding stays faithful
    for n_steps.

    The denominator is a prime power coprime to every slope, so the
    orbit's denominator never collapses (a dyadic point under the
    doubling map would hit 0 within ~bit-depth steps), and it is deep
    enough that grid effects are far below the rank-n cylinder scale.
    """
    slope_primes: set[int] = set()
    for s in m.slopes:
        for value in (abs(s.numerator), s.denominator):
            d = 2
            while d * d <= value:
                if value % d == 0:
                    slope_primes.add(d)
                    while value % d == 0:
                        value //= d
                d += 1
            if value > 1:
                slope_primes.add(value)
    q = next(p for p in (2, 3, 5, 7, 11, 13, 17) if p not in slope_primes)
    max_slope = max(float(abs(s)) for s in m.slopes)
    bits_needed = int(n_steps * np.log2(max_slope)) + 64
    exp = bits_needed // int(np.log2(q)) + 1
    denom = q**exp
    draws = (denom.bit_length() + 127) // 64
    r = 0
    for d in range(draws):
        r = (r << 64) | prf.hash_u64(seed, prf.DOMAIN_START, *indices, d)
    return Fraction(r % denom, denom)


class _SymbolSampler:
    """Seeded symbol stream with the exact Lebesgue law of the coding."""

    def __init__(self, m: MarkovIntervalMap, walk_seed: int):
        self.m = m
        self.seed = walk_seed
        self.marginal = prf.choice_thresholds(m.measures)
        if m.full_branch:
            self.rows = None
        else:
            self.rows = [
                prf.choice_thresholds(
                    tuple(m.measures[k] / m.image_measures[j] for k in m.image_sets[j])
                )
                for j in range(m.num_cells)
            ]
        self.prev: int | None = None

    def draw(self, t: int) -> int:
        u = prf.hash_u64(self.seed, prf.DOMAIN_WALK, t)
        if self.prev is None or self.rows is None:
            sym = prf.pick(self.marginal, u)
        else:
            row = self.m.image_sets[self.prev]
            sym = row[prf.pick(self.rows[self.prev], u)]
        self.prev = sym
        return sym


def simulate(
    m: MarkovIntervalMap,
    env,
    start: WalkState,
    n_steps: int,
    mode: str = SYMBOLIC,
    walk_seed: int = 0,
    hit_targets: tuple[int, ...] = (),
    record_every: int | None = None,
) -> Trajectory:
    """Run one walk and summarize it.

    Exact mode requires a rational start.x; symbolic mode ignores it and
    draws the point implicitly through its symbol stream.
    """
    if n_steps < 1:
        raise HorizonZeroError("need at least one step")
    site = start.site
    min_site = max_site = site
    first_return = None
    hit_times: dict[int, int] = {}
    path = [site] if record_every else None

    sampler = None
    x = None
    if mode == SYMBOLIC:
        sampler = _SymbolSampler(m, walk_seed)
    elif mode == EXACT:
        if start.x is None:
            raise ValueError("exact mode needs a rational start point")
        x = Fraction(start.x)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    for t in range(1, n_steps + 1):
        if sampler is not None:
            j = sampler.draw(t)
        else:
            j = m.cell_of(x)
            x = m.slopes[j] * x + m.intercepts[j]
        site += env.at(site).jumps[j]
        if site < min_site:
            min_site = site
        elif site > max_site:
            max_site = site
        if first_return is None and site == start.site:
            first_return = t
        if site in hit_targets and site not in hit_times:
            hit_times[site] = t
        if record_every and t % record_every == 0:
            path.append(site)

    return Trajectory(
        start_site=start.site,
        n_steps=n_steps,
        mode=mode,
        final_site=site,
        min_site=min_site,
        max_site=max_site,
        first_return_time=first_return,
        hit_times=hit_times,
        sites=path,
    )


@dataclass
class BatchResult:
    """Per-walk summaries for a vectorized batch, ordered by walk index."""

    final_sites: np.ndarray
    min_sites: np.ndarray
    max_sites: np.ndarray
    first_return_times: np.ndarray  # -1 where the walk never returned


class _BatchEngine:
    """Vectorized symbolic walks over flattened (env, walk) pairs.

    Each walk is tracked by its position in one flat (env, site, symbol)
    table whose entries are the position change of that step, i.e. the
    site's jump for the symbol times the cell count.  A step is then one
    PRF round, one compare per interior edge, one gather and one add.
    Sites are ``(pos - origin) // num_cells``, and for a fixed walk the
    position is increasing in the site.
    """

    def __init__(
        self,
        m: MarkovIntervalMap,
        envs: list,
        n_walks: int,
        master_seed: int,
        start_sites: np.ndarray,
        window_lo: int,
        window_hi: int,
    ):
        if not m.full_branch:
            raise UnsupportedBaseError(
                "the batched engine samples i.i.d. symbols; "
                "use scalar simulate() for Markov-branch bases"
            )
        k = self.k = m.num_cells
        n_envs = len(envs)
        width = window_hi - window_lo + 1
        deltas = k * np.array([f.jumps for f in envs[0].model.support], dtype=np.int64)
        # narrowest signed dtype holding +-max|delta| (int8 for every preset)
        deltas = deltas.astype(np.min_scalar_type(-1 - int(np.abs(deltas).max())))
        table = np.empty((n_envs, width, k), dtype=deltas.dtype)
        for e, env in enumerate(envs):
            table[e] = deltas[env.index_window(window_lo, window_hi)]
        self.table = table.ravel()

        env_ids = np.repeat(np.arange(n_envs, dtype=np.int64), n_walks)
        walk_ids = np.tile(np.arange(n_walks, dtype=np.int64), n_envs)
        base = prf.hash_u64(master_seed, prf.DOMAIN_WALK)
        self.streams = prf.absorb_array(prf.absorb_array(base, env_ids), walk_ids)
        self.origin = (env_ids * width - window_lo) * k
        self.pos = self.origin + start_sites.astype(np.int64) * k
        self.thresholds = prf.choice_thresholds(m.measures)
        self._u = np.empty(len(self.pos), dtype=np.uint64)
        self._idx = np.empty(len(self.pos), dtype=np.int64)
        self._delta = np.empty(len(self.pos), dtype=self.table.dtype)

    def advance(self, t: int) -> None:
        u = prf.absorb_array(self.streams, t, out=self._u)
        idx = prf.pick_array(self.thresholds, u, out=self._idx, base=self.pos)
        # the window covers every walk's reach, so no index is clipped;
        # "clip" only lets take write to out without a buffered copy
        np.take(self.table, idx, out=self._delta, mode="clip")
        self.pos += self._delta

    def sites(self, pos: np.ndarray | None = None) -> np.ndarray:
        """Sites of the given positions (default: the current ones)."""
        return ((self.pos if pos is None else pos) - self.origin) // self.k


def _require_budget(total_steps: int, budget: int) -> None:
    if total_steps > budget:
        raise BudgetExceededError(
            f"{total_steps} total steps exceed the budget of {budget}"
        )


def simulate_batch(
    m: MarkovIntervalMap,
    envs: list,
    n_walks: int,
    n_steps: int,
    master_seed: int,
    start_site: int = 0,
    budget: int = DEFAULT_STEP_BUDGET,
) -> list[BatchResult]:
    """Symbolic-mode ensembles for several environments at once.

    Walk (e, w) uses the PRF stream keyed on (master_seed, e, w), so
    results are independent of batching and iteration order.  Returns
    one BatchResult per environment, in input order.
    """
    if n_steps < 1:
        raise HorizonZeroError("need at least one step")
    n_envs = len(envs)
    _require_budget(n_envs * n_walks * n_steps, budget)
    if not m.full_branch:
        # Markov-branch bases need symbol-conditional sampling; scalar path
        return [
            _scalar_batch(m, env, e, n_walks, n_steps, master_seed, start_site)
            for e, env in enumerate(envs)
        ]
    jump_bound = envs[0].model.jump_bound
    lo = start_site - n_steps * jump_bound
    hi = start_site + n_steps * jump_bound
    total = n_envs * n_walks
    starts = np.full(total, start_site, dtype=np.int64)
    eng = _BatchEngine(m, envs, n_walks, master_seed, starts, lo, hi)

    min_pos = eng.pos.copy()
    max_pos = eng.pos.copy()
    # start positions of the walks that have not returned yet; -1 (never
    # a table position) once they have
    pending = eng.pos.copy()
    returned = np.empty(total, dtype=bool)
    first_return = np.full(total, -1, dtype=np.int64)
    for t in range(1, n_steps + 1):
        eng.advance(t)
        np.minimum(min_pos, eng.pos, out=min_pos)
        np.maximum(max_pos, eng.pos, out=max_pos)
        np.equal(eng.pos, pending, out=returned)
        if returned.any():
            first_return[returned] = t
            pending[returned] = -1
    final_sites = eng.sites()
    min_sites = eng.sites(min_pos)
    max_sites = eng.sites(max_pos)
    out = []
    for e in range(n_envs):
        sl = slice(e * n_walks, (e + 1) * n_walks)
        out.append(
            BatchResult(
                final_sites=final_sites[sl].copy(),
                min_sites=min_sites[sl].copy(),
                max_sites=max_sites[sl].copy(),
                first_return_times=first_return[sl].copy(),
            )
        )
    return out


def _scalar_batch(
    m: MarkovIntervalMap,
    env,
    env_index: int,
    n_walks: int,
    n_steps: int,
    master_seed: int,
    start_site: int,
) -> BatchResult:
    finals = np.empty(n_walks, dtype=np.int64)
    mins = np.empty(n_walks, dtype=np.int64)
    maxs = np.empty(n_walks, dtype=np.int64)
    frts = np.empty(n_walks, dtype=np.int64)
    for w in range(n_walks):
        walk_seed = prf.hash_u64(master_seed, prf.DOMAIN_WALK, env_index, w)
        traj = simulate(m, env, WalkState(None, start_site), n_steps, SYMBOLIC, walk_seed)
        finals[w] = traj.final_site
        mins[w] = traj.min_site
        maxs[w] = traj.max_site
        frts[w] = -1 if traj.first_return_time is None else traj.first_return_time
    return BatchResult(finals, mins, maxs, frts)


@dataclass(frozen=True)
class TabooQuery:
    """First-entry question in jump-bound blocks.

    Block j covers sites j*M .. (j+1)*M - 1 where M is the environment's
    jump bound.  A walk from the start block succeeds when its first
    visit (at time >= 1) to the union of target and taboo blocks lands
    in the target; with no taboo block, success is simply reaching the
    target block within the horizon.
    """

    start_block: int
    target_block: int
    taboo_block: int | None
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise HorizonZeroError("taboo query horizon must be >= 1")


@dataclass(frozen=True)
class TabooResult:
    fraction: float
    successes: int
    n_walks: int


def taboo_hit(
    m: MarkovIntervalMap,
    env,
    query: TabooQuery,
    n_walks: int,
    walk_seed: int = 0,
    budget: int = DEFAULT_STEP_BUDGET,
) -> TabooResult:
    """Monte Carlo estimate of a block taboo-hitting fraction.

    Starts are uniform over the block's sites with Lebesgue-uniform base
    points (the block's natural normalized measure).
    """
    _require_budget(n_walks * query.horizon, budget)
    bound = env.model.jump_bound
    n = n_walks
    walk_ids = np.arange(n, dtype=np.int64)
    if bound > 1:
        u = prf.hash_u64_array(walk_seed, prf.DOMAIN_START, array=walk_ids)
        offsets = (u % np.uint64(bound)).astype(np.int64)
    else:
        offsets = np.zeros(n, dtype=np.int64)
    starts = query.start_block * bound + offsets

    reach = query.horizon * bound
    lo = int(starts.min()) - reach
    hi = int(starts.max()) + reach
    eng = _BatchEngine(m, [env], n, walk_seed, starts, lo, hi)

    outcome = np.zeros(n, dtype=np.int8)  # 0 undecided, 1 success, 2 failed
    for t in range(1, query.horizon + 1):
        eng.advance(t)
        blocks = np.floor_divide(eng.sites(), bound)
        undecided = outcome == 0
        in_target = blocks == query.target_block
        if query.taboo_block is None:
            newly = undecided & in_target
            outcome[newly] = 1
        else:
            in_taboo = blocks == query.taboo_block
            decide = undecided & (in_target | in_taboo)
            outcome[decide & in_target] = 1
            outcome[decide & ~in_target] = 2
        if not (outcome == 0).any():
            break
    successes = int((outcome == 1).sum())
    return TabooResult(
        fraction=successes / n, successes=successes, n_walks=n
    )


@dataclass
class EnvSummary:
    env_index: int
    env_seed: int
    result: BatchResult

    @property
    def return_fraction(self) -> float:
        fr = self.result.first_return_times
        return float((fr >= 0).mean())

    @property
    def direction_votes(self) -> dict[str, int]:
        final = self.result.final_sites
        return {
            "right": int((final > 0).sum()),
            "left": int((final < 0).sum()),
            "origin": int((final == 0).sum()),
        }


@dataclass
class EnsembleReport:
    master_seed: int
    n_walks: int
    n_steps: int
    mode: str
    start_site: int
    per_env: list[EnvSummary]


def env_seed_for(master_seed: int, env_index: int) -> int:
    return prf.hash_u64(master_seed, prf.DOMAIN_SEED, env_index)


def run_ensemble(
    m: MarkovIntervalMap,
    model: EnvironmentModel,
    n_envs: int,
    n_walks: int,
    n_steps: int,
    mode: str = SYMBOLIC,
    master_seed: int = 0,
    start_site: int = 0,
    budget: int = DEFAULT_STEP_BUDGET,
) -> EnsembleReport:
    """Seeded multi-environment ensemble with deterministic summaries."""
    if n_steps < 1:
        raise HorizonZeroError("need at least one step")
    _require_budget(n_envs * n_walks * n_steps, budget)
    envs = [realize(model, env_seed_for(master_seed, e)) for e in range(n_envs)]
    per_env: list[EnvSummary] = []
    if mode == SYMBOLIC:
        results = simulate_batch(
            m, envs, n_walks, n_steps, master_seed, start_site, budget
        )
        for e, res in enumerate(results):
            per_env.append(EnvSummary(e, envs[e].env_seed, res))
    elif mode == EXACT:
        for e, env in enumerate(envs):
            finals = np.empty(n_walks, dtype=np.int64)
            mins = np.empty(n_walks, dtype=np.int64)
            maxs = np.empty(n_walks, dtype=np.int64)
            frts = np.empty(n_walks, dtype=np.int64)
            for w in range(n_walks):
                x = uniform_rational_start(m, n_steps, master_seed, e, w)
                traj = simulate(
                    m,
                    env,
                    WalkState(x, start_site),
                    n_steps,
                    mode=EXACT,
                )
                finals[w] = traj.final_site
                mins[w] = traj.min_site
                maxs[w] = traj.max_site
                frts[w] = -1 if traj.first_return_time is None else traj.first_return_time
            per_env.append(
                EnvSummary(e, env.env_seed, BatchResult(finals, mins, maxs, frts))
            )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return EnsembleReport(
        master_seed=master_seed,
        n_walks=n_walks,
        n_steps=n_steps,
        mode=mode,
        start_site=start_site,
        per_env=per_env,
    )
