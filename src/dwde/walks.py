"""The skew-product walk: exact orbits, seeded symbol sampling, ensembles.

Two simulation modes.  Exact mode iterates the base map on a rational
point, which is meaningful at desk-scale horizons (digits grow at most
linearly); it reads its symbols from the map's integer orbit coder
(MarkovIntervalMap.coding), while `step` applies the map on Fractions
and serves as its reference.  Symbolic mode never touches the base
point: under Lebesgue measure the symbol stream is an explicit i.i.d.
(full branch) or Markov (general branch) process, so sampling symbols
reproduces the walk's law exactly while costing O(1) per step.  Symbol draws come from
the counter-based PRF keyed on (seed, env index, walk index, step), so
ensembles are reproducible and order-independent; batches are evaluated
as numpy vectors across all (environment, walk) pairs at once.  A
walk's symbols never depend on its site, so they are drawn one block of
steps at a time: one PRF round per block, then one pick for i.i.d.
symbols (prf.pick_keyed, which on dyadic cell measures picks before the
round's last shift-xor), or for Markov symbols one pick per cell and a
select pass that follows each walk's chain (prf.markov_path for a
scalar walk, prf.markov_paths across a batch), on threshold rows the map
builds once (MarkovIntervalMap.symbol_rows).  A batch then steps every
walk by one gather per step from a next-position table, on int32
positions whenever the table allows (_BatchEngine).  A caller may drop
walks between blocks (_BatchEngine.keep), and each block spans as many
steps as fit the live walks, so taboo_hit steps only the walks it has
not decided yet.  Exact and scalar symbolic walks look up each visited
site's jumps once per call.  A batched call takes at most a fixed
DEFAULT_STEP_BUDGET = 4·10⁹ walk-steps (environments x walks x steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import prf
from .environments import EnvironmentModel, realize, require_cells
from .errors import BudgetExceededError, HorizonZeroError
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


# PRF elements drawn per symbol block: a block's (steps x walks) arrays
# stay cache-resident, and at few walks a block spans many steps
BLOCK_ELEMENTS = 1 << 15


def _symbols(m: MarkovIntervalMap, walk_seed: int, n_steps: int):
    """The Lebesgue-law symbols of steps 1..n_steps, a block at a time.

    Step t draws hash_u64(walk_seed, DOMAIN_WALK, t); the first symbol
    follows the marginal law and, on a Markov-branch map, each later one
    the row of the symbol before it.
    """
    key = prf.hash_u64(walk_seed, prf.DOMAIN_WALK)
    rows = m.symbol_rows
    state = m.num_cells  # the start row
    for t in range(1, n_steps + 1, BLOCK_ELEMENTS):
        counters = np.arange(t, min(t + BLOCK_ELEMENTS, n_steps + 1), dtype=np.int64)
        if m.full_branch:
            yield from prf.pick_keyed(rows[-1], key, counters).tolist()
        else:
            block = prf.markov_path(prf.absorb_array(key, counters), rows, state)
            state = block[-1]
            yield from block


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
    require_cells(getattr(env, "model", None), m.num_cells)
    site = start.site
    min_site = max_site = site
    first_return = None
    hit_times: dict[int, int] = {}
    path = [site] if record_every else None

    if mode == SYMBOLIC:
        symbols = _symbols(m, walk_seed, n_steps)
    elif mode == EXACT:
        if start.x is None:
            raise ValueError("exact mode needs a rational start point")
        symbols = m.coding(Fraction(start.x))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # env.at is a pure function of the site: look each one up once
    jumps_at: dict[int, tuple[int, ...]] = {}
    for t, j in zip(range(1, n_steps + 1), symbols):
        jumps = jumps_at.get(site)
        if jumps is None:
            jumps = jumps_at[site] = env.at(site).jumps
        site += jumps[j]
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
    table: the position of site i of environment e is
    ``origin + i * num_cells``, and entry ``position + symbol`` holds the
    position after that step.  The table, the positions and the path are
    int32 whenever the table has fewer than 2^31 entries, and int64
    otherwise.  A walk's symbols never depend on its site, so they are
    drawn one block of steps at a time: one PRF round over a (steps x
    walks) array, with max(1, BLOCK_ELEMENTS // walks) steps per block
    and no block past the horizon, then one pick for a full-branch map
    (prf.pick_keyed, which skips the round's last shift-xor when every
    edge of the marginal law has its low 33 bits zero) or, for a
    Markov-branch map, the symbol chain's candidates and one gather per
    step (prf.markov_paths).  keep() drops walks between blocks, with
    their streams, origins and symbol chain states, and later blocks span
    more steps of the fewer live walks, in views of the buffers
    allocated for the first block.  A walk's
    symbols are keyed on (stream, step), so they do not depend on where
    the blocks begin.  Walk w of
    environment e draws its i.i.d. symbols from the stream keyed on
    walk_seed = hash_u64(master_seed, DOMAIN_WALK, e, w), and its Markov
    symbols from hash_u64(walk_seed, DOMAIN_WALK), as a scalar walk
    does.  A step is then one index add and one gather.  Sites are
    ``(pos - origin) // num_cells``, and for a fixed walk the position
    is increasing in the site.
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
        k = self.k = m.num_cells
        model = envs[0].model
        # one jump table serves every environment, and the gathers clip
        require_cells(model, k)
        if any(env.model != model for env in envs):
            raise ValueError("a batch walks one environment model")
        n_envs = len(envs)
        width = window_hi - window_lo + 1
        # positions index the table, so int32 holds them whenever it can
        dtype = np.int32 if n_envs * width * k < 2**31 else np.int64
        deltas = k * np.array([f.jumps for f in model.support], dtype=dtype)
        table = np.empty((n_envs, width, k), dtype=dtype)
        for e, env in enumerate(envs):
            table[e] = deltas[env.index_window(window_lo, window_hi)]
        # add each entry's own site position: the table holds next positions
        table += k * np.arange(n_envs * width, dtype=dtype).reshape(n_envs, width, 1)
        self.table = table.ravel()

        env_ids = np.repeat(np.arange(n_envs, dtype=np.int64), n_walks)
        walk_ids = np.tile(np.arange(n_walks, dtype=np.int64), n_envs)
        base = prf.hash_u64(master_seed, prf.DOMAIN_WALK)
        self.streams = prf.absorb_array(prf.absorb_array(base, env_ids), walk_ids)
        self.origin = (env_ids * width - window_lo) * k
        self.pos = (self.origin + start_sites.astype(np.int64) * k).astype(dtype)
        self.thresholds = m.symbol_rows[-1]  # the marginal law
        self.rows = None if m.full_branch else m.symbol_rows
        if self.rows is not None:
            self.streams = prf.hash_u64_seeds(self.streams, prf.DOMAIN_WALK)
            self.state = np.full(len(self.pos), k, dtype=np.int64)  # the start row

    def keep(self, idx: np.ndarray) -> None:
        """Keep only the walks at indices idx, in that order; the next
        block steps only them."""
        self.pos = self.pos[idx]
        self.streams = self.streams[idx]
        self.origin = self.origin[idx]
        if self.rows is not None:
            self.state = self.state[idx]

    def blocks(self, n_steps: int):
        """Advance the live walks n_steps steps, one symbol block at a time.

        Yields (t, path) per block: path[r] holds every live walk's
        position after step t + r.  The array is overwritten by the next
        block.  The caller may drop walks with keep() between blocks.  A
        block spans max(1, BLOCK_ELEMENTS // live) steps of the live
        walks, but no more than fit the first block's elements and none
        past the horizon; the blocks end early once no walk is live.
        """
        walks = len(self.pos)
        # the first block's elements; no later block holds more
        size = min(n_steps, max(1, BLOCK_ELEMENTS // walks)) * walks
        u_buf = np.empty(size, dtype=np.uint64)
        # the narrowest dtype holding a symbol: less memory per step
        symbols_buf = np.empty(size, dtype=np.min_scalar_type(self.k - 1))
        path_buf = np.empty(size, dtype=self.table.dtype)
        idx_buf = np.empty(walks, dtype=self.table.dtype)
        take = self.table.take  # the method, without np.take's wrapper
        t = 1
        while t <= n_steps and len(self.pos):
            live = len(self.pos)
            n = min(max(1, BLOCK_ELEMENTS // live), size // live, n_steps + 1 - t)
            u = u_buf[: n * live].reshape(n, live)
            symbols = symbols_buf[: n * live].reshape(n, live)
            path = path_buf[: n * live].reshape(n, live)
            idx = idx_buf[:live]
            counters = np.arange(t, t + n, dtype=np.int64)[:, None]
            if self.rows is None:
                prf.pick_keyed(self.thresholds, self.streams, counters, out=symbols, work=u)
            else:
                prf.absorb_array(self.streams, counters, out=u)
                prf.markov_paths(u, self.rows, self.state, out=symbols)
                self.state = symbols[n - 1]
            prev = self.pos
            for r in range(n):
                np.add(prev, symbols[r], out=idx)
                # the window covers every walk's reach, so no index is
                # clipped; "clip" lets take write to path unbuffered
                take(idx, out=path[r], mode="clip")
                prev = path[r]
            self.pos = prev
            yield t, path
            t += n

    def sites(self, pos: np.ndarray | None = None) -> np.ndarray:
        """Sites of the given positions (default: the current ones)."""
        return ((self.pos if pos is None else pos) - self.origin) // self.k


def _require_walks(n_walks: int, n_envs: int = 1) -> None:
    """Reject an empty batch before any work."""
    if n_envs < 1:
        raise ValueError(f"need at least one environment, got n_envs={n_envs}")
    if n_walks < 1:
        raise ValueError(f"need at least one walk, got n_walks={n_walks}")


def require_budget(total_steps: int) -> None:
    """Refuse a request of more than DEFAULT_STEP_BUDGET walk-steps."""
    if total_steps > DEFAULT_STEP_BUDGET:
        raise BudgetExceededError(
            f"{total_steps} total steps exceed the budget of {DEFAULT_STEP_BUDGET}"
        )


def simulate_batch(
    m: MarkovIntervalMap,
    envs: list,
    n_walks: int,
    n_steps: int,
    master_seed: int,
    start_site: int = 0,
) -> list[BatchResult]:
    """Symbolic-mode ensembles for several environments at once.

    Walk (e, w) uses the PRF stream keyed on (master_seed, e, w), so
    results are independent of batching and iteration order.  Returns
    one BatchResult per environment, in input order.
    """
    if n_steps < 1:
        raise HorizonZeroError("need at least one step")
    n_envs = len(envs)
    _require_walks(n_walks, n_envs)
    require_budget(n_envs * n_walks * n_steps)
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
    first_return = np.full(total, -1, dtype=np.int64)
    returned = np.empty(total, dtype=bool)
    for t, path in eng.blocks(n_steps):
        for s, pos in enumerate(path, t):
            np.minimum(min_pos, pos, out=min_pos)
            np.maximum(max_pos, pos, out=max_pos)
            np.equal(pos, pending, out=returned)
            if returned.any():
                first_return[returned] = s
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
        if self.taboo_block == self.target_block:
            raise ValueError("the taboo block must differ from the target block")


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
) -> TabooResult:
    """Monte Carlo estimate of a block taboo-hitting fraction.

    Starts are uniform over the block's sites with Lebesgue-uniform base
    points (the block's natural normalized measure).
    """
    _require_walks(n_walks)
    require_budget(n_walks * query.horizon)
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

    # one environment, so every walk's origin is -lo * k and the sites
    # of a block are the positions [(j*bound - lo) * k, + bound * k)
    width = bound * eng.k
    target = (query.target_block * bound - lo) * eng.k
    taboo = None if query.taboo_block is None else (query.taboo_block * bound - lo) * eng.k
    successes = 0
    for _, path in eng.blocks(query.horizon):
        in_target = (path >= target) & (path < target + width)
        if taboo is None:
            entered = in_target
        else:
            entered = in_target | ((path >= taboo) & (path < taboo + width))
        hit = entered.any(axis=0)
        decide = np.flatnonzero(hit)
        if len(decide):
            first = entered[:, decide].argmax(axis=0)
            successes += int(np.count_nonzero(in_target[first, decide]))
            # step only the walks still undecided from here on
            eng.keep(np.flatnonzero(~hit))
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
) -> EnsembleReport:
    """Seeded multi-environment ensemble with deterministic summaries."""
    if n_steps < 1:
        raise HorizonZeroError("need at least one step")
    _require_walks(n_walks, n_envs)
    require_budget(n_envs * n_walks * n_steps)
    envs = [realize(model, env_seed_for(master_seed, e)) for e in range(n_envs)]
    per_env: list[EnvSummary] = []
    if mode == SYMBOLIC:
        results = simulate_batch(m, envs, n_walks, n_steps, master_seed, start_site)
        for e, res in enumerate(results):
            per_env.append(EnvSummary(e, envs[e].env_seed, res))
    elif mode == EXACT:
        for e, env in enumerate(envs):
            rows = []  # (final, min, max, first return or -1) per walk
            for w in range(n_walks):
                x = uniform_rational_start(m, n_steps, master_seed, e, w)
                traj = simulate(m, env, WalkState(x, start_site), n_steps, mode=EXACT)
                frt = traj.first_return_time
                rows.append(
                    (traj.final_site, traj.min_site, traj.max_site, -1 if frt is None else frt)
                )
            columns = np.array(rows, dtype=np.int64).reshape(n_walks, 4).T
            per_env.append(EnvSummary(e, env.env_seed, BatchResult(*columns)))
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
