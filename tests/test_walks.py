"""Walk-engine tests: exact orbits, symbolic law, ensembles, taboo queries."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from dwde import prf
from dwde import walks as walks_module
from dwde.environments import fixed_model, fn, iid_model, markov_model, realize, shift
from dwde.errors import (
    BudgetExceededError,
    HorizonZeroError,
    InvalidModelError,
    OutOfDomainError,
)
from dwde.exact import build_site_chain, return_prob_curve
from dwde.interval_maps import apply, build_map, doubling_map, symbols_of_orbit, triple_map
from dwde.walks import (
    uniform_rational_start,
    TabooQuery,
    WalkState,
    env_seed_for,
    run_ensemble,
    simulate,
    simulate_batch,
    step,
    taboo_hit,
)

F = Fraction


@pytest.fixture
def block_lengths(monkeypatch):
    """The length of every block the batch engine yields, in order."""
    lengths = []
    blocks = walks_module._BatchEngine.blocks

    def recording(self, n_steps):
        for t, path in blocks(self, n_steps):
            lengths.append(len(path))
            yield t, path

    monkeypatch.setattr(walks_module._BatchEngine, "blocks", recording)
    return lengths


class TestStep:
    def test_single_step(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        s = step(m, env, WalkState(F(1, 3), 0))
        assert (s.x, s.site) == (F(2, 3), 1)
        s2 = step(m, env, WalkState(F(2, 3), 5))
        assert (s2.x, s2.site) == (F(1, 3), 4)

    def test_four_steps_alternate(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        s = WalkState(F(1, 3), 0)
        sites = [0]
        for _ in range(4):
            s = step(m, env, s)
            sites.append(s.site)
        assert sites == [0, 1, 0, 1, 0]


class TestSimulateExact:
    def test_period_four_orbit(self):
        # x = 1/5 under doubling: 1/5, 2/5, 4/5, 3/5, 1/5, ...
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        traj = simulate(
            m, env, WalkState(F(1, 5), 0), 8, mode="exact", record_every=1
        )
        assert traj.sites == [0, 1, 2, 1, 0, 1, 2, 1, 0]
        assert traj.first_return_time == 4
        assert traj.min_site == 0 and traj.max_site == 2

    def test_pure_drift(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, 1)), 0)
        traj = simulate(m, env, WalkState(F(1, 7), 0), 50, mode="exact")
        assert traj.final_site == 50
        assert traj.first_return_time is None

    def test_hit_targets(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, 1)), 0)
        traj = simulate(
            m, env, WalkState(F(1, 7), 0), 10, mode="exact", hit_targets=(3, 7)
        )
        assert traj.hit_times == {3: 3, 7: 7}

    def test_zero_horizon(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, 1)), 0)
        with pytest.raises(HorizonZeroError):
            simulate(m, env, WalkState(F(1, 7), 0), 0, mode="exact")

    def test_speed_bound(self):
        m = triple_map()
        model = iid_model([fn(1, 1, -1), fn(-1, 1, 1)])
        env = realize(model, 5)
        traj = simulate(
            m, env, WalkState(F(355, 113 * 7), 0), 200, mode="exact", record_every=1
        )
        diffs = np.abs(np.diff(traj.sites))
        assert diffs.max() <= 1
        assert abs(traj.final_site) <= 200


# branches with non-integer slopes and intercepts, so the integer coder
# rescales its denominator every step: x -> 5x/2 on [0, 2/5) and
# x -> 5x/3 - 2/3 on [2/5, 1]; and an orientation-reversing variant
# x -> 1 - 3x on [0, 1/3), x -> 3x/2 - 1/2 on [1/3, 1]
FIVE_HALVES = (["0", "2/5", "1"], [("5/2", "0"), ("5/3", "-2/3")])
REVERSING = (["0", "1/3", "1"], [("-3", "1"), ("3/2", "-1/2")])
# breakpoints, the end points, a preimage of each breakpoint and generic points
CODER_STARTS = (F(0), F(2, 5), F(1), F(4, 25), F(1, 3), F(2, 9), F(1, 7), F(3, 11), F(13, 17), F(2, 3))


class TestExactCoderMatchesFractions:
    """symbols_of_orbit and exact-mode simulate run on the integer orbit
    coder; apply, cell_of and step stay on Fractions, so each step of
    the coder can be checked against them."""

    @pytest.mark.parametrize("spec", [FIVE_HALVES, REVERSING])
    def test_symbols_of_orbit(self, spec):
        m = build_map(*spec)
        for x0 in CODER_STARTS:
            x, word = x0, []
            for _ in range(60):
                word.append(m.cell_of(x))
                x = apply(m, x)
            assert symbols_of_orbit(m, x0, 60) == tuple(word), x0

    @pytest.mark.parametrize("spec", [FIVE_HALVES, REVERSING])
    def test_simulate_exact(self, spec):
        m = build_map(*spec)
        env = realize(iid_model([fn(1, -1), fn(-1, 1), fn(2, -1), fn(0, 1)]), 3)
        targets, every, n = (-2, 3), 3, 45
        for x0 in CODER_STARTS:
            traj = simulate(
                m, env, WalkState(x0, 1), n, mode="exact",
                hit_targets=targets, record_every=every,
            )
            state, sites = WalkState(x0, 1), [1]
            for _ in range(n):
                state = step(m, env, state)
                sites.append(state.site)
            assert traj.final_site == sites[-1]
            assert (traj.min_site, traj.max_site) == (min(sites), max(sites))
            returns = [t for t in range(1, n + 1) if sites[t] == 1]
            assert traj.first_return_time == (returns[0] if returns else None)
            hits = {}
            for t in range(n, 0, -1):
                if sites[t] in targets:
                    hits[sites[t]] = t
            assert traj.hit_times == hits
            assert traj.sites == sites[::every]

    def test_out_of_domain(self):
        m = build_map(*FIVE_HALVES)
        env = realize(fixed_model(fn(1, -1)), 0)
        assert symbols_of_orbit(m, F(3, 2), 0) == ()
        with pytest.raises(OutOfDomainError):
            symbols_of_orbit(m, F(3, 2), 1)
        with pytest.raises(OutOfDomainError):
            simulate(m, env, WalkState(F(-1, 2), 0), 5, mode="exact")


class TestShiftIdentity:
    def test_exact_mode_shift(self):
        m = doubling_map()
        model = iid_model([fn(1, -1), fn(-1, 1)])
        rng = np.random.default_rng(7)
        for trial in range(20):
            env = realize(model, int(rng.integers(0, 2**62)))
            k = int(rng.integers(-50, 51))
            x = F(int(rng.integers(1, 2**40)), 2**40)
            a = simulate(
                m, env, WalkState(x, k), 300, mode="exact", record_every=1
            )
            b = simulate(
                m, shift(env, k), WalkState(x, 0), 300, mode="exact", record_every=1
            )
            assert a.sites == [s + k for s in b.sites]


class TestSymbolicLaw:
    def test_full_branch_symbol_words_multinomial(self):
        # 10^6 seeded draws of the first 6 symbols: every length-6 word
        # frequency within a golden multinomial threshold of the exact
        # cylinder measure
        m = triple_map()
        n_draws, length = 10**6, 6
        base = prf.hash_u64(99, prf.DOMAIN_WALK)
        streams = prf.absorb_array(
            base, np.arange(n_draws, dtype=np.int64)
        )
        thresholds = prf.choice_thresholds(m.measures)
        word_ids = np.zeros(n_draws, dtype=np.int64)
        for t in range(1, length + 1):
            sym = prf.pick_array(thresholds, prf.absorb_array(streams, t))
            word_ids = word_ids * 3 + sym
        counts = np.bincount(word_ids, minlength=3**length)
        p = 3.0**-length
        dev = np.abs(counts / n_draws - p).max()
        sigma = (p * (1 - p) / n_draws) ** 0.5
        assert dev < 5 * sigma  # golden: observed comfortably below

    def test_first_symbol_frequencies_scalar_sampler(self):
        m = triple_map()
        n = 20000
        counts = np.zeros(3, dtype=int)
        for seed in range(n):
            counts[next(walks_module._symbols(m, seed, 1))] += 1
        freq = counts / n
        assert np.all(np.abs(freq - 1 / 3) < 0.015)

    def test_symbol_rows_are_built_once_per_map(self):
        m = build_map(["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")])
        rows = m.symbol_rows
        assert m.symbol_rows is rows
        assert len(rows) == m.num_cells + 1
        assert rows[-1].tolist() == prf.choice_thresholds(m.measures).tolist()
        # cell 0 covers cells 0 and 1 only, each with probability 1/2
        assert rows[0].tolist() == prf.choice_thresholds((F(1, 2), F(1, 2), F(0))).tolist()

    def test_markov_branch_symbol_law(self):
        # non-full-branch conditional sampling matches cylinder measures
        from dwde.interval_maps import cylinder_measure, enumerate_cylinders

        m = build_map(
            ["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")]
        )
        n = 30000
        counts: dict[tuple, int] = {}
        for seed in range(n):
            word = tuple(walks_module._symbols(m, seed, 3))
            counts[word] = counts.get(word, 0) + 1
        for w in enumerate_cylinders(m, 3):
            p = float(cylinder_measure(m, w))
            got = counts.get(w, 0) / n
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(got - p) < 4 * sigma + 1e-9, w

    def test_exact_vs_symbolic_final_distribution(self):
        # seeded golden KS threshold between the two modes
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        n_steps, n_exact, n_symb = 100, 1000, 4000
        exact_finals = []
        for w in range(n_exact):
            x = uniform_rational_start(m, n_steps, 600, w)
            traj = simulate(m, env, WalkState(x, 0), n_steps, mode="exact")
            exact_finals.append(traj.final_site)
        res = simulate_batch(m, [env], n_symb, n_steps, master_seed=11)[0]
        stat = ks_2samp(exact_finals, res.final_sites).statistic
        assert stat < 0.05  # golden: observed value is well below at these seeds

    def test_return_prob_matches_dp(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        n_steps, n_walks = 400, 4000
        res = simulate_batch(m, [env], n_walks, n_steps, master_seed=3)[0]
        mc = float((res.first_return_times >= 0).mean())
        chain = build_site_chain(m, env, 250)
        dp = return_prob_curve(chain, 0, n_steps)[n_steps]
        se = (dp * (1 - dp) / n_walks) ** 0.5
        assert abs(mc - dp) < 3 * se


class TestBatch:
    def test_scalar_fallback_matches_law(self):
        # a non-full-branch base draws its symbols from the Markov stream
        m = build_map(
            ["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")]
        )
        env = realize(fixed_model(fn(1, -1, 1)), 0)
        res = simulate_batch(m, [env], 200, 50, master_seed=1)[0]
        assert res.final_sites.shape == (200,)
        assert np.abs(res.final_sites).max() <= 50

    def test_batch_deterministic(self):
        m = triple_map()
        model = iid_model([fn(1, 1, -1), fn(-1, 1, 1)])
        envs = [realize(model, s) for s in (5, 6)]
        a = simulate_batch(m, envs, 300, 200, master_seed=42)
        b = simulate_batch(m, envs, 300, 200, master_seed=42)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.final_sites, rb.final_sites)
            assert np.array_equal(ra.first_return_times, rb.first_return_times)

    def test_budget(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        with pytest.raises(BudgetExceededError):
            simulate_batch(m, [env], 10**6, 10**6, 0)

    def test_mixed_models_are_rejected(self):
        # one jump table serves a batch: a second model's +2 jumps would
        # be read off the first model's table
        m = doubling_map()
        envs = [realize(fixed_model(fn(1, -1)), 0), realize(fixed_model(fn(2, 2)), 0)]
        with pytest.raises(ValueError, match="one environment model"):
            simulate_batch(m, envs, 3, 10, 0)
        (alone,) = simulate_batch(m, envs[1:], 3, 10, 0)
        assert alone.final_sites.tolist() == [20, 20, 20]

    @pytest.mark.parametrize("jumps", [(1,), (1, -1, 1)])
    def test_cell_count_must_match_the_map(self, jumps):
        env = realize(fixed_model(fn(*jumps)), 0)
        with pytest.raises(InvalidModelError, match=f"{len(jumps)}-cell functions on a 2-cell"):
            simulate_batch(doubling_map(), [env], 3, 10, 0)

    def test_empty_batch(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        with pytest.raises(ValueError, match="n_walks=0"):
            simulate_batch(m, [env], 0, 10, 0)
        with pytest.raises(ValueError, match="n_envs=0"):
            simulate_batch(m, [], 10, 10, 0)

    def test_min_max_consistency(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        res = simulate_batch(m, [env], 500, 100, master_seed=9)[0]
        assert np.all(res.min_sites <= 0)
        assert np.all(res.max_sites >= 0)
        assert np.all(res.min_sites <= res.final_sites)
        assert np.all(res.final_sites <= res.max_sites)
        # parity: after an even number of +/-1 steps the site is even
        assert np.all((res.final_sites % 2) == 0)


class TestBatchBitIdentity:
    """The batched engine against a plain per-walk loop over the scalar PRF.

    Unequal cell measures, jump bound 2 and two i.i.d. environments, so
    an off-by-one in the folded (env, site, symbol) table, the symbol
    count or the walk streams changes some walk.
    """

    m = build_map(
        ["0", "1/3", "1/2", "1"], [("3", "0"), ("6", "-2"), ("2", "-1")]
    )
    model = iid_model(
        [fn(2, -1, 0), fn(-2, 1, -1), fn(0, 2, 1)], ["1/2", "1/3", "1/6"]
    )

    def walk(self, env, seed, e, w, start, n_steps):
        thresholds = prf.choice_thresholds(self.m.measures)
        site = start
        for t in range(1, n_steps + 1):
            u = prf.hash_u64(seed, prf.DOMAIN_WALK, e, w, t)
            site += env.at(site).jumps[prf.pick(thresholds, u)]
            yield t, site

    @pytest.fixture
    def block_of(self, monkeypatch):
        """Set the PRF elements per symbol block; returns the block length
        the engine then uses for the given number of walks."""

        def block_of(elements, walks):
            if elements is not None:
                monkeypatch.setattr(walks_module, "BLOCK_ELEMENTS", elements)
            env = realize(self.model, 0)
            starts = np.zeros(walks, dtype=np.int64)
            eng = walks_module._BatchEngine(self.m, [env], walks, 0, starts, -2, 2)
            _, path = next(eng.blocks(1000))
            return len(path)

        return block_of

    def check_simulate_batch(self):
        envs = [realize(self.model, s) for s in (11, 12)]
        n_walks, n_steps, seed, start = 40, 60, 2024, 3
        res = simulate_batch(self.m, envs, n_walks, n_steps, seed, start_site=start)
        for e, env in enumerate(envs):
            for w in range(n_walks):
                lo = hi = site = start
                first = -1
                for t, site in self.walk(env, seed, e, w, start, n_steps):
                    lo, hi = min(lo, site), max(hi, site)
                    if first < 0 and site == start:
                        first = t
                r = res[e]
                assert (
                    r.final_sites[w], r.min_sites[w], r.max_sites[w], r.first_return_times[w]
                ) == (site, lo, hi, first)

    def check_taboo(self, target, taboo, horizon):
        """taboo_hit against the per-walk loop; returns the step that
        decides each walk the loop decides."""
        env = realize(self.model, 12)
        q = TabooQuery(start_block=0, target_block=target, taboo_block=taboo, horizon=horizon)
        n_walks, seed = 300, 77
        successes = 0
        decided = []
        for w in range(n_walks):
            start = prf.hash_u64(seed, prf.DOMAIN_START, w) % 2
            for t, site in self.walk(env, seed, 0, w, start, q.horizon):
                block = site // 2
                if block == q.target_block:
                    successes += 1
                if block in (q.target_block, q.taboo_block):
                    decided.append(t)
                    break
        res = taboo_hit(self.m, env, q, n_walks, walk_seed=seed)
        assert 0 < successes < n_walks
        assert res.successes == successes
        return decided

    def test_simulate_batch_matches_per_walk_loop(self, block_of):
        # the module's block for 80 walks is longer than the horizon
        assert block_of(None, 80) == 409
        self.check_simulate_batch()

    @pytest.mark.parametrize(
        "elements, block",
        [
            (80 * 7, 7),  # 60 steps are 8 blocks of 7 and one of 4
            (79, 1),  # more walks than elements: one step per block
        ],
    )
    def test_simulate_batch_across_blocks(self, block_of, elements, block):
        assert block_of(elements, 80) == block
        self.check_simulate_batch()

    @pytest.mark.parametrize("taboo", [-2, None])
    def test_taboo_hit_matches_per_walk_loop(self, taboo):
        self.check_taboo(2, taboo, 40)

    def test_taboo_hit_one_step_per_block(self, block_of):
        assert block_of(299, 300) == 1
        self.check_taboo(2, -2, 40)

    def test_taboo_hit_drops_decided_walks(self, monkeypatch, block_lengths):
        # one step per block at 300 walks; the blocks grow as decided
        # walks leave the batch
        monkeypatch.setattr(walks_module, "BLOCK_ELEMENTS", 300)
        self.check_taboo(2, -2, 40)
        assert block_lengths[0] == 1 < max(block_lengths)
        # only the horizon may cut the last block short
        assert block_lengths[:-1] == sorted(block_lengths[:-1])

    def test_taboo_hit_steps_only_undecided_walks(self, monkeypatch):
        monkeypatch.setattr(walks_module, "BLOCK_ELEMENTS", 1)
        drawn = []
        pick_keyed = prf.pick_keyed

        def counting(thresholds, h, k, out=None, work=None):
            z = pick_keyed(thresholds, h, k, out=out, work=work)
            if z.ndim == 2:  # a block's (steps x walks) symbol draws
                drawn.append(z.size)
            return z

        monkeypatch.setattr(prf, "pick_keyed", counting)
        horizon = 10
        decided = self.check_taboo(2, -2, horizon)
        # walk w draws the symbols of steps 1..d_w: d_w is the step that
        # decides it, or the horizon if none does
        assert 0 < len(decided) < 300 and min(decided) < horizon
        assert sum(drawn) == sum(decided) + (300 - len(decided)) * horizon

    @pytest.mark.parametrize("elements, block", [(None, 109), (300 * 4, 4)])
    def test_taboo_hit_decided_inside_a_block(self, block_of, elements, block):
        assert block_of(elements, 300) == block
        decided = self.check_taboo(1, -1, 200)
        # every walk is decided, at the latest at step 10: inside the
        # first block of 109 steps, and inside the third block of 4
        assert len(decided) == 300 and max(decided) == 10


class TestMarkovBranchBitIdentity:
    """Markov-branch symbol streams against a per-step reference draw.

    Cell 0's image is cells {0, 1} and cell 2's is {1, 2}, so the symbol
    chain's rows hold leading and trailing zero weights, and the
    environment is a Markov chain with jump bound 2, so a select pass
    reading the wrong row, state or draw changes some walk.
    """

    m = build_map(
        ["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("2", "-1")]
    )
    model = markov_model(
        [fn(1, -1, 2), fn(-1, 1, -2), fn(0, 1, -1)],
        [["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"], ["1/4", "0", "3/4"]],
    )

    def symbols(self, walk_seed, n_steps):
        """One hash_u64 and one searchsorted per step, as a scalar walk
        drew them one at a time."""
        m = self.m
        marginal = prf.choice_thresholds(m.measures)
        rows = [
            prf.choice_thresholds(
                tuple(m.measures[k] / m.image_measures[j] for k in m.image_sets[j])
            )
            for j in range(m.num_cells)
        ]
        sym = None
        for t in range(1, n_steps + 1):
            u = np.uint64(prf.hash_u64(walk_seed, prf.DOMAIN_WALK, t))
            if sym is None:
                sym = int(np.searchsorted(marginal, u, side="right"))
            else:
                pick = int(np.searchsorted(rows[sym], u, side="right"))
                sym = m.image_sets[sym][pick]
            yield sym

    def walk(self, env, walk_seed, start, n_steps):
        site = start
        for t, sym in enumerate(self.symbols(walk_seed, n_steps), 1):
            site += env.at(site).jumps[sym]
            yield t, site

    @pytest.fixture(params=[None, 7, 1])
    def block(self, request, monkeypatch):
        """PRF elements per block: one block for the whole horizon, blocks
        of 7 elements, and one element per block."""
        if request.param is not None:
            monkeypatch.setattr(walks_module, "BLOCK_ELEMENTS", request.param)
        return request.param

    def test_simulate_matches_per_step_draw(self, block):
        env = realize(self.model, 5)
        start, n_steps, seed, targets = 2, 300, 31337, (-7, 3, 12)
        traj = simulate(
            self.m, env, WalkState(None, start), n_steps, walk_seed=seed,
            hit_targets=targets, record_every=4,
        )
        lo = hi = site = start
        first, hits, path = None, {}, [start]
        for t, site in self.walk(realize(self.model, 5), seed, start, n_steps):
            lo, hi = min(lo, site), max(hi, site)
            if first is None and site == start:
                first = t
            if site in targets and site not in hits:
                hits[site] = t
            if t % 4 == 0:
                path.append(site)
        assert (traj.final_site, traj.min_site, traj.max_site) == (site, lo, hi)
        assert traj.first_return_time == first and first is not None
        assert traj.hit_times == hits and len(hits) >= 2
        assert traj.sites == path

    def test_simulate_batch_matches_per_walk_loop(self, block):
        envs = [realize(self.model, s) for s in (11, 12)]
        n_walks, n_steps, seed, start = 30, 60, 2024, -1
        res = simulate_batch(self.m, envs, n_walks, n_steps, seed, start_site=start)
        # the per-walk loop of the scalar batch path this engine replaced
        for e, env in enumerate(envs):
            finals = np.empty(n_walks, dtype=np.int64)
            mins = np.empty(n_walks, dtype=np.int64)
            maxs = np.empty(n_walks, dtype=np.int64)
            frts = np.empty(n_walks, dtype=np.int64)
            for w in range(n_walks):
                walk_seed = prf.hash_u64(seed, prf.DOMAIN_WALK, e, w)
                traj = simulate(
                    self.m, env, WalkState(None, start), n_steps, "symbolic", walk_seed
                )
                finals[w] = traj.final_site
                mins[w] = traj.min_site
                maxs[w] = traj.max_site
                frts[w] = -1 if traj.first_return_time is None else traj.first_return_time
            assert np.array_equal(res[e].final_sites, finals)
            assert np.array_equal(res[e].min_sites, mins)
            assert np.array_equal(res[e].max_sites, maxs)
            assert np.array_equal(res[e].first_return_times, frts)
            assert (frts >= 0).any() and (frts < 0).any()

    def test_taboo_hit_matches_per_walk_loop(self, block):
        self.check_taboo()

    def test_taboo_hit_drops_decided_walks(self, monkeypatch, block_lengths):
        # one step per block at 200 walks: each walk's symbol chain state
        # is kept with it as decided walks leave the batch
        monkeypatch.setattr(walks_module, "BLOCK_ELEMENTS", 200)
        self.check_taboo()
        assert block_lengths[0] == 1 < max(block_lengths)
        assert block_lengths[:-1] == sorted(block_lengths[:-1])

    def check_taboo(self):
        env = realize(self.model, 12)
        q = TabooQuery(start_block=0, target_block=2, taboo_block=-2, horizon=40)
        n_walks, seed = 200, 77
        successes = 0
        for w in range(n_walks):
            start = prf.hash_u64(seed, prf.DOMAIN_START, w) % 2
            walk_seed = prf.hash_u64(seed, prf.DOMAIN_WALK, 0, w)
            for _, site in self.walk(env, walk_seed, start, q.horizon):
                if site // 2 in (q.target_block, q.taboo_block):
                    successes += site // 2 == q.target_block
                    break
        assert 0 < successes < n_walks
        assert taboo_hit(self.m, env, q, n_walks, walk_seed=seed).successes == successes


class TestTaboo:
    def test_empty_batch(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        q = TabooQuery(start_block=0, target_block=1, taboo_block=-1, horizon=10)
        with pytest.raises(ValueError, match="n_walks=0"):
            taboo_hit(m, env, q, n_walks=0)

    def test_taboo_block_must_differ_from_target(self):
        with pytest.raises(ValueError, match="taboo block"):
            TabooQuery(start_block=0, target_block=2, taboo_block=2, horizon=10)

    def test_first_step_decides(self):
        # target and taboo adjacent to start: first step is the first entry
        m = triple_map()
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        q = TabooQuery(start_block=0, target_block=1, taboo_block=-1, horizon=1000)
        res = taboo_hit(m, env, q, n_walks=20000, walk_seed=123)
        se = (2 / 3 * 1 / 3 / 20000) ** 0.5
        assert abs(res.fraction - 2 / 3) < 3 * se

    def test_return_fraction_matches_dp(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        horizon = 300
        q = TabooQuery(start_block=0, target_block=0, taboo_block=None, horizon=horizon)
        res = taboo_hit(m, env, q, n_walks=8000, walk_seed=77)
        chain = build_site_chain(m, env, 200)
        dp = return_prob_curve(chain, 0, horizon)[horizon]
        se = (dp * (1 - dp) / 8000) ** 0.5
        assert abs(res.fraction - dp) < 3 * se

    def test_unreachable_target(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        q = TabooQuery(start_block=0, target_block=50, taboo_block=None, horizon=10)
        res = taboo_hit(m, env, q, n_walks=100, walk_seed=1)
        assert res.fraction == 0.0

    def test_wide_blocks_jump_bound_two(self):
        # jump bound 2: blocks are 2 sites wide, first step still decides
        m = doubling_map()
        env = realize(fixed_model(fn(2, -2)), 0)
        q = TabooQuery(start_block=0, target_block=1, taboo_block=-1, horizon=100)
        res = taboo_hit(m, env, q, n_walks=20000, walk_seed=5)
        se = (0.25 / 20000) ** 0.5
        assert abs(res.fraction - 0.5) < 3 * se


class TestEnsemble:
    def test_fixed_drift_all_walks(self):
        m = doubling_map()
        report = run_ensemble(
            m, fixed_model(fn(1, 1)), 1, 50, 200, master_seed=5
        )
        summary = report.per_env[0]
        assert np.all(summary.result.final_sites == 200)
        assert summary.return_fraction == 0.0
        assert summary.direction_votes == {"right": 50, "left": 0, "origin": 0}

    def test_symmetric_mean_near_zero(self):
        m = doubling_map()
        model = iid_model([fn(1, -1), fn(-1, 1)])
        report = run_ensemble(m, model, 4, 2500, 400, master_seed=21)
        finals = np.concatenate([s.result.final_sites for s in report.per_env])
        # step variance is 1, so the ensemble mean has sd sqrt(400/10^4)
        sd = (400 / len(finals)) ** 0.5
        assert abs(float(finals.mean())) < 3 * sd

    def test_exact_mode_ensemble(self):
        m = doubling_map()
        model = iid_model([fn(1, -1), fn(-1, 1)])
        report = run_ensemble(m, model, 2, 20, 100, mode="exact", master_seed=8)
        assert len(report.per_env) == 2
        for s in report.per_env:
            assert np.abs(s.result.final_sites).max() <= 100

    @pytest.mark.parametrize("mode", ["symbolic", "exact"])
    def test_empty_ensemble(self, mode):
        m = doubling_map()
        model = fixed_model(fn(1, 1))
        with pytest.raises(ValueError, match="n_walks=0"):
            run_ensemble(m, model, 1, 0, 10, mode=mode)
        with pytest.raises(ValueError, match="n_envs=0"):
            run_ensemble(m, model, 0, 10, 10, mode=mode)

    def test_env_seed_derivation_stable(self):
        assert env_seed_for(1, 0) != env_seed_for(1, 1)
        assert env_seed_for(1, 5) == env_seed_for(1, 5)
