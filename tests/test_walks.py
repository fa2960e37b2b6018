"""Walk-engine tests: exact orbits, symbolic law, ensembles, taboo queries."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from dwde import prf
from dwde.environments import fixed_model, fn, iid_model, realize, shift
from dwde.errors import BudgetExceededError, HorizonZeroError
from dwde.exact import build_site_chain, return_prob_curve
from dwde.interval_maps import build_map, doubling_map, triple_map
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
        from dwde.walks import _SymbolSampler

        m = triple_map()
        n = 20000
        counts = np.zeros(3, dtype=int)
        for seed in range(n):
            s = _SymbolSampler(m, seed)
            counts[s.draw(1)] += 1
        freq = counts / n
        assert np.all(np.abs(freq - 1 / 3) < 0.015)

    def test_markov_branch_symbol_law(self):
        # non-full-branch conditional sampling matches cylinder measures
        from dwde.interval_maps import cylinder_measure, enumerate_cylinders
        from dwde.walks import _SymbolSampler

        m = build_map(
            ["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")]
        )
        n = 30000
        counts: dict[tuple, int] = {}
        for seed in range(n):
            s = _SymbolSampler(m, seed)
            word = tuple(s.draw(t) for t in range(1, 4))
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
        # non-full-branch base goes through the scalar sampler
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

    def test_simulate_batch_matches_per_walk_loop(self):
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

    @pytest.mark.parametrize("taboo", [-2, None])
    def test_taboo_hit_matches_per_walk_loop(self, taboo):
        env = realize(self.model, 12)
        q = TabooQuery(start_block=0, target_block=2, taboo_block=taboo, horizon=40)
        n_walks, seed = 300, 77
        successes = 0
        for w in range(n_walks):
            start = prf.hash_u64(seed, prf.DOMAIN_START, w) % 2
            for _, site in self.walk(env, seed, 0, w, start, q.horizon):
                block = site // 2
                if block == q.target_block:
                    successes += 1
                    break
                if block == q.taboo_block:
                    break
        res = taboo_hit(self.m, env, q, n_walks, walk_seed=seed)
        assert 0 < successes < n_walks
        assert res.successes == successes


class TestTaboo:
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

    def test_env_seed_derivation_stable(self):
        assert env_seed_for(1, 0) != env_seed_for(1, 1)
        assert env_seed_for(1, 5) == env_seed_for(1, 5)
