"""Environment generation: purity, shift action, statistics."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest

from dwde import prf
from dwde.environments import (
    ReflectedEnvironment,
    env_at,
    fixed_model,
    fn,
    iid_model,
    markov_model,
    periodic_model,
    realize,
    reflect,
    shift,
    symmetry_and_bounds,
    two_sided_model,
)
from dwde.errors import InvalidModelError

F = Fraction


class TestPrf:
    def test_scalar_matches_vector(self):
        sites = np.arange(-2000, 2000, dtype=np.int64)
        vec = prf.hash_u64_array(1234, prf.DOMAIN_ENV, array=sites)
        for i in (-2000, -1, 0, 1, 1999):
            assert prf.hash_u64(1234, prf.DOMAIN_ENV, i) == int(vec[i + 2000])

    def test_uniformity_rough(self):
        u = prf.hash_u64_array(99, 7, array=np.arange(100000, dtype=np.int64))
        mean = float(u.astype(np.float64).mean()) / 2.0**64
        assert abs(mean - 0.5) < 0.005

    def test_thresholds_partition_range(self):
        t = prf.choice_thresholds((F(1, 3), F(1, 3), F(1, 3)))
        assert len(t) == 2
        assert prf.pick(t, 0) == 0
        assert prf.pick(t, 2**64 - 1) == 2
        counts = np.bincount(
            prf.pick_array(t, prf.hash_u64_array(5, 1, array=np.arange(30000, dtype=np.int64))),
            minlength=3,
        )
        assert counts.sum() == 30000
        assert all(abs(c - 10000) < 400 for c in counts)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            prf.choice_thresholds((F(1, 2), F(1, 3)))

    @pytest.mark.parametrize(
        "weights",
        [
            (F(1, 3), F(2, 3)),
            (F(1, 3), F(1, 6), F(1, 2)),
            (F(1, 6), F(1, 3), F(1, 12), F(1, 4), F(1, 6)),
            (F(1, 2), F(0), F(1, 2)),  # a zero weight repeats an edge
        ],
    )
    def test_pick_array_is_searchsorted_right(self, weights):
        t = prf.choice_thresholds(weights)
        probes = {0, 2**64 - 1}
        for edge in t.tolist():
            probes |= {edge - 1, edge, edge + 1}
        u = np.array(sorted(probes), dtype=np.uint64)
        want = np.searchsorted(t, u, side="right")
        assert np.array_equal(prf.pick_array(t, u), want)
        base = np.arange(len(u), dtype=np.int64) * 10
        out = np.empty(len(u), dtype=np.int64)
        got = prf.pick_array(t, u, out=out, base=base)
        assert got is out and np.array_equal(out, base + want)
        assert [prf.pick(t, int(x)) for x in u] == want.tolist()

    def test_absorb_array_out_matches_scalar_chain(self):
        h = prf.hash_u64_array(3, prf.DOMAIN_WALK, array=np.arange(-50, 50, dtype=np.int64))
        out = np.empty_like(h)
        for k in (0, 7, -1, 2**64 - 1):
            got = prf.absorb_array(h, k, out=out)
            assert got is out
            assert np.array_equal(out, prf.absorb_array(h, k))
            for i in (0, 49, 99):
                assert int(out[i]) == prf.hash_u64(3, prf.DOMAIN_WALK, i - 50, k)


class TestModels:
    def test_fixed(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        for i in (-7, 0, 42):
            assert env_at(env, i) == fn(1, 1, -1)

    def test_periodic_floor_mod(self):
        g, h = fn(1, -1), fn(-1, 1)
        env = realize(periodic_model([g, h]), 0)
        assert env.at(5) == h
        assert env.at(-1) == h
        assert env.at(-2) == g

    def test_two_sided(self):
        neg, pos, origin = fn(1, -1, -1, -1), fn(1, 1, 1, -1), fn(1, 1, -1, -1)
        env = realize(two_sided_model(neg, pos, origin), 0)
        assert env.at(-3) == neg
        assert env.at(0) == origin
        assert env.at(2) == pos
        env2 = realize(two_sided_model(neg, pos), 0)
        assert env2.at(0) == pos

    def test_iid_weight_validation(self):
        with pytest.raises(InvalidModelError):
            iid_model([fn(1, -1)], ["1/2"])
        with pytest.raises(InvalidModelError):
            iid_model([fn(1, -1), fn(-1, 1)], ["1/2", "1/3"])
        with pytest.raises(InvalidModelError):
            iid_model([fn(1, -1), fn(-1)], None)

    def test_markov_validation(self):
        g, h = fn(1, -1), fn(-1, 1)
        with pytest.raises(InvalidModelError):
            markov_model([g, h], [["1/2", "1/3"], ["1/2", "1/2"]])
        with pytest.raises(InvalidModelError):
            markov_model([g, h], [["1", "0"], ["0", "1"]])  # reducible
        with pytest.raises(InvalidModelError):
            markov_model(
                [g, h],
                [["1/2", "1/2"], ["1/2", "1/2"]],
                stationary=["1/3", "2/3"],
            )

    def test_markov_stationary_solved(self):
        g, h = fn(1, -1), fn(-1, 1)
        model = markov_model([g, h], [["3/4", "1/4"], ["1/2", "1/2"]])
        assert model.stationary == (F(2, 3), F(1, 3))


class TestRealization:
    def test_purity_across_processes(self):
        model = iid_model([fn(1, -1), fn(-1, 1)])
        a = realize(model, 987654321)
        b = realize(model, 987654321)
        for i in (-123456, -1, 0, 123456):
            assert a.index_at(i) == b.index_at(i)

    def test_window_matches_scalar(self):
        model = iid_model([fn(1, -1), fn(-1, 1), fn(1, 1)], ["1/2", "1/4", "1/4"])
        env = realize(model, 42)
        win = env.index_window(-50, 50)
        fresh = realize(model, 42)
        for i in range(-50, 51):
            assert int(win[i + 50]) == fresh.index_at(i)

    def test_shift_identity(self):
        model = iid_model([fn(1, -1), fn(-1, 1)])
        env = realize(model, 7)
        rng = np.random.default_rng(0)
        for k in rng.integers(-50, 51, size=12):
            sh = shift(env, int(k))
            for i in rng.integers(-100, 101, size=20):
                assert sh.at(int(i)) == env.at(int(i) + int(k))

    def test_shift_composition_and_zero(self):
        model = iid_model([fn(1, -1), fn(-1, 1)])
        env = realize(model, 11)
        assert shift(env, 0).index_at(17) == env.index_at(17)
        a = shift(shift(env, 2), 3)
        b = shift(env, 5)
        for i in range(-100, 101):
            assert a.index_at(i) == b.index_at(i)

    def test_markov_two_sided_defined(self):
        g, h = fn(1, -1), fn(-1, 1)
        model = markov_model([g, h], [["3/4", "1/4"], ["1/2", "1/2"]])
        env = realize(model, 5)
        vals = [env.index_at(i) for i in range(-200, 201)]
        assert set(vals) == {0, 1}
        # purity after out-of-order access
        env2 = realize(model, 5)
        assert env2.index_at(-200) == vals[0]
        assert env2.index_at(200) == vals[-1]

    def test_reflection(self):
        model = iid_model([fn(1, -1), fn(-1, 1)])
        env = realize(model, 3)
        refl = reflect(env)
        assert isinstance(refl, ReflectedEnvironment)
        for i in range(-20, 21):
            assert refl.at(i) == -env.at(-i)


class TestStatistics:
    def test_iid_frequency_window(self):
        # seeded golden: frequency of g over sites -10^4..10^4 within 0.5 +/- 0.02
        model = iid_model([fn(1, -1), fn(-1, 1)])
        env = realize(model, 20260811)
        win = env.index_window(-10**4, 10**4)
        freq = float(np.mean(win == 0))
        assert abs(freq - 0.5) < 0.02

    def test_iid_exact_binomial_pvalue(self):
        # per-function exact binomial p-value over 10^5 sites > 1e-6
        model = iid_model(
            [fn(1, -1), fn(-1, 1), fn(1, 1)], ["1/2", "1/4", "1/4"]
        )
        env = realize(model, 314159)
        win = env.index_window(0, 10**5 - 1)
        for c, w in enumerate((0.5, 0.25, 0.25)):
            k = int(np.sum(win == c))
            assert binomtest(k, 10**5, w).pvalue > 1e-6

    def test_markov_conditional_frequencies(self):
        g, h = fn(1, -1), fn(-1, 1)
        rows = [[F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)]]
        model = markov_model([g, h], rows)
        env = realize(model, 777)
        n = 10**5
        idx = np.array([env.index_at(i) for i in range(n)], dtype=np.int64)
        for j in (0, 1):
            mask = idx[:-1] == j
            count = int(mask.sum())
            for k in (0, 1):
                trans = int(np.sum(idx[1:][mask] == k))
                p = float(rows[j][k])
                sigma = (count * p * (1 - p)) ** 0.5
                assert abs(trans - count * p) < 3 * sigma + 1

    def test_markov_backward_law(self):
        # negative sites follow the stationary law too
        g, h = fn(1, -1), fn(-1, 1)
        model = markov_model([g, h], [["3/4", "1/4"], ["1/2", "1/2"]])
        env = realize(model, 2024)
        n = 10**5
        idx = np.array([env.index_at(-i) for i in range(n)], dtype=np.int64)
        freq = float(np.mean(idx == 0))
        assert abs(freq - 2 / 3) < 0.01


class TestSymmetry:
    def test_symmetric_pair(self):
        model = iid_model([fn(1, -1), fn(-1, 1)])
        rep = symmetry_and_bounds(model)
        assert rep.is_symmetric
        assert rep.jump_bound == 1
        assert rep.uniformly_bounded

    def test_single_function_not_symmetric(self):
        rep = symmetry_and_bounds(iid_model([fn(1, 1, -1)]))
        assert not rep.is_symmetric
        assert rep.jump_bound == 1

    def test_jump_bound(self):
        rep = symmetry_and_bounds(iid_model([fn(3, -2), fn(-3, 2)]))
        assert rep.jump_bound == 3

    def test_fixed_kind_not_symmetric(self):
        rep = symmetry_and_bounds(fixed_model(fn(1, -1)))
        assert not rep.is_symmetric
