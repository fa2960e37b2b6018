"""Environment generation: purity, shift action, statistics."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    _reversed_rows,
    _solve_stationary,
)
from dwde.errors import InvalidModelError
from dwde.exact import build_site_chain, first_passage_measure, series_diagnostic
from dwde.interval_maps import doubling_map
from dwde.structure import build_skew_graph, check_linkage
from dwde.walks import EXACT, WalkState, simulate

F = Fraction

# every library entry point that pairs a map with an environment
ENTRY_POINTS = {
    "build_site_chain": lambda m, env: build_site_chain(m, env, 3),
    "first_passage_measure": lambda m, env: first_passage_measure(m, env, 1, 2),
    "series_diagnostic": lambda m, env: series_diagnostic(m, env, 0, "1/2", 4),
    "build_skew_graph": lambda m, env: build_skew_graph(m, env, 2),
    "check_linkage": lambda m, env: check_linkage(m, env.model.support),
    "simulate": lambda m, env: simulate(m, env, WalkState(None, 0), 4),
    "simulate-exact": lambda m, env: simulate(m, env, WalkState(F(1, 3), 0), 4, mode=EXACT),
}


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
            (F(1),),  # no edge: one certain category
            (F(1, 4), F(3, 4)),  # one edge
            (F(1, 3), F(2, 3)),
            (F(1, 3), F(1, 6), F(1, 2)),
            (F(1, 6), F(1, 3), F(1, 12), F(1, 4), F(1, 6)),
            (F(1, 2), F(0), F(1, 2)),  # a zero weight repeats an edge
            # an edge at 0, and none for the trailing zero weights
            (F(0), F(1, 4), F(3, 4), F(0), F(0)),
        ],
    )
    def test_pick_array_is_searchsorted_right(self, weights):
        t = prf.choice_thresholds(weights)
        probes = {0, 2**64 - 1}
        for edge in t.tolist():
            probes |= {edge - 1, edge, edge + 1}
        u = np.array(sorted(p for p in probes if 0 <= p < 2**64), dtype=np.uint64)
        want = np.searchsorted(t, u, side="right")
        assert np.array_equal(prf.pick_array(t, u), want)
        out = np.empty(len(u), dtype=np.uint8)
        got = prf.pick_array(t, u, out=out)
        assert got is out and np.array_equal(out, want)
        assert [prf.pick(t, int(x)) for x in u] == want.tolist()
        # a zero weight is never drawn
        drawn = set(want.tolist())
        assert all(w > 0 for c, w in enumerate(weights) if c in drawn)

    def test_absorb_array_out_matches_scalar_chain(self):
        h = prf.hash_u64_array(3, prf.DOMAIN_WALK, array=np.arange(-50, 50, dtype=np.int64))
        out = np.empty_like(h)
        for k in (0, 7, -1, 2**64 - 1):
            got = prf.absorb_array(h, k, out=out)
            assert got is out
            assert np.array_equal(out, prf.absorb_array(h, k))
            for i in (0, 49, 99):
                assert int(out[i]) == prf.hash_u64(3, prf.DOMAIN_WALK, i - 50, k)
        # a column of step counters broadcast over h: one round per row
        counters = np.array([0, 7, -1], dtype=np.int64)[:, None]
        rows = prf.absorb_array(h, counters, out=np.empty((3, len(h)), dtype=np.uint64))
        for row, k in zip(rows, (0, 7, -1)):
            assert np.array_equal(row, prf.absorb_array(h, k))


# edge sets for pick_keyed: whether every edge has its low 33 bits zero
# decides whether it compares before mix64's last shift-xor
DYADIC_EDGES = [
    prf.choice_thresholds((F(1),)),  # no edge
    prf.choice_thresholds((F(1, 2), F(1, 2))),
    prf.choice_thresholds((F(1, 4), F(1, 2), F(1, 4))),
    np.array([0, 3 << 33, 5 << 60], dtype=np.uint64),
]
OTHER_EDGES = [
    prf.choice_thresholds((F(1, 3), F(2, 3))),
    np.array([(1 << 33) + 1], dtype=np.uint64),
    np.array([1 << 40, (3 << 40) + (1 << 32), 1 << 62], dtype=np.uint64),
]
U64 = st.integers(0, 2**64 - 1)
I64 = st.integers(-(2**63), 2**63 - 1)


def finish(z: np.ndarray) -> np.ndarray:
    """mix64's last step, z ^ (z >> 31)."""
    return z ^ (z >> np.uint64(31))


def unxorshift(y: int, s: int) -> int:
    """The x with x ^ (x >> s) == y, on 64 bits."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def key_reaching(z: int, k: int) -> int:
    """A key h whose absorb round with counter k holds z right before
    mix64's last step: the round's first steps undone."""
    mask = 2**64 - 1
    z1 = unxorshift(z * pow(prf._M2, -1, 2**64) & mask, 27)
    z0 = unxorshift(z1 * pow(prf._M1, -1, 2**64) & mask, 30)
    return (z0 - prf._GOLDEN - k) & mask


def probes(e: int) -> list[int]:
    """z at e - 1, e, e + 1, e +/- 2^31 and e +/- 2^33, inside 64 bits."""
    near = [e + d for d in (-1, 0, 1, -(2**31), 2**31, -(2**33), 2**33)]
    return [z for z in near if 0 <= z < 2**64]


class TestPickKeyed:
    @settings(database=None, deadline=None, max_examples=200)
    @given(
        edges=st.sampled_from(DYADIC_EDGES + OTHER_EDGES),
        keys=st.lists(U64, min_size=1, max_size=6),
        counters=st.lists(I64, min_size=1, max_size=6),
    )
    def test_equals_pick_of_absorb(self, edges, keys, counters):
        h = np.array(keys, dtype=np.uint64)
        k = np.array(counters, dtype=np.int64)[:, None]
        want = prf.pick_array(edges, prf.absorb_array(h, k))
        assert np.array_equal(prf.pick_keyed(edges, h, k), want)
        out = np.empty(want.shape, dtype=np.uint8)
        work = np.empty(want.shape, dtype=np.uint64)
        assert prf.pick_keyed(edges, h, k, out=out, work=work) is out
        assert np.array_equal(out, want)
        # one key over an array of counters, as a scalar walk draws
        got = prf.pick_keyed(edges, keys[0], k[:, 0])
        assert np.array_equal(got, prf.pick_array(edges, prf.absorb_array(keys[0], k[:, 0])))

    @pytest.mark.parametrize("edges", DYADIC_EDGES[1:] + OTHER_EDGES)
    def test_draws_next_to_an_edge(self, edges):
        k = 7
        for e in edges.tolist():
            z = probes(e)
            h = np.array([key_reaching(x, k) for x in z], dtype=np.uint64)
            u = prf.absorb_array(h, k)
            assert np.array_equal(u, finish(np.array(z, dtype=np.uint64)))
            assert np.array_equal(prf.pick_keyed(edges, h, k), prf.pick_array(edges, u))

    @pytest.mark.parametrize("edges", DYADIC_EDGES[1:])
    def test_last_step_keeps_the_comparison(self, edges):
        for e in edges.tolist():
            z = np.array(probes(e), dtype=np.uint64)
            assert np.array_equal(finish(z) >= np.uint64(e), z >= np.uint64(e))


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

    def test_three_state_stationary_solved(self):
        rows = [["0", "1", "0"], ["0", "0", "1"], ["1/3", "1/3", "1/3"]]
        model = markov_model([fn(1, -1), fn(-1, 1), fn(1, 1)], rows)
        assert model.stationary == (F(1, 6), F(1, 3), F(1, 2))

    def test_singular_stationary_system(self):
        # markov_model rejects a reducible matrix before solving; its
        # stationary system is singular, and the solve says so itself
        with pytest.raises(InvalidModelError):
            _solve_stationary(((F(1), F(0)), (F(0), F(1))))
        with pytest.raises(InvalidModelError):
            _solve_stationary(((F(1), F(0), F(0)), (F(0), F(1, 2), F(1, 2)), (F(0), F(1, 2), F(1, 2))))


    @pytest.mark.parametrize("jumps", [(1,), (1, -1, 1)])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_cell_count_must_match_the_map(self, entry, jumps):
        env = realize(fixed_model(fn(*jumps)), 0)
        with pytest.raises(InvalidModelError, match=f"{len(jumps)}-cell functions on a 2-cell"):
            ENTRY_POINTS[entry](doubling_map(), env)


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


def markov_reference(model, seed, lo, hi):
    """Support indices of sites lo..hi (lo <= 0 <= hi), one PRF draw and
    one searchsorted pick per site, stepping out from site 0."""
    def pick(edges, u):
        return int(np.searchsorted(edges, np.uint64(u), side="right"))

    def draw(edges, i):
        return pick(edges, prf.hash_u64(seed, prf.DOMAIN_ENV, i))

    forward = [prf.choice_thresholds(row) for row in model.transition]
    backward = [
        prf.choice_thresholds(row)
        for row in _reversed_rows(model.transition, model.stationary)
    ]
    got = {0: draw(prf.choice_thresholds(model.stationary), 0)}
    for i in range(1, hi + 1):
        got[i] = draw(forward[got[i - 1]], i)
    for i in range(-1, lo - 1, -1):
        got[i] = draw(backward[got[i + 1]], i)
    return got


class TestMarkovBlocks:
    """Block-drawn Markov environments against a per-site reference loop.

    Three states with a zero transition and unequal rows, so a select
    pass reading the wrong row or the wrong draw changes some site.
    """

    model = markov_model(
        [fn(1, -1), fn(-1, 1), fn(1, 1)],
        [["1/2", "1/3", "1/6"], ["1/4", "1/4", "1/2"], ["0", "2/3", "1/3"]],
    )
    seed = 4242
    want = markov_reference(model, seed, -700, 700)

    def check(self, env, sites, offset=0):
        for i in sites:
            assert env.index_at(i) == self.want[i + offset], i

    def test_rightward(self):
        self.check(realize(self.model, self.seed), range(501))

    def test_leftward(self):
        self.check(realize(self.model, self.seed), range(0, -501, -1))

    def test_shuffled(self):
        sites = list(range(-500, 501))
        np.random.default_rng(3).shuffle(sites)
        self.check(realize(self.model, self.seed), sites)

    @pytest.mark.parametrize(
        "windows",
        [
            [(-300, 200)],  # across 0 on a fresh realization
            [(-500, -400), (100, 500), (-450, 450)],  # one side, then across
            [(3, 3), (-1, -1), (-500, 500)],  # single sites first
        ],
    )
    def test_index_window(self, windows):
        env = realize(self.model, self.seed)
        for lo, hi in windows:
            win = env.index_window(lo, hi)
            assert win.dtype == np.int64
            assert win.tolist() == [self.want[i] for i in range(lo, hi + 1)]

    def test_shift_views_extend_the_shared_memo_in_turn(self):
        env = realize(self.model, self.seed)
        right, left = shift(env, 150), shift(env, -150)
        for i in range(0, 551, 50):
            # each view reaches past what the others have drawn
            self.check(right, [i], 150)
            self.check(left, [-i], -150)
            self.check(env, [i - 10, 10 - i])
        assert right.index_window(-700, 400).tolist() == [
            self.want[i] for i in range(-550, 551)
        ]
        self.check(left, range(-550, 551), -150)


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
