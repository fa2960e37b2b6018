"""Exact-oracle tests: DP vs enumeration, closed forms, certificates."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from dwde.environments import (
    fixed_model,
    fn,
    iid_model,
    realize,
    reflect,
    two_sided_model,
)
from dwde.errors import (
    DegenerateAlphaError,
    HypothesisViolatedError,
    UnsupportedBaseError,
    UnsupportedJumpsError,
    WindowTooSmallError,
)
from dwde.exact import (
    build_site_chain,
    final_distribution,
    first_passage_measure,
    float_dp_stack,
    hit_before,
    path_counts,
    path_probability,
    return_cylinder_count,
    return_prob_by_time,
    return_prob_curve,
    series_diagnostic,
    solomon_classifier,
    transience_certificate,
)
from dwde.interval_maps import (
    build_map,
    cylinder_measure,
    doubling_map,
    enumerate_cylinders,
    triple_map,
)

F = Fraction


def slopes_244_map():
    return build_map(
        ["0", "1/2", "3/4", "1"],
        [("2", "0"), ("4", "-2"), ("4", "-3")],
    )


def brute_force_passage_count(n: int, k: int) -> int:
    """Exhaustive +/-1 enumeration for first-passage path counts."""
    length = 2 * n + k
    steps = ((np.arange(2**length)[:, None] >> np.arange(length)[None, :]) & 1) * 2 - 1
    pos = np.cumsum(steps.astype(np.int16), axis=1)
    interior = pos[:, :-1]
    ok = pos[:, -1] == -k
    if interior.shape[1]:
        ok &= np.all((interior < 0) & (interior > -k), axis=1)
    return int(ok.sum())


def gamblers_ruin_up(p: Fraction, start: int, a: int, b: int) -> Fraction:
    """Closed-form chance of reaching b before a for a homogeneous chain."""
    q = 1 - p
    if p == q:
        return F(start - a, b - a)
    rho = q / p
    return (rho ** (start - a) - 1) / (rho ** (b - a) - 1)


def full_window_dp(chain, start: int, n: int, radius: int, absorb: bool):
    """Reference float DP: every step updates the whole window start +/-
    radius, jumps in sorted order; with `absorb`, mass on the start is
    banked and sites out of reach of it in the remaining steps are cut.
    """
    width = 2 * radius + 1
    rows = [chain.transitions_at(start - radius + i)[0] for i in range(width)]
    jumps = sorted({v for row in rows for _, v, _ in row})
    probs = np.zeros((len(jumps), width))
    for i, row in enumerate(rows):
        for _, v, p in row:
            probs[jumps.index(v), i] = float(p)
    dist = np.zeros(width)
    dist[radius] = 1.0
    curve = np.zeros(n + 1)
    for t in range(1, n + 1):
        new = np.zeros(width)
        for v, p in zip(jumps, probs):
            moved = dist * p
            if v >= 0:
                new[v:] += moved[: width - v]
            else:
                new[:v] += moved[-v:]
        if absorb:
            curve[t] = curve[t - 1] + new[radius]
            new[radius] = 0.0
            left = (n - t) * chain.max_jump
            new[: max(radius - left, 0)] = 0.0
            new[radius + left + 1 :] = 0.0
        dist = new
    return curve, dist


class TestBuildSiteChain:
    def test_doubling_symmetric(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 10)
        for i in (-10, 0, 3):
            assert chain.jump_dist(i) == {1: F(1, 2), -1: F(1, 2)}

    def test_triple_r2(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        chain = build_site_chain(triple_map(), env, 5)
        assert chain.jump_dist(0) == {1: F(2, 3), -1: F(1, 3)}

    def test_unequal_measures(self):
        env = realize(fixed_model(fn(1, -1, -1)), 0)
        chain = build_site_chain(slopes_244_map(), env, 5)
        assert chain.jump_dist(2) == {1: F(1, 2), -1: F(1, 2)}

    def test_non_full_branch_requires_joint(self):
        m = build_map(["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")])
        env = realize(fixed_model(fn(1, -1, 1)), 0)
        with pytest.raises(UnsupportedBaseError):
            build_site_chain(m, env, 5)
        chain = build_site_chain(m, env, 5, joint=True)
        assert chain.layers == 3

    def test_outside_window(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 3)
        with pytest.raises(WindowTooSmallError):
            chain.jump_dist(4)


class TestPathProbabilityVsEnumeration:
    """Site-path DP probabilities equal cylinder-measure sums exactly."""

    @pytest.mark.parametrize(
        "make_map,jumps",
        [
            (doubling_map, (1, -1)),
            (triple_map, (1, 1, -1)),
        ],
    )
    def test_fixed_env_all_paths(self, make_map, jumps):
        m = make_map()
        env = realize(fixed_model(fn(*jumps)), 0)
        chain = build_site_chain(m, env, 16)
        n = 4
        sums: dict[tuple[int, ...], Fraction] = {}
        for w in enumerate_cylinders(m, n + 1):
            sites = [0]
            for sym in w[:-1]:
                sites.append(sites[-1] + env.at(sites[-1]).jumps[sym])
            key = tuple(sites)
            sums[key] = sums.get(key, F(0)) + cylinder_measure(m, w)
        assert sums  # sanity
        for path, total in sums.items():
            assert path_probability(chain, path) == total
        # impossible path
        assert path_probability(chain, (0, 1, 3)) == 0

    def test_two_sided_env(self):
        m = triple_map()
        model = two_sided_model(fn(1, -1, -1), fn(1, 1, -1))
        env = realize(model, 0)
        chain = build_site_chain(m, env, 12)
        n = 5
        sums: dict[tuple[int, ...], Fraction] = {}
        for w in enumerate_cylinders(m, n + 1):
            sites = [0]
            for sym in w[:-1]:
                sites.append(sites[-1] + env.at(sites[-1]).jumps[sym])
            key = tuple(sites)
            sums[key] = sums.get(key, F(0)) + cylinder_measure(m, w)
        for path, total in sums.items():
            assert path_probability(chain, path) == total

    def test_joint_chain_matches_site_chain(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        site = build_site_chain(m, env, 10)
        joint = build_site_chain(m, env, 10, joint=True)
        for path in [(0, 1, 2, 1), (0, -1, 0, 1), (0, 1, 0, -1)]:
            assert path_probability(site, path) == path_probability(joint, path)


class TestReturnProb:
    def test_symmetric_small_horizons(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 64)
        assert return_prob_by_time(chain, 0, 2) == F(1, 2)
        assert return_prob_by_time(chain, 0, 4) == F(5, 8)

    def test_brute_force_paths(self):
        # independent oracle: sum probabilities over distinct first-return
        # prefixes among all +/-1 sequences of length 8
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        chain = build_site_chain(triple_map(), env, 16)
        p, q = F(2, 3), F(1, 3)
        n = 8
        prefixes = set()
        for signs in itertools.product((1, -1), repeat=n):
            pos = 0
            for t, s in enumerate(signs, start=1):
                pos += s
                if pos == 0:
                    prefixes.add(signs[:t])
                    break
        total = F(0)
        for pre in prefixes:
            ups = sum(1 for s in pre if s == 1)
            total += p**ups * q ** (len(pre) - ups)
        assert return_prob_by_time(chain, 0, n) == total

    def test_monotone_and_bounded(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        chain = build_site_chain(triple_map(), env, 40)
        vals = [return_prob_by_time(chain, 0, n) for n in range(1, 30)]
        assert all(0 <= v <= 1 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_window_guard(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 4)
        with pytest.raises(WindowTooSmallError):
            return_prob_by_time(chain, 0, 100)

    def test_float_curve_matches_exact(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        chain = build_site_chain(triple_map(), env, 80)
        curve = return_prob_curve(chain, 0, 120)
        for n in (2, 10, 60, 120):
            assert abs(curve[n] - float(return_prob_by_time(chain, 0, n))) < 1e-12

    def test_biased_convergence_to_two_thirds(self):
        # P(ever return) = 1 - |p - q| = 2/3 for p = 2/3
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        chain = build_site_chain(triple_map(), env, 600)
        curve = return_prob_curve(chain, 0, 1000)
        assert abs(curve[1000] - 2 / 3) < 1e-3

    def test_off_origin_start(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 20)
        assert return_prob_by_time(chain, 5, 2) == F(1, 2)


class TestHitBefore:
    def test_symmetric_exact_half(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 101)
        for k in range(1, 101):
            assert hit_before(chain, 0, -k, k) == F(1, 2)

    def test_gamblers_ruin_closed_form(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        chain = build_site_chain(triple_map(), env, 10)
        got = hit_before(chain, 0, -10, 10)
        assert got == gamblers_ruin_up(F(2, 3), 0, -10, 10)

    def test_asymmetric_targets(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        chain = build_site_chain(triple_map(), env, 12)
        assert hit_before(chain, 2, -3, 12) == gamblers_ruin_up(F(2, 3), 2, -3, 12)

    def test_split_chain_exact_half(self):
        # outward 3/4 drift on each side of 0, balanced at the origin
        quad = build_map(
            ["0", "1/4", "1/2", "3/4", "1"],
            [("4", "0"), ("4", "-1"), ("4", "-2"), ("4", "-3")],
        )
        model = two_sided_model(
            fn(1, -1, -1, -1), fn(1, 1, 1, -1), origin=fn(1, 1, -1, -1)
        )
        env = realize(model, 0)
        chain = build_site_chain(quad, env, 50)
        assert hit_before(chain, 0, -50, 50) == F(1, 2)

    def test_dense_matches_tridiagonal(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        joint = build_site_chain(triple_map(), env, 8, joint=True)
        site = build_site_chain(triple_map(), env, 8)
        assert hit_before(joint, 0, -5, 5) == hit_before(site, 0, -5, 5)


class TestPathCounts:
    def test_base_cases(self):
        c = path_counts(8, 12)
        assert c[0][1] == 1
        assert all(c[n][1] == 0 for n in range(1, 9))
        assert all(c[n][3] == 1 for n in range(0, 9))
        assert all(c[0][k] == 1 for k in range(1, 13))

    def test_brute_force_all_small(self):
        n_max, k_max = 9, 12
        c = path_counts(n_max, k_max)
        for n in range(n_max + 1):
            for k in range(1, k_max + 1):
                if 2 * n + k <= 20:
                    assert c[n][k] == brute_force_passage_count(n, k), (n, k)

    def test_k2_corridor_forces_immediate_descent(self):
        # the only interior site is -1, so any detour exits the corridor
        c = path_counts(6, 2)
        assert [c[n][2] for n in range(7)] == [1, 0, 0, 0, 0, 0, 0]


class TestFirstPassage:
    def test_symmetric_k1(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        for n_max in (0, 3, 10):
            res = first_passage_measure(doubling_map(), env, 1, n_max)
            assert res.value == F(1, 2)

    def test_biased_k1(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        res = first_passage_measure(triple_map(), env, 1, 5)
        assert res.value == F(1, 3)

    def test_decreasing_in_k_and_ruin_bound(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        vals = []
        for k in range(1, 7):
            res = first_passage_measure(triple_map(), env, k, 60)
            assert res.value < F(1, 2) ** k  # P(hit -k ever) = (q/p)^k
            vals.append(res.value)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_truncation_below_full_hit_probability(self):
        # truncated first-passage measure vs exact taboo-free value
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 40)
        k = 3
        res = first_passage_measure(doubling_map(), env, k, 30)
        # P(hit -k before returning to 0) for SRW = q * P(-1 -> -k before 0)
        expected = F(1, 2) * (1 - gamblers_ruin_up(F(1, 2), -1, -k, 0))
        assert res.value <= expected
        assert expected - res.value < F(1, 50)
        assert hit_before(chain, -1, -k, 0) == gamblers_ruin_up(F(1, 2), -1, -k, 0)

    def test_comparison_bound_dominates(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        for k in (1, 2, 4):
            res = first_passage_measure(triple_map(), env, k, 40)
            assert res.comparison_bound is not None
            assert res.value <= res.comparison_bound

    def test_mirror_symmetry(self):
        model = iid_model([fn(1, 1, -1), fn(1, -1, 1), fn(-1, 1, 1)])
        env = realize(model, 99)
        refl = reflect(env)
        for k in (1, 2, 3, 5):
            left = first_passage_measure(triple_map(), env, k, 25, direction=-1)
            right = first_passage_measure(triple_map(), refl, k, 25, direction=1)
            assert left.value == right.value

    def test_rejects_bigger_jumps(self):
        env = realize(fixed_model(fn(2, -1)), 0)
        with pytest.raises(UnsupportedJumpsError):
            first_passage_measure(doubling_map(), env, 1, 5)


class TestReturnCylinderCount:
    def test_n0_trivial(self):
        got = return_cylinder_count(triple_map(), 2, 0)
        assert got == {"enumerated": 1, "combinatorial_bound": 1}

    def test_doubling_r1_n1(self):
        got = return_cylinder_count(doubling_map(), 1, 1)
        assert got["combinatorial_bound"] == 2
        assert got["enumerated"] == 1

    def test_triple_r2_bounds(self):
        for n in range(0, 7):
            got = return_cylinder_count(triple_map(), 2, n)
            assert got["combinatorial_bound"] == 4**n * _comb(2 * n, n) // 2**n
            assert 0 < got["enumerated"] <= got["combinatorial_bound"]

    def test_brute_force_enumeration(self):
        # direct word enumeration oracle for small n
        m = triple_map()
        r, cell = 2, 0
        g = fn(1, 1, -1)
        for n in (1, 2, 3):
            count = 0
            for w in itertools.product(range(3), repeat=2 * n - 1):
                word = (cell,) + w + (cell,)
                site = 0
                for sym in word[:-1]:
                    site += g.jumps[sym]
                if site == 0:
                    count += 1
            got = return_cylinder_count(m, r, n, cell=cell)
            assert got["enumerated"] == count


def _comb(a, b):
    from math import comb

    return comb(a, b)


class TestTransienceCertificate:
    def test_triple_r2_holds_right(self):
        cert = transience_certificate(triple_map(), 2)
        assert cert.holds
        assert cert.direction == 1
        assert cert.exact_margin == 1  # 9 - 8
        assert abs(cert.inf_h - 1.0986122886681098) < 1e-12
        assert abs(cert.threshold - 0.5 * np.log(8)) < 1e-12

    def test_triple_r1_holds_left(self):
        cert = transience_certificate(triple_map(), 1)
        assert cert.holds
        assert cert.direction == -1

    def test_doubling_boundary_fails(self):
        cert = transience_certificate(doubling_map(), 1)
        assert not cert.holds
        assert cert.direction is None
        assert cert.exact_margin == 0

    def test_support_hypothesis_checked(self):
        with pytest.raises(HypothesisViolatedError):
            transience_certificate(triple_map(), 2, support=[fn(1, 1, 1)])
        with pytest.raises(HypothesisViolatedError):
            transience_certificate(triple_map(), 2, support=[fn(2, 1, -1)])
        cert = transience_certificate(
            triple_map(), 2, support=[fn(1, 1, -1), fn(-1, 1, 1)]
        )
        assert cert.holds

    def test_balanced_r_is_boundary(self):
        # slope^2 = 16 exactly equals 4*2*(4-2): the strict inequality
        # fails, so no direction is reported
        quad = build_map(
            ["0", "1/4", "1/2", "3/4", "1"],
            [("4", "0"), ("4", "-1"), ("4", "-2"), ("4", "-3")],
        )
        cert = transience_certificate(quad, 2)
        assert cert.exact_margin == 0
        assert not cert.holds
        assert cert.direction is None


class TestSeriesDiagnostic:
    def test_drift_has_no_returns(self):
        env = realize(fixed_model(fn(1, 1)), 0)
        diag = series_diagnostic(doubling_map(), env, 0, "1/2", 20)
        assert all(s == diag.partial_sums[0] for s in diag.partial_sums)
        nu_a = F(1, 2) * (1 - F(1, 2)) / (1 + F(1, 2))
        assert diag.partial_sums[0] == nu_a

    def test_symmetric_increments_closed_form(self):
        # starting inside cell 0 pins the first jump to +1, so a lag-2n
        # return needs n-1 more up-symbols and n down-symbols, and the
        # final symbol must land back in cell 0
        env = realize(fixed_model(fn(1, -1)), 0)
        diag = series_diagnostic(doubling_map(), env, 0, "1/2", 24)
        scale = F(1, 2) * F(1, 3)
        for n in range(1, 13):
            expected = scale * _comb(2 * n - 1, n - 1) * F(1, 2) ** (2 * n - 1) * F(1, 2)
            assert diag.increments[2 * n] == expected
            assert diag.increments[2 * n - 1] == 0

    def test_transient_ratio_bound(self):
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        diag = series_diagnostic(triple_map(), env, 0, "1/2", 60)
        assert diag.geometric_bound == F(8, 9)
        ratios = diag.increment_ratios()
        assert ratios
        for lag, ratio in ratios:
            assert ratio < F(8, 9)

    def test_certificate_implies_ratio_bound_second_family(self):
        # 5 equal cells, 3 jumping up: certificate 25 > 24 holds and the
        # series increment ratio stays under 24/25
        from dwde.interval_maps import equal_slope_map

        m5 = equal_slope_map(5)
        cert = transience_certificate(m5, 3)
        assert cert.holds and cert.direction == 1
        env = realize(fixed_model(fn(1, 1, 1, -1, -1)), 0)
        diag = series_diagnostic(m5, env, 0, "1/2", 80)
        assert diag.geometric_bound == F(24, 25)
        for lag, ratio in diag.increment_ratios():
            assert ratio < F(24, 25)

    def test_symmetric_partial_sum_growth(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        diag = series_diagnostic(doubling_map(), env, 0, "1/2", 128)
        s = diag.partial_sums
        assert s[128] / s[64] >= F(12, 10)

    def test_theta_range(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        with pytest.raises(ValueError):
            series_diagnostic(doubling_map(), env, 0, "3/2", 10)


class TestSolomon:
    def test_right_drift(self):
        v = solomon_classifier([("2/3", "1")])
        assert v.verdict == "right"
        assert abs(v.expectation - np.log(0.5)) < 1e-12

    def test_left_drift(self):
        v = solomon_classifier([("1/4", "1")])
        assert v.verdict == "left"
        assert abs(v.expectation - np.log(3)) < 1e-12

    def test_symmetric_pairs_exactly_recurrent(self):
        v = solomon_classifier([("2/3", "1/2"), ("1/3", "1/2")])
        assert v.verdict == "recurrent"
        assert v.expectation == 0.0

    def test_near_balanced_sign_is_exact(self):
        # product test must detect a tiny exact imbalance
        v = solomon_classifier([("2/3", "499/1000"), ("1/3", "501/1000")])
        assert v.verdict == "left"

    def test_degenerate(self):
        with pytest.raises(DegenerateAlphaError):
            solomon_classifier([("0", "1")])
        with pytest.raises(DegenerateAlphaError):
            solomon_classifier([("1", "1")])


class TestFinalDistribution:
    def test_srw_binomial(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        chain = build_site_chain(doubling_map(), env, 12)
        dist = final_distribution(chain, 0, 12)
        # P(S_12 = 0) = C(12,6)/2^12
        center = dist[12]
        assert abs(center - _comb(12, 6) / 2**12) < 1e-14
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_light_cone_matches_exact_heterogeneous(self):
        # i.i.d. sites with jumps up to 3 and a zero-jump cell, started
        # off the origin; short horizons put the cone on the array edges
        model = iid_model(
            [fn(2, -1, 1), fn(-3, 1, 1), fn(1, 0, -2)], ["1/2", "1/4", "1/4"]
        )
        env = realize(model, 7)
        bound = model.jump_bound
        chain = build_site_chain(triple_map(), env, 50 * bound + 2)
        for start in (0, 2, -1):
            for n in (1, 2, 3, 7, 48):
                curve = return_prob_curve(chain, start, n)
                exact = return_prob_by_time(chain, start, n)
                assert abs(curve[n] - float(exact)) < 1e-12, (start, n)
                # the light cone skips only exact zeros: same bits as a
                # whole-window update
                radius = (n + 1) // 2 * bound
                ref = full_window_dp(chain, start, n, radius, absorb=True)[0]
                assert np.array_equal(curve, ref), (start, n)

                law = {start: F(1)}
                for _ in range(n):
                    step: dict[int, Fraction] = {}
                    for site, mass in law.items():
                        for v, p in chain.jump_dist(site).items():
                            step[site + v] = step.get(site + v, F(0)) + mass * p
                    law = step
                dist = final_distribution(chain, start, n)
                ref = full_window_dp(chain, start, n, n * bound, absorb=False)[1]
                assert np.array_equal(dist, ref), (start, n)
                lo = start - n * bound
                assert len(dist) == 2 * n * bound + 1
                expect = np.zeros(len(dist))
                for site, mass in law.items():
                    expect[site - lo] = float(mass)
                assert np.abs(dist - expect).max() < 1e-12, (start, n)


class TestFloatDpStack:
    def _chains(self, window):
        # different jump sets, a zero jump, and a window that misses the
        # model's largest jump (3), so the stack's reach exceeds it
        mixed = iid_model(
            [fn(2, -1, 1), fn(-3, 1, 1), fn(1, 0, -2)], ["1/2", "1/4", "1/4"]
        )
        rare = iid_model([fn(1, -1), fn(3, -3)], ["999/1000", "1/1000"])
        chains = [
            build_site_chain(triple_map(), realize(mixed, 7), window),
            build_site_chain(doubling_map(), realize(fixed_model(fn(2, -1)), 0), window),
            build_site_chain(doubling_map(), realize(fixed_model(fn(0, 1)), 0), window),
            build_site_chain(doubling_map(), realize(rare, 2), window),
        ]
        assert [c.max_jump for c in chains] == [3, 2, 1, 1]
        return chains

    def test_matches_single_chain_wrappers(self):
        reach = 3
        chains = self._chains(48 * reach + 2)
        for start in (0, -1):
            for n in (1, 2, 3, 7, 48):
                curves, laws = float_dp_stack(iter(chains), start, n, reach)
                assert curves.shape == (len(chains), n + 1)
                assert laws.shape == (len(chains), 2 * n * reach + 1)
                for chain, curve, law in zip(chains, curves, laws):
                    key = (chain.max_jump, start, n)
                    single = return_prob_curve(chain, start, n)
                    assert np.array_equal(curve, single), key
                    half = (n + 1) // 2 * reach
                    ref = full_window_dp(chain, start, n, half, absorb=True)[0]
                    assert np.array_equal(curve, ref), key
                    # the chain's own law, padded with zeros out to the reach
                    own = n * chain.max_jump
                    pad = n * reach - own
                    single = final_distribution(chain, start, n)
                    assert np.array_equal(law[pad : pad + 2 * own + 1], single), key
                    assert not law[:pad].any() and not law[pad + 2 * own + 1 :].any()
                    ref = full_window_dp(chain, start, n, n * reach, absorb=False)[1]
                    assert np.array_equal(law, ref), key

    def test_guards(self):
        chains = self._chains(20)
        with pytest.raises(WindowTooSmallError):
            float_dp_stack(chains, 0, 7, 3)  # needs a window of 21
        with pytest.raises(ValueError):
            float_dp_stack(chains, 0, 2, 2)  # below the first chain's max_jump
        with pytest.raises(ValueError):
            float_dp_stack([], 0, 2, 3)
