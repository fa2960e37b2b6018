"""Exact-oracle tests: DP vs enumeration, closed forms, certificates."""

import itertools
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from dwde.environments import (
    fixed_model,
    fn,
    iid_model,
    markov_model,
    periodic_model,
    realize,
    reflect,
    shift,
    two_sided_model,
)
from dwde.errors import (
    DegenerateAlphaError,
    EnumerationTooLargeError,
    HypothesisViolatedError,
    SingularSystemError,
    UnsupportedBaseError,
    UnsupportedJumpsError,
    WindowTooSmallError,
)
from dwde.exact import (
    _passage_column,
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
    equal_slope_map,
    gibbs_bounds,
    triple_map,
)

F = Fraction


def slopes_244_map():
    return build_map(
        ["0", "1/2", "3/4", "1"],
        [("2", "0"), ("4", "-2"), ("4", "-3")],
    )


# cell 0 (slope 2) covers cells 0 and 1 only: a Markov, not full-branch, map
NON_FULL_MAP = build_map(["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")])
# cell measures 1/4, 1/4, 1/2
QUARTER_MAP = build_map(["0", "1/4", "1/2", "1"], [("4", "0"), ("4", "-1"), ("2", "-1")])


def fraction_return_prob(chain, start: int, n: int) -> Fraction:
    """Reference for return_prob_by_time: the same pruned DP, with every
    mass a Fraction."""
    mass = {(j, start): p for j, p in enumerate(chain.init) if p != 0}
    returned = F(0)
    for t in range(1, n + 1):
        new = {}
        reach = (n - t) * chain.max_jump
        for (j, site), m_js in mass.items():
            for k, v, p in chain.transitions_at(site)[j]:
                land = site + v
                if land == start:
                    returned += m_js * p
                elif abs(land - start) <= reach:
                    new[(k, land)] = new.get((k, land), F(0)) + m_js * p
        mass = new
    return returned


def per_site_path_counts(n_max: int, k_max: int) -> list[list[int]]:
    """Reference for path_counts: the corridor swept one site at a time
    over every position, both parities included."""
    table = [[0] * (k_max + 1) for _ in range(n_max + 1)]
    for k in range(1, k_max + 1):
        if k == 1:
            table[0][1] = 1
            continue
        width = k - 1  # positions -1 .. -(k-1)
        counts = [0] * width
        counts[0] = 1  # time 1: the first step must go down
        length_needed = {2 * n + k: n for n in range(n_max + 1)}
        if 2 in length_needed:
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


def transfer_cylinder_counts(k_cells: int, r: int, cell: int, n_max: int) -> list[int]:
    """Reference for return_cylinder_count's "enumerated", n = 0..n_max:
    the transfer sweep over the site path, the first step pinned by the
    cell.  ways[i] counts the paths at site -t + 2i after t steps; a step
    reaches entry i by +1 from entry i - 1 and by -1 from entry i.  After
    2n steps the paths back at 0 sit at entry n."""
    up, down = r, k_cells - r
    counts = [1]
    ways = [0, 1] if cell < r else [1, 0]
    steps = 1
    for n in range(1, n_max + 1):
        while steps < 2 * n:
            ways = [x * up + y * down for x, y in zip([0] + ways, ways + [0])]
            steps += 1
        counts.append(ways[n])
    return counts


def dict_series_diagnostic(m, env, cell: int, theta, lag_max: int):
    """Reference (partial_sums, increments) for series_diagnostic: the
    joint (cell, site) law as a fresh dict per lag."""
    theta = F(theta)
    rows = [
        [(k, m.measures[k] / m.image_measures[j]) for k in m.image_sets[j]]
        for j in range(m.num_cells)
    ]
    den = lcm(*(p.denominator for row in rows for _, p in row))
    weights = [[(k, int(p * den)) for k, p in row] for row in rows]
    jumps_at = {i: env.at(i).jumps for i in range(-lag_max, lag_max + 1)}
    scale = m.measures[cell] * (1 - theta) / (1 + theta)
    numers = {(cell, 0): 1}
    increments = [scale]
    partial = [scale]
    denom_t = 1
    for t in range(1, lag_max + 1):
        new = {}
        reach = lag_max - t
        for (j, site), c in numers.items():
            land = site + jumps_at[site][j]
            if abs(land) > reach:
                continue
            for k, w in weights[j]:
                new[(k, land)] = new.get((k, land), 0) + c * w
        numers = new
        denom_t *= den
        inc = F(numers.get((cell, 0), 0), denom_t) * scale
        increments.append(inc)
        partial.append(partial[-1] + inc)
    return tuple(partial), tuple(increments)


def fraction_first_passage(m, env, k: int, n_max: int, direction: int):
    """Reference (value, comparison_bound) for first_passage_measure, in
    Fraction arithmetic."""
    sites = range(-k, 1) if direction == -1 else range(0, k + 1)
    dists = {}
    for i in sites:
        d = {}
        for j, v in enumerate(env.at(i).jumps):
            d[v] = d.get(v, F(0)) + m.measures[j]
        dists[i] = d
    toward = {sum(1 for v in env.at(i).jumps if v == direction) for i in sites}
    value = F(0)
    corridor = {}
    first = dists[0].get(direction, F(0))
    if k == 1:
        value = first
    elif first:
        corridor[direction] = first
    for _ in range(2, 2 * n_max + k + 1):
        new = {}
        for i, mass in corridor.items():
            for v, p in dists[i].items():
                land = i + v
                if land == direction * k:
                    value += mass * p
                elif land != 0 and abs(land) < k:
                    new[land] = new.get(land, F(0)) + mass * p
        corridor = new
    if len(toward) != 1:
        return value, None
    r = toward.pop()
    g = gibbs_bounds(m).sup_g
    c = per_site_path_counts(n_max, k)
    series = sum(c[n][k] * (F((m.num_cells - r) * r) * g**2) ** n for n in range(n_max + 1))
    return value, F(r) ** k * g**k * series


def dense_hitting(chain, a: int, b: int) -> dict[int, Fraction]:
    """Reference for hit_before: P(reach >= b before <= a) from every
    site strictly between, by dense Gauss-Jordan elimination on Fractions
    over the (layer, site) unknowns."""
    index = {}
    for i in range(a + 1, b):
        for j in range(chain.layers):
            index[(j, i)] = len(index)
    n = len(index)
    rows = [[F(0)] * (n + 1) for _ in range(n)]
    for (j, i), r in index.items():
        rows[r][r] = F(1)
        for k, v, p in chain.transitions_at(i)[j]:
            if i + v >= b:
                rows[r][n] += p
            elif i + v > a:
                rows[r][index[(k, i + v)]] -= p
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return {
        i: sum(chain.init[j] * rows[index[(j, i)]][n] for j in range(chain.layers))
        for i in range(a + 1, b)
    }


def brute_force_passage_counts(length: int) -> dict[int, int]:
    """Exhaustive +/-1 enumeration of the paths of one length, counted by
    k of the length's parity: the paths that end at -k and stay strictly
    inside (-k, 0) before (the first-passage count of n = (length - k) / 2).
    """
    bits = np.arange(2**length, dtype=np.int32)
    pos = np.zeros(2**length, dtype=np.int8)
    # the interior's running min and max, started where they cut nothing
    bottom = np.zeros(2**length, dtype=np.int8)
    top = np.full(2**length, -1, dtype=np.int8)
    for i in range(length):
        pos += (((bits >> i) & 1) * 2 - 1).astype(np.int8)
        if i < length - 1:
            np.minimum(bottom, pos, out=bottom)
            np.maximum(top, pos, out=top)
    below_zero = top < 0
    return {
        k: int(np.count_nonzero(below_zero & (pos == -k) & (bottom > -k)))
        for k in range(2 - length % 2, length + 1, 2)
    }


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


def per_site_reference(m, env, window: int, joint: bool) -> dict:
    """Each window site's transitions, built site by site from env.at."""
    ref = {}
    for i in range(-window, window + 1):
        jumps = env.at(i).jumps
        if joint:
            ref[i] = tuple(
                tuple((k, jumps[j], m.measures[k] / m.image_measures[j]) for k in m.image_sets[j])
                for j in range(m.num_cells)
            )
        else:
            dist = {}
            for j, v in enumerate(jumps):
                dist[v] = dist.get(v, F(0)) + m.measures[j]
            ref[i] = (tuple((0, v, p) for v, p in sorted(dist.items())),)
    return ref


# fn(1, -1, 1) and fn(-1, 1, 1) share one site law over the triple map
# but not one joint row; fn(1, 1, -2) brings the largest jump
CLASS_MODELS = {
    "iid": iid_model(
        [fn(1, -1, 1), fn(-1, 1, 1), fn(-1, 2, -1), fn(1, 1, -2)],
        ["1/2", "1/4", "1/8", "1/8"],
    ),
    "markov": markov_model(
        [fn(1, -1, 1), fn(-2, 1, -1)], [["3/4", "1/4"], ["1/2", "1/2"]]
    ),
}
ENV_VIEWS = {
    "realization": lambda env: env,
    "shift": lambda env: shift(env, 17),
    "reflected": reflect,
}


class TestCompactChain:
    """The class-indexed chain against a per-site reference from env.at."""

    @pytest.mark.parametrize("model", sorted(CLASS_MODELS))
    @pytest.mark.parametrize("view", sorted(ENV_VIEWS))
    @pytest.mark.parametrize("joint", [False, True])
    def test_matches_per_site_reference(self, model, view, joint):
        m = NON_FULL_MAP if joint else triple_map()
        env = ENV_VIEWS[view](realize(CLASS_MODELS[model], 5))
        window = 40
        chain = build_site_chain(m, env, window, joint=joint)
        ref = per_site_reference(m, env, window, joint)
        assert chain.site_transitions == ref
        for i, rows in ref.items():
            assert chain.transitions_at(i) == rows
            dist = {}
            for j, layer in enumerate(rows):
                for _, v, p in layer:
                    dist[v] = dist.get(v, F(0)) + chain.init[j] * p
            assert chain.jump_dist(i) == dist
        assert chain.max_jump == max(abs(v) for rows in ref.values() for layer in rows for _, v, _ in layer)
        assert len(chain.rows) < len(ref)
        for site in (-window - 1, window + 1):
            with pytest.raises(WindowTooSmallError):
                chain.transitions_at(site)

    @pytest.mark.parametrize("joint", [False, True])
    def test_window_missing_the_largest_jump(self, joint):
        m = NON_FULL_MAP if joint else triple_map()
        # +/-2 jumps only at negative sites, so the window of a view
        # shifted 100 sites right never holds one
        env = realize(two_sided_model(fn(2, -2, 1), fn(1, -1, 1)), 0)
        rare = realize(iid_model([fn(1, -1, 1), fn(2, -2, 1)], ["999/1000", "1/1000"]), 1)
        assert build_site_chain(m, env, 20, joint=joint).max_jump == 2
        for view in (shift(env, 100), reflect(shift(env, 100)), rare):
            assert view.model.jump_bound == 2
            assert max(abs(v) for i in range(-20, 21) for v in view.at(i).jumps) == 1
            assert build_site_chain(m, view, 20, joint=joint).max_jump == 1


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

    def test_joint_and_site_chains_agree(self):
        # one solver for both kinds: 3 layers per site against 1
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        joint = build_site_chain(triple_map(), env, 8, joint=True)
        site = build_site_chain(triple_map(), env, 8)
        assert hit_before(joint, 0, -5, 5) == hit_before(site, 0, -5, 5)

    def test_joint_chain_budget(self):
        # 99 sites x 3 layers = 297 unknowns; a dense solve is cubic in
        # that, the banded elimination linear in the sites
        env = realize(iid_model([fn(2, -1, 1), fn(-2, 1, 1), fn(1, -1, -2)]), 5)
        chain = build_site_chain(triple_map(), env, 51, joint=True)
        t0 = time.perf_counter()
        h = hit_before(chain, 3, -49, 51)
        assert time.perf_counter() - t0 < 1.0
        assert 0 < h < 1

    @pytest.mark.parametrize("joint", [False, True])
    def test_trap_between_targets_is_singular(self, joint):
        # site 0 jumps 0 on every cell: from it the walk never leaves
        env = realize(two_sided_model(fn(1, 1, -1), fn(1, -1, -1), origin=fn(0, 0, 0)), 0)
        chain = build_site_chain(triple_map(), env, 6, joint=joint)
        with pytest.raises(SingularSystemError):
            hit_before(chain, 2, -5, 5)

    def test_trap_on_markov_branch_map_is_singular(self):
        env = realize(periodic_model([fn(1, -1, 1), fn(0, 0, 0), fn(-1, 1, -1)]), 0)
        chain = build_site_chain(NON_FULL_MAP, env, 8, joint=True)
        with pytest.raises(SingularSystemError):
            hit_before(chain, 0, -7, 8)


class TestIntegerKernelsMatchFractions:
    """The integer-numerator DPs and the banded solve against references
    that do every step in Fraction arithmetic."""

    def test_return_prob_site_chain(self):
        support = [fn(3, -1, -2), fn(-3, 1, 2), fn(1, -2, 0)]
        env = realize(iid_model(support, ["1/2", "1/3", "1/6"]), 11)
        chain = build_site_chain(QUARTER_MAP, env, 40)
        assert chain.max_jump == 3
        for start in (0, 2, -5):
            for n in (1, 2, 7, 16):
                want = fraction_return_prob(chain, start, n)
                assert return_prob_by_time(chain, start, n) == want

    def test_return_prob_joint_chain(self):
        support = [fn(1, -1, 1), fn(-1, 1, -1)]
        env = realize(markov_model(support, [["2/3", "1/3"], ["1/3", "2/3"]]), 4)
        chain = build_site_chain(NON_FULL_MAP, env, 30, joint=True)
        for start in (0, -3):
            for n in (1, 4, 9, 24):
                want = fraction_return_prob(chain, start, n)
                assert return_prob_by_time(chain, start, n) == want

    @pytest.mark.parametrize(
        "m, model",
        [
            (triple_map(), iid_model([fn(1, 1, -1), fn(1, -1, 1), fn(-1, 1, 1)])),
            (QUARTER_MAP, iid_model([fn(1, 1, -1), fn(-1, 1, -1)])),
            (QUARTER_MAP, fixed_model(fn(-1, 1, 1))),
        ],
    )
    def test_first_passage(self, m, model):
        env = realize(model, 8)
        for direction in (-1, 1):
            for k, n_max in ((1, 4), (2, 6), (5, 20)):
                got = first_passage_measure(m, env, k, n_max, direction)
                value, bound = fraction_first_passage(m, env, k, n_max, direction)
                assert got.value == value
                assert got.comparison_bound == bound

    @pytest.mark.parametrize(
        "m, model, a, b, joint",
        [
            # 11 sites x 3 layers = 33 unknowns
            (triple_map(), iid_model([fn(2, -1, 1), fn(-2, 1, 1), fn(1, -1, -2)]), -4, 8, True),
            # 14 sites x 3 layers on a Markov-branch map
            (
                NON_FULL_MAP,
                markov_model([fn(2, -1, 1), fn(-1, 2, -2)], [["1/2", "1/2"], ["1/4", "3/4"]]),
                -9, 6, True,
            ),
            # 39 sites x 3 layers = 117 unknowns
            (triple_map(), iid_model([fn(2, -2, 1), fn(-1, 2, -1)], ["2/3", "1/3"]), -14, 26, True),
            (QUARTER_MAP, iid_model([fn(2, -1, -2), fn(-1, 1, 2)]), -13, 20, False),
        ],
    )
    def test_hit_before_matches_dense_gauss(self, m, model, a, b, joint):
        env = realize(model, 2)
        chain = build_site_chain(m, env, max(-a, b), joint=joint)
        assert chain.max_jump == 2
        want = dense_hitting(chain, a, b)
        for start in sorted({a + 1, a + 3, 0, b - 2, b - 1}):
            assert hit_before(chain, start, a, b) == want[start], start


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
        checked = set()
        for length in range(1, 21):
            for k, count in brute_force_passage_counts(length).items():
                n = (length - k) // 2
                if n <= n_max and k <= k_max:
                    assert c[n][k] == count, (n, k)
                    checked.add((n, k))
        assert checked == {
            (n, k)
            for n in range(n_max + 1)
            for k in range(1, k_max + 1)
            if 2 * n + k <= 20
        }

    def test_k2_corridor_forces_immediate_descent(self):
        # the only interior site is -1, so any detour exits the corridor
        c = path_counts(6, 2)
        assert [c[n][2] for n in range(7)] == [1, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("n_max, k_max", [(-1, 3), (3, 0), (0, -2)])
    def test_guards(self, n_max, k_max):
        with pytest.raises(ValueError, match="n_max >= 0 and k_max >= 1"):
            path_counts(n_max, k_max)

    @pytest.mark.parametrize(
        "n_max, k_max",
        [(0, 1), (0, 2), (0, 9), (7, 1), (7, 2), (4, 11), (3, 40), (12, 30), (160, 50)],
    )
    def test_table_matches_passage_columns(self, n_max, k_max):
        # the binomial-difference row against the corridor sweep that
        # first_passage_measure keeps for its one column
        table = path_counts(n_max, k_max)
        assert len(table) == n_max + 1 and all(len(row) == k_max + 1 for row in table)
        assert all(row[0] == 0 for row in table)
        for k in range(1, k_max + 1):
            assert [row[k] for row in table] == _passage_column(n_max, k), k


class TestParityListSweepsMatchReferences:
    """path_counts and series_diagnostic against the per-site and
    per-(cell, site) sweeps, which share no code with them."""

    @pytest.mark.parametrize(
        "n_max, k_max", [(0, 1), (3, 2), (6, 3), (9, 4), (14, 9), (25, 16), (60, 40)]
    )
    def test_path_counts(self, n_max, k_max):
        assert path_counts(n_max, k_max) == per_site_path_counts(n_max, k_max)

    @pytest.mark.parametrize("direction", [-1, 1])
    def test_first_passage_unchanged(self, direction):
        m = triple_map()
        env = realize(iid_model([fn(1, 1, -1), fn(1, -1, 1), fn(-1, 1, 1)]), 5)
        for k, n_max in ((1, 8), (2, 8), (3, 20), (4, 20), (7, 30), (12, 40)):
            got = first_passage_measure(m, env, k, n_max, direction)
            value, bound = fraction_first_passage(m, env, k, n_max, direction)
            assert (got.value, got.comparison_bound) == (value, bound), k

    @pytest.mark.parametrize(
        "m, model",
        [
            (triple_map(), iid_model([fn(1, -1, 1), fn(-1, 1, -1), fn(1, 1, -1)])),
            (QUARTER_MAP, iid_model([fn(1, -1, -1), fn(-1, 1, 1)], ["1/3", "2/3"])),
            (
                NON_FULL_MAP,
                markov_model([fn(1, -1, 1), fn(-1, 1, -1)], [["2/3", "1/3"], ["1/3", "2/3"]]),
            ),
        ],
    )
    def test_series_diagnostic(self, m, model):
        env = realize(model, 3)
        for cell in range(m.num_cells):
            for theta in ("1/3", "1/2", "2/3"):
                for lag in (0, 1, 2, 3, 7, 10, 31, 240):
                    got = series_diagnostic(m, env, cell, theta, lag)
                    want = dict_series_diagnostic(m, env, cell, theta, lag)
                    assert (got.partial_sums, got.increments) == want, (cell, theta, lag)

    def test_series_diagnostic_rejects_bigger_jumps(self):
        env = realize(iid_model([fn(1, -1), fn(2, -1)]), 0)
        with pytest.raises(UnsupportedJumpsError):
            series_diagnostic(doubling_map(), env, 0, "1/2", 40)


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

    @pytest.mark.parametrize("k_cells", [2, 3, 4, 5])
    def test_matches_transfer_sweep(self, k_cells):
        m = equal_slope_map(k_cells)
        for r in range(1, k_cells):
            for cell in range(k_cells):
                want = transfer_cylinder_counts(k_cells, r, cell, 220)
                for n in range(221):
                    got = return_cylinder_count(m, r, n, cell=cell)
                    assert got["enumerated"] == want[n], (r, cell, n)
                    assert got["combinatorial_bound"] == (
                        r**n * (k_cells - r) ** n * _comb(2 * n, n)
                    )

    def test_guards(self):
        m = triple_map()
        with pytest.raises(ValueError, match="n must be >= 0"):
            return_cylinder_count(m, 2, -1)
        with pytest.raises(ValueError, match="cell out of range"):
            return_cylinder_count(m, 2, 3, cell=3)
        with pytest.raises(HypothesisViolatedError):
            return_cylinder_count(m, 3, 3)
        with pytest.raises(EnumerationTooLargeError):
            return_cylinder_count(m, 2, 11, cap=10)
        with pytest.raises(UnsupportedBaseError):
            return_cylinder_count(NON_FULL_MAP, 1, 3)

    @pytest.mark.parametrize("k_cells", [2, 3, 4, 5])
    def test_closed_form(self, k_cells):
        # after the pinned first jump the other 2n - 1 steps take n - 1
        # more of its kind and n of the other
        m = equal_slope_map(k_cells)
        for r in range(1, k_cells):
            for cell in range(k_cells):
                for n in range(1, 31):
                    if cell < r:
                        want = _comb(2 * n - 1, n - 1) * r ** (n - 1) * (k_cells - r) ** n
                    else:
                        want = _comb(2 * n - 1, n) * r**n * (k_cells - r) ** (n - 1)
                    got = return_cylinder_count(m, r, n, cell=cell)
                    assert got["enumerated"] == want, (r, cell, n)


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

    def test_negative_lag_max(self):
        env = realize(fixed_model(fn(1, -1)), 0)
        with pytest.raises(ValueError, match="lag_max must be >= 0"):
            series_diagnostic(doubling_map(), env, 0, "1/2", -1)
        diag = series_diagnostic(doubling_map(), env, 0, "1/2", 0)
        assert len(diag.partial_sums) == 1 and diag.geometric_bound is not None


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

    def _unit_chains(self, window):
        # every jump +/-1, as on mc-scan: one chain that never returns
        mix = iid_model([fn(1, -1), fn(-1, 1)], ["1/3", "2/3"])
        chains = [
            build_site_chain(doubling_map(), realize(mix, 5), window),
            build_site_chain(triple_map(), realize(fixed_model(fn(1, 1, -1)), 0), window),
            build_site_chain(doubling_map(), realize(fixed_model(fn(1, 1)), 0), window),
        ]
        for c in chains:
            assert {v for rows in c.site_transitions.values() for _, v, _ in rows[0]} <= {-1, 1}
        return chains

    def test_matches_single_chain_wrappers(self):
        # the stack merges both passes for the first n // 2 steps: n = 1
        # merges none, and n = 3, 4 split after an odd and an even step
        for chains_of, reach in ((self._chains, 3), (self._unit_chains, 1)):
            self.check_against_wrappers(chains_of(48 * reach + 2), reach)

    def check_against_wrappers(self, chains, reach):
        for start in (0, -1):
            for n in (1, 2, 3, 4, 7, 48):
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
