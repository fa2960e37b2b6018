"""Skew-graph structure, communication classes, linkage condition."""

import random

import pytest

from dwde.environments import (
    fixed_model,
    fn,
    iid_model,
    markov_model,
    realize,
    two_sided_model,
)
from dwde.interval_maps import build_map, doubling_map, triple_map
from dwde.structure import (
    _tarjan_scc,
    build_skew_graph,
    check_linkage,
    communication_classes,
    edge_list_text,
)

NON_FULL_MAP = build_map(["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")])
MARKOV_PM1 = markov_model([fn(1, -1, 1), fn(-1, 1, -1)], [["2/3", "1/3"], ["1/3", "2/3"]])


class _TableEnv:
    """Site-table environment for hand-built structure scenarios."""

    def __init__(self, default, overrides):
        self.default = default
        self.overrides = overrides

    def at(self, i):
        return self.overrides.get(i, self.default)


class TestBuildGraph:
    def test_node_and_degree_counts(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        g = build_skew_graph(m, env, 2)
        assert len(g.nodes) == 10
        # interior nodes have full out-degree inside the window
        internal_from = {}
        for a, _ in g.edges:
            internal_from[a] = internal_from.get(a, 0) + 1
        for j in (0, 1):
            for i in (-1, 0, 1):
                assert internal_from[(j, i)] == 2

    def test_drift_graph_acyclic(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, 1)), 0)
        g = build_skew_graph(m, env, 3)
        assert all(b[1] == a[1] + 1 for a, b in g.edges)
        classes = communication_classes(g)
        certified = [c for c in classes if c.certified]
        assert certified
        assert all(len(c.nodes) == 1 for c in certified)
        assert all(c.closed is False for c in certified)

    def test_triple_window_one(self):
        m = triple_map()
        env = realize(fixed_model(fn(1, 1, -1)), 0)
        g = build_skew_graph(m, env, 1)
        assert len(g.nodes) == 9

    def test_edge_list_text(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        text = edge_list_text(build_skew_graph(m, env, 1))
        assert "0,0 -> 0,1" in text
        assert "(external)" in text
        assert text == edge_list_text(build_skew_graph(m, env, 1))


class TestCommunicationClasses:
    def test_symmetric_single_interior_class(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        for w in (2, 5, 10):
            classes = communication_classes(build_skew_graph(m, env, w))
            certified = [c for c in classes if c.certified]
            assert len(certified) == 1
            sites = {i for _, i in certified[0].nodes}
            assert sites == set(range(-(w - 1), w))

    def test_trap_stripe(self):
        # all-up at site 0, all-down at site 1 traps the pair {0, 1}
        m = doubling_map()
        g_sym = fn(1, -1)
        env = _TableEnv(g_sym, {0: fn(1, 1), 1: fn(-1, -1)})
        g = build_skew_graph(m, env, 6)
        classes = communication_classes(g)
        trapped = [
            c
            for c in classes
            if c.certified and {i for _, i in c.nodes} == {0, 1}
        ]
        assert len(trapped) == 1
        assert trapped[0].closed is True

    def test_window_monotonicity(self):
        m = doubling_map()
        model = iid_model([fn(1, -1), fn(-1, 1)])
        env = realize(model, 17)
        small = communication_classes(build_skew_graph(m, env, 6))
        large = communication_classes(build_skew_graph(m, env, 7))
        for c in small:
            if not c.certified:
                continue
            holders = [
                d for d in large if set(c.nodes) <= set(d.nodes)
            ]
            assert len(holders) == 1


def tuple_skew_graph(m, env, window):
    """Reference for build_skew_graph: (nodes, edges, external_edges,
    jump_bound) built one (node, node) tuple at a time."""
    sites = range(-window, window + 1)
    nodes = [(j, i) for i in sites for j in range(m.num_cells)]
    edges, external, jump_bound = [], [], 1
    for i in sites:
        jumps = env.at(i).jumps
        for j in range(m.num_cells):
            jump_bound = max(jump_bound, abs(jumps[j]))
            target_site = i + jumps[j]
            for k in m.image_sets[j]:
                edge = ((j, i), (k, target_site))
                (edges if -window <= target_site <= window else external).append(edge)
    return nodes, edges, external, jump_bound


def tuple_classes(nodes, edges, external, window, jump_bound):
    """Reference for communication_classes on the tuple graph, through a
    node -> index dict and a re-scanning Tarjan."""
    order = {v: n for n, v in enumerate(nodes)}
    succ = [[] for _ in nodes]
    for a, b in edges:
        succ[order[a]].append(order[b])
    n = len(succ)
    index, low, on_stack, stack, comp = [-1] * n, [0] * n, [False] * n, [], [-1] * n
    counter = n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == v:
                        break
                n_comps += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    members = [[] for _ in range(n_comps)]
    for v, c in zip(nodes, comp):
        members[c].append(v)
    leaves = [False] * n_comps
    for a, b in edges:
        if comp[order[a]] != comp[order[b]]:
            leaves[comp[order[a]]] = True
    external_from = {a for a, _ in external}
    interior = window - jump_bound
    out = []
    for c in range(n_comps):
        inside = tuple(sorted(v for v in members[c] if abs(v[1]) <= interior))
        boundary = tuple(sorted(v for v in members[c] if abs(v[1]) > interior))
        if inside:
            closed = None
            if not boundary:
                closed = not leaves[c] and not any(v in external_from for v in members[c])
            out.append((inside, True, closed))
        if boundary:
            out.append((boundary, False, None))
    out.sort(key=lambda cc: (cc[0][0], not cc[1]))
    return out, comp


class TestIntegerGraphMatchesTupleGraph:
    @pytest.mark.parametrize(
        "m, env, window",
        [
            (NON_FULL_MAP, realize(MARKOV_PM1, 4), 40),
            (NON_FULL_MAP, realize(iid_model([fn(1, -1, 1), fn(-1, 1, 1)]), 2), 1),
            (triple_map(), realize(iid_model([fn(2, -1, 1), fn(-2, 1, 3)]), 7), 9),
            (triple_map(), realize(fixed_model(fn(1, 1, -1)), 0), 5),
            (doubling_map(), realize(iid_model([fn(1, -1), fn(-1, 1), fn(1, 1)]), 17), 30),
            (doubling_map(), _TableEnv(fn(1, -1), {0: fn(1, 1), 1: fn(-1, -1)}), 6),
        ],
    )
    def test_graph_and_classes(self, m, env, window):
        nodes, edges, external, jump_bound = tuple_skew_graph(m, env, window)
        g = build_skew_graph(m, env, window)
        assert (g.nodes, g.edges, g.external_edges, g.jump_bound) == (
            nodes, edges, external, jump_bound,
        )
        assert [(a, b) for a, b in g.edges] == [
            (g.nodes[v], g.nodes[w]) for v, out in enumerate(g.successors) for w in out
        ]
        want, comp = tuple_classes(nodes, edges, external, window, jump_bound)
        got = communication_classes(g)
        assert [(c.nodes, c.certified, c.closed) for c in got] == want
        assert _tarjan_scc(g.successors) == comp

    def test_truncated_class_touches_the_boundary(self):
        m = doubling_map()
        env = realize(fixed_model(fn(1, -1)), 0)
        g = build_skew_graph(m, env, 4)
        want, _ = tuple_classes(g.nodes, g.edges, g.external_edges, 4, g.jump_bound)
        got = [(c.nodes, c.certified, c.closed) for c in communication_classes(g)]
        assert got == want
        assert any(not certified for _, certified, _ in got)
        assert all(closed is None for _, certified, closed in got if certified)


@pytest.mark.parametrize("seed", range(8))
def test_tarjan_partition_matches_scipy(seed):
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    degree = rng.choice([0.5, 1.0, 1.5, 3.0])
    succ = [
        [rng.randrange(n) for _ in range(int(rng.expovariate(1 / degree)))] for _ in range(n)
    ]
    comp = _tarjan_scc(succ)
    rows = [v for v, out in enumerate(succ) for _ in out]
    cols = [w for out in succ for w in out]
    adj = sparse.csr_matrix(([1] * len(rows), (rows, cols)), shape=(n, n))
    _, labels = csgraph.connected_components(adj, directed=True, connection="strong")
    # the same partition: the two labelings determine each other
    pairs = set(zip(comp, labels.tolist()))
    assert len(pairs) == len(set(comp)) == len(set(labels.tolist()))


class TestLinkage:
    def test_triple_r2_support_holds(self):
        support = [fn(1, 1, -1), fn(1, -1, 1), fn(-1, 1, 1)]
        res = check_linkage(triple_map(), support)
        assert res.holds

    def test_single_value_function_fails(self):
        res = check_linkage(triple_map(), [fn(1, 1, 1)])
        assert not res.holds
        assert "+1" in res.witness

    def test_non_full_branch_fails(self):
        m = build_map(
            ["0", "1/3", "2/3", "1"], [("2", "0"), ("3", "-1"), ("3", "-2")]
        )
        res = check_linkage(m, [fn(1, -1, 1)])
        assert not res.holds
        assert "full-branch" in res.witness

    def test_two_sided_support(self):
        support = list(
            two_sided_model(fn(1, -1, -1), fn(1, 1, -1)).support
        )
        assert check_linkage(triple_map(), support).holds
