"""Finite-window combinatorics of the skew product.

Nodes are (cell, site) pairs over a site window; edges follow the
branch images and the site jumps of the environment.  Strong components
are certified only on nodes whose whole jump neighborhood stays inside
the window; anything touching the boundary is reported as truncated,
because reachability through sites outside the window cannot be ruled
in or out from a finite picture.

Node (j, i) has the integer index (i + W) * cells + j, its position in
the graph's node list, and the graph carries each node's successor
indices next to the (node, node) edge list: the strong components
(an iterative Tarjan) and the closure tests run on those integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Sequence

from .environments import TransitionFunction, require_cells
from .interval_maps import MarkovIntervalMap

Node = tuple[int, int]  # (cell index, site)


@dataclass
class SkewGraph:
    """The window graph over cells x [-window, window].

    Node (j, i) has the integer index (i + window) * num_cells + j, its
    position in `nodes`.  successors[v] holds the indices of node v's
    successors inside the window, in edge order, so `edges` lists the
    same graph as node pairs.
    """

    window: int
    num_cells: int
    jump_bound: int
    nodes: list[Node]
    edges: list[tuple[Node, Node]]  # both endpoints inside the window
    external_edges: list[tuple[Node, Node]]  # target site outside
    successors: list[tuple[int, ...]]


def build_skew_graph(m: MarkovIntervalMap, env, window: int) -> SkewGraph:
    """Materialize the reachability graph over cells x [-W, W].

    Node (j, i) points to (k, i + jump) for every cell k in the image of
    cell j, with jump the environment's value on cell j at site i.
    Edge lists are in canonical (node, successor) order.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    require_cells(getattr(env, "model", None), m.num_cells)
    n_cells = m.num_cells
    n_sites = 2 * window + 1
    nodes = [(j, i) for i in range(-window, window + 1) for j in range(n_cells)]
    jumps = [env.at(i).jumps for i in range(-window, window + 1)]
    jump_bound = max(1, *map(abs, itertools.chain.from_iterable(jumps)))
    # cell j's successors by target site, padded with empty tuples where
    # the target leaves the window, read at site + jump for every site
    pad = [()] * jump_bound
    by_cell = []
    for j, image in enumerate(m.image_sets):
        rows = pad + list(zip(*(range(k, n_sites * n_cells, n_cells) for k in image))) + pad
        targets = map(add, range(jump_bound, jump_bound + n_sites), map(itemgetter(j), jumps))
        by_cell.append(map(rows.__getitem__, targets))
    successors = list(itertools.chain.from_iterable(zip(*by_cell)))
    edges = [(nodes[v], nodes[w]) for v, out in enumerate(successors) for w in out]
    external = []
    for i, site_jumps in enumerate(jumps, -window):
        if abs(i) <= window - jump_bound:
            continue
        for j, (jump, image) in enumerate(zip(site_jumps, m.image_sets)):
            target_site = i + jump
            if abs(target_site) > window:
                external += [((j, i), (k, target_site)) for k in image]
    return SkewGraph(
        window=window,
        num_cells=n_cells,
        jump_bound=jump_bound,
        nodes=nodes,
        edges=edges,
        external_edges=external,
        successors=successors,
    )


@dataclass
class CommClass:
    nodes: tuple[Node, ...]
    certified: bool  # membership witnessed with full jump neighborhoods visible
    closed: bool | None  # None when the surrounding component is truncated


def communication_classes(graph: SkewGraph) -> list[CommClass]:
    """Window-certified communication structure.

    Components are the strong components of the window graph; witnesses
    may pass through boundary sites, but only interior nodes (those at
    least one jump bound away from the window edge, so their whole
    one-step structure is visible) are certified as class members.  A
    component's boundary remainder is reported separately with
    certified=False.  Closure is decidable only for fully interior
    components: True when no edge leaves the component, False when one
    does, None when the component touches the boundary.  Classes are
    listed by their smallest node.
    """
    succ = graph.successors
    comp = _tarjan_scc(succ)
    n_cells, window, nodes = graph.num_cells, graph.window, graph.nodes
    # members in (cell, site) order, which is the order of their nodes
    members: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for j in range(n_cells):
        for v in range(j, len(comp), n_cells):
            members[comp[v]].append(v)
    # interior sites -interior..interior are the indices lo..hi - 1; an
    # interior node's edges all stay inside the window
    interior = window - graph.jump_bound
    lo, hi = (window - interior) * n_cells, (window + interior + 1) * n_cells

    out = []
    for c, vs in enumerate(members):
        inside = tuple(nodes[v] for v in vs if lo <= v < hi)
        boundary = tuple(nodes[v] for v in vs if not lo <= v < hi)
        if inside:
            if boundary:
                closed = None  # truncated component: closure undecidable
            else:
                closed = not any(comp[w] != c for v in vs for w in succ[v])
            out.append(CommClass(nodes=inside, certified=True, closed=closed))
        if boundary:
            out.append(CommClass(nodes=boundary, certified=False, closed=None))
    out.sort(key=lambda cc: (cc.nodes[0], not cc.certified))
    return out


def _tarjan_scc(succ: Sequence[Sequence[int]]) -> list[int]:
    """Iterative Tarjan; returns a component id per vertex.  Each vertex
    on the work stack carries an iterator over its successors, so a
    resumed vertex continues where it left off."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
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
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


@dataclass(frozen=True)
class LinkageResult:
    holds: bool
    witness: str


def check_linkage(
    m: MarkovIntervalMap, support: Sequence[TransitionFunction]
) -> LinkageResult:
    """Sufficient condition for uniformly large connecting cylinders.

    Verifies: at least two cells, full branches, and every support
    function attaining exactly the values {+1, -1}.  This certifies the
    linkage structure for the shipped model class; it is not a decision
    procedure for arbitrary environments.
    """
    require_cells(support, m.num_cells)
    if m.num_cells < 2:
        return LinkageResult(False, "need at least two partition cells")
    if not m.full_branch:
        return LinkageResult(False, "base map is not full-branch")
    for f in support:
        values = f.values
        if values != {1, -1}:
            return LinkageResult(
                False,
                f"function {f.jumps} attains {sorted(values)}, needs both +1 and -1 only",
            )
    return LinkageResult(
        True,
        "full-branch base with >= 2 cells and every function attaining exactly {+1, -1}",
    )


def edge_list_text(graph: SkewGraph) -> str:
    """Canonical one-edge-per-line export: 'j,i -> k,i2'."""
    lines = [f"{a[0]},{a[1]} -> {b[0]},{b[1]}" for a, b in graph.edges]
    lines += [f"{a[0]},{a[1]} -> {b[0]},{b[1]} (external)" for a, b in graph.external_edges]
    return "\n".join(lines) + "\n"
