"""Seeded random instance generators and graph transformations shared by the test modules."""

from __future__ import annotations

import random

from perigid.colored_graph import ColoredEdge, ColoredGraph, ColorVector, EdgeSubset
from perigid.rigidity import laman_analysis
from perigid.sparsity import PartitionState, _grow, is_11k, is_colored_laman, is_colored_laman_sparse


def random_graph(
    rng: random.Random,
    nmax: int = 5,
    mmax: int | None = None,
    color_range: int = 2,
    n: int | None = None,
    m: int | None = None,
) -> ColoredGraph:
    if n is None:
        n = rng.randint(1, nmax)
    if m is None:
        m = rng.randint(0, mmax if mmax is not None else 2 * n + 2)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((u, v, (rng.randint(-color_range, color_range), rng.randint(-color_range, color_range))))
    return ColoredGraph.build(n, edges)


def random_laman_graph(rng: random.Random, n: int) -> ColoredGraph:
    """Grow a random colored-Laman graph greedily edge by edge.

    The edges taken so far are sparse and live in one partition; a candidate
    joins when it and a parallel copy of it fit (`sparsity._grow`), which is
    when the edges plus it are colored-Laman-sparse.
    """
    target = 2 * n + 1
    for _ in range(40):  # independent restarts
        edges: list[tuple[int, int, tuple[int, int]]] = []
        state = PartitionState(ColoredGraph.build(n, []))
        for _ in range(300 + 200 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            c = (rng.randint(-2, 2), rng.randint(-2, 2))
            if u == v and c == (0, 0):
                continue
            state.register_edge(len(edges), u, v, c)
            if _grow(state, len(edges)):
                edges.append((u, v, c))
                if len(edges) == target:
                    graph = ColoredGraph.build(n, edges)
                    assert is_colored_laman(graph)
                    return graph
    raise RuntimeError(f"could not grow a colored-Laman graph on {n} vertices")


def triangle_strip(rng: random.Random, n: int) -> ColoredGraph:
    """Three loops at vertex 0, two edges from 1 to 0, then v joined to v - 1
    and v - 2: a colored-Laman graph whose spanning forests are paths."""
    edges = [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)), (1, 0, (0, 0)), (1, 0, (1, -1))]
    for v in range(2, n):
        for u in (v - 1, v - 2):
            edges.append((v, u, (rng.randint(-2, 2), rng.randint(-2, 2))))
    return ColoredGraph.build(n, edges)


def random_circuit_graph(rng: random.Random, nmax: int = 4) -> ColoredGraph:
    """A colored-Laman circuit, extracted from a random non-sparse graph."""
    while True:
        g = random_graph(rng, nmax=nmax)
        if g.m and not is_colored_laman_sparse(g):
            chosen = [g.edge(i) for i in sorted(laman_analysis(g).circuit().circuit.ids)]
            vmap = {v: i for i, v in enumerate(sorted({v for e in chosen for v in (e.tail, e.head)}))}
            return ColoredGraph.build(len(vmap), [(vmap[e.tail], vmap[e.head], e.color) for e in chosen])


def random_tree_edges(rng: random.Random, n: int, color_range: int = 2):
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, (rng.randint(-color_range, color_range), rng.randint(-color_range, color_range))))
    return edges


def random_11k(rng: random.Random, n: int, k: int) -> ColoredGraph:
    """Random (1,1,k)-graph on n vertices (spanning tree plus k extras)."""
    while True:
        edges = random_tree_edges(rng, n)
        for _ in range(k):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append((u, v, (rng.randint(-2, 2), rng.randint(-2, 2))))
        g = ColoredGraph.build(n, edges)
        ok, kk = is_11k(EdgeSubset.full(g))
        if ok and kk == k:
            return g


def random_non_11k(rng: random.Random, n: int, k: int) -> ColoredGraph:
    """Graph with cycle-image rank k and m = n - 1 + k that is not (1,1,k)."""
    from perigid.colored_graph import scan_subset, image_rank

    while True:
        g = random_graph(rng, n=n, m=n - 1 + k)
        rank = image_rank(scan_subset(EdgeSubset.full(g)).images)
        ok, _ = is_11k(EdgeSubset.full(g))
        if rank == k and not ok:
            return g


def with_reversed(g: ColoredGraph, ids) -> ColoredGraph:
    """Reverse the orientation of the selected edges, negating their colors."""
    flip = set(ids)
    return ColoredGraph(g.n, tuple(
        ColoredEdge(e.id, e.head, e.tail, ColorVector(-e.color.g1, -e.color.g2)) if e.id in flip else e
        for e in g.edges
    ))


def with_potential(g: ColoredGraph, mu) -> ColoredGraph:
    """Recolor by a vertex potential: color += mu[head] - mu[tail]."""
    assert len(mu) == g.n
    return ColoredGraph(g.n, tuple(
        ColoredEdge(e.id, e.tail, e.head, ColorVector(*(c + h - t for c, h, t in zip(e.color, mu[e.head], mu[e.tail]))))
        for e in g.edges
    ))


def with_relabeled(g: ColoredGraph, perm) -> ColoredGraph:
    """Relabel vertices: vertex v becomes perm[v]."""
    assert sorted(perm) == list(range(g.n))
    return ColoredGraph(g.n, tuple(ColoredEdge(e.id, perm[e.tail], perm[e.head], e.color) for e in g.edges))


def with_doubled(g: ColoredGraph, eid: int) -> ColoredGraph:
    """Append a parallel copy of edge eid, same color, under the next free id."""
    e = g.edge(eid)
    copy_id = max((x.id for x in g.edges), default=-1) + 1
    return ColoredGraph(g.n, g.edges + (ColoredEdge(copy_id, e.tail, e.head, e.color),))


def random_reversal(rng: random.Random, g: ColoredGraph) -> ColoredGraph:
    return with_reversed(g, [e.id for e in g.edges if rng.random() < 0.5])


def random_potential(rng: random.Random, g: ColoredGraph) -> ColoredGraph:
    return with_potential(g, [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(g.n)])


def random_relabel(rng: random.Random, g: ColoredGraph) -> ColoredGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return with_relabeled(g, perm)
