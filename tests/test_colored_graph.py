"""Colored graph structure, cycle images, developments and covers."""

from __future__ import annotations

import math
import random
import warnings

import pytest

from perigid.colored_graph import (
    ColoredGraph,
    ColorVector,
    EdgeSubset,
    GainScan,
    develop_window,
    image_rank,
    lattice_index,
    scan_subset,
    sublattice_cover,
    z2_rank,
)
from perigid.errors import MultiplicityWarning, StructuralError

from paper_reference import ClosedWalk, fundamental_cycles, rho_of_walk
from randgen import random_graph, with_potential, with_reversed

G = ColoredGraph.build

LAMAN1 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1))])
FINDEX = G(1, [(0, 0, (1, 0)), (0, 0, (0, 2)), (0, 0, (1, 2))])


def components(subset):
    """(count, partition of the spanned vertices) of the edge-induced subgraph."""
    trees = scan_subset(subset).trees.values()
    return len(trees), tuple(sorted(tuple(sorted(tree)) for tree in trees))


def test_rho_single_loop():
    g = G(1, [(0, 0, (2, 3))])
    assert rho_of_walk(ClosedWalk(g, ((0, True),))) == ColorVector(2, 3)


def test_rho_two_parallel_edges_and_reversal():
    g = G(2, [(0, 1, (1, 0)), (0, 1, (0, 0))])
    walk = ClosedWalk(g, ((0, True), (1, False)))
    assert rho_of_walk(walk) == ColorVector(1, 0)
    back = ClosedWalk(g, ((1, True), (0, False)))
    assert rho_of_walk(back) == ColorVector(-1, 0)


def test_malformed_walk_rejected():
    g = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0))])
    with pytest.raises(StructuralError):
        ClosedWalk(g, ((0, True), (1, True)))  # does not close
    with pytest.raises(StructuralError):
        ClosedWalk(g, ((0, True), (0, True)))  # endpoint mismatch


def test_z2_rank_examples():
    assert z2_rank(EdgeSubset.full(LAMAN1)) == 2
    assert z2_rank(EdgeSubset.full(G(1, [(0, 0, (2, 0)), (0, 0, (3, 0))]))) == 1
    tri = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0)), (2, 0, (0, 0))])
    assert z2_rank(EdgeSubset.full(tri)) == 0


def test_components_examples():
    g = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    count, parts = components(EdgeSubset.full(g))
    assert count == 2 and parts == ((0,), (1,))
    tree = G(4, [(0, 1, (0, 0)), (1, 2, (0, 0)), (2, 3, (0, 0))])
    assert components(EdgeSubset.full(tree))[0] == 1
    assert components(EdgeSubset.of(tree, []))[0] == 0
    assert components(EdgeSubset.of(tree, []))[1] == ()


def test_rho_additive_over_symmetric_difference():
    # two cycles sharing edge 2 with opposite orientations: their symmetric
    # difference is again a cycle and the images add
    g = G(
        3,
        [
            (0, 1, (1, 0)),
            (1, 2, (0, 1)),
            (2, 0, (0, 0)),
            (2, 0, (3, 5)),
        ],
    )
    c1 = ClosedWalk(g, ((0, True), (1, True), (2, True)))
    c2 = ClosedWalk(g, ((2, False), (3, True)))
    sym = ClosedWalk(g, ((0, True), (1, True), (3, True)))
    assert rho_of_walk(sym) == rho_of_walk(c1).plus(rho_of_walk(c2))


def test_rank_invariance_under_transforms():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng)
        sub = EdgeSubset.full(g)
        expected = z2_rank(sub)
        rev = with_reversed(g, [e.id for e in g.edges if rng.random() < 0.5])
        assert z2_rank(EdgeSubset.full(rev)) == expected
        mu = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(g.n)]
        assert z2_rank(EdgeSubset.full(with_potential(g, mu))) == expected


def test_rank_monotone_and_unit_increments():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng)
        ids = [e.id for e in g.edges]
        rng.shuffle(ids)
        prev = 0
        for i in range(len(ids) + 1):
            r = z2_rank(EdgeSubset.of(g, ids[:i]))
            assert prev <= r <= prev + 1
            prev = r


def lattice_index_by_minors(images):
    """Reference index: the gcd of all 2x2 minors of the images, None if 0."""
    vecs = [(x, y) for x, y in images if x or y]
    g = 0
    for i in range(len(vecs)):
        xi, yi = vecs[i]
        for j in range(i + 1, len(vecs)):
            xj, yj = vecs[j]
            g = math.gcd(g, abs(xi * yj - yi * xj))
    return g if g else None


def test_lattice_index():
    assert lattice_index([(1, 0), (0, 2), (1, 2)]) == 2
    assert lattice_index([(2, 0), (3, 0), (0, 1)]) == 1
    assert lattice_index([(2, 0), (0, 2)]) == 4
    assert lattice_index([(1, 0)]) is None
    assert lattice_index([]) is None
    assert lattice_index([(0, 0), (0, 3), (0, -6)]) is None
    assert lattice_index([(0, 3), (0, 0), (-2, 5)]) == 6


def test_lattice_index_matches_the_minors_on_random_families():
    rng = random.Random(23)
    big = 1 << 53  # the color budget
    seen = {"zero": 0, "collinear": 0, "big": 0, "finite": 0}
    for trial in range(3000):
        shape = trial % 4
        k = rng.randint(0, 7)
        if shape == 0:  # small entries, zero vectors among them
            vecs = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(k)]
        elif shape == 1:  # one line through the origin, so the index is infinite
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            vecs = [(c * x, c * y) for c in (rng.randint(-6, 6) for _ in range(k))]
        elif shape == 2:  # entries near the color budget
            vecs = [(rng.choice((-1, 1)) * (big - rng.randint(0, 9)), rng.randint(-big, big)) for _ in range(k)]
        else:  # one axis only, or mixed with zero vectors
            vecs = [rng.choice(((0, rng.randint(-9, 9)), (rng.randint(-9, 9), 0), (0, 0))) for _ in range(k)]
        seen["zero"] += (0, 0) in vecs
        seen["collinear"] += shape == 1 and k > 1
        seen["big"] += shape == 2 and k > 1
        want = lattice_index_by_minors(vecs)
        seen["finite"] += want is not None
        assert lattice_index(vecs) == want, vecs
    assert min(seen.values()) > 100, seen


def test_develop_finite_index_fixture():
    rep = develop_window(FINDEX, ((-2, 2), (-2, 2)))
    assert rep.k == 2
    assert rep.index == 2
    assert rep.predicted_infinite_components == 2
    assert rep.observed_core_components == 2
    assert len(rep.vertices) == 25


def test_develop_rank_one_and_zero():
    rep1 = develop_window(G(1, [(0, 0, (1, 0))]), ((-2, 2), (-2, 2)))
    assert rep1.k == 1
    assert rep1.index is None
    assert rep1.predicted_infinite_components == math.inf

    tree = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0))])
    rep0 = develop_window(tree, ((-1, 1), (-1, 1)))
    assert rep0.k == 0
    assert rep0.predicted_finite_components == math.inf
    # each cell carries one finite copy of the tree
    assert rep0.observed_components == 9


def test_develop_core_matches_index_on_random_rank2_graphs():
    rng = random.Random(17)
    found = 0
    while found < 12:
        g = random_graph(rng, nmax=2, color_range=2)
        sub = EdgeSubset.full(g)
        scan = scan_subset(sub)
        if image_rank(scan.images) != 2 or components(sub)[0] != 1:
            continue
        if len(scan.root) != g.n:
            continue
        idx = lattice_index(scan.images)
        if idx is None or idx > 4:
            continue
        rep = develop_window(g, ((-3 * idx, 3 * idx), (-3 * idx, 3 * idx)))
        assert rep.observed_core_components == idx
        found += 1


def test_develop_empty_window_rejected():
    with pytest.raises(StructuralError):
        develop_window(LAMAN1, ((2, -2), (0, 0)))


def test_cover_identity_is_isomorphic():
    cov = sublattice_cover(FINDEX, [[1, 0], [0, 1]])
    assert cov == FINDEX


def test_cover_diag12_of_finite_index_fixture():
    cov = sublattice_cover(FINDEX, [[1, 0], [0, 2]])
    assert cov.n == 2 and cov.m == 6
    count, _ = components(EdgeSubset.full(cov))
    assert count == 2
    # each sheet carries the one-vertex rank-2 triple
    loops0 = sorted(tuple(e.color) for e in cov.edges if e.tail == e.head == 0)
    assert loops0 == [(0, 1), (1, 0), (1, 1)]


def test_cover_diag12_of_full_lattice_fixture():
    cov = sublattice_cover(LAMAN1, [[1, 0], [0, 2]])
    assert cov.n == 2 and cov.m == 6
    assert components(EdgeSubset.full(cov))[0] == 1


def test_cover_counts_and_composition():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, nmax=3)
        b1 = [[1, 1], [0, 2]]
        b2 = [[2, 0], [1, 1]]
        c1 = sublattice_cover(g, b1)
        assert (c1.n, c1.m) == (2 * g.n, 2 * g.m)
        c2 = sublattice_cover(c1, b2)
        assert (c2.n, c2.m) == (4 * g.n, 4 * g.m)


def test_cover_singular_basis_rejected():
    with pytest.raises(StructuralError):
        sublattice_cover(LAMAN1, [[1, 2], [2, 4]])


def test_multiplicity_warning():
    with pytest.warns(MultiplicityWarning):
        G(1, [(0, 0, (i, 1)) for i in range(5)])
    with pytest.warns(MultiplicityWarning):
        G(2, [(0, 1, (i, 0)) for i in range(7)])


def test_edge_validation():
    with pytest.raises(StructuralError):
        G(1, [(0, 1, (0, 0))])


def test_subset_ids_are_checked_against_the_id_index(monkeypatch):
    g = G(2, [(0, 1, (0, 0)), (1, 1, (1, 0)), (0, 0, (0, 1))])
    with pytest.raises(StructuralError):
        EdgeSubset.of(g, [0, 3])

    def spy(graph):
        raise AssertionError("a subset rebuilt the graph's id list")

    monkeypatch.setattr(ColoredGraph, "edge_ids", spy)
    assert EdgeSubset.of(g, [0, 2]).sorted_ids() == [0, 2]
    with pytest.raises(StructuralError):
        EdgeSubset.of(g, [-1])


def _assert_gain_forest(scan, edges, vertices):
    """Every up-link agrees with its edge's color, each root potential is the
    sum along its root path, the tree and non-tree edges are the input
    edges, and each image is color + sigma(tail) - sigma(head)."""
    by_id = {y: (t, h, tuple(c)) for y, t, h, c in edges}
    for v, (u, y, g1, g2) in scan.up.items():
        assert by_id[y] in ((u, v, (g1, g2)), (v, u, (-g1, -g2)))
    for v, at in scan.root.items():
        p1 = p2 = 0
        while v in scan.up:
            v, _, g1, g2 = scan.up[v]
            p1, p2 = p1 + g1, p2 + g2
        assert at == (v, p1, p2)
    assert sorted(v for tree in scan.trees.values() for v in tree) == sorted(scan.root)
    assert all(scan.root[v][0] == r for r, tree in scan.trees.items() for v in tree)
    assert set(scan.root) == {v for _, t, h, _ in edges for v in (t, h)} | set(vertices)
    tree_edges = [y for _, y, _, _ in scan.up.values()]
    assert sorted(tree_edges + scan.extras) == sorted(by_id)
    assert len(scan.images) == len(scan.extras)
    for y, image in zip(scan.extras, scan.images):
        t, h, (c1, c2) = by_id[y]
        (rt, t1, t2), (rh, h1, h2) = scan.root[t], scan.root[h]
        assert rt == rh and image == (c1 + t1 - h1, c2 + t2 - h2)


def _partition(scan):
    return sorted(sorted(tree) for tree in scan.trees.values())


def test_gain_forest_built_and_grown_agree_on_random_multigraphs():
    rng = random.Random(23)
    seen = {"loops": 0, "parallel": 0, "zero loops": 0, "isolated": 0, "rank 2": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultiplicityWarning)
        graphs = [random_graph(rng, nmax=6, mmax=14, color_range=t % 3) for t in range(400)]
    for g in graphs:
        edges = [(e.id, e.tail, e.head, e.color) for e in g.edges]
        ends = [(min(e.tail, e.head), max(e.tail, e.head)) for e in g.edges]
        isolated = set(range(g.n)) - {v for pair in ends for v in pair}
        seen["loops"] += any(t == h for t, h in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero loops"] += any(e.tail == e.head and e.color == (0, 0) for e in g.edges)
        seen["isolated"] += bool(isolated)

        built = GainScan(edges, range(g.n))
        _assert_gain_forest(built, edges, range(g.n))
        grown = GainScan(())
        for edge in rng.sample(edges, len(edges)):
            grown.add(*edge)
        _assert_gain_forest(grown, edges, ())
        singletons = [[v] for v in sorted(isolated)]
        assert sorted(_partition(grown) + singletons) == _partition(built)
        k = image_rank(built.images)
        seen["rank 2"] += k == 2
        assert image_rank(grown.images) == k
        assert lattice_index(grown.images) == lattice_index(built.images)

        cycles = fundamental_cycles(EdgeSubset.full(g))
        assert [y for y, _ in cycles] == GainScan(edges).extras
        for y, walk in cycles:
            assert walk.steps[0] == (y, True)
            at = walk.start_vertex()
            for eid, forward in walk.steps:
                e = g.edge(eid)
                assert at == (e.tail if forward else e.head)
                at = e.head if forward else e.tail
            assert at == walk.start_vertex()
        rhos = [rho_of_walk(walk) for _, walk in cycles]
        assert image_rank(rhos) == k
        assert lattice_index(rhos) == lattice_index(built.images)
    assert min(seen.values()) > 40, seen
