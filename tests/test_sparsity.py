"""Count function, matroids, decompositions, circuits, Ross graphs."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.colored_graph import ColoredGraph, EdgeSubset, GainScan, image_rank
from perigid import sparsity
from perigid.errors import BudgetError, DomainError, InternalConsistencyError
from perigid.rigidity import decide_rigidity, find_laman_circuit, is_ross, laman_analysis
from perigid.sparsity import (
    _VIRTUAL,
    PartitionState,
    brute_force_sparsity,
    classify_11k_shape,
    count_report,
    decompose_two_11k,
    f_value,
    is_11k,
    is_222_graph,
    is_222_sparse,
    is_colored_laman,
    is_colored_laman_sparse,
    is_f_independent,
    laman_sparse_subset,
    max_laman_sparse_subset,
    union_independent,
)

from randgen import random_11k, random_graph

G = ColoredGraph.build

LAMAN1 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1))])
TWO_LOOPS = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1))])
FOUR_LOOPS = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 0)), (0, 0, (0, 1))])


def full(g):
    return EdgeSubset.full(g)


def _subgraph(g, ids):
    return G(g.n, [(g.edge(x).tail, g.edge(x).head, tuple(g.edge(x).color)) for x in sorted(ids)])


# -- f ----------------------------------------------------------------------


def test_f_examples():
    empty = G(1, [])
    assert f_value(EdgeSubset.of(empty, [])) == 0
    one = G(1, [(0, 0, (1, 0))])
    assert f_value(full(one)) == 1
    assert f_value(full(LAMAN1)) == 2


def test_f_independence_examples():
    tree = G(4, [(0, 1, (1, 1)), (1, 2, (2, 0)), (2, 3, (0, 0))])
    assert is_f_independent(full(tree))
    assert not is_f_independent(full(G(1, [(0, 0, (1, 0)), (0, 0, (2, 0))])))
    assert is_f_independent(full(TWO_LOOPS))


def test_f_unit_increments_and_submodularity():
    rng = random.Random(5)
    for _ in range(150):
        g = random_graph(rng)
        ids = [e.id for e in g.edges]
        if not ids:
            continue
        rng.shuffle(ids)
        cut = rng.randint(0, len(ids) - 1)
        small = ids[: rng.randint(0, cut)]
        big = ids[:cut]
        extra = ids[cut]
        f_small = f_value(EdgeSubset.of(g, small))
        f_big = f_value(EdgeSubset.of(g, big))
        d_small = f_value(EdgeSubset.of(g, small + [extra])) - f_small
        d_big = f_value(EdgeSubset.of(g, big + [extra])) - f_big
        assert d_small in (0, 1) and d_big in (0, 1)
        assert d_small >= d_big  # submodular increments shrink on supersets


# -- (1,1,k) ----------------------------------------------------------------


def test_is_11k_examples():
    tree = G(4, [(0, 1, (1, 1)), (1, 2, (2, 0)), (2, 3, (0, 0))])
    assert is_11k(full(tree)) == (True, 0)
    assert is_11k(full(TWO_LOOPS)) == (True, 2)
    bad = G(3, [(0, 1, (1, 0)), (1, 2, (0, 0)), (2, 0, (-1, 0))])
    assert is_11k(full(bad))[0] is False  # cycle image (0, 0)


def test_is_11k_empty_subset_convention():
    assert is_11k(EdgeSubset.of(G(1, []), []))[0] is True
    assert is_11k(EdgeSubset.of(G(2, [(0, 1, (0, 0))]), []))[0] is False


def test_shape_classification():
    assert classify_11k_shape(full(TWO_LOOPS)).shape == 1
    barbell = G(2, [(0, 1, (0, 0)), (0, 0, (1, 0)), (1, 1, (0, 1))])
    assert classify_11k_shape(full(barbell)).shape == 2
    theta = G(2, [(0, 1, (0, 0)), (0, 1, (1, 0)), (0, 1, (0, 1))])
    assert classify_11k_shape(full(theta)).shape == 3


def _passes_core(subset):
    """The 2-core by repeated passes over every remaining edge in id order."""
    graph, ids, deg = subset.graph, set(subset.ids), {}
    for eid in ids:
        e = graph.edge(eid)
        deg[e.tail] = deg.get(e.tail, 0) + 1
        deg[e.head] = deg.get(e.head, 0) + 1
    changed = True
    while changed:
        changed = False
        for eid in sorted(ids):
            e = graph.edge(eid)
            if e.tail != e.head and (deg[e.tail] == 1 or deg[e.head] == 1):
                ids.discard(eid)
                deg[e.tail] -= 1
                deg[e.head] -= 1
                changed = True
    return frozenset(ids)


def test_shape_leaf_stripping_matches_repeated_passes():
    rng = random.Random(113)
    shapes = set()
    for _ in range(120):
        g = random_11k(rng, rng.randint(1, 12), 2)
        rep = classify_11k_shape(full(g))
        assert rep.core_edges == _passes_core(full(g))
        shapes.add(rep.shape)
    assert shapes == {1, 2, 3}


def test_shape_of_a_long_pendant_path():
    # the path's ids rise away from the core, one edge per pass for the passes
    n = 2000
    g = G(n, [(0, 0, (1, 0)), (0, 0, (0, 1))] + [(v, v + 1, (0, 0)) for v in range(n - 1)])
    rep = classify_11k_shape(full(g))
    assert rep.shape == 1 and rep.core_edges == {0, 1}


def test_shape_classification_subdivided():
    # subdivided theta: three paths between vertices 0 and 3
    g = G(
        4,
        [
            (0, 1, (0, 0)),
            (1, 3, (0, 0)),
            (0, 2, (1, 0)),
            (2, 3, (0, 0)),
            (0, 3, (0, 1)),
        ],
    )
    rep = classify_11k_shape(full(g))
    assert rep.shape == 3
    # dumbbell with subdivided connecting path and a pendant leaf
    g2 = G(
        4,
        [
            (0, 0, (1, 0)),
            (0, 1, (0, 0)),
            (1, 2, (0, 0)),
            (2, 2, (0, 1)),
            (2, 3, (5, 5)),
        ],
    )
    rep2 = classify_11k_shape(full(g2))
    assert rep2.shape == 2
    assert 4 not in {g2.edge(e).tail for e in rep2.core_edges}


def test_shape_requires_rank_two():
    with pytest.raises(DomainError):
        classify_11k_shape(full(G(1, [(0, 0, (1, 0))])))


def test_shape_witness_cycles():
    from perigid.colored_graph import rho_of_walk
    from randgen import random_11k

    rng = random.Random(8)
    for _ in range(30):
        g = random_11k(rng, rng.randint(1, 5), 2)
        rep = classify_11k_shape(full(g))
        r1, r2 = rho_of_walk(rep.cycle1), rho_of_walk(rep.cycle2)
        assert r1.g1 * r2.g2 - r1.g2 * r2.g1 != 0
        # some edge of the first cycle misses the second, so removing it
        # leaves the second cycle intact
        ids1 = {eid for eid, _ in rep.cycle1.steps}
        ids2 = {eid for eid, _ in rep.cycle2.steps}
        assert ids1 - ids2


# -- matroid union ----------------------------------------------------------


def exhaustive_partition(g: ColoredGraph) -> bool:
    ids = sorted(g.edge_ids())
    for mask in range(1 << len(ids)):
        p1 = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        p2 = [ids[i] for i in range(len(ids)) if not mask >> i & 1]
        if is_f_independent(EdgeSubset.of(g, p1)) and is_f_independent(
            EdgeSubset.of(g, p2)
        ):
            return True
    return False


def test_union_examples():
    ok, parts = union_independent(full(FOUR_LOOPS))
    assert ok and parts is not None
    assert sorted(map(sorted, parts)) == [[0, 1], [2, 3]]
    assert exhaustive_partition(FOUR_LOOPS)

    collinear = G(1, [(0, 0, (1, 0)), (0, 0, (2, 0)), (0, 0, (3, 0))])
    assert union_independent(full(collinear))[0] is False
    assert not exhaustive_partition(collinear)

    assert union_independent(EdgeSubset.of(FOUR_LOOPS, []))[0] is True


def test_union_matches_exhaustive_partitions():
    rng = random.Random(99)
    for _ in range(250):
        g = random_graph(rng, nmax=3, mmax=8)
        assert union_independent(full(g))[0] == exhaustive_partition(g)


def indep(state, ids):
    """Is the set f-independent?  One gain forest of it: the probing reference."""
    ids = list(ids)
    scan = GainScan((eid, *state.edata[eid]) for eid in ids)
    return len(scan.root) + image_rank(scan.images) - len(scan.trees) == len(ids)


class ProbingState(PartitionState):
    """The exchange search with |part| independence probes per step: the
    reference for the circuit read-off and for the search order."""

    def try_insert(self, eid):
        for r in (0, 1):
            if indep(self, self.parts[r] | {eid}):
                self.parts[r].add(eid)
                self.part_of[eid] = r
                return True
        parent = {}
        visited = {eid}
        queue = deque([(eid, 0), (eid, 1)])
        while queue:
            x, r = queue.popleft()
            part = self.parts[r]
            with_x = part | {x}
            if indep(self, with_x):
                self._apply(x, r, parent)
                return True
            for y in sorted(part):
                if y not in visited and indep(self, with_x - {y}):
                    visited.add(y)
                    parent[y] = (x, r)
                    queue.append((y, 1 - r))
        return False


def circuit_by_probes(state, part, x):
    """{y : part + x - y is f-independent}, or None when part + x is."""
    with_x = set(part) | {x}
    if indep(state, with_x):
        return None
    return {y for y in with_x if indep(state, with_x - {y})}


def kept_state(g, part):
    """A state whose part 0 is `part`; its forest is built on first read."""
    state = PartitionState(g)
    state.parts = (set(part), set())
    state.kept = [None, None]
    return state


def test_circuit_read_off_cases():
    def read_off(edges, part, x):
        state = kept_state(G(4, edges), part)
        assert indep(state, part)
        got = state._circuit(0, x)
        assert got == circuit_by_probes(state, part, x)
        return got if got is None else sorted(got)

    # zero-image cycles: a loop colored (0, 0), a parallel pair, a triangle
    assert read_off([(0, 1, (1, 0)), (1, 1, (0, 0))], [0], 1) == [1]
    assert read_off([(0, 1, (1, 0)), (0, 1, (1, 0))], [0], 1) == [0, 1]
    assert read_off([(0, 1, (1, 0)), (0, 1, (0, 1))], [0], 1) is None
    tri = [(0, 1, (1, 0)), (1, 2, (0, 1)), (2, 0, (-1, -1)), (2, 3, (0, 0))]
    assert read_off(tri, [0, 1, 3], 2) == [0, 1, 2]
    # one image in the part: parallel images close a circuit, others do not
    loop_a = [(0, 1, (0, 0)), (1, 0, (1, 0))]
    assert read_off(loop_a + [(0, 1, (2, 0))], [0, 1], 2) == [0, 1, 2]
    assert read_off(loop_a + [(1, 0, (0, 1))], [0, 1], 2) is None
    # a rank-2 dependency split across two components
    two_comps = loop_a + [(2, 3, (0, 0)), (3, 2, (0, 1))]
    assert read_off(two_comps + [(0, 1, (1, 1))], [0, 1, 2, 3], 4) == [0, 1, 2, 3, 4]
    assert read_off(two_comps + [(0, 1, (2, 0))], [0, 1, 2, 3], 4) == [0, 1, 4]
    assert read_off(two_comps + [(2, 3, (0, 3))], [0, 1, 2, 3], 4) == [2, 3, 4]
    # three non-tree edges at one vertex, and a new vertex
    loops = [(0, 0, (1, 0)), (0, 0, (0, 1))]
    assert read_off(loops + [(0, 0, (1, 1))], [0, 1], 2) == [0, 1, 2]
    assert read_off(loops + [(0, 0, (0, 0))], [0, 1], 2) == [2]
    assert read_off(loops + [(0, 1, (5, 5))], [0, 1], 2) is None


def test_circuit_read_off_matches_probes():
    rng = random.Random(61)
    shapes = set()
    for trial in range(400):
        g = random_graph(rng, nmax=4, mmax=9, color_range=trial % 3)
        state = PartitionState(g)
        ids = sorted(g.edge_ids())
        if trial % 4 == 0 and g.m <= 7:  # exhaustive over the independent parts
            parts = [
                {ids[i] for i in range(g.m) if mask >> i & 1} for mask in range(1 << g.m)
            ]
            parts = [p for p in parts if indep(state, p)]
        else:  # a random independent part grown greedily
            part = set()
            for x in rng.sample(ids, g.m):
                if indep(state, part | {x}):
                    part.add(x)
            parts = [part]
        for part in parts:
            state = kept_state(g, part)  # one forest, read for every x
            for x in ids:
                if x in part:
                    continue
                got = state._circuit(0, x)
                assert got == circuit_by_probes(state, part, x)
                if got is not None:
                    shapes.add(len(got))
    assert shapes >= {1, 2, 3, 4, 5}


def assert_forests_hold(state):
    """Each part is independent; each forest spans its part (every up-link
    agrees with its tree edge's color, the tree and non-tree edges are the
    part, each image agrees with the root potentials); and the read-off of
    part + x equals the probing reference for every x."""
    edata = state.edata
    for r in (0, 1):
        part, forest = state.parts[r], state.kept[r]
        assert indep(state, part)
        if forest is None:
            continue
        for v, (u, y, g1, g2) in forest.up.items():
            t, h, color = edata[y]
            assert (t, h, color) in ((u, v, (g1, g2)), (v, u, (-g1, -g2)))
        tree = [y for _, y, _, _ in forest.up.values()]
        assert sorted(tree + forest.extras) == sorted(part)
        assert len(forest.images) == len(forest.extras)
        for y, image in zip(forest.extras, forest.images):
            t, h, (c1, c2) = edata[y]
            (rt, t1, t2), (rh, h1, h2) = forest.root[t], forest.root[h]
            assert rt == rh and image == (c1 + t1 - h1, c2 + t2 - h2)
    for r in (0, 1):
        for x in edata:
            if x not in state.parts[r]:
                assert state._circuit(r, x) == circuit_by_probes(state, state.parts[r], x)


def test_forests_through_random_insertions_probes_and_exchanges(monkeypatch):
    seen = {"chains": 0, "failed": 0, "grown": 0}
    apply = PartitionState._apply

    def counted_apply(state, x, r, parent):
        seen["chains"] += 1
        return apply(state, x, r, parent)

    monkeypatch.setattr(PartitionState, "_apply", counted_apply)
    rng = random.Random(83)
    zero_loops = parallels = loops = 0
    for _ in range(200):
        g = random_graph(rng, nmax=4, mmax=10, color_range=1)
        ends = [(min(e.tail, e.head), max(e.tail, e.head)) for e in g.edges]
        parallels += len(set(ends)) < len(ends)
        loops += any(e.tail == e.head for e in g.edges)
        zero_loops += any(e.tail == e.head and tuple(e.color) == (0, 0) for e in g.edges)
        state = PartitionState(g)
        pending = sorted(g.edge_ids())
        while pending:
            step = rng.random()
            if step < 0.4:  # a grow step: an insertion, then its doubling probe
                landed = sparsity._grow(state, g, pending.pop(0))
                seen["grown" if landed else "failed"] += 1
            elif step < 0.6:  # a bare insertion
                state.try_insert(pending.pop(0))
            elif step < 0.85 and state.part_of:  # a doubling probe of a placed edge
                e = g.edge(rng.choice(sorted(state.part_of)))
                state.register_edge(_VIRTUAL, e.tail, e.head, (e.color.g1, e.color.g2))
                if state.try_insert(_VIRTUAL):
                    state.discard(_VIRTUAL)
            elif state.part_of:  # a removal after read-offs: the forest is rebuilt
                state.discard(rng.choice(sorted(state.part_of)))
            assert_forests_hold(state)
    assert parallels > 100 and loops > 130 and zero_loops > 40
    assert min(seen.values()) > 60, seen


def triangle_strip(rng, n):
    """Three loops at vertex 0, two edges from 1 to 0, then v joined to v - 1
    and v - 2: a colored-Laman graph whose spanning forests are paths."""
    edges = [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)), (1, 0, (0, 0)), (1, 0, (1, -1))]
    for v in range(2, n):
        for u in (v - 1, v - 2):
            edges.append((v, u, (rng.randint(-2, 2), rng.randint(-2, 2))))
    return G(n, edges)


def test_deep_forests_read_off_like_probes():
    # a root path is about n / 2 edges long: a short circuit cancels on most
    # of its two root paths, and a chord between far ends has a long circuit
    n = 200
    g = triangle_strip(random.Random(5), n)
    state = PartitionState(g)
    ids = sorted(g.edge_ids())
    assert all(sparsity._grow(state, g, eid) for eid in ids)
    rng = random.Random(6)
    sizes = []
    for r in (0, 1):
        forest = state._forest(r)
        assert max(len(path_to_root(forest, v)) for v in range(n)) > n // 3
        probes = [g.edge(x) for x in rng.sample(sorted(state.parts[1 - r]), 4)]
        probes += [g.edge(x) for x in rng.sample(sorted(state.parts[r]), 2)]  # parallel copies
        for e in probes + [g.edge(0), g.edge(3)]:
            state.register_edge(_VIRTUAL, e.tail, e.head, (e.color.g1, e.color.g2))
            sizes.append(len(state._circuit(r, _VIRTUAL) or ()))
            assert state._circuit(r, _VIRTUAL) == circuit_by_probes(state, state.parts[r], _VIRTUAL)
        for tail, head in ((0, n - 1), (n // 2, n - 1), (n - 1, n - 2)):  # chords
            state.register_edge(_VIRTUAL, tail, head, (rng.randint(-2, 2), rng.randint(-2, 2)))
            sizes.append(len(state._circuit(r, _VIRTUAL) or ()))
            assert state._circuit(r, _VIRTUAL) == circuit_by_probes(state, state.parts[r], _VIRTUAL)
    assert max(sizes) > n // 2 and 0 < min(s for s in sizes if s) < 10, sizes


def path_to_root(forest, v):
    path = []
    while v in forest.up:
        v, y, _, _ = forest.up[v]
        path.append(y)
    return path


def test_a_broken_exchange_fails_the_rebuild(monkeypatch):
    # the last loop needs a chain: part 0 holds three of the loops' images
    g = G(1, [(0, 0, (-1, 1)), (0, 0, (-1, 0)), (0, 0, (-1, -1)), (0, 0, (-1, -1))])
    assert union_independent(full(g))[0]
    apply = PartitionState._apply

    def misplaced(state, x, r, parent):
        # the chain's last element goes back into the part it came from
        return apply(state, x, 1 - r, parent)

    monkeypatch.setattr(PartitionState, "_apply", misplaced)
    with pytest.raises(InternalConsistencyError, match="matroid-union augmentation broke a part"):
        union_independent(full(g))


def test_union_partitions_match_the_probing_search(monkeypatch):
    rng = random.Random(71)
    for _ in range(120):
        g = random_graph(rng, nmax=4, mmax=10, color_range=rng.randint(0, 2))
        fast = union_independent(full(g))
        basis = max_laman_sparse_subset(g)
        with monkeypatch.context() as patched:
            patched.setattr(sparsity, "PartitionState", ProbingState)
            assert union_independent(full(g)) == fast
            assert max_laman_sparse_subset(g) == basis


# -- (2,2,k) ----------------------------------------------------------------


def test_222_examples():
    assert is_222_graph(FOUR_LOOPS)
    bad = G(1, [(0, 0, (1, 0)), (0, 0, (2, 0)), (0, 0, (3, 0)), (0, 0, (0, 1))])
    assert not is_222_sparse(bad)
    assert not brute_force_sparsity(bad, "222").sparse
    two_trees = G(2, [(0, 1, (0, 0)), (0, 1, (0, 0))])
    assert is_222_graph(two_trees)  # k = 0: a union of two spanning trees


def test_decompose_examples():
    d = decompose_two_11k(FOUR_LOOPS)
    assert is_11k(d.part1) == (True, 2)
    assert is_11k(d.part2) == (True, 2)
    assert d.part1.ids | d.part2.ids == set(FOUR_LOOPS.edge_ids())
    assert not d.part1.ids & d.part2.ids

    two_trees = G(2, [(0, 1, (0, 0)), (0, 1, (0, 0))])
    d0 = decompose_two_11k(two_trees)
    assert is_11k(d0.part1) == (True, 0)

    with pytest.raises(DomainError):
        decompose_two_11k(LAMAN1)
    # m = 2n - 2 + 2k with k = 2, but the three parallel loops overfill
    with pytest.raises(DomainError):
        decompose_two_11k(G(1, [(0, 0, (1, 0))] * 3 + [(0, 0, (0, 1))]))


def test_decompose_random_222_graphs():
    rng = random.Random(3)
    found = 0
    while found < 40:
        g = random_graph(rng, nmax=4)
        if not is_222_graph(g):
            continue
        found += 1
        k = count_report(full(g)).rk
        d = decompose_two_11k(g)
        assert is_11k(d.part1) == (True, k)
        assert is_11k(d.part2) == (True, k)
        assert d.part1.ids | d.part2.ids == set(g.edge_ids())


# -- colored-Laman ----------------------------------------------------------


def test_laman_examples():
    assert is_colored_laman(LAMAN1)
    assert not is_colored_laman(G(1, [(0, 0, (1, 0)), (0, 0, (2, 0)), (0, 0, (0, 1))]))
    # meets all vertex-induced counts but fails on the two-loop edge subset
    fig = G(
        2,
        [
            (0, 0, (1, 0)),
            (1, 1, (1, 0)),
            (0, 1, (0, 0)),
            (0, 1, (0, 1)),
            (0, 1, (1, 1)),
        ],
    )
    assert fig.m == 2 * fig.n + 1
    assert not is_colored_laman(fig)
    rep = brute_force_sparsity(fig, "laman")
    assert rep.violation == frozenset({0, 1})


def test_laman_matches_brute_force_random():
    rng = random.Random(21)
    for _ in range(400):
        g = random_graph(rng, nmax=3, mmax=7, color_range=1)
        assert is_colored_laman_sparse(g) == brute_force_sparsity(g, "laman").sparse
        assert laman_analysis(g).sparse == brute_force_sparsity(g, "laman").sparse
        assert is_222_sparse(g) == brute_force_sparsity(g, "222").sparse


def _sparse_by_doubling_every_edge(g, ids):
    """Reference: per edge, insert the whole subset into a fresh partition, then a copy."""
    for x in ids:
        probe = PartitionState(g)
        if not all(probe.try_insert(y) for y in sorted(ids)):
            return False
        e = g.edge(x)
        probe.register_edge(_VIRTUAL, e.tail, e.head, (e.color.g1, e.color.g2))
        if not probe.try_insert(_VIRTUAL):
            return False
    return True


def test_laman_sparse_subset_matches_doubling_every_edge():
    rng = random.Random(53)
    zero_loops = parallels = 0
    for _ in range(300):
        g = random_graph(rng, nmax=3, mmax=8, color_range=1)
        ends = [(min(e.tail, e.head), max(e.tail, e.head)) for e in g.edges]
        parallels += len(set(ends)) < len(ends)
        zero_loops += any(e.tail == e.head and tuple(e.color) == (0, 0) for e in g.edges)
        ids = [x for x in g.edge_ids() if rng.random() < 0.7]
        for part, graph in ((list(g.edge_ids()), g), (ids, _subgraph(g, ids))):
            want = brute_force_sparsity(graph, "laman").sparse
            assert laman_sparse_subset(g, part) == _sparse_by_doubling_every_edge(g, part) == want
    assert parallels > 100 and zero_loops > 30


def _greedy_by_clones(g):
    """Reference: the id-order greedy that, for each candidate, probes a
    parallel copy of every chosen edge and of the candidate, each insertion
    and probe on a copy of the partition."""

    def copied(state):
        other = PartitionState(g)
        other.parts = (set(state.parts[0]), set(state.parts[1]))
        other.part_of = dict(state.part_of)
        other.kept = [None, None]
        return other

    def doubled(state, x):
        probe = copied(state)
        e = g.edge(x)
        probe.register_edge(_VIRTUAL, e.tail, e.head, (e.color.g1, e.color.g2))
        return probe.try_insert(_VIRTUAL)

    chosen, state = [], PartitionState(g)
    for eid in sorted(g.edge_ids()):
        probe = copied(state)
        if probe.try_insert(eid) and all(doubled(probe, x) for x in chosen + [eid]):
            chosen.append(eid)
            state = probe
    return frozenset(chosen)


def test_greedy_basis_on_the_live_partition_matches_the_clone_greedy():
    rng = random.Random(67)
    zero_loops = parallels = loops = brute_checked = 0
    for _ in range(640):
        n = rng.randint(1, 8)
        g = random_graph(rng, n=n, m=rng.randint(0, 3 * n + 3), color_range=1)
        ends = [(min(e.tail, e.head), max(e.tail, e.head)) for e in g.edges]
        parallels += len(set(ends)) < len(ends)
        loops += any(e.tail == e.head for e in g.edges)
        zero_loops += any(e.tail == e.head and tuple(e.color) == (0, 0) for e in g.edges)
        basis = max_laman_sparse_subset(g)
        assert basis == _greedy_by_clones(g)
        if n <= 3:
            # independent of every partition: B is sparse and B + e is not
            brute_checked += 1
            assert brute_force_sparsity(_subgraph(g, basis), "laman").sparse
            for e in set(g.edge_ids()) - basis:
                assert not brute_force_sparsity(_subgraph(g, basis | {e}), "laman").sparse
    assert parallels > 300 and loops > 400 and zero_loops > 80 and brute_checked > 150


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 4))
    vertex, coord = st.integers(0, n - 1), st.integers(-1, 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.tuples(coord, coord)), max_size=12))
    return G(n, edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_small_graphs())
def test_laman_sparse_subset_property(g):
    assert laman_sparse_subset(g, g.edge_ids()) == brute_force_sparsity(g, "laman").sparse


def test_maximal_sparse_subsets_equicardinal():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, nmax=3, mmax=6)
        basis = max_laman_sparse_subset(g)

        def greedy(order):
            chosen: list[int] = []
            for eid in order:
                if laman_sparse_subset(g, chosen + [eid]):
                    chosen.append(eid)
            return chosen

        # the id-order greedy is the basis every circuit is extracted against
        assert frozenset(greedy(sorted(g.edge_ids()))) == basis
        # maximal sparse subsets found from any greedy order have equal size
        ids = list(g.edge_ids())
        for _ in range(3):
            rng.shuffle(ids)
            assert len(greedy(ids)) == len(basis)


def test_basis_exchange_on_small_ground_set():
    # all (2,2,2)-graphs inside a 5-loop ground set satisfy basis exchange
    ground = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)), (0, 0, (1, 2)), (0, 0, (2, 1))])
    ids = list(ground.edge_ids())
    bases = [
        frozenset(c)
        for c in itertools.combinations(ids, 4)
        if is_222_graph(ColoredGraph.build(1, [(0, 0, tuple(ground.edge(e).color)) for e in c]))
    ]
    assert bases
    for b1 in bases:
        for b2 in bases:
            for x in b1 - b2:
                assert any(b1 - {x} | {y} in bases for y in b2 - b1)


# -- circuits ----------------------------------------------------------------


def test_circuit_examples():
    two = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    rep = find_laman_circuit(two)
    assert sorted(rep.circuit.ids) == [0, 1]
    assert rep.counts.m == rep.counts.bound222 == 2

    coll = G(1, [(0, 0, (1, 0)), (0, 0, (2, 0))])
    assert sorted(find_laman_circuit(coll).circuit.ids) == [0, 1]

    four = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)), (0, 0, (1, 2))])
    rep4 = find_laman_circuit(four)
    assert sorted(rep4.circuit.ids) == [0, 1, 2, 3]
    assert rep4.counts.m == 2 * rep4.counts.f


def test_circuit_minimality_random():
    rng = random.Random(41)
    found = 0
    while found < 40:
        g = random_graph(rng, nmax=4)
        if not g.m or is_colored_laman_sparse(g):
            continue
        found += 1
        rep = find_laman_circuit(g)
        assert decide_rigidity(g).circuit.circuit == rep.circuit

        # oracle: the edges of basis + rejected whose removal restores sparsity
        analysis = laman_analysis(g)
        pool = analysis.basis | {analysis.rejected}
        assert rep.circuit.ids == {x for x in pool if laman_sparse_subset(g, pool - {x})}

        ids = sorted(rep.circuit.ids)
        if len(ids) == 1:
            e = g.edge(ids[0])  # degenerate: a loop colored (0, 0)
            assert e.tail == e.head and tuple(e.color) == (0, 0)
        else:
            assert rep.counts.m == rep.counts.bound222
        for e in rep.circuit.ids:
            assert laman_sparse_subset(g, rep.circuit.ids - {e})
    assert found == 40


def test_zero_loop_is_a_singleton_circuit():
    g = G(2, [(0, 1, (1, 0)), (1, 1, (0, 0))])
    rep = find_laman_circuit(g)
    assert sorted(rep.circuit.ids) == [1]


def test_circuit_on_sparse_input_rejected():
    with pytest.raises(DomainError):
        find_laman_circuit(LAMAN1)


# -- Ross --------------------------------------------------------------------


def test_ross_examples():
    assert is_ross(G(2, [(0, 1, (0, 0)), (0, 1, (1, 0))]))
    assert not is_ross(G(2, [(0, 1, (0, 0)), (0, 1, (0, 0))]))
    assert is_ross(G(1, []))


def test_ross_loops_never_allowed():
    assert not is_ross(G(2, [(0, 0, (1, 0)), (0, 1, (0, 0))]))


# -- brute force -------------------------------------------------------------


def test_brute_force_trivial_cases():
    assert brute_force_sparsity(G(1, []), "laman").sparse
    assert brute_force_sparsity(LAMAN1, "laman").sparse
    bad = G(1, [(0, 0, (1, 0)), (0, 0, (2, 0)), (0, 0, (3, 0)), (0, 0, (0, 1))])
    rep = brute_force_sparsity(bad, "222")
    assert not rep.sparse and rep.violation is not None
    sub = EdgeSubset.of(bad, rep.violation)
    c = count_report(sub)
    assert c.m > c.bound222


def test_brute_force_budget():
    big = G(1, [(0, 0, (1, i)) for i in range(23)])
    with pytest.raises(BudgetError):
        brute_force_sparsity(big, "laman")


def test_brute_force_unknown_family():
    with pytest.raises(DomainError):
        brute_force_sparsity(LAMAN1, "nope")
