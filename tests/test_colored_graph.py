"""Colored graph structure, cycle images, developments and covers."""

from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigid.colored_graph import (
    ColoredEdge,
    ColoredGraph,
    ColorVector,
    EdgeSubset,
    GainScan,
    _triangular,
    develop_window,
    image_rank,
    lattice_index,
    scan_subset,
    sublattice_cover,
    z2_rank,
)
from perigid.errors import MultiplicityWarning, StructuralError

from paper_reference import ClosedWalk, develop_by_tuples, fundamental_cycles, rho_of_walk
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
    a, b = rho_of_walk(c1), rho_of_walk(c2)
    assert rho_of_walk(sym) == ColorVector(a.g1 + b.g1, a.g2 + b.g2)


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
    assert rep.vertex_count == 25


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


@st.composite
def multigraphs(draw, nmax=4, mmax=8, color=3):
    """A colored multigraph on up to nmax vertices: loops, parallel copies and
    (0, 0) colors among its edges."""
    n = draw(st.integers(0, nmax))
    edges = []
    for _ in range(draw(st.integers(0, mmax)) if n else 0):
        t = draw(st.integers(0, n - 1))
        h = draw(st.one_of(st.just(t), st.integers(0, n - 1)))
        c = draw(st.tuples(st.integers(-color, color), st.integers(-color, color)))
        edges += [(t, h, c)] * draw(st.integers(1, 2))
    return G(n, edges)


@st.composite
def windows(draw):
    """A window of 1..5 by 1..5 cells anywhere near the origin."""
    x0, y0 = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    return (x0, x0 + draw(st.integers(0, 4))), (y0, y0 + draw(st.integers(0, 4)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(multigraphs(), windows())
@example(G(0, []), ((-2, 2), (-2, 2)))  # cg 2 0 0
@example(LAMAN1, ((3, 3), (-1, -1)))  # one cell, off the origin
@example(FINDEX, ((-2, 2), (0, 0)))  # a 1-wide strip
@example(FINDEX, ((1, 3), (-4, -2)))  # x0 > 0 and y1 < 0
@example(G(2, [(0, 1, (4, 0)), (1, 1, (0, -3)), (0, 0, (0, 0))]), ((-1, 1), (0, 1)))  # narrower than the colors
@example(G(1, [(0, 0, (1 << 53, 1))]), ((-1, 1), (-1, 1)))
@example(G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1 << 53, 1))]), ((-2, 2), (-2, 2)))
def test_develop_matches_tuple_reference(graph, window):
    rep = develop_window(graph, window)
    ref = develop_by_tuples(graph, window)
    (x0, _), (y0, y1) = window

    def vid(vertex):
        i, cell = vertex
        return ((cell.g1 - x0) * (y1 - y0 + 1) + cell.g2 - y0) * graph.n + i

    assert rep.vertex_count == len(ref.vertices)
    assert [vid(v) for v in ref.vertices] == list(range(rep.vertex_count))
    assert list(rep.edges) == [(eid, vid(a), vid(b)) for eid, _, a, b in ref.edges]
    assert rep.observed_components == ref.observed_components
    assert rep.observed_core_components == ref.observed_core_components
    assert rep.component == [ref.component_of[v] for v in ref.vertices]


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


bases = st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(lambda v: [v[:2], v[2:]]).filter(
    lambda b: 0 < abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) <= 3
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(multigraphs(nmax=3, mmax=6, color=2), bases, bases)
def test_cover_by_b1_then_b2_is_the_cover_by_b1_b2(graph, b1, b2):
    # the second cover reads colors in the first one's lattice coordinates,
    # so its lattice is spanned by the columns of the product b1 b2
    composed = [[sum(b1[r][j] * b2[j][c] for j in range(2)) for c in range(2)] for r in range(2)]
    twice, once = sublattice_cover(sublattice_cover(graph, b1), b2), sublattice_cover(graph, composed)

    def invariants(g):
        full = EdgeSubset.full(g)
        return g.n, g.m, len(scan_subset(full, range(g.n)).trees), z2_rank(full)

    assert invariants(twice) == invariants(once)


def _cover_edge_by_edge(graph, basis):
    """The cover as it was built: each edge's lift to every residue worked out
    on its own, one (tail, head, color) triple at a time."""
    a, b = int(basis[0][0]), int(basis[0][1])
    c, d = int(basis[1][0]), int(basis[1][1])
    det = a * d - b * c
    h11, h21, h22 = _triangular(((a, c), (b, d)))
    if h11 < 0:
        h11, h21 = -h11, -h21 % h22
    sheets = h11 * h22

    def residue(x, y):
        r1 = x % h11
        y -= ((x - r1) // h11) * h21
        return r1, y % h22

    residues = [(rx, ry) for rx in range(h11) for ry in range(h22)]
    res_index = {r: i for i, r in enumerate(residues)}
    new_edges = []
    for e in graph.edges:
        for r in residues:
            tx, ty = r[0] + e.color.g1, r[1] + e.color.g2
            rx, ry = residue(tx, ty)
            x, y = tx - rx, ty - ry
            assert (d * x - b * y) % det == 0 and (a * y - c * x) % det == 0
            shift = ((d * x - b * y) // det, (a * y - c * x) // det)
            new_edges.append((e.tail * sheets + res_index[r], e.head * sheets + res_index[(rx, ry)], shift))
    return G(graph.n * sheets, new_edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(multigraphs(nmax=3, mmax=6, color=5), st.one_of(bases, st.sampled_from([[[2, 0], [0, 2]], [[3, 1], [-1, 2]], [[0, -2], [3, 1]]])))
def test_cover_matches_the_edge_by_edge_lift(graph, basis):
    assert sublattice_cover(graph, basis) == _cover_edge_by_edge(graph, basis)


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


def _edge_by_edge_checks(n, edges):
    """ColoredGraph's checks as they were, one edge at a time: raise the first
    StructuralError, else return the MultiplicityWarning text (None if none)."""
    seen = set()
    for e in edges:
        if not (0 <= e.tail < n and 0 <= e.head < n):
            raise StructuralError(f"edge {e.id}: endpoint out of range [0, {n})")
        if e.id in seen:
            raise StructuralError(f"duplicate edge id {e.id}")
        seen.add(e.id)
    pairs, loops = {}, {}
    for e in edges:
        if e.tail == e.head:
            loops[e.tail] = loops.get(e.tail, 0) + 1
        else:
            key = (min(e.tail, e.head), max(e.tail, e.head))
            pairs[key] = pairs.get(key, 0) + 1
    bad_pairs = [k for k, v in pairs.items() if v > 6]
    bad_loops = [v for v, c in loops.items() if c > 4]
    if bad_pairs or bad_loops:
        return (
            "multiplicity exceeds the 6-parallel/4-loop ground set; excess copies are always dependent "
            f"(pairs={bad_pairs}, loop vertices={bad_loops})"
        )
    return None


def _checked(construct):
    """The StructuralError text construct raises, or the MultiplicityWarning text it warns (None if none)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            construct()
        except StructuralError as exc:
            return "error", str(exc)
    texts = [str(w.message) for w in caught if issubclass(w.category, MultiplicityWarning)]
    assert len(texts) <= 1
    return texts[0] if texts else None


@st.composite
def crowded_edges(draw):
    """Hand-made edges on n <= 3 vertices: many parallel copies, with or
    without loops, and ids and endpoints that may repeat or fall out of range."""
    n = draw(st.integers(0, 3))
    vertices = range(-1, n + 1) if draw(st.booleans()) else range(max(n, 1))
    loops, fresh_ids = draw(st.booleans()), draw(st.booleans())
    triples = []
    for _ in range(draw(st.integers(0, 30))):
        t = draw(st.sampled_from(vertices))
        others = [v for v in vertices if v != t or loops]
        h = draw(st.sampled_from(others)) if others else t
        color = ColorVector(draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
        triples += [(t, h, color)] * draw(st.integers(1, 4))
    ids = range(len(triples)) if fresh_ids else [draw(st.integers(0, 40)) for _ in triples]
    return n, tuple(ColoredEdge(i, t, h, c) for i, (t, h, c) in zip(ids, triples))


def test_graph_checks_match_the_edge_by_edge_checks():
    seen = set()  # the errors and warnings met, so that each is shown to be reached

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(crowded_edges())
    @example((2, tuple(ColoredEdge(i, 1, 1, ColorVector(i, 0)) for i in range(5))))  # 5 loops, nothing else
    @example((2, tuple(ColoredEdge(i, i % 2, 1 - i % 2, ColorVector(i, 0)) for i in range(7))))  # 7 copies, both ways
    def check(case):
        n, edges = case
        try:
            want = _edge_by_edge_checks(n, edges)
        except StructuralError as exc:
            want = "error", str(exc)
        assert _checked(lambda: ColoredGraph(n, edges)) == want
        if want is None or want[0] != "error":
            renumbered = tuple(e._replace(id=i) for i, e in enumerate(edges))  # build numbers the edges
            assert _checked(lambda: G(n, [e[1:] for e in edges])) == _edge_by_edge_checks(n, renumbered)
        if want is not None:
            seen.add(want[1].split()[0] if want[0] == "error" else ("pairs=[]" in want, "vertices=[]" in want))

    check()
    assert {"edge", "duplicate", (True, False), (False, True), (False, False)} <= seen


def test_build_makes_plain_ints():
    np = pytest.importorskip("numpy")
    g = G(np.int64(3), [(np.int64(0), True, [np.int64(2), False]), [2, np.int64(1), (True, -1)], (1, 1, ColorVector(0, 3))])
    assert g.edges == (
        ColoredEdge(0, 0, 1, ColorVector(2, 0)),
        ColoredEdge(1, 2, 1, ColorVector(1, -1)),
        ColoredEdge(2, 1, 1, ColorVector(0, 3)),
    )
    fields = [x for e in g.edges for x in (e.id, e.tail, e.head, *e.color)]
    assert {type(x) for x in fields} == {int} and type(g.edges[0].color) is ColorVector
    assert G(0, []).edges == () and G(2, iter([(0, 1, (0, 0))])).m == 1
    with pytest.raises(ValueError):
        G(2, [(0, 1, (0, 0)), (0, 1, (0, 0, 0))])
    with pytest.raises(ValueError):
        G(2, [(0, 1)])


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
