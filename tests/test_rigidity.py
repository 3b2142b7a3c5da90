"""Rigidity matrix, generic rank decisions, certificates, 1d case."""

from __future__ import annotations

import random

import numpy as np
import pytest

from perigid.colored_graph import ColoredGraph, EdgeSubset
from perigid.direction_network import build_P_system
from perigid import rigidity
from perigid.errors import DomainError, InternalConsistencyError
from perigid.linear_rep import PRIME, Realization, _eliminate, kernel_float
from perigid.rigidity import (
    STATUS_FLEXIBLE,
    STATUS_MINIMAL,
    STATUS_OVER,
    decide_rigidity,
    generic_rigidity_rank,
    is_1d_rigid,
    is_ross,
    laman_analysis,
    rigid_realization_certificate,
    rigidity_matrix,
)
from perigid.sparsity import CircuitReport, is_colored_laman, max_laman_sparse_subset

from randgen import random_graph, random_laman_graph

G = ColoredGraph.build
LAMAN1 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1))])


def test_rigidity_matrix_loop_row():
    g = G(1, [(0, 0, (1, 0))])
    real = Realization(np.zeros((1, 2)), np.eye(2))
    assert rigidity_matrix(g, real).rows[0] == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_rigidity_matrix_collapsed_edge_is_zero_row():
    g = G(2, [(0, 1, (0, 0))])
    real = Realization(np.zeros((2, 2)), np.eye(2))
    assert all(x == 0.0 for x in rigidity_matrix(g, real).rows[0])


def test_rigidity_matrix_vs_p_system_after_rescale():
    # scaling each direction row by the edge stretch and swapping the two
    # columns of every block (negating one) transfers the direction system
    # into the rigidity matrix
    rng = random.Random(30)
    g = random_laman_graph(rng, 3)
    from perigid.direction_network import faithful_realization

    fr = faithful_realization(g, seed=11)
    P = build_P_system(g, fr.directions).to_numpy()
    M = rigidity_matrix(g, fr.realization).to_numpy()
    ncols = P.shape[1]
    T = np.zeros((ncols, ncols))
    for b in range(ncols // 2):
        T[2 * b + 1, 2 * b] = 1.0  # second coordinate of d-perp is d_x
        T[2 * b, 2 * b + 1] = -1.0
    alphas = np.array([s.alpha for s in fr.statuses])
    assert np.allclose(np.diag(alphas) @ (P @ T), M, atol=1e-9)
    assert np.linalg.matrix_rank(np.vstack([P @ T, M]), tol=1e-9) == np.linalg.matrix_rank(
        M, tol=1e-9
    )


def test_generic_rank_examples():
    assert generic_rigidity_rank(LAMAN1).rank == 3
    two = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    assert generic_rigidity_rank(two).rank == 1
    regular4 = G(2, [(0, 1, (0, 0)), (0, 1, (1, 0)), (0, 1, (0, 1)), (0, 1, (1, 1))])
    assert generic_rigidity_rank(regular4).rank <= 2 * regular4.n


def test_generic_rank_float_matches_fp():
    rng = random.Random(33)
    for _ in range(25):
        g = random_graph(rng, nmax=3)
        seed = rng.randrange(1 << 30)
        assert (
            generic_rigidity_rank(g, seed=seed, mode="fp").rank
            == generic_rigidity_rank(g, seed=seed, mode="float").rank
        )


def test_decide_rigidity_examples():
    v = decide_rigidity(LAMAN1, seed=2)
    assert v.status == STATUS_MINIMAL
    assert v.rank == 3 and v.dof == 0
    assert v.witness is not None and v.circuit is None

    over = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)), (0, 0, (1, 2))])
    vo = decide_rigidity(over, seed=2)
    assert vo.status == STATUS_OVER
    assert vo.rank == 3 and vo.circuit is not None

    two = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    vf = decide_rigidity(two, seed=2)
    assert vf.status == STATUS_FLEXIBLE
    assert vf.dof > 0
    assert sorted(vf.circuit.circuit.ids) == [0, 1]


def test_four_regular_graphs_are_flexible():
    # m = 2n leaves at least one degree of freedom
    rng = random.Random(35)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = random_graph(rng, n=n, m=2 * n)
        v = decide_rigidity(g, seed=3, attach_witness=False)
        assert v.status == STATUS_FLEXIBLE


def test_main_theorem_equivalence_small():
    rng = random.Random(37)
    for _ in range(80):
        n = rng.randint(1, 3)
        g = random_graph(rng, n=n, m=2 * n + 1, color_range=1)
        rank = generic_rigidity_rank(g, seed=5).rank
        assert (rank == 2 * n + 1) == is_colored_laman(g)


def test_certificate_fixture():
    fr, rep = rigid_realization_certificate(LAMAN1, seed=13)
    assert rep.rank == 3
    M = rigidity_matrix(LAMAN1, fr.realization).to_numpy()
    for i in range(3):
        r, _ = kernel_float(np.delete(M, i, axis=0), 1e-9)
        assert r == 2


def test_certificate_random_graph():
    rng = random.Random(39)
    g = random_laman_graph(rng, 5)
    fr, rep = rigid_realization_certificate(g, seed=17)
    assert rep.rank == 2 * g.n + 1


def test_certificate_rejects_non_laman():
    with pytest.raises(DomainError):
        rigid_realization_certificate(G(1, [(0, 0, (1, 0))]))


def test_trivial_motion_space():
    rng = random.Random(41)
    g = random_laman_graph(rng, 4)
    fr, _ = rigid_realization_certificate(g, seed=19)
    M = rigidity_matrix(g, fr.realization).to_numpy()
    rank, kernel = kernel_float(M, 1e-9)
    assert kernel.shape[1] == 3
    real = fr.realization
    # translations
    for t in ((1.0, 0.0), (0.0, 1.0)):
        vec = np.concatenate([np.tile(t, g.n), np.zeros(4)])
        assert np.max(np.abs(M @ vec)) < 1e-9 * max(1.0, np.abs(M).max())
    # rotation: J applied to points and lattice
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    rot = np.concatenate([(real.p @ J.T).reshape(-1), (J @ real.L).T.reshape(-1)])
    assert np.max(np.abs(M @ rot)) < 1e-9 * max(1.0, np.abs(M).max())


def test_ross_lattice_motions_are_trivial():
    # augmenting a Ross graph pins the lattice: kernel vectors of the
    # augmented rigidity matrix act on L only through the rotation
    rng = random.Random(43)
    found = 0
    while found < 5:
        n = rng.randint(2, 3)
        g = random_graph(rng, n=n, m=2 * n - 2)
        if not is_ross(g):
            continue
        found += 1
        aug = g.with_extra_loops(0, ((1, 0), (0, 1), (1, 1)))
        fr, _ = rigid_realization_certificate(aug, seed=23)
        M = rigidity_matrix(aug, fr.realization).to_numpy()
        _, kernel = kernel_float(M, 1e-9)
        assert kernel.shape[1] == 3
        # remove the two translations and the rotation; nothing is left
        real = fr.realization
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        triv = np.column_stack(
            [
                np.concatenate([np.tile((1.0, 0.0), aug.n), np.zeros(4)]),
                np.concatenate([np.tile((0.0, 1.0), aug.n), np.zeros(4)]),
                np.concatenate([(real.p @ J.T).reshape(-1), (J @ real.L).T.reshape(-1)]),
            ]
        )
        q, _ = np.linalg.qr(triv)
        resid = kernel - q @ (q.T @ kernel)
        assert np.max(np.abs(resid)) < 1e-7


def _zero_extensions(rng: random.Random, n: int) -> ColoredGraph:
    """A Ross graph: one vertex, then n - 1 vertices each joined by two edges."""
    edges = []
    for v in range(1, n):
        u, w = rng.randrange(v), rng.randrange(v)
        c1 = (rng.randint(-2, 2), rng.randint(-2, 2))
        c2 = (rng.randint(-2, 2), rng.randint(-2, 2))
        if u == w and c1 == c2:
            c2 = (c1[0] + 1, c1[1])  # two edges to one vertex need distinct colors
        edges += [(u, v, c1), (w, v, c2)]
    return G(n, edges)


def _doubled_last_edge(g: ColoredGraph) -> ColoredGraph:
    """Same counts, but two identical parallel edges: m' = 2 on a rank-zero pair."""
    edges = [(e.tail, e.head, tuple(e.color)) for e in g.edges]
    edges[-1] = edges[-2]
    return G(g.n, edges)


def test_ross_beyond_the_enumeration_budget():
    # m = 24 is past the 2^22 budget of brute_force_sparsity
    ross = _zero_extensions(random.Random(49), 13)
    assert ross.m == 24
    assert is_ross(ross)
    assert not is_ross(_doubled_last_edge(ross))


@pytest.mark.parametrize("n", [4, 13])
@pytest.mark.parametrize("genuine", [True, False])
def test_ross_routes_cross_checked(monkeypatch, n, genuine):
    # a lying combinatorial route is caught by the F_p route at m = 6 and m = 24
    g = _zero_extensions(random.Random(51), n)
    if not genuine:
        g = _doubled_last_edge(g)
    assert is_ross(g) is genuine
    laman_sparse_subset = rigidity.laman_sparse_subset
    monkeypatch.setattr(rigidity, "laman_sparse_subset", lambda h, ids: not laman_sparse_subset(h, ids))
    with pytest.raises(InternalConsistencyError):
        is_ross(g)


def test_circuit_rows_are_dependent():
    from randgen import random_circuit_graph

    rng = random.Random(45)
    for _ in range(10):
        g = random_circuit_graph(rng)
        assert generic_rigidity_rank(g, seed=rng.randrange(1 << 30)).rank <= g.m - 1


def certify_circuit(report: CircuitReport, seed: int = 0) -> CircuitReport:
    """Certify over F_p that a sparsity circuit C is edge-minimal; return it.

    At one of three seeded integer points the rows of C must have rank
    |C| - 1 and a null vector supported on all of C.  Then every C - x is
    independent there, so generically independent and, by the main theorem,
    sparse: one elimination per point and no augmenting search.
    """
    circuit = report.circuit
    graph, ids = circuit.graph, circuit.sorted_ids()
    draws = random.Random(seed)
    for _ in range(3):
        rows = dict(zip(graph.edge_ids(), rigidity._sampled_modp_rows(graph, draws)))
        nulls = _eliminate([rows[x] for x in ids], PRIME, track=True)[2]
        if len(nulls) == 1 and {ids[i] for i in nulls[0]} == circuit.ids:
            return report
    raise InternalConsistencyError("circuit is not edge-minimal")


def test_certificate_refuses_a_padded_circuit():
    rng = random.Random(55)
    padded = 0
    while padded < 10:
        g = random_graph(rng, nmax=4)
        analysis = laman_analysis(g)
        if analysis.sparse:
            continue
        rep = analysis.circuit()
        assert certify_circuit(rep, seed=padded) is rep
        spare = sorted(analysis.basis - rep.circuit.ids)
        if not spare:
            continue
        padded += 1
        bigger = CircuitReport(EdgeSubset.of(g, rep.circuit.ids | {spare[0]}), rep.counts)
        with pytest.raises(InternalConsistencyError, match="edge-minimal"):
            certify_circuit(bigger, seed=padded)


def test_certificate_passes_the_zero_loop_singleton():
    rep = laman_analysis(G(2, [(0, 1, (1, 0)), (1, 1, (0, 0))])).circuit()
    assert sorted(rep.circuit.ids) == [1]
    assert certify_circuit(rep) is rep


def test_certified_analysis_is_the_greedy_basis():
    rng = random.Random(71)
    zero_loops = parallels = circuits = 0
    for i in range(640):
        n = rng.randint(1, 6)
        g = random_graph(rng, n=n, m=rng.randint(0, 3 * n + 3), color_range=1)
        ends = [(min(e.tail, e.head), max(e.tail, e.head)) for e in g.edges]
        parallels += len(set(ends)) < len(ends)
        zero_loops += any(e.tail == e.head and tuple(e.color) == (0, 0) for e in g.edges)
        seed = i % 5
        analysis = laman_analysis(g, seed)
        assert analysis.basis == max_laman_sparse_subset(g)
        outside = sorted(set(g.edge_ids()) - analysis.basis)
        assert analysis.rejected == (outside[0] if outside else None)
        if outside:
            circuits += 1
            rep = analysis.circuit()
            assert rep.circuit.ids - analysis.basis == {analysis.rejected}
            assert certify_circuit(rep, seed) is rep
    assert parallels > 300 and zero_loops > 80 and circuits > 300


def _degenerate_draws(monkeypatch, spoil, count):
    """Spy on the sampled rows; spoil(rows) the first `count` draws in place."""
    sampled = rigidity._sampled_modp_rows
    draws = []

    def draw(graph, rng):
        rows = sampled(graph, rng)
        draws.append(rows)
        if len(draws) <= count:
            spoil(rows)
        return rows

    monkeypatch.setattr(rigidity, "_sampled_modp_rows", draw)
    return draws


def test_circuit_count_route_catches_a_short_support(monkeypatch):
    g = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0)), (0, 1, (0, 0))])
    assert sorted(laman_analysis(g).circuit().circuit.ids) == [0, 1]

    def zero_rejected_row(rows):  # the circuit of edge 1 shrinks to {1}: m' = 1 < 2f
        rows[1] = {}

    with monkeypatch.context() as patch:
        draws = _degenerate_draws(patch, zero_rejected_row, 1)
        assert sorted(laman_analysis(g).circuit().circuit.ids) == [0, 1]
        assert len(draws) == 2
    draws = _degenerate_draws(monkeypatch, zero_rejected_row, 6)  # three points per call
    with pytest.raises(InternalConsistencyError, match="m' = 2f"):
        laman_analysis(g)
    with pytest.raises(InternalConsistencyError, match="m' = 2f"):
        decide_rigidity(g)
    assert len(draws) == 6


def test_circuit_skips_a_point_where_the_basis_is_dependent(monkeypatch):
    g = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0)), (0, 1, (0, 0))])

    def zero_basis_row(rows):  # edge 0 of the basis gets a zero row, edge 1 leads instead
        rows[0] = {}

    draws = _degenerate_draws(monkeypatch, zero_basis_row, 1)
    analysis = laman_analysis(g)
    assert analysis.basis == {0, 2} and analysis.rejected == 1
    assert sorted(analysis.circuit().circuit.ids) == [0, 1]
    assert len(draws) == 2


# Colored-Laman graphs from the perfbench instance builder whose faithful
# realizations have a nearly collapsed edge, so that the raw rigidity rows
# differ in length by orders of magnitude.
# instances.minimal(random.Random(39), 12):
DEFECT_N12 = [
    (3, 3, (0, -1)), (3, 5, (-2, -1)), (8, 7, (1, 2)), (4, 9, (1, 1)), (10, 9, (-2, 2)),
    (3, 3, (-1, -1)), (0, 1, (2, -1)), (3, 0, (1, 1)), (11, 3, (-3, 2)), (3, 3, (-1, 0)),
    (6, 11, (0, 0)), (0, 10, (2, -1)), (1, 2, (1, 0)), (6, 8, (2, -1)), (2, 0, (0, -2)),
    (6, 5, (-2, -2)), (6, 10, (1, 0)), (10, 3, (0, 1)), (0, 7, (0, 0)), (11, 1, (-2, -1)),
    (10, 9, (1, 1)), (1, 4, (2, 1)), (5, 7, (-2, -1)), (0, 2, (1, 2)), (11, 3, (2, 2)),
]
# the n = 14 graph of rng = random.Random(124) after instances.minimal(rng, 10)
# and instances.minimal(rng, 12):
DEFECT_N14 = [
    (3, 5, (1, 0)), (7, 1, (2, 0)), (12, 3, (0, -1)), (13, 10, (1, -2)), (4, 10, (2, 2)),
    (3, 2, (3, -1)), (2, 12, (1, 1)), (7, 6, (2, 2)), (13, 3, (1, -1)), (3, 11, (2, 0)),
    (3, 0, (2, -1)), (10, 13, (-1, -2)), (11, 2, (1, 0)), (3, 11, (1, -2)), (6, 9, (0, -2)),
    (5, 1, (1, -1)), (0, 3, (-1, 2)), (10, 6, (1, 1)), (8, 2, (2, -1)), (6, 7, (1, 1)),
    (7, 8, (-2, 0)), (3, 6, (-1, 3)), (12, 3, (2, 1)), (11, 5, (-1, 1)), (11, 0, (1, 2)),
    (4, 10, (-2, 2)), (5, 10, (-2, 2)), (6, 9, (0, 2)), (7, 11, (2, 4)),
]


def test_decide_minimal_with_a_near_collapsed_realization():
    for n, edges in ((12, DEFECT_N12), (14, DEFECT_N14)):
        g = G(n, edges)
        assert is_colored_laman(g)
        assert decide_rigidity(g, seed=0).status == STATUS_MINIMAL


def test_1d_examples():
    assert is_1d_rigid(G(1, [(0, 0, (1, 0))])).status == STATUS_MINIMAL
    tree = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0))])
    assert is_1d_rigid(tree).status == STATUS_FLEXIBLE
    assert is_1d_rigid(G(1, [(0, 0, (0, 0))])).status == STATUS_FLEXIBLE


def test_1d_vertex_free_graph_is_flexible():
    # rank 0 == n holds, but the one kernel vector is the lattice column
    verdict = is_1d_rigid(G(0, []))
    assert verdict.status == STATUS_FLEXIBLE and verdict.rank == 0


def test_1d_overconstrained():
    g = G(2, [(0, 1, (0, 0)), (0, 1, (1, 0)), (1, 1, (2, 0))])
    assert is_1d_rigid(g).status == STATUS_OVER


def test_1d_rejects_planar_colors():
    with pytest.raises(DomainError):
        is_1d_rigid(LAMAN1)


def test_1d_routes_agree_randomly():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(0, n + 2)
        g = G(
            n,
            [
                (rng.randrange(n), rng.randrange(n), (rng.randint(-2, 2), 0))
                for _ in range(m)
            ],
        )
        is_1d_rigid(g, seed=rng.randrange(1 << 30))  # raises if routes disagree


def test_exact_rank_paths_build_no_dense_row(monkeypatch):
    from perigid import linear_rep

    calls = []
    dense = linear_rep._dense
    monkeypatch.setattr(linear_rep, "_dense", lambda *a: calls.append(a) or dense(*a))
    rng = random.Random(61)
    circuits = 0
    for _ in range(20):
        g = random_graph(rng, nmax=5)
        linear_rep.rank_mod_p(g, "M112")
        linear_rep.rank_mod_p(g, "M222")
        generic_rigidity_rank(g)
        analysis = laman_analysis(g)
        if not analysis.sparse:
            circuits += len(analysis.circuit().circuit.ids) > 0
        flat = G(g.n, [(e.tail, e.head, (e.color.g1, 0)) for e in g.edges])
        is_1d_rigid(flat)
    assert calls == [] and circuits
    # the spy sees the one path that densifies: rows for numpy and dumps
    rigidity_matrix(LAMAN1, Realization(np.zeros((1, 2)), np.eye(2))).to_numpy()
    assert len(calls) == LAMAN1.m
