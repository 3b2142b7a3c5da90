"""Direction networks: realization systems, collapse, faithful realizations."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from perigid import direction_network
from perigid.colored_graph import ColoredGraph, EdgeSubset, scan_subset, image_rank
from perigid.direction_network import (
    DirectionAssignment,
    build_P_system,
    collapsed_realization,
    collapsed_space_basis,
    edge_status,
    faithful_realization,
    realization_kernel,
)
from perigid.errors import DomainError
from perigid.linear_rep import Realization, build_natural_matrix, GenericAssignment, kernel_float
from randgen import random_circuit_graph, random_graph, random_laman_graph

G = ColoredGraph.build
LAMAN1 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1))])


def test_p_system_single_loop_row():
    g = G(1, [(0, 0, (1, 0))])
    mat = build_P_system(g, DirectionAssignment({0: (1.0, 0.0)}))
    # d-perp = (0, 1): the single constraint pins the y entry of L's first column
    assert mat.rows[0] == (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def test_p_system_tree_edge_row():
    g = G(2, [(0, 1, (0, 0))])
    mat = build_P_system(g, DirectionAssignment({0: (0.0, 1.0)}))
    row = np.array(mat.rows[0])
    # d-perp = (-1, 0): equation x1 = x0 up to sign
    assert np.allclose(row, [1, 0, -1, 0, 0, 0, 0, 0])


def test_p_system_matches_natural_matrix():
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng, nmax=4)
        if not g.m:
            continue
        d = DirectionAssignment.sample(g, rng)
        a = {e.id: d.perp(e.id)[0] for e in g.edges}
        b = {e.id: d.perp(e.id)[1] for e in g.edges}
        direct = build_P_system(g, d).to_numpy()
        via = build_natural_matrix(g, "M222", GenericAssignment(a, b, "float")).to_numpy()
        assert np.allclose(direct, via)


def test_p_system_zero_direction_rejected():
    g = G(1, [(0, 0, (1, 0))])
    with pytest.raises(DomainError):
        DirectionAssignment({0: (0.0, 0.0)})


def test_kernel_dims():
    rng = random.Random(15)
    dim, _ = realization_kernel(LAMAN1, DirectionAssignment.sample(LAMAN1, rng))
    assert dim == 3
    g4 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 0)), (0, 0, (0, 1))])
    dim4, _ = realization_kernel(g4, DirectionAssignment.sample(g4, rng))
    assert dim4 == 2
    tree = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0))])
    shared = DirectionAssignment({0: (1.0, 0.0), 1: (1.0, 0.0)})
    dimt, _ = realization_kernel(tree, shared)
    assert dimt > 3  # non-generic directions inflate the kernel


def test_edge_status_zero_realization():
    zero = Realization(np.zeros((1, 2)), np.zeros((2, 2)))
    statuses = edge_status(LAMAN1, DirectionAssignment.sample(LAMAN1, random.Random(1)), zero)
    assert all(s.collapsed for s in statuses)


def test_edge_status_degenerate_lattice():
    g = G(1, [(0, 0, (1, 1))])
    v = np.array([0.3, -0.7])
    real = Realization(np.zeros((1, 2)), np.column_stack([v, -v]))
    s = edge_status(g, DirectionAssignment({0: (1.0, 0.0)}), real)[0]
    assert s.collapsed


def test_collapsed_realization_tree():
    tree = G(3, [(0, 1, (1, 2)), (1, 2, (0, 3))])
    real = collapsed_realization(tree, anchors=[(0.25, -0.5)])
    assert np.allclose(real.L, np.eye(2))
    for e in tree.edges:
        assert np.allclose(real.eta(e.tail, e.head, tuple(e.color)), 0.0)


def test_collapsed_realization_laman_forces_zero():
    real = collapsed_realization(LAMAN1)
    assert np.allclose(real.L, 0.0)
    assert np.allclose(real.p, real.p[0])


def test_collapsed_realization_rank_one():
    g = G(1, [(0, 0, (1, 1))])
    real = collapsed_realization(g)
    assert np.allclose(real.L @ np.array([1.0, 1.0]), 0.0)
    assert not np.allclose(real.L, 0.0)


def test_collapsed_space_dimension():
    rng = random.Random(16)
    for _ in range(40):
        g = random_graph(rng, nmax=4)
        scan = scan_subset(EdgeSubset.full(g), range(g.n))
        k = image_rank(scan.images)
        c = len(scan.trees)
        basis = [b.to_flat() for b in collapsed_space_basis(g)]
        dim = np.linalg.matrix_rank(np.array(basis)) if basis else 0
        assert dim == 4 - 2 * k + 2 * c


def test_circuit_kernels_are_collapsed():
    two = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    rng = random.Random(17)
    d = DirectionAssignment.sample(two, rng)
    dim, basis = realization_kernel(two, d)
    assert dim == 6  # 4 - 2k + 2c with k = 1, c = 2
    for real in basis:
        assert all(s.collapsed for s in edge_status(two, d, real))


def test_random_circuit_kernels_are_collapsed():
    rng = random.Random(18)
    for _ in range(10):
        g = random_circuit_graph(rng)
        scan = scan_subset(EdgeSubset.full(g))
        k = image_rank(scan.images)
        c = len(scan.trees)
        d = DirectionAssignment.sample(g, rng)
        dim, basis = realization_kernel(g, d)
        assert dim == 4 - 2 * k + 2 * c
        for real in basis:
            assert all(s.collapsed for s in edge_status(g, d, real))


def test_doubling_a_collapsed_edge_keeps_the_kernel():
    g = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    rng = random.Random(19)
    d = DirectionAssignment.sample(g, rng)
    dim, _ = realization_kernel(g, d)
    doubled = g.with_doubled(0)
    dmap = dict(d.d)
    dmap[max(e.id for e in doubled.edges)] = (0.6, 0.8)
    dim2, _ = realization_kernel(doubled, DirectionAssignment(dmap))
    assert dim2 == dim


def _rebuilt_doubled_system(graph, directions, eid, extra):
    """The doubled system built the long way: a new graph, directions and P-system."""
    doubled = graph.with_doubled(eid)
    copy_id = max(e.id for e in doubled.edges)
    dmap = dict(directions.d)
    dmap[copy_id] = extra
    return build_P_system(doubled, DirectionAssignment(dmap)).to_numpy()


def test_doubled_systems_match_the_rebuilt_doubled_graphs(monkeypatch):
    rng = random.Random(29)
    for _ in range(40):
        g = random_laman_graph(rng, rng.randint(1, 6))
        n, seed = g.n, rng.randrange(1 << 20)
        seen = []

        def spy(a, tolerance):
            if a.shape[0] == g.m + 1:
                seen.append(a)
            return kernel_float(a, tolerance)

        monkeypatch.setattr(direction_network, "kernel_float", spy)
        fr = faithful_realization(g, seed=seed)
        monkeypatch.undo()
        # replay the seeded draws: the doubled systems faithful_realization ranks
        replay, expected = random.Random(seed), []
        for _ in range(fr.attempts):
            d = DirectionAssignment.sample(g, replay)
            system = build_P_system(g, d).to_numpy()
            if kernel_float(system, 1e-9)[0] != 2 * n + 1:
                continue
            for e in g.edges:
                t = replay.uniform(0.0, 2.0 * math.pi)
                ext = _rebuilt_doubled_system(g, d, e.id, (math.cos(t), math.sin(t)))
                expected.append(ext)
                if kernel_float(ext, 1e-9)[0] != 2 * n + 2:
                    break
        assert len(seen) == len(expected) >= g.m
        for got, want in zip(seen, expected):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            assert kernel_float(got, 1e-9)[0] == kernel_float(want, 1e-9)[0]


def test_translation_and_scaling_invariance():
    rng = random.Random(20)
    g = random_laman_graph(rng, 3)
    fr = faithful_realization(g, seed=4)
    system = build_P_system(g, fr.directions).to_numpy()
    vec = fr.realization.to_flat()
    # translation: shift every point, keep L
    shift = np.tile([0.37, -1.2], g.n).tolist() + [0.0] * 4
    assert np.max(np.abs(system @ (vec + np.array(shift)))) < 1e-8
    # scaling
    assert np.max(np.abs(system @ (2.5 * vec))) < 1e-8


def test_faithful_realization_fixture():
    fr = faithful_realization(LAMAN1, seed=42)
    assert np.allclose(fr.realization.p[0], 0.0, atol=1e-12)
    assert abs(np.linalg.norm(fr.realization.to_flat()) - 1.0) < 1e-12
    assert not any(s.collapsed for s in fr.statuses)
    scale = fr.realization.scale()
    for s, e in zip(fr.statuses, LAMAN1.edges):
        eta = np.array(s.eta)
        perp = np.array(fr.directions.perp(e.id))
        assert abs(eta @ perp) <= 1e-9 * scale
        assert np.linalg.norm(eta) > 1e-6 * scale


def test_faithful_realization_rejects_non_laman():
    with pytest.raises(DomainError):
        faithful_realization(G(1, [(0, 0, (1, 0))]))
    circuit = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    with pytest.raises(DomainError):
        faithful_realization(circuit)


def test_faithful_uniqueness_up_to_normalization():
    # same directions, independent second solve from a permuted system
    rng = random.Random(23)
    g = random_laman_graph(rng, 4)
    fr = faithful_realization(g, seed=9)
    system = build_P_system(g, fr.directions).to_numpy()
    perm = list(range(system.shape[0]))
    random.Random(1).shuffle(perm)
    _, kernel = kernel_float(system[perm], 1e-9)
    assert kernel.shape[1] == 3
    _, combo = kernel_float(kernel[0:2, :], 1e-12)
    vec = kernel @ combo[:, 0]
    vec /= np.linalg.norm(vec)
    lead = np.flatnonzero(np.abs(vec) > 1e-9)
    if vec[lead[0]] < 0:
        vec = -vec
    assert np.allclose(vec, fr.realization.to_flat(), atol=1e-8)
