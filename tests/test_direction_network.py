"""Direction networks: realization systems, collapse, faithful realizations."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import direction_network, linear_rep, rigidity
from perigid.cli import main
from perigid.colored_graph import ColoredGraph, EdgeSubset, scan_subset, image_rank
from perigid.direction_network import DirectionAssignment, faithful_realization
from perigid.errors import DomainError, GenericitySamplingError
from perigid.fileio import serialize_colored_graph
from perigid.linear_rep import (
    PRIME,
    _dense,
    _modp_rigidity_rows,
    modp_rank,
    natural_rows,
    sample_rows,
)
from perigid.rigidity import decide_rigidity, laman_analysis
from perigid.sparsity import is_colored_laman
from float_reference import Realization, build_P_system, drawn, edge_status, kernel_float, realization_kernel, scale, to_flat
from paper_reference import collapsed_realization, collapsed_space_basis
from randgen import random_circuit_graph, random_graph, random_laman_graph, with_doubled

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


def _modp(x):
    """A float read as the exact rational it is, mod p."""
    q = Fraction(x)
    return q.numerator * pow(q.denominator, -1, PRIME) % PRIME


def test_p_system_matches_natural_matrix():
    # the exact P-system rows are the M222 rows at perp(d) mod p, and the float rows read mod p
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng, nmax=4)
        if not g.m:
            continue
        d = DirectionAssignment.sample(g, rng)
        exact = tuple(direction_network._modp_row(g.n, e, d) for e in g.edges)
        assert exact == _modp_p_system(g, d)
        dense = tuple(_dense(row, 2 * g.n + 4) for row in exact)
        assert dense == tuple(tuple(map(_modp, row)) for row in build_P_system(g, d).rows)


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
        basis = [to_flat(b) for b in collapsed_space_basis(g)]
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
    doubled = with_doubled(g, 0)
    dmap = dict(d.d)
    dmap[max(e.id for e in doubled.edges)] = (0.6, 0.8)
    dim2, _ = realization_kernel(doubled, DirectionAssignment(dmap))
    assert dim2 == dim


def _modp_p_system(graph, directions):
    """P-system rows mod p, each float perpendicular read as the exact rational it is."""
    a = {e.id: _modp(directions.perp(e.id)[0]) for e in graph.edges}
    b = {e.id: _modp(directions.perp(e.id)[1]) for e in graph.edges}
    return tuple(natural_rows(graph, a, b))


def _rebuilt_doubled_rows(graph, directions, eid, extra):
    """The doubled system built the long way: a new graph, directions and P-system."""
    doubled = with_doubled(graph, eid)
    copy_id = max(e.id for e in doubled.edges)
    dmap = dict(directions.d)
    dmap[copy_id] = extra
    return _modp_p_system(doubled, DirectionAssignment(dmap))


def test_doubled_systems_match_the_rebuilt_doubled_graphs():
    # with a 3-dimensional kernel, the collapse test is the doubled-row test: an edge
    # collapses on the kernel's point iff a parallel copy with a fresh direction
    # leaves the rebuilt doubled graph's P-system short of rank 2n + 2
    rng = random.Random(29)
    verdicts = Counter()
    for _ in range(400):
        n = rng.randint(1, 5)
        g = random_graph(rng, n=n, m=2 * n + 1, color_range=rng.randint(0, 2))
        d = DirectionAssignment.sample(g, rng)
        verdict = direction_network._exact_point(g, d)
        verdicts[verdict] += 1
        if modp_rank(_modp_p_system(g, d)) != 2 * n + 1:
            assert verdict == "rank"
            continue
        short = False
        for e in g.edges:
            t = rng.uniform(0.0, 2.0 * math.pi)
            rows = _rebuilt_doubled_rows(g, d, e.id, (math.cos(t), math.sin(t)))
            short = short or modp_rank(rows) != 2 * n + 2
        assert (verdict == "collapsed mod p") == short, g
    assert verdicts[None] and verdicts["rank"] and verdicts["collapsed mod p"]


def test_a_non_generic_sample_is_rejected_mod_p_before_any_svd(monkeypatch):
    # the three loops share one direction: row (1,0) + row (0,1) = row (1,1), rank 2
    same = DirectionAssignment({e.id: (0.6, 0.8) for e in LAMAN1.edges})
    monkeypatch.setattr(DirectionAssignment, "sample", classmethod(lambda cls, graph, rng: same))

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(GenericitySamplingError, match="rejections: rank 16, collapsed mod p 0, point rank 0 "):
        faithful_realization(LAMAN1)
    monkeypatch.undo()

    # generic directions, but a point whose every displacement is zero
    monkeypatch.setattr(direction_network, "_integer_point", lambda n, rng: [(0, 0)] * (n + 2))
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(GenericitySamplingError, match="rejections: rank 0, collapsed mod p 0, point rank 16 "):
        faithful_realization(LAMAN1)


def test_sampling_error_counts_the_rejections_by_reason(monkeypatch):
    # the exact test rejects two attempts in three, and the point rank the third
    verdicts = itertools.cycle(("rank", "collapsed mod p", None))
    monkeypatch.setattr(direction_network, "_exact_point", lambda graph, directions: next(verdicts))
    monkeypatch.setattr(direction_network, "_integer_point", lambda n, rng: [(1, 2)] * (n + 2))
    with pytest.raises(GenericitySamplingError) as err:
        faithful_realization(LAMAN1, seed=5)
    assert err.value.attempts == 16
    assert "rejections: rank 6, collapsed mod p 5, point rank 5 " in str(err.value)


def test_translation_and_scaling_invariance():
    rng = random.Random(20)
    g = random_laman_graph(rng, 3)
    real, directions = drawn(g, faithful_realization(g, seed=4))
    system = build_P_system(g, directions).to_numpy()
    vec = np.asarray(to_flat(real))
    # translation: shift every point, keep L
    shift = np.tile([0.37, -1.2], g.n).tolist() + [0.0] * 4
    assert np.max(np.abs(system @ (vec + np.array(shift)))) < 1e-8
    # scaling
    assert np.max(np.abs(system @ (2.5 * vec))) < 1e-8


def test_faithful_realization_fixture():
    real, directions = drawn(LAMAN1, faithful_realization(LAMAN1, seed=42))
    assert np.allclose(real.p[0], 0.0, atol=1e-12)
    assert abs(np.linalg.norm(to_flat(real)) - 1.0) < 1e-12
    statuses = edge_status(LAMAN1, directions, real)
    assert not any(s.collapsed for s in statuses)
    size = scale(real)
    for s, e in zip(statuses, LAMAN1.edges):
        eta = np.array(s.eta)
        perp = np.array(directions.perp(e.id))
        assert abs(eta @ perp) <= 1e-9 * size
        assert np.linalg.norm(eta) > 1e-6 * size


def test_the_first_attempt_draws_the_analysis_point():
    # the witness is drawn from the integer point laman_analysis eliminates first
    g = random_laman_graph(random.Random(18), 10)
    for seed in range(5):
        fr = faithful_realization(g, seed=seed)
        assert fr.attempts == 1
        assert _modp_rigidity_rows(g, fr.exact) == sample_rows(g, "M232", random.Random(seed))


def test_faithful_realization_rejects_non_laman():
    with pytest.raises(DomainError):
        faithful_realization(G(1, [(0, 0, (1, 0))]))
    circuit = G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])
    with pytest.raises(DomainError):
        faithful_realization(circuit)


NOT_SPARSE = G(1, [(0, 0, (1, 0)), (0, 0, (1, 0)), (0, 0, (0, 1))])  # m = 2n + 1, parallel loops


def test_an_accepted_sample_certifies_the_graph():
    # m = 2n + 1: _exact_point accepts a sample exactly when the graph is colored-Laman
    rng = random.Random(18)
    reasons, graphs = Counter(), 0
    for n in range(1, 8):
        for color_range in range(3):
            for _ in range(100):
                g = random_graph(rng, n=n, m=2 * n + 1, color_range=color_range)
                laman, graphs = is_colored_laman(g), graphs + 1
                draws = random.Random(rng.randrange(1 << 30))
                for _ in range(2):
                    verdict = direction_network._exact_point(g, DirectionAssignment.sample(g, draws))
                    assert (verdict is None) == laman, (g, verdict)
                    reasons[verdict or "accepted"] += 1
    assert graphs >= 2000
    # both halves of the argument do work: rank alone does not refuse every graph
    assert reasons["accepted"] and reasons["rank"] and reasons["collapsed mod p"]
    assert set(reasons) == {"accepted", "rank", "collapsed mod p"}


@pytest.fixture()
def spied(monkeypatch):
    """Calls of the counts and of the exact test inside direction_network, in order."""
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(direction_network, name, wrapper)

    spy("is_colored_laman", direction_network.is_colored_laman)
    spy("_exact_point", direction_network._exact_point)
    return calls


def test_the_counts_run_only_after_a_rejected_first_sample(spied):
    for g in (LAMAN1, random_laman_graph(random.Random(18), 10)):
        fr = faithful_realization(g)
        assert spied.count("_exact_point") == fr.attempts and "is_colored_laman" not in spied
        spied.clear()
        decide_rigidity(g)
        assert spied.count("_exact_point") == fr.attempts and "is_colored_laman" not in spied
        spied.clear()

    with pytest.raises(DomainError, match="^faithful_realization needs a colored-Laman graph$"):
        faithful_realization(NOT_SPARSE)
    assert spied == ["_exact_point", "is_colored_laman"]
    spied.clear()

    # m != 2n + 1 is refused before any draw
    for g in (G(1, [(0, 0, (1, 0))]), G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])):
        with pytest.raises(DomainError, match="^faithful_realization needs a colored-Laman graph$"):
            faithful_realization(g)
    assert spied == []


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 10), st.integers(0, 1 << 30), st.integers(0, 7))
def test_check_and_realize_draw_the_same_witness(n, graph_seed, seed):
    # the handed rank changes no witness, attempt count or seed
    g = random_laman_graph(random.Random(graph_seed), n)
    assert decide_rigidity(g, seed).witness == faithful_realization(g, seed)


@pytest.fixture()
def eliminations(monkeypatch):
    """Calls of the F_p eliminations, by who asked for them."""
    calls = Counter()

    def spy(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(rigidity, "_eliminate", "analysis")  # the rigidity rows at each point of laman_analysis
    spy(linear_rep, "_eliminate", "linear_rep")  # under modp_rank and modp_kernel
    spy(direction_network, "modp_kernel", "P-system")
    spy(direction_network, "modp_rank", "witness rank")
    return calls


def test_a_tight_check_eliminates_the_rigidity_rows_once(eliminations, tmp_path, capsys):
    # the witness reads the rank the analysis found at its own first point
    path = tmp_path / "tight.cg"
    for g in (LAMAN1, random_laman_graph(random.Random(18), 10)):
        path.write_text(serialize_colored_graph(g))
        for run in (lambda: main(["check", str(path), "--format", "json"]), lambda: decide_rigidity(g)):
            run()
            assert eliminations == Counter({"analysis": 1, "P-system": 1, "linear_rep": 1})
            eliminations.clear()
        capsys.readouterr()
        # realize has no analysis: each accepted attempt eliminates its own rows
        assert faithful_realization(g).attempts == 1
        assert eliminations == Counter({"P-system": 1, "witness rank": 1, "linear_rep": 2})
        # a handed point that the attempt does not draw is not read, whatever its rank
        other = laman_analysis(g, seed=1).first[0]
        assert faithful_realization(g, first=(other, 0)) == faithful_realization(g)
        eliminations.clear()


def test_a_degenerate_first_point_is_rejected_by_the_handed_rank(monkeypatch, eliminations):
    real, drawn_from = linear_rep._integer_point, []

    def first_degenerate(n, rng):  # the first point from each rng repeats one point; later ones are real
        xy = real(n, rng)
        if any(r is rng for r in drawn_from):
            return xy
        drawn_from.append(rng)
        return [xy[0]] * (n + 2)

    for module in (linear_rep, rigidity, direction_network):
        monkeypatch.setattr(module, "_integer_point", first_degenerate)
    for g in (LAMAN1, random_laman_graph(random.Random(18), 10)):
        analysis = laman_analysis(g)
        point, rank = analysis.first
        assert len(set(point)) == 1 and rank < 2 * g.n + 1
        assert eliminations["analysis"] == 2  # the analysis moved on to point 2
        eliminations.clear()
        with monkeypatch.context() as patch:
            patch.setattr(direction_network, "DEFAULT_RETRY_CAP", 1)
            with pytest.raises(GenericitySamplingError, match="rejections: rank 0, collapsed mod p 0, point rank 1 "):
                faithful_realization(g, first=analysis.first)
        assert eliminations["witness rank"] == 0
        eliminations.clear()
        witness = decide_rigidity(g).witness
        assert eliminations["witness rank"] == 1  # attempt 2 only
        assert witness == faithful_realization(g) and witness.attempts == 2
        assert eliminations["witness rank"] == 3  # alone, attempt 1 eliminated its own rows
        eliminations.clear()


def test_faithful_uniqueness_up_to_normalization():
    # same directions, independent second solve from a permuted system
    rng = random.Random(23)
    g = random_laman_graph(rng, 4)
    real, directions = drawn(g, faithful_realization(g, seed=9))
    system = build_P_system(g, directions).to_numpy()
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
    assert np.allclose(vec, to_flat(real), atol=1e-8)
