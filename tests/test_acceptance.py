"""Acceptance criteria: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; each test enforces its stated sample counts, tolerances and runtime
budget.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from perigid.colored_graph import (
    ColoredGraph,
    EdgeSubset,
    develop_window,
    image_rank,
    scan_subset,
    sublattice_cover,
    z2_rank,
)
from perigid.direction_network import (
    DirectionAssignment,
    edge_status,
    faithful_realization,
    realization_kernel,
)
from perigid.linear_rep import (
    _modp_rigidity_rows,
    kernel_float,
    modp_rank,
    rank_mod_p,
    sample_assignment,
    verify_determinant_formulas,
)
from perigid.rigidity import (
    ROSS_LOOPS,
    decide_rigidity,
    generic_rigidity_rank,
    is_1d_rigid,
    is_ross,
    rigidity_matrix,
)
from perigid.sparsity import (
    brute_force_sparsity,
    decompose_two_11k,
    f_value,
    is_11k,
    is_222_graph,
    is_222_sparse,
    is_colored_laman,
    is_colored_laman_sparse,
    max_laman_sparse_subset,
)

from randgen import (
    random_11k,
    random_circuit_graph,
    random_graph,
    random_laman_graph,
    random_non_11k,
    random_potential,
    random_relabel,
    random_reversal,
)

G = ColoredGraph.build
LAMAN1 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1))])
FINDEX = G(1, [(0, 0, (1, 0)), (0, 0, (0, 2)), (0, 0, (1, 2))])


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_one_vertex_fixture():
    # warm-up excludes one-time import and allocator effects
    is_colored_laman(LAMAN1)
    generic_rigidity_rank(LAMAN1, seed=1)
    faithful_realization(LAMAN1, seed=1)
    t0 = time.perf_counter()
    laman = is_colored_laman(LAMAN1)
    rank = generic_rigidity_rank(LAMAN1, seed=2).rank
    fr = faithful_realization(LAMAN1, seed=2)
    elapsed = time.perf_counter() - t0
    ok = (
        laman
        and rank == 3 == 2 * LAMAN1.n + 1
        and not any(s.collapsed for s in fr.statuses)
        and elapsed < 0.010
    )
    report(1, ok, f"laman={laman} rank={rank} faithful in {elapsed * 1e3:.2f} ms")


def _exhaustive_one_vertex():
    colors = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for size in range(5):
        for combo in itertools.combinations_with_replacement(colors, size):
            yield G(1, [(0, 0, c) for c in combo])


def _exhaustive_two_vertex():
    kinds = [(0, 0), (1, 1), (0, 1)]
    colors = [(0, 0), (1, 0), (0, 1)]
    types = [(u, v, c) for (u, v) in kinds for c in colors]
    for size in range(6):
        for combo in itertools.combinations_with_replacement(range(9), size):
            yield G(2, [types[i] for i in combo])


def test_criterion_02_laman_oracle_equivalence():
    rng = random.Random(1002)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(10000):
        g = random_graph(rng, nmax=3, mmax=7, color_range=1)
        sparse = is_colored_laman_sparse(g)
        assert sparse == brute_force_sparsity(g, "laman").sparse, g
        assert is_colored_laman(g) == (sparse and g.m == 2 * g.n + 1)
        checked += 1
    for g in itertools.chain(_exhaustive_one_vertex(), _exhaustive_two_vertex()):
        assert is_colored_laman_sparse(g) == brute_force_sparsity(g, "laman").sparse, g
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(2, ok, f"{checked} graphs agree (doubling vs enumeration) in {elapsed:.1f} s")


@pytest.fixture(scope="module")
def corpus_222():
    """Criterion-3 sweep: three independent routes over 10000 random graphs.

    Returns the elapsed time and every (2,2,k)-graph encountered, which
    criterion 4 then decomposes.
    """
    rng = random.Random(1003)
    found = []
    t0 = time.perf_counter()
    for i in range(10000):
        n = rng.randint(1, 6)
        g = random_graph(rng, n=n, m=rng.randint(0, 2 * n + 2))
        a = is_222_sparse(g)
        b = brute_force_sparsity(g, "222").sparse
        # two trials: per-graph false-deficiency <= (m/p)^2, aggregate < 1e-30
        c = rank_mod_p(g, "M222", trials=2, seed=i).rank == g.m
        assert a == b == c, g
        if a and g.m == 2 * g.n - 2 + 2 * z2_rank(EdgeSubset.full(g)):
            found.append(g)
    return time.perf_counter() - t0, found


def test_criterion_03_222_oracle_equivalence(corpus_222):
    elapsed, found = corpus_222
    ok = elapsed < 120.0 and len(found) > 50
    report(3, ok, f"10000 graphs, 3 routes agree, {len(found)} (2,2,k)-graphs, {elapsed:.1f} s")


def test_criterion_04_decomposition_soundness(corpus_222):
    _, found = corpus_222
    count = 0
    for g in found:
        k = z2_rank(EdgeSubset.full(g))
        d = decompose_two_11k(g)
        assert is_11k(d.part1) == (True, k)
        assert is_11k(d.part2) == (True, k)
        assert d.part1.ids | d.part2.ids == set(g.edge_ids())
        assert not d.part1.ids & d.part2.ids
        count += 1
    report(4, True, f"{count} decompositions verified spanning (1,1,k) x 2")


@pytest.fixture(scope="module")
def laman_realizations():
    """Criterion-5 sweep: faithful realizations of 100 random Laman graphs."""
    rng = random.Random(1005)
    results = []
    t0 = time.perf_counter()
    for i in range(100):
        n = rng.randint(1, 8)
        g = random_laman_graph(rng, n)
        fr = faithful_realization(g, seed=i)
        dim, _ = realization_kernel(g, fr.directions)
        assert dim == 3, (g, dim)
        scale = fr.realization.scale()
        for s, e in zip(fr.statuses, g.edges):
            eta = np.array(s.eta)
            perp = np.array(fr.directions.perp(e.id))
            assert abs(float(eta @ perp)) <= 1e-9 * scale
            assert float(np.linalg.norm(eta)) > 1e-6 * scale
        results.append((g, fr))
    return time.perf_counter() - t0, results


def test_criterion_05_direction_network_theorem(laman_realizations):
    elapsed, results = laman_realizations
    ok = elapsed < 30.0 and len(results) == 100
    report(5, ok, f"100 colored-Laman graphs realized faithfully in {elapsed:.1f} s")


def test_criterion_06_main_theorem_transfer(laman_realizations):
    _, results = laman_realizations
    for g, fr in results:
        n = g.n
        mat = rigidity_matrix(g, fr.realization)
        rank, _ = kernel_float(mat, 1e-9)
        assert rank == 2 * n + 1, (g, rank)
        assert modp_rank(_modp_rigidity_rows(g, fr.exact)) == 2 * n + 1  # at the exact F_p point
        dense = mat.to_numpy()
        for i in range(dense.shape[0]):
            r, _ = kernel_float(np.delete(dense, i, axis=0), 1e-9)
            assert r == 2 * n, (g, i, r)
    report(6, True, f"{len(results)} rigidity matrices at rank 2n+1, all deletions drop to 2n")


def test_criterion_07_circuit_collapse():
    rng = random.Random(1007)
    fixtures = [G(2, [(0, 0, (1, 0)), (1, 1, (1, 0))])]
    while len(fixtures) < 51:
        fixtures.append(random_circuit_graph(rng))
    for g in fixtures:
        scan = scan_subset(EdgeSubset.full(g))
        k = image_rank(scan.images)
        c = len(scan.trees)
        d = DirectionAssignment.sample(g, rng)
        dim, basis = realization_kernel(g, d)
        assert dim == 4 - 2 * k + 2 * c, (g, dim)
        for real in basis:
            assert all(s.collapsed for s in edge_status(g, d, real, 1e-6)), g
    report(7, True, f"{len(fixtures)} circuits: kernel dim 4-2k+2c, all kernel edges collapsed")


def test_criterion_08_determinant_formulas():
    rng = random.Random(1008)
    instances = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        k = rng.randint(0, 2)
        g = random_11k(rng, n, k)
        for mode in ("fp", "float"):
            asn = sample_assignment(g, pairs=False, mode=mode, seed=rng.randrange(1 << 30))
            rep = verify_determinant_formulas(g, assignment=asn)
            assert rep.instance and rep.all_ok, (g, mode)
        instances += 1
    non_instances = 0
    for _ in range(150):
        n = rng.randint(2, 5)
        k = rng.randint(0, 2)
        bad = random_non_11k(rng, n, k)
        for trial in range(3):
            asn = sample_assignment(bad, pairs=False, mode="fp", seed=trial)
            rep = verify_determinant_formulas(bad, assignment=asn)
            assert not rep.instance
            assert all(c.determinant == 0 for c in rep.checks), bad
        non_instances += 1
    report(8, True, f"{instances} (1,1,k) instances exact in F_p and < 1e-10 float; {non_instances} non-instances vanish")


def test_criterion_09_invariance_suite():
    rng = random.Random(1009)
    pairs = 0
    for _ in range(1000):
        g = random_graph(rng, nmax=4)
        sub = EdgeSubset.full(g)
        base = (
            z2_rank(sub),
            f_value(sub),
            is_11k(sub)[0],
            is_colored_laman_sparse(g),
            is_222_sparse(g),
            is_222_graph(g),
            is_ross(g),
        )
        transform = rng.choice((random_reversal, random_potential, random_relabel))
        h = transform(rng, g)
        hsub = EdgeSubset.full(h)
        other = (
            z2_rank(hsub),
            f_value(hsub),
            is_11k(hsub)[0],
            is_colored_laman_sparse(h),
            is_222_sparse(h),
            is_222_graph(h),
            is_ross(h),
        )
        assert base == other, (g, h)
        pairs += 1
    # rigidity status on a subsample (randomized-rank route included)
    for _ in range(30):
        g = random_graph(rng, nmax=3)
        base = decide_rigidity(g, seed=3, attach_witness=False).status
        transform = rng.choice((random_reversal, random_potential, random_relabel))
        assert decide_rigidity(transform(rng, g), seed=11, attach_witness=False).status == base
    report(9, True, f"{pairs} transformation pairs leave every decision unchanged")


def test_criterion_10_ross_and_1d():
    rng = random.Random(1010)
    for _ in range(5000):
        n = rng.randint(1, 4)
        g = random_graph(rng, n=n, m=2 * n - 2)
        ross = g.m == 2 * g.n - 2 and brute_force_sparsity(g, "ross").sparse
        assert is_colored_laman(g.with_extra_loops(0, ROSS_LOOPS)) == ross, g
        assert is_ross(g) == ross, g  # is_ross also raises if its two routes disagree
    for _ in range(5000):
        n = rng.randint(1, 4)
        m = rng.randint(0, n + 2)
        g = G(
            n,
            [(rng.randrange(n), rng.randrange(n), (rng.randint(-2, 2), 0)) for _ in range(m)],
        )
        is_1d_rigid(g, seed=rng.randrange(1 << 30))  # raises if routes disagree
    report(10, True, "5000 Ross route pairs + 5000 1d route pairs agree")


def test_criterion_11_development_and_cover():
    rep = develop_window(FINDEX, ((-2, 2), (-2, 2)))
    assert rep.index == 2
    assert rep.observed_core_components == 2
    cover = sublattice_cover(FINDEX, [[1, 0], [0, 2]])
    sheets = 2
    max_sparse = len(max_laman_sparse_subset(cover))
    bound = 2 * sheets * FINDEX.n - 1
    assert max_sparse <= bound
    assert not is_colored_laman_sparse(cover) or cover.m <= bound
    report(
        11,
        True,
        f"index 2 observed in the window core; cover max sparse subgraph {max_sparse} <= {bound}",
    )
