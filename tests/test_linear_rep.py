"""Representation matrices: filling patterns, ranks, determinant formulas."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.colored_graph import ColoredEdge, ColoredGraph, ColorVector, EdgeSubset
from perigid.direction_network import DirectionAssignment, _modp_row
from perigid.errors import DomainError, StructuralError
from perigid import linear_rep
from perigid.linear_rep import (
    MAX_TRIALS,
    PRIME,
    _dense,
    dump_matrix,
    _eliminate,
    _integer_eta,
    _modp_rigidity_rows,
    _nonzero_values,
    modp_kernel,
    modp_rank,
    natural_rows,
    rank_mod_p,
    sample_rows,
)
from perigid.sparsity import decompose_two_11k, is_222_sparse

from float_reference import float_assignment, kernel_float, m112_matrix, m112_row, m222_matrix, m222_row
from paper_reference import (
    dense_reduce,
    designated_minors,
    exact_determinant_checks,
    f_value,
    float_determinant_checks,
    fundamental_cycles,
    is_222_graph,
    modp_det,
    rho_of_walk,
)
from randgen import random_11k, random_graph, random_laman_graph, random_non_11k, triangle_strip

G = ColoredGraph.build
LAMAN1 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1))])


def dense_rows(graph, a, b=None):
    """The natural rows of the values, each densified to its full width."""
    width = graph.n + 2 if b is None else 2 * graph.n + 4
    return tuple(_dense(row, width) for row in natural_rows(graph, a, b))


def test_m112_rows():
    loop = G(1, [(0, 0, (1, 0))])
    assert dense_rows(loop, {0: 9})[0] == (0, 9, 0)
    tree = G(2, [(0, 1, (0, 0))])
    assert dense_rows(tree, {0: 4})[0] == ((-4) % PRIME, 4, 0, 0)


def test_m222_row():
    g = G(2, [(0, 1, (2, 3))])
    row = dense_rows(g, {0: 5}, {0: 7})[0]
    assert row == ((-5) % PRIME, (-7) % PRIME, 5, 7, 10, 14, 15, 21)


def _pattern_row(terms):
    """The rows as they were built: sum (column, term) pairs in order, mod p,
    so a cancelled loop entry stays as 0."""
    row = {}
    for j, x in terms:
        row[j] = row.get(j, 0) + x
    return {j: x % PRIME for j, x in row.items()}


def test_direct_row_entries_match_the_summed_pattern():
    rng = random.Random(31)
    big = (-PRIME - 5, -3, -1, 0, 1, 2, PRIME - 1, PRIME, PRIME + 7, 5 * PRIME + 3, 1 << 80)
    loops = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        t, h = rng.randrange(n), rng.randrange(n)
        t = h if rng.random() < 0.3 else t
        loops += t == h
        color = ColorVector(*(rng.choice((0, 0, rng.randint(-3, 3), rng.randint(-10**6, 10**6))) for _ in "gg"))
        e = ColoredEdge(rng.randrange(10), t, h, color)
        a, b = (rng.choice(big) if rng.random() < 0.3 else rng.randrange(-PRIME, 2 * PRIME) for _ in "ab")
        g1, g2 = color
        want = _pattern_row(((t, -a), (h, a), (n, g1 * a), (n + 1, g2 * a)))
        got = linear_rep._m112_row(n, e, a)
        assert got == want and list(got) == list(want)
        tt, hh = 2 * t, 2 * h
        lattice = ((2 * n, g1 * a), (2 * n + 1, g1 * b), (2 * n + 2, g2 * a), (2 * n + 3, g2 * b))
        want = _pattern_row(((tt, -a), (tt + 1, -b), (hh, a), (hh + 1, b)) + lattice)
        got = linear_rep._m222_row(n, e, a, b)
        assert got == want and list(got) == list(want)
    assert loops > 500


def test_build_matrix_missing_assignment():
    g = G(1, [(0, 0, (1, 0))])
    with pytest.raises(StructuralError):
        natural_rows(g, {})
    with pytest.raises(StructuralError):
        natural_rows(g, {0: 1}, {})


def test_rank_mod_p_examples():
    four = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 0)), (0, 0, (0, 1))])
    assert rank_mod_p(four, "M222").rank == 4
    coll = G(1, [(0, 0, (1, 0)), (0, 0, (2, 0)), (0, 0, (3, 0))])
    assert rank_mod_p(coll, "M112").rank == 1
    tree = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0))])
    assert rank_mod_p(tree, "M112").rank == 2


def test_rank_equals_f_randomly():
    rng = random.Random(2)
    for _ in range(150):
        g = random_graph(rng, nmax=4)
        assert rank_mod_p(g, "M112", trials=1, seed=rng.randrange(1 << 30)).rank == f_value(
            EdgeSubset.full(g)
        )


def test_rank_m222_represents_222_sparsity():
    rng = random.Random(4)
    for _ in range(120):
        g = random_graph(rng, nmax=4)
        got = rank_mod_p(g, "M222", trials=2, seed=rng.randrange(1 << 30)).rank
        assert (got == g.m) == is_222_sparse(g)


def test_row_dependency_beyond_f_bound():
    rng = random.Random(6)
    for _ in range(80):
        g = random_graph(rng, nmax=4, mmax=10)
        sub = EdgeSubset.full(g)
        if g.m > f_value(sub):
            assert rank_mod_p(g, "M112", trials=2, seed=7).rank < g.m


def ceiling_graphs(rng):
    """Random graphs with loops and parallel edges, n = 1, m = 0 and over-braced ones."""
    yield G(1, [])
    yield G(3, [])
    yield G(1, [(0, 0, (1, 0))] * 6)
    yield G(2, [(0, 1, (0, 0))] * 7)
    for _ in range(60):
        yield random_graph(rng, nmax=5)
    for _ in range(30):
        yield random_graph(rng, n=1, mmax=8)
    for _ in range(30):
        n = rng.randint(1, 5)
        yield random_graph(rng, n=n, m=rng.randint(2 * n + 3, 4 * n + 4))


def test_no_sample_of_m112_or_m222_exceeds_its_ceiling():
    rng = random.Random(19)
    reached = {"M112": 0, "M222": 0}
    for g in ceiling_graphs(rng):
        ceilings = {"M112": min(g.m, g.n + 1), "M222": min(g.m, 2 * g.n + 2)}
        for kind, ceiling in ceilings.items():
            for seed in range(3):
                rank = rank_mod_p(g, kind, trials=1, seed=seed).rank  # one sample
                assert rank <= ceiling, (kind, g.n, g.m, rank)
                reached[kind] += rank == ceiling
    assert min(reached.values()) > 200, reached


def spy_on_eliminations(monkeypatch, first_ranks=()):
    """Record the rank of every sample; the first samples report first_ranks instead."""
    ranks, queued = [], list(first_ranks)
    rank = linear_rep.modp_rank

    def spy(rows):
        ranks.append(queued.pop(0) if queued else rank(rows))
        return ranks[-1]

    monkeypatch.setattr(linear_rep, "modp_rank", spy)
    return ranks


def test_a_sample_at_the_ceiling_ends_the_trials(monkeypatch):
    four = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 0)), (0, 0, (0, 1))])
    coll = G(1, [(0, 0, (1, 0)), (0, 0, (2, 0)), (0, 0, (3, 0))])
    ranks = spy_on_eliminations(monkeypatch)
    assert rank_mod_p(LAMAN1, "M112", trials=3).rank == 2 and ranks == [2]
    ranks.clear()
    assert rank_mod_p(four, "M222", trials=3).rank == 4 and ranks == [4]
    ranks.clear()
    # rank below min(m, columns - trivial kernel): every trial is drawn
    assert rank_mod_p(coll, "M112", trials=3).rank == 1 and ranks == [1, 1, 1]
    ranks.clear()
    assert rank_mod_p(coll, "M222", trials=3).rank == 2 and ranks == [2, 2, 2]


def test_a_deficient_sample_never_ends_the_trials(monkeypatch):
    ranks = spy_on_eliminations(monkeypatch, first_ranks=[0])
    report = rank_mod_p(LAMAN1, "M222", trials=3)
    assert (report.rank, report.trials) == (3, 3) and ranks == [0, 3]
    ranks = spy_on_eliminations(monkeypatch, first_ranks=[1, 2, 1])
    assert rank_mod_p(LAMAN1, "M222", trials=3).rank == 2 and ranks == [1, 2, 1]


def test_trials_outside_the_budget_are_refused_before_any_sample(monkeypatch):
    ranks = spy_on_eliminations(monkeypatch)
    for trials in (0, -1, MAX_TRIALS + 1, 10**9):
        for kind in ("M112", "M222", "M232"):
            with pytest.raises(DomainError, match="trials must be"):
                rank_mod_p(LAMAN1, kind, trials=trials)
    assert ranks == []
    assert rank_mod_p(LAMAN1, "M222", trials=MAX_TRIALS).trials == MAX_TRIALS


def entry_rows(rows):
    """Dense rows as the entry rows {column: value} the eliminator takes."""
    return [dict(enumerate(row)) for row in rows]


def modp_null_vectors(rows):
    """A basis of the left null space: y with sum(y[i] * rows[i]) = 0 mod p.

    One vector per row that the elimination reduces to zero: the
    combination of input rows that produced it, with a 1 at that row.
    """
    nulls = _eliminate(rows, track=True)[1]
    return [tuple(y.get(i, 0) for i in range(len(rows))) for y in nulls]


def test_modp_kernel_annihilates_every_row():
    rng = random.Random(17)
    kinds = set()
    for trial in range(240):
        width = rng.randint(0, 9)
        rows = []
        for _ in range(0 if trial % 40 == 0 else rng.randint(1, 8)):
            pick = rng.random()
            if rows and pick < 0.15:
                rows.append(dict(rng.choice(rows)))  # a repeated row
                kinds.add("repeated")
            elif pick < 0.25:
                rows.append({})  # a zero row, or one naming zeros only
                if width and rng.random() < 0.5:
                    rows[-1] = {rng.randrange(width): rng.choice((0, PRIME))}
                kinds.add("zero")
            elif width:
                cols = rng.sample(range(width), rng.randint(1, min(width, 4)))
                rows.append({j: rng.choice((rng.randint(-3, 3), rng.randrange(PRIME))) for j in cols})
        kinds.add("empty" if not rows else "rows")
        basis = modp_kernel(rows, width)
        assert len(basis) == width - modp_rank(rows)
        for x in basis:
            assert len(x) == width and all(0 <= v < PRIME for v in x)
            assert all(sum(v * x[j] for j, v in row.items()) % PRIME == 0 for row in rows)
        assert modp_rank(entry_rows(basis)) == len(basis)
    assert kinds == {"repeated", "zero", "empty", "rows"}


def test_modp_elimination_null_vectors_and_det():
    rng = random.Random(13)
    for _ in range(400):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if m >= 3:  # force a dependency among later rows
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        nulls = modp_null_vectors(entry_rows(rows))
        assert len(nulls) == m - modp_rank(entry_rows(rows))
        for vec in nulls:
            assert all(sum(y * r[j] for y, r in zip(vec, rows)) % PRIME == 0 for j in range(n))
        assert modp_rank(entry_rows(nulls)) == len(nulls)
        if m == n:
            leibniz = sum(
                (-1) ** sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
                * np.prod([rows[i][perm[i]] for i in range(n)], dtype=object)
                for perm in itertools.permutations(range(n))
            )
            assert modp_det(rows) == leibniz % PRIME


def test_kernel_float_examples():
    rank, kernel = kernel_float(np.zeros((2, 3)))
    assert rank == 0 and kernel.shape == (3, 3)
    rank, kernel = kernel_float(np.eye(4))
    assert rank == 4 and kernel.shape == (4, 0)
    a, b = float_assignment(LAMAN1, True, random.Random(8))
    rank, kernel = kernel_float(m222_matrix(LAMAN1, a, b))
    assert rank == 3 and kernel.shape == (6, 3)


def test_kernel_float_bad_tolerance():
    with pytest.raises(DomainError):
        kernel_float(np.eye(2), 0.0)


def test_kernel_float_refuses_nan_and_tolerances_of_one_or_more():
    # each of these would count every singular value as zero
    for tolerance in (float("nan"), float("inf"), 1.0, 2.0, -1e-9):
        with pytest.raises(DomainError, match=r"tolerance must lie in \(0, 1\)"):
            kernel_float(np.eye(2), tolerance)
    assert kernel_float(np.eye(2), 0.5)[0] == 2


def test_fp_rank_at_least_float_rank_same_assignment():
    rng = random.Random(10)
    for _ in range(40):
        g = random_graph(rng, nmax=3)
        draw = random.Random(rng.randrange(1 << 30))
        a = {k: v % 1000 + 1 for k, v in _nonzero_values(g, draw).items()}
        b = {k: v % 1000 + 1 for k, v in _nonzero_values(g, draw).items()}
        floats = ({k: float(v) for k, v in a.items()}, {k: float(v) for k, v in b.items()})
        exact = modp_rank(natural_rows(g, a, b))
        approx, _ = kernel_float(m222_matrix(g, *floats))
        assert exact >= approx
        assert exact == approx  # equality on these well-conditioned samples


def test_det_formula_tree():
    path3 = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0))])
    assert exact_determinant_checks(path3) == (True, True)


def test_det_formula_one_loop():
    loop = G(1, [(0, 0, (5, 7))])
    assert exact_determinant_checks(loop) == (True, True) and len(designated_minors(loop)[1]) == 2


def test_det_formula_two_loops():
    assert exact_determinant_checks(G(1, [(0, 0, (1, 0)), (0, 0, (0, 1))])) == (True, True)


def test_det_formula_random_instances_and_non_instances():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(0, 2)
        g = random_11k(rng, n, k)
        a = _nonzero_values(g, random.Random(rng.randrange(1 << 30)))
        assert exact_determinant_checks(g, a) == (True, True), g
        a, _ = float_assignment(g, False, random.Random(rng.randrange(1 << 30)))
        assert float_determinant_checks(g, a), g
        bad = random_non_11k(rng, n, k)
        assert exact_determinant_checks(bad) == (False, True)  # every minor vanishes


def test_det_formula_wrong_size_rejected():
    with pytest.raises(DomainError):
        exact_determinant_checks(LAMAN1)  # m = n + 2 does not fit any case


def test_cycle_elimination():
    # scaling rows by 1/a and summing signed rows around a cycle leaves
    # (0 .. 0 | rho) in the chosen cycle edge's row
    g = G(3, [(0, 1, (1, 0)), (1, 2, (0, 1)), (2, 0, (3, 4))])
    a, _ = float_assignment(g, False, random.Random(5))
    mat = m112_matrix(g, a).to_numpy()
    scaled = mat / np.array([[a[e.id]] for e in g.edges])
    (eid, walk) = fundamental_cycles(EdgeSubset.full(g))[0]
    rho = rho_of_walk(walk)
    combo = np.zeros(g.n + 2)
    for step_id, forward in walk.steps:
        combo += scaled[step_id] if forward else -scaled[step_id]
    assert np.allclose(combo[: g.n], 0.0, atol=1e-12)
    assert np.allclose(combo[g.n :], [rho.g1, rho.g2], atol=1e-12)


def test_laplace_block_structure():
    # M222 determinant of a (2,2,2)-graph: the Laplace term for one
    # decomposition factors into the two M112 minors, and the full
    # determinant equals the alternating sum over all row splits
    g = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 0)), (0, 0, (0, 1))])
    assert is_222_graph(g)
    dec = decompose_two_11k(g)
    rng = random.Random(3)
    a = {e.id: rng.randrange(1, 997) for e in g.edges}
    b = {e.id: rng.randrange(1, 997) for e in g.edges}
    mat = dense_rows(g, a, b)
    n = g.n
    acols = [2 * n, 2 * n + 2]  # a-side: even vertex cols dropped (n=1)
    bcols = [2 * n + 1, 2 * n + 3]
    # n = 1: drop the only vertex column from each side
    rows = list(range(4))

    def minor(rs, cs):
        return modp_det([[mat[r][c] for c in cs] for r in rs])

    full = modp_det([[mat[r][c] for c in (acols + bcols)] for r in rows])
    # alternating sum over 2-row subsets for the a-side
    total = 0
    for X in itertools.combinations(rows, 2):
        Y = tuple(r for r in rows if r not in X)
        sign = (-1) ** sum(X)  # parity of the row split
        total = (total + sign * minor(X, acols) * minor(Y, bcols)) % PRIME
    assert full in (total, (-total) % PRIME)
    # the decomposition's own term is a product of nonzero (1,1,2) minors
    x = tuple(sorted(dec.part1.ids))
    y = tuple(sorted(dec.part2.ids))
    assert minor(x, acols) != 0 and minor(y, bcols) != 0
    assert full != 0


def test_dump_matrix_format():
    g = G(1, [(0, 0, (1, 2))])
    text = dump_matrix(g, "M112", natural_rows(g, {0: 3}))
    assert text == "mat 1 3 fp\n0 3 6\n"


# ---------------------------------------------------------------------------
# The sparse elimination against the dense Gaussian elimination it replaced,
# and the entry-row builders against the dense builders they replaced.
# ---------------------------------------------------------------------------


def _random_entry(rng):
    kind = rng.random()
    if kind < 0.45:
        return 0
    if kind < 0.65:
        return rng.randint(-3, 3)
    if kind < 0.75:
        return rng.choice((-2, -1, 1, 2, 3)) * PRIME  # a multiple of p: zero
    if kind < 0.85:
        return PRIME + rng.randint(-3, 3)
    return rng.randrange(-3 * PRIME, 3 * PRIME)


def _random_matrix(rng):
    m, n = rng.choice(((0, 0), (0, 3), (3, 0))) if rng.random() < 0.05 else (
        rng.randint(1, 8), rng.randint(1, 8))
    if rng.random() < 0.3:  # square
        n = m
    rows = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        shape = rng.random()
        if shape < 0.1:
            rows[i] = [0] * n
        elif shape < 0.2 and i:
            rows[i] = list(rows[rng.randrange(i)])  # a duplicate
        elif shape < 0.3 and i >= 2:
            a, b = rng.sample(range(i), 2)
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows


def test_sparse_elimination_matches_dense_reduction():
    rng = random.Random(909)
    shapes = set()
    for _ in range(600):
        dense = _random_matrix(rng)
        m, n = len(dense), len(dense[0]) if dense else 0
        shapes.add("tall" if m > n else "wide" if m < n else "square")
        # entry rows name some zero and multiple-of-p entries explicitly
        entries = [{j: x for j, x in enumerate(r) if x or rng.random() < 0.3} for r in dense]
        want_rank = dense_reduce([list(r) for r in dense], n)[0]
        for rows in (entry_rows(dense), entries):
            assert modp_rank(rows) == want_rank
            nulls = modp_null_vectors(rows)
            assert len(nulls) == m - want_rank
            for y in nulls:
                assert len(y) == m and all(0 <= c < PRIME for c in y)
                assert all(sum(c * r[j] for c, r in zip(y, dense)) % PRIME == 0 for j in range(n))
            assert dense_reduce([list(y) for y in nulls], m)[0] == len(nulls)
    assert shapes == {"tall", "wide", "square"}


def _dense_m112_row(n, e, a):
    return tuple(x % PRIME for x in m112_row(n, e, a))


def _dense_m222_row(n, e, a, b):
    return tuple(x % PRIME for x in m222_row(n, e, a, b))


def _looped_graph(rng):
    n = rng.randint(1, 5)
    edges = []
    for _ in range(rng.randint(0, 9)):
        t = rng.randrange(n)
        h = t if rng.random() < 0.35 else rng.randrange(n)
        color = (0, 0) if rng.random() < 0.2 else (rng.randint(-2, 2), rng.randint(-2, 2))
        edges.append((t, h, color))
    return G(n, edges)


def _same_rows(got, want):
    assert got == want
    assert [list(map(repr, r)) for r in got] == [list(map(repr, r)) for r in want]


def test_dense_rows_match_the_dense_builders():
    rng = random.Random(77)
    for _ in range(300):
        g = _looped_graph(rng)
        n = g.n
        a, b = _nonzero_values(g, rng), _nonzero_values(g, rng)
        _same_rows(dense_rows(g, a), tuple(_dense_m112_row(n, e, a[e.id]) for e in g.edges))
        _same_rows(dense_rows(g, a, b), tuple(_dense_m222_row(n, e, a[e.id], b[e.id]) for e in g.edges))
        # repeated points collapse edges to zero displacements
        xy = [(rng.choice((0, -5, 5)), rng.randint(-9, 9)) for _ in range(n + 2)]
        want = tuple(_dense_m222_row(n, e, *_integer_eta(xy, e)) for e in g.edges)
        _same_rows(tuple(_dense(row, 2 * n + 4) for row in _modp_rigidity_rows(g, xy)), want)
        # the P-system mod p, each float perpendicular read as the rational it is
        dirs = DirectionAssignment.sample(g, rng)
        ratios = {e.id: [x.as_integer_ratio() for x in dirs.perp(e.id)] for e in g.edges}
        modp = {x: [a * pow(b, -1, PRIME) for a, b in r] for x, r in ratios.items()}
        want = tuple(_dense_m222_row(n, e, *modp[e.id]) for e in g.edges)
        _same_rows(tuple(_dense(_modp_row(n, e, dirs), 2 * n + 4) for e in g.edges), want)


# ---------------------------------------------------------------------------
# The sparsest-first column order against the index order it replaced.
# ---------------------------------------------------------------------------


def index_order_eliminate(rows, p=PRIME, track=False):
    """The elimination with every row led at its lowest nonzero column:
    (pivot rows by leading column, in insertion order, tracked nulls)."""
    pivots, combos, nulls = {}, {}, []
    for i, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: x % p for j, x in items if x % p}
        combo = {i: 1}
        while row:
            col = min(row)
            if col not in pivots:
                break
            f = row[col]
            linear_rep._subtract(row, f, pivots[col], p)
            if track:
                linear_rep._subtract(combo, f, combos[col], p)
        if row:
            inv = pow(row[col], -1, p)
            pivots[col] = {j: x * inv % p for j, x in row.items()}
            if track:
                combos[col] = {j: x * inv % p for j, x in combo.items()}
        elif track:
            nulls.append(combo)
    return pivots, nulls


def index_order_kernel(rows, width, p=PRIME):
    pivots = index_order_eliminate(rows, p)[0]
    basis = []
    for free in (j for j in range(width) if j not in pivots):
        x = [0] * width
        x[free] = 1
        for col in sorted(pivots, reverse=True):
            x[col] = -sum(v * x[j] for j, v in pivots[col].items()) % p
        basis.append(x)
    return basis


@st.composite
def _permuted_row_sets(draw):
    """Sparse rows with zero, repeated and empty rows, or a square matrix with
    a nonzero diagonal (mostly of full rank), under a column permutation."""
    width = draw(st.integers(0, 9))
    value = st.one_of(st.integers(-3, 3), st.integers(0, PRIME - 1), st.sampled_from((PRIME, -PRIME, 2 * PRIME)))
    cols = st.lists(st.integers(0, max(width - 1, 0)), max_size=min(width, 4), unique=True)
    rows = []
    if draw(st.booleans()):
        for i in range(width):
            rows.append({i: draw(st.integers(1, PRIME - 1)), **{j: draw(value) for j in draw(cols)}})
    for _ in range(0 if rows else draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("sparse", "sparse", "sparse", "repeated", "zero", "empty")))
        if kind == "repeated" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "zero" and width:
            rows.append({draw(st.integers(0, width - 1)): draw(st.sampled_from((0, PRIME)))})
        elif kind == "sparse" and width:
            rows.append({j: draw(value) for j in draw(cols)})
        else:
            rows.append({})
    perm = draw(st.permutations(range(width)))
    return width, [{perm[j]: x for j, x in row.items()} for row in rows]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_permuted_row_sets())
def test_sparsest_first_matches_the_index_order(case):
    width, rows = case
    want_pivots, want_nulls = index_order_eliminate(rows, track=True)
    pivots, nulls, _ = _eliminate(rows, track=True)
    assert modp_rank(rows) == len(pivots) == len(want_pivots)
    assert nulls == want_nulls  # the combination behind a vanishing row is unique
    kernel, want_kernel = modp_kernel(rows, width), index_order_kernel(rows, width)
    assert len(kernel) == len(want_kernel) == modp_rank(entry_rows(kernel)) == modp_rank(entry_rows(kernel + want_kernel))


def test_sparsest_first_halves_the_fill(monkeypatch):
    graph = random_laman_graph(random.Random(3), 128)
    rows = sample_rows(graph, "M222", random.Random(0))
    touched = []
    subtract = linear_rep._subtract

    def spy(row, f, prow, p):
        touched[-1] += len(prow)
        subtract(row, f, prow, p)

    monkeypatch.setattr(linear_rep, "_subtract", spy)
    touched.append(0)
    rank = modp_rank(rows)
    touched.append(0)
    want_rank = len(index_order_eliminate(rows)[0])
    assert rank == want_rank == 2 * graph.n + 1
    assert touched[0] <= touched[1] // 2


# ---------------------------------------------------------------------------
# Combinations built only for the rows that vanish.
# ---------------------------------------------------------------------------


def eager_nulls(rows, p=PRIME):
    """The tracked sparsest-first elimination that updates a combination at
    every reduction step: the combination behind each row that vanishes."""
    rows = [{j: x % p for j, x in row.items() if x % p} for row in rows]
    count = Counter(itertools.chain.from_iterable(rows))
    place = {j: k for k, j in enumerate(sorted(sorted(count), key=count.__getitem__))}
    pivots, combos, nulls = {}, {}, []
    for i, row in enumerate(rows):
        row = {place[j]: x for j, x in row.items()}
        combo = {i: 1}
        while row:
            col = min(row)
            if col not in pivots:
                break
            f = row[col]
            linear_rep._subtract(row, f, pivots[col], p)
            linear_rep._subtract(combo, f, combos[col], p)
        if row:
            inv = pow(row[col], -1, p)
            pivots[col] = {j: x * inv % p for j, x in row.items()}
            combos[col] = {j: x * inv % p for j, x in combo.items()}
        else:
            nulls.append(combo)
    return nulls


def test_lazy_combinations_match_the_eager_update():
    rng = random.Random(26)
    graphs = [random_graph(rng, n=n, m=6 * n) for n in range(3, 13) for _ in range(3)]  # most rows vanish
    strip = triangle_strip(random.Random(5), 40)
    edges = [(e.tail, e.head, tuple(e.color)) for e in strip.edges]
    graphs.append(ColoredGraph.build(strip.n, edges + [(0, strip.n - 1, (1, 2))]))
    # a parallel edge of one color repeats a row, a (0, 0) loop is a zero row
    repeats = ColoredGraph.build(4, [(0, 1, (1, 0)), (2, 2, (0, 0)), (1, 2, (0, 1)), (3, 3, (0, 0)), (2, 3, (1, 1))] * 2)
    samples = [sample_rows(g, "M232", rng) for g in graphs + [repeats]] + [sample_rows(repeats, "M222", rng)]
    vanished = []
    for rows in samples:
        nulls = _eliminate(rows, track=True)[1]
        assert nulls == eager_nulls(rows)
        vanished.append(len(nulls))
        assert len(nulls) == len(rows) - modp_rank(rows)
    # rows vanish in every dense sample, once in the strip plus one edge, at
    # the repeats and zero rows of M232 and at the four zero rows of M222
    assert min(vanished[:30]) > 0 and vanished[30:] == [1, 7, 4], vanished


def test_a_full_rank_sample_builds_no_combination(monkeypatch):
    rows = sample_rows(random_laman_graph(random.Random(26), 32), "M232", random.Random(0))
    calls = []
    subtract = linear_rep._subtract

    def spy(row, f, prow, p):
        calls[-1] += 1
        subtract(row, f, prow, p)

    monkeypatch.setattr(linear_rep, "_subtract", spy)
    for track in (False, True):
        calls.append(0)
        pivots, nulls, _ = _eliminate(rows, track=track)
        assert len(pivots) == len(rows) == 65 and nulls == []
    assert calls[0] == calls[1] > 0, calls
