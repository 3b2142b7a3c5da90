"""Representation matrices: filling patterns, ranks, determinant formulas."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from perigid.colored_graph import ColoredGraph, EdgeSubset, fundamental_cycles, rho_of_walk
from perigid.direction_network import DirectionAssignment, build_P_system
from perigid.errors import DomainError, StructuralError
from perigid.linear_rep import (
    PRIME,
    GenericAssignment,
    Realization,
    build_natural_matrix,
    dump_matrix,
    _eliminate,
    kernel_float,
    modp_det,
    modp_kernel,
    modp_rank,
    rank_mod_p,
    sample_assignment,
    verify_determinant_formulas,
)
from perigid.rigidity import rigidity_matrix
from perigid.sparsity import decompose_two_11k, f_value, is_222_graph, is_222_sparse

from randgen import random_11k, random_graph, random_non_11k

G = ColoredGraph.build
LAMAN1 = G(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1))])


def test_m112_rows():
    loop = G(1, [(0, 0, (1, 0))])
    asn = GenericAssignment({0: 9}, None, "fp")
    assert build_natural_matrix(loop, "M112", asn).rows[0] == (0, 9, 0)
    tree = G(2, [(0, 1, (0, 0))])
    row = build_natural_matrix(tree, "M112", GenericAssignment({0: 4}, None, "fp")).rows[0]
    assert row == ((-4) % PRIME, 4, 0, 0)


def test_m222_row():
    g = G(2, [(0, 1, (2, 3))])
    asn = GenericAssignment({0: 5}, {0: 7}, "fp")
    row = build_natural_matrix(g, "M222", asn).rows[0]
    assert row == ((-5) % PRIME, (-7) % PRIME, 5, 7, 10, 14, 15, 21)


def test_build_matrix_missing_assignment():
    g = G(1, [(0, 0, (1, 0))])
    with pytest.raises(StructuralError):
        build_natural_matrix(g, "M112", GenericAssignment({}, None, "fp"))
    with pytest.raises(StructuralError):
        build_natural_matrix(g, "M222", GenericAssignment({0: 1}, None, "fp"))


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


def modp_null_vectors(rows):
    """A basis of the left null space: y with sum(y[i] * rows[i]) = 0 mod p.

    One vector per row that the elimination reduces to zero: the
    combination of input rows that produced it, with a 1 at that row.
    """
    nulls = _eliminate(rows, PRIME, track=True)[2]
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
        assert modp_rank(basis) == len(basis)
    assert kinds == {"repeated", "zero", "empty", "rows"}


def test_modp_elimination_null_vectors_and_det():
    rng = random.Random(13)
    for _ in range(400):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if m >= 3:  # force a dependency among later rows
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        nulls = modp_null_vectors(rows)
        assert len(nulls) == m - modp_rank(rows)
        for vec in nulls:
            assert all(sum(y * r[j] for y, r in zip(vec, rows)) % PRIME == 0 for j in range(n))
        assert modp_rank(nulls) == len(nulls)
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
    asn = sample_assignment(LAMAN1, pairs=True, mode="float", seed=8)
    rank, kernel = kernel_float(build_natural_matrix(LAMAN1, "M222", asn))
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
        ints = sample_assignment(g, pairs=True, mode="fp", seed=rng.randrange(1 << 30))
        small = GenericAssignment(
            {k: (v % 1000) + 1 for k, v in ints.a.items()},
            {k: (v % 1000) + 1 for k, v in ints.b.items()},
            "fp",
        )
        floats = GenericAssignment(
            {k: float(v) for k, v in small.a.items()},
            {k: float(v) for k, v in small.b.items()},
            "float",
        )
        exact = modp_rank(build_natural_matrix(g, "M222", small).rows)
        approx, _ = kernel_float(build_natural_matrix(g, "M222", floats))
        assert exact >= approx
        assert exact == approx  # equality on these well-conditioned samples


def test_det_formula_tree():
    path3 = G(3, [(0, 1, (0, 0)), (1, 2, (0, 0))])
    rep = verify_determinant_formulas(path3)
    assert rep.instance and rep.all_ok


def test_det_formula_one_loop():
    rep = verify_determinant_formulas(G(1, [(0, 0, (5, 7))]))
    assert rep.instance and rep.all_ok and len(rep.checks) == 2


def test_det_formula_two_loops():
    rep = verify_determinant_formulas(G(1, [(0, 0, (1, 0)), (0, 0, (0, 1))]))
    assert rep.instance and rep.all_ok


def test_det_formula_random_instances_and_non_instances():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(0, 2)
        g = random_11k(rng, n, k)
        for mode in ("fp", "float"):
            asn = sample_assignment(g, pairs=False, mode=mode, seed=rng.randrange(1 << 30))
            rep = verify_determinant_formulas(g, assignment=asn)
            assert rep.instance and rep.all_ok, (g, mode)
        bad = random_non_11k(rng, n, k)
        rep = verify_determinant_formulas(bad)
        assert not rep.instance and rep.all_ok
        assert all(c.determinant == 0 for c in rep.checks)


def test_det_formula_wrong_size_rejected():
    with pytest.raises(DomainError):
        verify_determinant_formulas(LAMAN1)  # m = n + 2 does not fit any case


def test_cycle_elimination():
    # scaling rows by 1/a and summing signed rows around a cycle leaves
    # (0 .. 0 | rho) in the chosen cycle edge's row
    g = G(3, [(0, 1, (1, 0)), (1, 2, (0, 1)), (2, 0, (3, 4))])
    asn = sample_assignment(g, pairs=False, mode="float", seed=5)
    mat = build_natural_matrix(g, "M112", asn).to_numpy()
    scaled = mat / np.array([[asn.a[e.id]] for e in g.edges])
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
    mat = build_natural_matrix(g, "M222", GenericAssignment(a, b, "fp")).rows
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
    asn = GenericAssignment({0: 3}, None, "fp")
    text = dump_matrix(build_natural_matrix(G(1, [(0, 0, (1, 2))]), "M112", asn))
    assert text == "mat 1 3 fp\n0 3 6\n"


# ---------------------------------------------------------------------------
# The sparse elimination against the dense Gaussian elimination it replaced,
# and the entry-row builders against the dense builders they replaced.
# ---------------------------------------------------------------------------


def _dense_reduce(mat, ncols, p=PRIME):
    """Row-reduce mat over F_p in place on its first ncols columns; (rank, det)."""
    width = len(mat[0]) if mat else 0
    rank, det = 0, 1
    for col in range(ncols):
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        if piv != rank:
            det = -det
            mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        det = det * prow[col] % p
        inv = pow(prow[col], p - 2, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] * inv % p
            if f:
                row = mat[i]
                for j in range(col, width):
                    row[j] = (row[j] - f * prow[j]) % p
        rank += 1
    return rank, det


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
    if rng.random() < 0.3:  # square, for the determinant
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
        want_rank, want_det = _dense_reduce([list(r) for r in dense], n)
        for rows in (dense, entries):
            assert modp_rank(rows) == want_rank
            nulls = modp_null_vectors(rows)
            assert len(nulls) == m - want_rank
            for y in nulls:
                assert len(y) == m and all(0 <= c < PRIME for c in y)
                assert all(sum(c * r[j] for c, r in zip(y, dense)) % PRIME == 0 for j in range(n))
            assert _dense_reduce([list(y) for y in nulls], m)[0] == len(nulls)
        if m == n:
            assert modp_det(dense) == (want_det if want_rank == m else 0)
    assert shapes == {"tall", "wide", "square"}


def _dense_m112_row(n, e, a, mode):
    row = [0] * (n + 2)
    row[e.tail] -= a
    row[e.head] += a
    row[n] += e.color.g1 * a
    row[n + 1] += e.color.g2 * a
    if mode == "fp":
        row = [x % PRIME for x in row]
    return tuple(row)


def _dense_m222_row(n, e, a, b, mode):
    row = [0] * (2 * n + 4)
    row[2 * e.tail] -= a
    row[2 * e.tail + 1] -= b
    row[2 * e.head] += a
    row[2 * e.head + 1] += b
    row[2 * n] += e.color.g1 * a
    row[2 * n + 1] += e.color.g1 * b
    row[2 * n + 2] += e.color.g2 * a
    row[2 * n + 3] += e.color.g2 * b
    if mode == "fp":
        row = [x % PRIME for x in row]
    return tuple(row)


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
        for mode in ("fp", "float"):
            asn = sample_assignment(g, pairs=True, mode=mode, rng=rng)
            _same_rows(
                build_natural_matrix(g, "M112", asn).rows,
                tuple(_dense_m112_row(n, e, asn.a[e.id], mode) for e in g.edges),
            )
            _same_rows(
                build_natural_matrix(g, "M222", asn).rows,
                tuple(_dense_m222_row(n, e, asn.a[e.id], asn.b[e.id], mode) for e in g.edges),
            )
        # repeated points collapse edges to zero displacements, and -0.0 terms
        pts = [[rng.choice((0.0, -0.5, 0.5)), rng.uniform(-1, 1)] for _ in range(n)]
        lattice = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
        real = Realization(np.array(pts), np.array(lattice))
        want = []
        for e in g.edges:
            ax, bx = real.eta(e.tail, e.head, tuple(e.color))
            want.append(_dense_m222_row(n, e, float(ax), float(bx), "float"))
        _same_rows(rigidity_matrix(g, real).rows, tuple(want))
        dirs = DirectionAssignment.sample(g, rng)
        want = tuple(_dense_m222_row(n, e, *dirs.perp(e.id), "float") for e in g.edges)
        _same_rows(build_P_system(g, dirs).rows, want)
