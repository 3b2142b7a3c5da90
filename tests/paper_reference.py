"""Exact references for the lemmas of the paper that no decision route needs.

perigid decides rigidity by counts, by an F_p rank and by a direction
network; none of these reads a closed walk, a determinant or a collapsed
realization.  The tests check the paper's lemmas behind those routes with
the helpers here:

* closed walks, their cycle images and the fundamental cycles of a gain
  forest, whose images generate the image subgroup;
* the count function f, f-independence and the (2,2,k)-graphs;
* the three shapes of a (1,1,2)-graph;
* the designated minors of M112 and their closed forms, exactly over F_p
  (`dense_reduce`, the one exact determinant of the tests) and as floats;
* the collapsed realizations, in which every edge displacement vanishes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from perigid.colored_graph import ColoredGraph, ColorVector, EdgeSubset, GainScan, image_rank, scan_subset, z2_rank
from perigid.errors import DomainError, StructuralError
from perigid.linear_rep import PRIME, _dense, _nonzero_values, natural_rows
from perigid.sparsity import count_report, is_11k, is_222_sparse

from float_reference import Realization, m112_matrix

# ---------------------------------------------------------------------------
# Closed walks and cycle images.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedWalk:
    """Closed walk given as (edge id, forward?) steps; consecutive steps chain."""

    graph: ColoredGraph
    steps: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        if not self.steps:
            raise StructuralError("closed walk needs at least one step")
        cur = start = self.start_vertex()
        for eid, forward in self.steps:
            e = self.graph.edge(eid)
            a, b = (e.tail, e.head) if forward else (e.head, e.tail)
            if a != cur:
                raise StructuralError(f"walk breaks at edge {eid}: expected to leave {cur}, edge leaves {a}")
            cur = b
        if cur != start:
            raise StructuralError("walk does not return to its start vertex")

    def start_vertex(self) -> int:
        eid, forward = self.steps[0]
        e = self.graph.edge(eid)
        return e.tail if forward else e.head


def rho_of_walk(walk: ClosedWalk) -> ColorVector:
    """Signed color sum over a closed walk: forward edges +, backward edges -."""
    g1 = g2 = 0
    for eid, forward in walk.steps:
        c, s = walk.graph.edge(eid).color, 1 if forward else -1
        g1, g2 = g1 + s * c.g1, g2 + s * c.g2
    return ColorVector(g1, g2)


def fundamental_cycles(subset: EdgeSubset) -> list[tuple[int, ClosedWalk]]:
    """One closed walk per non-tree edge of the subset's breadth-first gain forest.

    The walk traverses the extra edge forward, climbs from its head to where
    the two root paths meet and descends to its tail.  Another forest gives
    other walks, but their images generate the same subgroup of Z^2.
    """
    graph, scan = subset.graph, scan_subset(subset)
    up = scan.up

    def path_to_root(v: int) -> list[tuple[int, bool]]:
        """The steps from v up to its root: (tree edge, forward?)."""
        out = []
        while v in up:
            u, y, _, _ = up[v]
            out.append((y, graph.edge(y).tail == v))
            v = u
        return out

    cycles = []
    for eid in scan.extras:
        e = graph.edge(eid)
        up_h, up_t = path_to_root(e.head), path_to_root(e.tail)
        while up_h and up_t and up_h[-1] == up_t[-1]:
            up_h.pop()
            up_t.pop()
        # head up to the meeting point, then down to the tail against each step
        steps = [(eid, True), *up_h, *((y, not fwd) for y, fwd in reversed(up_t))]
        cycles.append((eid, ClosedWalk(graph, tuple(steps))))
    return cycles


# ---------------------------------------------------------------------------
# Counts.
# ---------------------------------------------------------------------------


def f_value(subset: EdgeSubset) -> int:
    """Matroid rank bound n' + rk' - c' of an edge subset."""
    return count_report(subset).f


def is_f_independent(subset: EdgeSubset) -> bool:
    """f has unit increments, so f(E') = |E'| decides independence."""
    return f_value(subset) == len(subset)


def is_222_graph(graph: ColoredGraph) -> bool:
    """(2,2,k)-graph: (2,2,.)-sparse with the full count m = 2n - 2 + 2k."""
    return graph.m == 2 * graph.n - 2 + 2 * z2_rank(EdgeSubset.full(graph)) and is_222_sparse(graph)


# ---------------------------------------------------------------------------
# The shapes of a (1,1,2)-graph.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape11kReport:
    """Shape of a (1,1,2)-graph after leaf stripping: 1 two cycles sharing a
    vertex, 2 two cycles joined by a path, 3 three paths between two vertices."""

    shape: int
    core_edges: frozenset[int]
    cycle1: ClosedWalk
    cycle2: ClosedWalk


def classify_11k_shape(subset: EdgeSubset) -> Shape11kReport:
    """The shape of a (1,1,2)-graph from its two fundamental cycles, each a
    simple cycle of the 2-core: sharing an edge makes a theta (a spanning tree
    misses one edge on two of its three paths, and both cycles hold the
    third), sharing only a vertex a figure eight, and neither a dumbbell.
    """
    ok, k = is_11k(subset)
    if not ok or k != 2:
        raise DomainError("classify_11k_shape needs a (1,1,2)-graph")
    graph = subset.graph

    # leaf removal down to the 2-core, from a worklist of degree-1 vertices
    ids = set(subset.ids)
    incident: dict[int, list[int]] = {}
    for eid in ids:
        e = graph.edge(eid)
        incident.setdefault(e.tail, []).append(eid)
        incident.setdefault(e.head, []).append(eid)
    deg = {v: len(eids) for v, eids in incident.items()}  # a loop counts twice
    leaves = [v for v, d in deg.items() if d == 1]
    while leaves:
        v = leaves.pop()
        if deg[v] == 1:  # so v's one edge left is not a loop
            e = graph.edge(next(eid for eid in incident[v] if eid in ids))
            ids.discard(e.id)
            deg[e.tail] -= 1
            deg[e.head] -= 1
            leaves += (e.tail, e.head)

    (_, c1), (_, c2) = fundamental_cycles(subset)
    edges1, edges2 = ({eid for eid, _ in c.steps} for c in (c1, c2))
    ends1, ends2 = ({v for y in es for v in (graph.edge(y).tail, graph.edge(y).head)} for es in (edges1, edges2))
    shape = 3 if edges1 & edges2 else 1 if ends1 & ends2 else 2
    # deg now holds each vertex's core degree, loops counted twice
    assert sum(d >= 3 for d in deg.values()) == (1 if shape == 1 else 2), "the 2-core lost its shape"
    return Shape11kReport(shape, frozenset(ids), c1, c2)


# ---------------------------------------------------------------------------
# The designated M112 minors and their closed-form determinants.
# ---------------------------------------------------------------------------


def dense_reduce(mat, ncols, p=PRIME):
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


def modp_det(rows) -> int:
    """Determinant over F_p of a square matrix of dense rows."""
    rank, det = dense_reduce([list(r) for r in rows], len(rows))
    return det if rank == len(rows) else 0


def designated_minors(graph: ColoredGraph) -> tuple[bool, list[tuple[list[int], int]]]:
    """Whether the graph is (1,1,k), and its designated M112 minors as
    (kept columns, closed-form factor) pairs.

    With m = n - 1 + k and k the cycle-image rank, the minor that drops
    vertex column 0 (any vertex column works; fixed for determinism) and
    2 - k lattice columns has determinant +-(factor) * product(a_e): the
    factor is 1 for a tree, the kept component of the one cycle image for
    k = 1, and the 2x2 determinant of the two cycle images for k = 2.  A
    graph that is not (1,1,k) has identically zero minors, factor 0.
    """
    subset = EdgeSubset.full(graph)
    ok, k = is_11k(subset)
    n = graph.n
    if graph.m != n - 1 + k:
        raise DomainError(f"need m = n - 1 + k, got n={n} m={graph.m} k={k}")
    images = [rho_of_walk(w) for _, w in fundamental_cycles(subset)] if ok else []
    (a1, a2), (b1, b2) = (*images, (0, 0), (0, 0))[:2]
    minors = ([((n, n + 1), 1)], [((n + 1,), a1), ((n,), a2)], [((), a1 * b2 - a2 * b1)])[k]
    return ok, [([c for c in range(n + 2) if c not in (0, *dropped)], factor if ok else 0) for dropped, factor in minors]


def exact_determinant_checks(graph: ColoredGraph, a: dict[int, int] | None = None) -> tuple[bool, bool]:
    """Whether the graph is (1,1,k), and whether every designated minor of the
    M112 rows of the values a is +-(factor) * product(a_e) over F_p; off
    (1,1,k) every factor is 0, so True there means every minor vanishes.  By
    default a holds one nonzero value per edge drawn from Random(0)."""
    a = _nonzero_values(graph, random.Random(0)) if a is None else a
    instance, minors = designated_minors(graph)
    rows = [_dense(row, graph.n + 2) for row in natural_rows(graph, a)]
    prod_a = math.prod(a[e.id] for e in graph.edges)
    dets = ((modp_det([[r[c] for c in cols] for r in rows]), factor * prod_a % PRIME) for cols, factor in minors)
    return instance, all(det in (formula, -formula % PRIME) for det, formula in dets)


def float_determinant_checks(graph: ColoredGraph, a) -> bool:
    """The designated M112 minors at float a against their closed forms, to 1e-10."""
    mat = m112_matrix(graph, a).to_numpy()
    prod_a = math.prod(a[e.id] for e in graph.edges)
    for cols, factor in designated_minors(graph)[1]:
        det = float(np.linalg.det(mat[:, cols]))
        formula = factor * prod_a
        if min(abs(det - formula), abs(det + formula)) > 1e-10 * max(abs(prod_a) * max(1, abs(factor)), 1e-30):
            return False
    return True


# ---------------------------------------------------------------------------
# Collapsed realizations.
# ---------------------------------------------------------------------------


def _lattice_kernel_basis(images) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Basis of the 2x2 matrices (by rows) annihilating every cycle image.

    Rows of such a matrix are orthogonal to the image span, so the space has
    dimension 4 - 2k: four free entries for k = 0, two multiples of the
    perpendicular direction per row for k = 1, only the zero matrix for k = 2.
    """
    k = image_rank(images)
    if k == 2:
        return []
    if k == 1:
        g1, g2 = next(v for v in images if any(v))
        return [((-g2, g1), (0, 0)), ((0, 0), (-g2, g1))]
    return [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]


def _collapsed(graph: ColoredGraph, scan: GainScan, lattice, anchors=None) -> Realization:
    """Each vertex at its component's anchor minus L times its forest potential."""
    components = sorted(scan.trees.values(), key=min)
    anchor = {v: anchors[i] if anchors else (0.0, 0.0) for i, tree in enumerate(components) for v in tree}
    (a, b), (c, d) = lattice
    points = []
    for v in range(graph.n):
        (x, y), (_, s1, s2) = anchor[v], scan.root[v]
        points.append((x - (a * s1 + b * s2), y - (c * s1 + d * s2)))
    return Realization(points, lattice)


def collapsed_realization(graph: ColoredGraph, anchors=None) -> Realization:
    """A realization in which every edge displacement vanishes: L is the
    identity at image rank 0, a canonical rank-one matrix at rank 1 and zero
    at rank 2; anchors, one per component by least vertex, default to 0."""
    scan = scan_subset(EdgeSubset.full(graph), range(graph.n))
    basis = _lattice_kernel_basis(scan.images)
    lattice = ((1, 0), (0, 1)) if len(basis) == 4 else basis[0] if basis else ((0, 0), (0, 0))
    return _collapsed(graph, scan, lattice, anchors)


def collapsed_space_basis(graph: ColoredGraph) -> list[Realization]:
    """Spanning set of the collapsed realizations, 4 - 2k + 2c dimensions: one
    generator per lattice-kernel matrix and two translations per component."""
    scan = scan_subset(EdgeSubset.full(graph), range(graph.n))
    out = [_collapsed(graph, scan, w) for w in _lattice_kernel_basis(scan.images)]
    for tree in map(set, scan.trees.values()):
        for unit in ((1.0, 0.0), (0.0, 1.0)):
            out.append(Realization([unit if v in tree else (0.0, 0.0) for v in range(graph.n)], ((0, 0), (0, 0))))
    return out
