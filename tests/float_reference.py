"""Floating-point linear algebra the tests compare the exact routes against.

perigid decides every rank over F_p and draws its faithful realization from
an exact integer point; none of it takes an SVD.  These are the float
references the acceptance criteria and the cross-checks measure it by:
dense float rows in the three filling patterns, an SVD rank and kernel, and
the realization space of a direction network, with the flat vector and the
size of a realization and its collapsed edges, as the float types here.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from perigid.colored_graph import ColoredGraph
from perigid.direction_network import DirectionAssignment, drawing
from perigid.errors import DomainError, StructuralError

FLOAT_TOL = 1e-9
SOLVE_TOL = 1e-9
COLLAPSE_TOL = 1e-6  # relative; deliberately looser than the solve tolerance


class Realization:
    """Points p_i plus the rows of a 2x2 lattice matrix L, as tuples of floats."""

    def __init__(self, p, L):
        self.p = tuple((float(x), float(y)) for x, y in p)
        self.L = tuple((float(x), float(y)) for x, y in L)

    def eta(self, tail: int, head: int, color) -> tuple[float, float]:
        """Displacement p_head + L*color - p_tail."""
        (a, b), (c, d), (g1, g2) = *self.L, color
        (xh, yh), (xt, yt) = self.p[head], self.p[tail]
        return xh + (a * g1 + b * g2) - xt, yh + (c * g1 + d * g2) - yt


EdgeStatus = namedtuple("EdgeStatus", "edge_id eta alpha collapsed")


def drawn(graph: ColoredGraph, witness) -> tuple[Realization, DirectionAssignment]:
    """A witness as the library draws it, and the directions of its edges."""
    points, lattice, etas = drawing(graph, witness)
    return Realization(points, lattice), DirectionAssignment({e.id: eta for e, eta in zip(graph.edges, etas)})


@dataclass(frozen=True)
class FloatMatrix:
    """Dense float rows, one per edge, in one of the filling patterns."""

    rows: tuple[tuple, ...]
    ncols: int

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=float).reshape(len(self.rows), self.ncols)


def kernel_float(matrix, tolerance: float = FLOAT_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank and orthonormal kernel basis (columns) of a real matrix.

    Singular values below tolerance * (largest singular value) count as zero.
    """
    if not 0 < tolerance < 1:  # also refuses NaN
        raise DomainError(f"tolerance must lie in (0, 1), got {tolerance}")
    a = matrix.to_numpy() if isinstance(matrix, FloatMatrix) else np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise StructuralError("kernel_float needs a 2d matrix")
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0, np.eye(cols)
    _, svals, vt = np.linalg.svd(a)
    rank = int(np.sum(svals > tolerance * svals[0]))
    return rank, vt[rank:].T


def float_assignment(graph: ColoredGraph, pairs: bool, rng: random.Random):
    """One (or a pair of) nonzero float(s) per edge: a sign times U(0.25, 1.25)."""

    def draw():
        return rng.choice((-1, 1)) * rng.uniform(0.25, 1.25)

    a = {e.id: draw() for e in graph.edges}
    b = {e.id: draw() for e in graph.edges} if pairs else None
    return a, b


def m112_row(n: int, e, a: float) -> tuple:
    row = [0] * (n + 2)
    row[e.tail] -= a
    row[e.head] += a
    row[n] += e.color.g1 * a
    row[n + 1] += e.color.g2 * a
    return tuple(row)


def m222_row(n: int, e, a: float, b: float) -> tuple:
    row = [0] * (2 * n + 4)
    row[2 * e.tail] -= a
    row[2 * e.tail + 1] -= b
    row[2 * e.head] += a
    row[2 * e.head + 1] += b
    row[2 * n] += e.color.g1 * a
    row[2 * n + 1] += e.color.g1 * b
    row[2 * n + 2] += e.color.g2 * a
    row[2 * n + 3] += e.color.g2 * b
    return tuple(row)


def m112_matrix(graph: ColoredGraph, a) -> FloatMatrix:
    return FloatMatrix(tuple(m112_row(graph.n, e, a[e.id]) for e in graph.edges), graph.n + 2)


def m222_matrix(graph: ColoredGraph, a, b) -> FloatMatrix:
    return FloatMatrix(tuple(m222_row(graph.n, e, a[e.id], b[e.id]) for e in graph.edges), 2 * graph.n + 4)


def build_P_system(graph: ColoredGraph, directions: DirectionAssignment) -> FloatMatrix:
    """The realization system: the M222 pattern at (a, b) = perp(d), one row per edge."""
    perp = {e.id: directions.perp(e.id) for e in graph.edges}
    return m222_matrix(graph, {x: a for x, (a, _) in perp.items()}, {x: b for x, (_, b) in perp.items()})


def rigidity_matrix(graph: ColoredGraph, realization: Realization) -> FloatMatrix:
    """The M222 pattern with each edge's displacement eta substituted for (a, b)."""
    etas = {e.id: realization.eta(e.tail, e.head, tuple(e.color)) for e in graph.edges}
    return m222_matrix(graph, {x: float(v[0]) for x, v in etas.items()}, {x: float(v[1]) for x, v in etas.items()})


def float_realization(graph: ColoredGraph, rng: random.Random) -> Realization:
    """Points, then lattice rows, drawn uniformly from [-1, 1]."""
    return Realization(
        np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(graph.n)]),
        np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]),
    )


def to_flat(real: Realization) -> tuple[float, ...]:
    """x_1, y_1, ..., x_n, y_n, then the first lattice column and the second:
    the layout of the P-system's columns."""
    (a, b), (c, d) = real.L
    return (*(v for xy in real.p for v in xy), a, c, b, d)


def scale(real: Realization) -> float:
    """Size reference for relative thresholds: point spread and lattice norm."""
    x0, y0 = real.p[0] if real.p else (0.0, 0.0)
    spread = max((math.hypot(x - x0, y - y0) for x, y in real.p), default=0.0)
    return max(spread, math.hypot(*real.L[0], *real.L[1]))


def float_rigidity_rank(graph: ColoredGraph, trials: int = 3, seed: int = 0) -> int:
    """Rigidity rank maximized over trials float realizations; every trial is drawn."""
    rng = random.Random(seed)
    return max(kernel_float(rigidity_matrix(graph, float_realization(graph, rng)))[0] for _ in range(trials))


def realization_kernel(graph: ColoredGraph, directions: DirectionAssignment) -> tuple[int, list[Realization]]:
    """Dimension and orthonormal basis of the realization space."""
    rank, basis = kernel_float(build_P_system(graph, directions), SOLVE_TOL)
    dim = 2 * graph.n + 4 - rank
    assert basis.shape[1] == dim
    n = graph.n
    return dim, [Realization(zip(v[:2 * n:2], v[1:2 * n:2]), (v[2 * n::2], v[2 * n + 1::2])) for v in basis.T]


def edge_status(
    graph: ColoredGraph,
    directions: DirectionAssignment,
    realization: Realization,
    tolerance: float = COLLAPSE_TOL,
) -> list[EdgeStatus]:
    """Per-edge displacement, stretch along the direction, and collapse flag.

    An edge is collapsed when its displacement is below tolerance relative to
    the realization's size: the point spread plus lattice norm, floored at a
    small fraction of the flat vector's norm so that numerically pure
    translations (whose spread is roundoff) still read as fully collapsed.
    """
    flat_norm = float(np.linalg.norm(to_flat(realization)))
    threshold = tolerance * max(scale(realization), 1e-8 * flat_norm)
    out = []
    for e in graph.edges:
        eta = realization.eta(e.tail, e.head, tuple(e.color))
        collapsed = float(np.linalg.norm(eta)) <= threshold
        alpha = 0.0
        if not collapsed:
            dx, dy = directions.d[e.id]
            alpha = float(eta[0] * dx + eta[1] * dy)
        out.append(EdgeStatus(e.id, (float(eta[0]), float(eta[1])), alpha, collapsed))
    return out
