"""Direction networks on colored graphs and their realizations.

A direction network prescribes a unit direction per edge; a realization is a
point per vertex plus a 2x2 lattice matrix L such that every edge displacement
eta_ij = p_j + L*color_ij - p_i is parallel to its prescribed direction.  The
constraints <eta_ij, perp(d_ij)> = 0 form a linear system whose matrix is the
M222 pattern with (a, b) = perp(d); its kernel is the realization space.

Edges with eta = 0 are collapsed.  For a colored-Laman graph and generic
directions the kernel is 3-dimensional (translations plus one scaling class)
and contains, up to translation and scale, a unique realization with no
collapsed edge; this module samples directions, decides them over F_p, and
draws that realization in floating point, in a normalized form.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .colored_graph import ColoredGraph, EdgeSubset, GainScan, image_rank, scan_subset
from .errors import (
    DomainError,
    GenericitySamplingError,
    InternalConsistencyError,
    StructuralError,
)
from .linear_rep import PRIME, NaturalMatrix, Realization, _m222_row, _modp_rigidity_rows
from .linear_rep import kernel_float, modp_kernel
from .sparsity import is_colored_laman

COLLAPSE_TOL = 1e-6  # relative; deliberately looser than the solve tolerance
SOLVE_TOL = 1e-9
DEFAULT_RETRY_CAP = 16


@dataclass(frozen=True)
class DirectionAssignment:
    """Unit direction per edge id; directions are projectively meaningful."""

    d: dict[int, tuple[float, float]]

    def __post_init__(self):
        normed = {}
        for eid, (dx, dy) in self.d.items():
            norm = math.hypot(dx, dy)
            if norm == 0.0:
                raise DomainError(f"edge {eid}: zero direction vector")
            normed[eid] = (dx / norm, dy / norm)
        object.__setattr__(self, "d", normed)

    def direction(self, eid: int) -> tuple[float, float]:
        return self.d[eid]

    def perp(self, eid: int) -> tuple[float, float]:
        dx, dy = self.d[eid]
        return (-dy, dx)

    @classmethod
    def sample(cls, graph: ColoredGraph, rng: random.Random) -> "DirectionAssignment":
        """Independent uniform angles, one per edge, in graph edge order."""
        return cls(
            {
                e.id: (math.cos(t), math.sin(t))
                for e in graph.edges
                for t in (rng.uniform(0.0, 2.0 * math.pi),)
            }
        )


def build_P_system(graph: ColoredGraph, directions: DirectionAssignment) -> NaturalMatrix:
    """Constraint matrix of the realization system, one row per edge.

    Exactly the M222 filling pattern evaluated at (a, b) = perp(d); the
    unknown vector is the flattened realization (points, then L columns).
    """
    rows = []
    for e in graph.edges:
        if e.id not in directions.d:
            raise StructuralError(f"direction missing for edge {e.id}")
        rows.append(_m222_row(graph.n, e, *directions.perp(e.id), "float"))
    return NaturalMatrix("M222", "float", graph.n, tuple(rows))


def realization_kernel(
    graph: ColoredGraph, directions: DirectionAssignment
) -> tuple[int, list[Realization]]:
    """Dimension and orthonormal basis of the realization space."""
    rank, basis = kernel_float(build_P_system(graph, directions), SOLVE_TOL)
    dim = 2 * graph.n + 4 - rank
    assert basis.shape[1] == dim
    return dim, [Realization.from_flat(basis[:, j], graph.n) for j in range(dim)]


@dataclass(frozen=True)
class EdgeStatus:
    edge_id: int
    eta: tuple[float, float]
    alpha: float
    collapsed: bool


def edge_status(
    graph: ColoredGraph,
    directions: DirectionAssignment,
    realization: Realization,
    tolerance: float = COLLAPSE_TOL,
) -> list[EdgeStatus]:
    """Per-edge displacement, stretch along the direction, and collapse flag.

    An edge is collapsed when its displacement is below tolerance relative to
    the realization's size.  The size reference is the point spread plus
    lattice norm, floored at a small fraction of the flat vector's norm so
    that numerically-pure translations (whose spread is roundoff) are still
    read as fully collapsed.
    """
    flat_norm = float(np.linalg.norm(realization.to_flat()))
    threshold = tolerance * max(realization.scale(), 1e-8 * flat_norm)
    out = []
    for e in graph.edges:
        eta = realization.eta(e.tail, e.head, tuple(e.color))
        norm = float(np.linalg.norm(eta))
        collapsed = norm <= threshold
        alpha = 0.0
        if not collapsed:
            dx, dy = directions.direction(e.id)
            alpha = float(eta[0] * dx + eta[1] * dy)
        out.append(EdgeStatus(e.id, (float(eta[0]), float(eta[1])), alpha, collapsed))
    return out


# ---------------------------------------------------------------------------
# Collapsed realizations.
# ---------------------------------------------------------------------------


def _lattice_kernel_basis(images: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """Basis of the 2x2 matrices annihilating every cycle image.

    Rows of such a matrix are orthogonal to the image span, so the space has
    dimension 4 - 2k: four free entries for k = 0, two multiples of the
    perpendicular direction per row for k = 1, only the zero matrix for k = 2.
    """
    k = image_rank(images)
    if k == 0:
        return [
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 1.0]]),
        ]
    if k == 1:
        g1, g2 = next(v for v in images if any(v))
        perp = np.array([-g2, g1], dtype=float)
        return [np.vstack([perp, [0.0, 0.0]]), np.vstack([[0.0, 0.0], perp])]
    return []


def _canonical_collapsed_lattice(images: Sequence[tuple[int, int]]) -> np.ndarray:
    k = image_rank(images)
    if k == 0:
        return np.eye(2)
    if k == 2:
        return np.zeros((2, 2))
    g1, g2 = next(v for v in images if any(v))
    return np.vstack([[-float(g2), float(g1)], [0.0, 0.0]])


def _collapsed_points(
    graph: ColoredGraph,
    scan: GainScan,
    lattice: np.ndarray,
    anchors: Mapping[int, Sequence[float]],
) -> np.ndarray:
    cmap = scan.component_map()
    p = np.zeros((graph.n, 2))
    for v in range(graph.n):
        anchor = np.asarray(anchors.get(cmap[v], (0.0, 0.0)), dtype=float)
        p[v] = anchor - lattice @ np.array(scan.root[v][1:], dtype=float)
    return p


def collapsed_realization(
    graph: ColoredGraph,
    anchors: Sequence[Sequence[float]] | None = None,
    lattice: np.ndarray | None = None,
) -> Realization:
    """A realization in which every edge displacement vanishes.

    Chooses a lattice matrix annihilating all cycle images (identity when the
    image rank is 0, a canonical rank-one matrix when it is 1, zero when 2),
    then places each vertex at its component anchor minus L times its forest
    potential.  Verified collapsed before returning.
    """
    scan = scan_subset(EdgeSubset.full(graph), range(graph.n))
    ncomp = len(scan.trees)
    if lattice is None:
        lattice = _canonical_collapsed_lattice(scan.images)
    lattice = np.asarray(lattice, dtype=float).reshape(2, 2)
    anchor_map: dict[int, Sequence[float]] = {}
    if anchors is not None:
        if len(anchors) != ncomp:
            raise StructuralError(f"need one anchor per component ({ncomp})")
        anchor_map = dict(enumerate(anchors))
    real = Realization(_collapsed_points(graph, scan, lattice, anchor_map), lattice)
    tol = 1e-9 * max(real.scale(), 1.0)
    for e in graph.edges:
        if np.linalg.norm(real.eta(e.tail, e.head, tuple(e.color))) > tol:
            raise InternalConsistencyError(
                f"collapsed construction left edge {e.id} with nonzero displacement"
            )
    return real


def collapsed_space_basis(graph: ColoredGraph) -> list[Realization]:
    """Spanning set of the collapsed realizations: 4 - 2k + 2c dimensions.

    One generator per lattice-kernel basis matrix (anchors at the origin) and
    two translation generators per connected component.
    """
    scan = scan_subset(EdgeSubset.full(graph), range(graph.n))
    cmap = scan.component_map()
    ncomp = len(scan.trees)
    out = []
    for w in _lattice_kernel_basis(scan.images):
        out.append(Realization(_collapsed_points(graph, scan, w, {}), w))
    for comp in range(ncomp):
        for unit in ((1.0, 0.0), (0.0, 1.0)):
            p = np.zeros((graph.n, 2))
            for v in range(graph.n):
                if cmap[v] == comp:
                    p[v] = unit
            out.append(Realization(p, np.zeros((2, 2))))
    return out


# ---------------------------------------------------------------------------
# Faithful realizations of colored-Laman graphs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaithfulRealization:
    realization: Realization
    directions: DirectionAssignment
    statuses: tuple[EdgeStatus, ...]
    seed: int
    attempts: int
    exact: tuple[tuple[int, int], ...]  # the realization mod p: n points, then the rows of L


def _modp_row(n: int, e, directions: DirectionAssignment) -> dict[int, int]:
    """The P-system row of e mod p, its float perpendicular read as the rational it is."""
    ratios = (x.as_integer_ratio() for x in directions.perp(e.id))
    return _m222_row(n, e, *(num * pow(den, -1, PRIME) for num, den in ratios), "fp")


def _exact_point(
    graph: ColoredGraph, directions: DirectionAssignment, rng: random.Random
) -> str | list[tuple[int, int]]:
    """The sample's realization over F_p, or the reason the sample is rejected.

    The kernel of the P-system rows mod p must be 3-dimensional, no doubled
    row (a fresh direction on a copy of e, drawn in edge order) may vanish
    on it, and its point on p_1 = 0 must collapse no edge.  Nonzero mod p is
    nonzero over Q, so the rational system meets each condition too.
    """
    n = graph.n
    kernel = modp_kernel([_modp_row(n, e, directions) for e in graph.edges], 2 * n + 4)
    if len(kernel) != 3:
        return "rank"
    for e in graph.edges:
        t = rng.uniform(0.0, 2.0 * math.pi)
        row = _modp_row(n, e, DirectionAssignment({e.id: (math.cos(t), math.sin(t))}))
        if not any(sum(v * k[j] for j, v in row.items()) % PRIME for k in kernel):
            return "doubled row"
    # p_1 = 0: the cross product of the kernel's first two coordinates (nonzero by the translations)
    (x0, x1, x2), (y0, y1, y2) = ([k[i] for k in kernel] for i in (0, 1))
    line = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
    flat = [sum(c * k[j] for c, k in zip(line, kernel)) % PRIME for j in range(2 * n + 4)]
    xy = [(flat[2 * i], flat[2 * i + 1]) for i in range(n)]
    xy += [(flat[2 * n], flat[2 * n + 2]), (flat[2 * n + 1], flat[2 * n + 3])]  # rows of L
    # a rigidity row is eta_e placed by the pattern; a colored-Laman graph has no (0, 0) loop
    if not all(any(row.values()) for row in _modp_rigidity_rows(graph, xy)):
        return "collapsed mod p"
    return xy


def faithful_realization(
    graph: ColoredGraph, seed: int = 0, tolerance: float = SOLVE_TOL
) -> FaithfulRealization:
    """Unique-up-to-normalization faithful realization of a colored-Laman graph.

    Seeded uniform angles are decided, and the realization found, over F_p
    by `_exact_point`.  One SVD draws it: the right singular vectors of the
    three smallest singular values, the element with p_1 = 0, unit norm and
    a positive leading coordinate.  A drawing with a residual above
    tolerance or an edge below COLLAPSE_TOL is resampled.
    """
    if not is_colored_laman(graph):
        raise DomainError("faithful_realization needs a colored-Laman graph")
    if not 0 < tolerance < 1:  # also refuses NaN
        raise DomainError(f"tolerance must lie in (0, 1), got {tolerance}")
    n = graph.n
    rng = random.Random(seed)
    short = "drawing edge below COLLAPSE_TOL"
    rejected = dict.fromkeys(("rank", "doubled row", "collapsed mod p", "drawing residual", short), 0)
    smallest = math.inf
    for attempt in range(1, DEFAULT_RETRY_CAP + 1):
        directions = DirectionAssignment.sample(graph, rng)
        exact = _exact_point(graph, directions, rng)
        if isinstance(exact, str):
            rejected[exact] += 1
            continue
        system = build_P_system(graph, directions).to_numpy()
        kernel = np.linalg.svd(system)[2][-3:].T
        vec = kernel @ np.linalg.svd(kernel[0:2, :])[2][-1]
        vec /= np.linalg.norm(vec)
        lead = np.flatnonzero(np.abs(vec) > 1e-9)
        if lead.size and vec[lead[0]] < 0:
            vec = -vec
        real = Realization.from_flat(vec, n)
        residual = float(np.max(np.abs(system @ vec)))
        if residual > tolerance * max(1.0, float(np.abs(system).max())):
            rejected["drawing residual"] += 1
            continue
        statuses = edge_status(graph, directions, real)
        if any(s.collapsed for s in statuses):
            # in practice the only check that rejects a generic sample; it stays because drawings
            # reach |eta|/scale ~ 5e-7 and perfbench's checks refuse an edge below 1e-6 x size
            rejected[short] += 1
            size = max(real.scale(), 1e-8)  # edge_status's reference at unit norm
            smallest = min(smallest, min(math.hypot(*s.eta) for s in statuses) / size)
            continue
        return FaithfulRealization(real, directions, tuple(statuses), seed, attempt, tuple(exact))
    reasons = ", ".join(f"{why} {count}" for why, count in rejected.items())
    if smallest < math.inf:
        reasons += f" (smallest |eta|/scale {smallest:.2g})"
    message = f"no direction sample produced a faithful realization; rejections: {reasons}"
    raise GenericitySamplingError(message, seed, DEFAULT_RETRY_CAP)
