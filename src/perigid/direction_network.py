"""Direction networks on colored graphs and their realizations.

A direction network prescribes a unit direction per edge; a realization is a
point per vertex plus a 2x2 lattice matrix L such that every edge displacement
eta_ij = p_j + L*color_ij - p_i is parallel to its prescribed direction.  The
constraints <eta_ij, perp(d_ij)> = 0 form a linear system whose matrix is the
M222 pattern with (a, b) = perp(d); its kernel is the realization space.

Edges with eta = 0 are collapsed.  For a colored-Laman graph and generic
directions the kernel is 3-dimensional (translations plus one scaling class)
and contains, up to translation and scale, a unique realization with no
collapsed edge.  This module decides sampled directions over F_p, and
takes as the faithful realization an integer point whose rigidity rows
have full rank: such a point is, up to translation and scale, the unique
realization of the directions of its own edges.  The witness is that exact
point; `drawing` turns it into floats only where it is printed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .colored_graph import ColoredGraph
from .errors import DomainError, GenericitySamplingError
from .linear_rep import PRIME, _integer_eta, _integer_point, _m222_row
from .linear_rep import _modp_rigidity_rows, modp_kernel, modp_rank
from .sparsity import is_colored_laman

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


# ---------------------------------------------------------------------------
# Faithful realizations of colored-Laman graphs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaithfulRealization:
    """The witness: an integer point whose rigidity rows have rank 2n + 1 mod p.

    `drawing` gives it in floats, normalized, as the writers print it.
    """

    exact: tuple[tuple[int, int], ...]  # n points, then the rows of L
    seed: int
    attempts: int


def _modp_row(n: int, e, directions: DirectionAssignment) -> dict[int, int]:
    """The P-system row of e mod p, its float perpendicular read as the rational it is."""
    ratios = (x.as_integer_ratio() for x in directions.perp(e.id))
    return _m222_row(n, e, *(num * pow(den, -1, PRIME) for num, den in ratios))


def _exact_point(graph: ColoredGraph, directions: DirectionAssignment) -> str | None:
    """The reason the sampled directions are rejected over F_p, or None.

    The kernel of the P-system rows mod p must be 3-dimensional, and its
    point R on p_1 = 0 must collapse no edge.  The rows are dyadic, so
    nonzero mod p is nonzero over Q.  With m = 2n + 1 the two tests certify
    a colored-Laman graph.  The kernel is spanned by the two translations
    and R, so a row vanishes on it iff it vanishes on R.  eta_e vanishes on
    both translations, so e collapses at R iff eta_e vanishes on all three
    kernel vectors, which is the test made.  Double any edge e
    into e' with a direction d': the row of e' on R is <eta_e(R), perp(d')>,
    nonzero for some d' since eta_e(R) != 0 mod p.  So G + e' has rows of
    rank 2n + 2 mod p, hence generically independent.  T's rows
    u_e (x) (a_e, b_e), u_e the M112 row at a = 1, span at most 2f(T)
    dimensions, so G + e' is 2f-sparse, which for every e is colored-Laman
    sparsity.
    """
    n = graph.n
    kernel = modp_kernel([_modp_row(n, e, directions) for e in graph.edges], 2 * n + 4)
    if len(kernel) != 3:
        return "rank"
    # each kernel vector as a point: n points, then the rows of L
    points = [[*zip(k[:2 * n:2], k[1:2 * n:2]), (k[2 * n], k[2 * n + 2]), (k[2 * n + 1], k[2 * n + 3])]
              for k in kernel]
    if not all(any(x % PRIME for xy in points for x in _integer_eta(xy, e)) for e in graph.edges):
        return "collapsed mod p"
    return None


def drawing(graph: ColoredGraph, witness: FaithfulRealization) -> tuple[list, tuple, list]:
    """The witness in floats: its points, the rows of L and each edge's eta, in edge order.

    p_1 is moved to 0, the point scaled to unit norm and its leading nonzero
    coordinate made positive.  Every eta_e is nonzero: the rigidity rows at
    the point have full rank.
    """
    n, xy = graph.n, witness.exact
    (x0, y0), (a, b), (c, d) = xy[0], *xy[n:]
    flat = [v for x, y in xy[:n] for v in (x - x0, y - y0)] + [a, c, b, d]
    sign = 1 if next(v for v in flat if v) > 0 else -1
    flat = [sign * v for v in flat]
    norm = math.sqrt(sum(v * v for v in flat))
    vec = [v / norm for v in flat]
    etas = [tuple(sign * v / norm for v in _integer_eta(xy, e)) for e in graph.edges]
    return list(zip(vec[:2 * n:2], vec[1:2 * n:2])), (tuple(vec[2 * n::2]), tuple(vec[2 * n + 1::2])), etas


def faithful_realization(graph: ColoredGraph, seed: int = 0, first: tuple | None = None) -> FaithfulRealization:
    """Unique-up-to-normalization faithful realization of a colored-Laman graph.

    Each attempt draws an integer point (`_integer_point`, so attempt 1's
    is `laman_analysis`'s first point) and then uniform angles, one per edge.
    `_exact_point` decides the angles over F_p, and its acceptance
    certifies the graph: m != 2n + 1 is refused before any draw, and the
    counts run only after a rejected first attempt, to tell a DomainError
    from bad luck.  The attempt is accepted when the rigidity rows at the
    point have rank 2n + 1 mod p.  first, a point and that rank as
    `LamanAnalysis.first` holds them, spares the elimination of an attempt
    that draws that very point; any other point eliminates its own rows.
    The witness is that point, kept exact:
    with directions eta_e / |eta_e| its P-system is the rigidity matrix with
    each column pair turned by 90 degrees and each row scaled, of the same
    rank, so the point is their realization, unique up to translation and
    scale.  `drawing` normalizes it in floats.
    """
    n = graph.n
    if graph.m != 2 * n + 1:
        raise DomainError("faithful_realization needs a colored-Laman graph")
    rng = random.Random(seed)
    rejected = dict.fromkeys(("rank", "collapsed mod p", "point rank"), 0)
    for attempt in range(1, DEFAULT_RETRY_CAP + 1):
        xy = tuple(_integer_point(n, rng))
        reason = _exact_point(graph, DirectionAssignment.sample(graph, rng))
        known = first is not None and first[0] == xy
        if reason is None and (first[1] if known else modp_rank(_modp_rigidity_rows(graph, xy))) != 2 * n + 1:
            reason = "point rank"
        if reason is None:
            return FaithfulRealization(xy, seed, attempt)
        if attempt == 1 and not is_colored_laman(graph):
            raise DomainError("faithful_realization needs a colored-Laman graph")
        rejected[reason] += 1
    reasons = ", ".join(f"{why} {count}" for why, count in rejected.items())
    message = f"no sample produced a faithful realization; rejections: {reasons}"
    raise GenericitySamplingError(message, seed, DEFAULT_RETRY_CAP)
