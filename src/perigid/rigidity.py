"""Generic rigidity decisions for periodic frameworks via their quotients.

The rigidity matrix of a realized colored framework has one row per edge in
the M222 filling pattern with the edge displacement eta substituted for the
generic pair; its kernel is the space of infinitesimal motions, which always
contains the 3-dimensional span of the two translations and one rotation.
A quotient graph is generically minimally rigid exactly when it has m = 2n+1
edges and the generic rank is 2n + 1, and that in turn happens exactly when
the graph is colored-Laman.  This module certifies rather than searches: an
F_p elimination of the rigidity rows proposes the colored-Laman basis and its
circuits, exact counts certify them, and a disagreement raises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .colored_graph import ColoredGraph, EdgeSubset, scan_subset
from .direction_network import FaithfulRealization, faithful_realization
from .errors import DomainError, InternalConsistencyError
from .linear_rep import (
    COORD_RANGE, DEFAULT_TRIALS, RankReport, _best_sampled_rank, _eliminate, _integer_point, _m112_row,
    _modp_rigidity_rows, rank_mod_p,
)
from .sparsity import CircuitReport, count_report, laman_sparse_subset
from .sparsity import max_laman_sparse_subset  # noqa: F401  perfbench/tests read it from here

STATUS_MINIMAL = "generically_minimally_rigid"
STATUS_OVER = "generically_rigid_overconstrained"
STATUS_FLEXIBLE = "generically_flexible"


def generic_rigidity_rank(graph: ColoredGraph, trials: int = DEFAULT_TRIALS, seed: int = 0) -> RankReport:
    """The M232 `rank_mod_p`: rigidity rows at random integer points."""
    return rank_mod_p(graph, "M232", trials, seed)


@dataclass(frozen=True)
class LamanAnalysis:
    """The colored-Laman matroid of one graph, decided once.

    basis is the greedy basis with edges tried in id order; rejected is the
    first edge that greedy left out, or None when the graph is sparse, and
    rejected_circuit is the circuit that edge closes with the basis.  first
    is the first integer point the analysis drew and the rank mod p of the
    rigidity rows there, even when a later point decided.
    """

    basis: frozenset[int]
    rejected: int | None
    rejected_circuit: CircuitReport | None
    first: tuple[tuple[tuple[int, int], ...], int]

    @property
    def sparse(self) -> bool:
        return self.rejected is None

    def circuit(self) -> CircuitReport:
        """The unique circuit of basis + rejected."""
        if self.sparse:
            raise DomainError("graph is colored-Laman-sparse; no circuit to find")
        return self.rejected_circuit


def laman_analysis(graph: ColoredGraph, seed: int = 0) -> LamanAnalysis:
    """The id-order greedy basis B and its fundamental circuits, certified.

    One F_p elimination of the rigidity rows in id order, at a seeded integer
    point, proposes B as the rows that lead; each row e that vanishes has a
    combination supported on e and rows of B before it, a circuit C_e of the
    rigidity matrix at that point.  The counts certify the proposal: B must
    be colored-Laman-sparse (F_p independence implies generic independence,
    so a failure is a bug), and every C_e must have m' = 2f or be the (0, 0)
    loop, so that e lies in the closure of the B edges before it.  Then B is
    the greedy basis and, each C_e - x being independent at the point, C_e is
    the fundamental circuit of e.  A point where some C_e misses the count is
    degenerate; the next of three is tried.  The first point and its rank,
    the number of pivots there, are kept for the witness.
    """
    ids = sorted(graph.edge_ids())
    rng = random.Random(seed)
    first = None
    for _ in range(3):
        xy = tuple(_integer_point(graph.n, rng))
        rows = dict(zip(graph.edge_ids(), _modp_rigidity_rows(graph, xy)))
        pivots, combos, _ = _eliminate([rows[x] for x in ids], track=True)
        first = first or (xy, len(pivots))
        circuits = [EdgeSubset.of(graph, (ids[i] for i in combo)) for combo in combos]
        reports = [CircuitReport(c, count_report(c)) for c in circuits]
        # m' = 2f, or m' = 1 and f = 0: the loop colored (0, 0), whose row is zero
        if all(r.counts.m == max(r.counts.bound222, 1) for r in reports):
            break
    else:
        raise InternalConsistencyError("at every sampled point a rejected edge's circuit misses m' = 2f")
    rejected = [max(c.ids) for c in circuits]
    basis = frozenset(ids).difference(rejected)
    if not laman_sparse_subset(graph, basis):
        raise InternalConsistencyError("rows independent mod p on an edge set that is not sparse")
    circuit = (rejected[0], reports[0]) if reports else (None, None)
    return LamanAnalysis(basis, *circuit, first)


@dataclass(frozen=True)
class RigidityVerdict:
    status: str
    rank: int
    dof: int
    n: int
    m: int
    witness: FaithfulRealization | None
    circuit: CircuitReport | None


def decide_rigidity(graph: ColoredGraph, seed: int = 0) -> RigidityVerdict:
    """Full rigidity decision from one certified colored-Laman analysis.

    The generic rank is the size of the basis `laman_analysis` proposes by
    F_p elimination and certifies by counts.  Rigid verdicts need rank
    2n + 1, a spanning colored-Laman subgraph; minimally rigid also needs
    m = 2n + 1.  Minimally rigid verdicts carry a faithful-realization
    witness, the exact integer point where the 2n + 1 rigidity rows are
    independent mod p (so deleting any row drops the rank to 2n), which
    `direction_network.drawing` draws in floats; it is handed the analysis's
    first point and rank, so its attempt 1 eliminates no rows.  Non-sparse
    inputs carry the analysis's circuit.
    """
    n, m = graph.n, graph.m
    analysis = laman_analysis(graph, seed)
    rank = len(analysis.basis)
    if rank == 2 * n + 1:
        status = STATUS_MINIMAL if m == 2 * n + 1 else STATUS_OVER
    else:
        status = STATUS_FLEXIBLE
    witness = faithful_realization(graph, seed=seed, first=analysis.first) if status == STATUS_MINIMAL else None
    return RigidityVerdict(status, rank, (2 * n + 4) - rank - 3, n, m, witness, analysis.rejected_circuit)


# ---------------------------------------------------------------------------
# Ross graphs: rigidity with the lattice held fixed.
# ---------------------------------------------------------------------------

ROSS_LOOPS = ((1, 0), (0, 1), (1, 1))


def is_ross(graph: ColoredGraph) -> bool:
    """Fixed-lattice rigidity counts, decided by one certified analysis.

    A Ross graph has m = 2n - 2, m' <= 2n' - 2 on every nonempty subset and
    m' <= 2n' - 3 on rank-zero subsets.  It is one exactly when adding the
    loops (1,0), (0,1), (1,1) at vertex 0 gives a colored-Laman graph, that
    is (with m = 2n + 1) a colored-Laman-sparse one.  `laman_analysis` of
    that looped graph decides it the way `decide_rigidity` does: an F_p
    elimination proposes, the colored-Laman counts certify, and a
    disagreement raises.
    """
    if graph.n == 0 or graph.m != 2 * graph.n - 2:
        return False
    return laman_analysis(graph.with_extra_loops(0, ROSS_LOOPS)).sparse


# ---------------------------------------------------------------------------
# Rigidity on the line: Z-colored graphs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneDVerdict:
    status: str
    rank: int
    n: int
    m: int

    @property
    def rigid(self) -> bool:
        return self.status != STATUS_FLEXIBLE


def _oned_rows(graph: ColoredGraph, xs: list[int], lat: int) -> list[dict[int, int]]:
    """M112 entry rows at a = eta; the second lattice column is zero (g2 = 0)."""
    return [
        _m112_row(graph.n, e, xs[e.head] + e.color.g1 * lat - xs[e.tail])
        for e in graph.edges
    ]


def is_1d_rigid(graph: ColoredGraph, trials: int = DEFAULT_TRIALS, seed: int = 0) -> OneDVerdict:
    """Generic rigidity of a Z-colored quotient (second color must be zero).

    Combinatorial route: a spanning connected subgraph with a cycle of
    nonzero image, i.e. a spanning (1,1,1)-subgraph.  Numeric route: the
    m x (n+1) matrix with entries from eta = x_j + g*L - x_i at random
    integer (x, L) has rank n > 0; at most trials samples are drawn, and the
    first that reaches min(m, n), a rank no sample can exceed, ends the loop.
    Both must agree; minimal rigidity also needs m = n.
    """
    if any(e.color.g2 for e in graph.edges):
        raise DomainError("1d decision needs colors with zero second component")
    scan = scan_subset(EdgeSubset.full(graph))
    spans = len(scan.root) == graph.n and graph.n > 0
    connected = spans and len(scan.trees) == 1
    has_cycle = any(g1 for g1, _ in scan.images)
    combinatorial = connected and has_cycle

    rng = random.Random(seed)

    def draw():
        xs = [rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(graph.n)]
        return _oned_rows(graph, xs, rng.randint(-COORD_RANGE, COORD_RANGE))

    best = _best_sampled_rank(draw, trials, min(graph.m, graph.n))
    # at n = 0 the one kernel vector is the lattice column, not a translation
    numeric = graph.n > 0 and best == graph.n
    if combinatorial != numeric:
        raise InternalConsistencyError(
            f"1d routes disagree: combinatorial={combinatorial} numeric={numeric}"
        )
    if not combinatorial:
        return OneDVerdict(STATUS_FLEXIBLE, best, graph.n, graph.m)
    status = STATUS_MINIMAL if graph.m == graph.n else STATUS_OVER
    return OneDVerdict(status, best, graph.n, graph.m)
