"""Generic rigidity decisions for periodic frameworks via their quotients.

The rigidity matrix of a realized colored framework has one row per edge in
the M222 filling pattern with the edge displacement eta substituted for the
generic pair; its kernel is the space of infinitesimal motions, which always
contains the 3-dimensional span of the two translations and one rotation.
A quotient graph is generically minimally rigid exactly when it has m = 2n+1
edges and the generic rank is 2n + 1, and that in turn happens exactly when
the graph is colored-Laman.  This module decides rigidity along both the
combinatorial and the randomized-rank route and insists that they agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .colored_graph import ColoredGraph, EdgeSubset, scan_subset
from .direction_network import FaithfulRealization, faithful_realization
from .errors import DomainError, InternalConsistencyError
from .linear_rep import (
    FLOAT_TOL,
    NaturalMatrix,
    RankReport,
    Realization,
    _m112_row,
    _m222_row,
    build_natural_matrix,
    kernel_float,
    modp_null_vectors,
    modp_rank,
)
from .sparsity import CircuitReport, count_report, is_colored_laman, max_laman_sparse_subset

COORD_RANGE = 1 << 20  # integer sampling window for exact-mode realizations

STATUS_MINIMAL = "generically_minimally_rigid"
STATUS_OVER = "generically_rigid_overconstrained"
STATUS_FLEXIBLE = "generically_flexible"


def rigidity_matrix(graph: ColoredGraph, realization: Realization) -> NaturalMatrix:
    """m x (2n+4) rigidity matrix at a concrete realization.

    Row for edge ij: -eta at the tail columns, +eta at the head columns
    (cancelling for loops), and g1*eta, g2*eta in the two lattice blocks;
    this is the M222 filling pattern with eta substituted for (a, b).
    """
    return build_natural_matrix(graph, "M232", realization=realization)


def _modp_rigidity_rows(graph: ColoredGraph, xy: list[tuple[int, int]]) -> list[dict[int, int]]:
    """Entry rows mod p at the integer points xy[:n], with lattice rows xy[n], xy[n + 1]."""
    (a, b), (c, d) = xy[-2:]
    rows = []
    for e in graph.edges:
        g1, g2 = e.color.g1, e.color.g2
        ex = xy[e.head][0] + a * g1 + b * g2 - xy[e.tail][0]
        ey = xy[e.head][1] + c * g1 + d * g2 - xy[e.tail][1]
        rows.append(_m222_row(graph.n, e, ex, ey, "fp"))
    return rows


def _sampled_modp_rows(graph: ColoredGraph, rng: random.Random) -> list[dict[int, int]]:
    """Rigidity rows mod p at n integer points and lattice rows drawn from rng."""
    r = COORD_RANGE
    xy = [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(graph.n + 2)]
    return _modp_rigidity_rows(graph, xy)


def _float_realization(graph: ColoredGraph, rng: random.Random) -> Realization:
    """Points, then lattice rows, drawn uniformly from [-1, 1]."""
    return Realization(
        np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(graph.n)]),
        np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]),
    )


def generic_rigidity_rank(
    graph: ColoredGraph, trials: int = 3, seed: int = 0, mode: str = "fp"
) -> RankReport:
    """Rank of the rigidity matrix maximized over random realizations.

    Exact mode samples integer points and lattice entries and eliminates over
    F_p; float mode samples in [-1, 1] and thresholds singular values.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        if mode == "fp":
            best = max(best, modp_rank(_sampled_modp_rows(graph, rng)))
        elif mode == "float":
            real = _float_realization(graph, rng)
            rank, _ = kernel_float(rigidity_matrix(graph, real), FLOAT_TOL)
            best = max(best, rank)
        else:
            raise DomainError(f"unknown mode {mode!r}")
    return RankReport("M232", best, mode, trials, seed)


def rationalized_rigidity_rank(
    graph: ColoredGraph, realization: Realization, scale: int = COORD_RANGE
) -> int:
    """Exact F_p rank at the nearest integer realization to a float one."""
    span = max(realization.scale(), 1e-12)
    factor = scale / span
    points = list(realization.p) + list(realization.L)
    xy = [(round(float(x) * factor), round(float(y) * factor)) for x, y in points]
    return modp_rank(_modp_rigidity_rows(graph, xy))


def _dependencies(graph: ColoredGraph, ids: list[int], seed: int):
    """Support of the one F_p dependency among the rigidity rows of ids.

    Yields one support per seeded integer point (three at most) at which the
    rows have rank len(ids) - 1, so that their left null space is one vector.
    """
    rng = random.Random(seed)
    for _ in range(3):
        rows = dict(zip(graph.edge_ids(), _sampled_modp_rows(graph, rng)))
        nulls = modp_null_vectors([rows[x] for x in ids])
        if len(nulls) == 1:
            yield frozenset(x for x, c in zip(ids, nulls[0]) if c)


@dataclass(frozen=True)
class LamanAnalysis:
    """The colored-Laman matroid of one graph, decided once.

    basis is the greedy basis with edges tried in id order; rejected is the
    first edge that greedy left out, or None when the graph is sparse.
    """

    graph: ColoredGraph
    basis: frozenset[int]
    rejected: int | None

    @property
    def sparse(self) -> bool:
        return self.rejected is None

    def circuit(self, seed: int = 0) -> CircuitReport:
        """The unique circuit C of basis + rejected, read off one F_p dependency.

        At one of three seeded integer points the rigidity rows of B + e (B
        the basis, e the rejected edge) must have rank |B| with e in the
        support of their one left null vector: B is then independent there,
        and the support is C.  Every C - x is independent at that point, so
        generically independent and, by the main theorem, colored-Laman-
        sparse; that is the minimality certificate.  The second route is the
        count: C is not sparse, with m' = 2f, or it is the loop colored (0, 0)
        (m' = 1, f = 0), whose row is zero.
        """
        if self.sparse:
            raise DomainError("graph is colored-Laman-sparse; no circuit to find")
        graph, extra = self.graph, self.rejected
        ids = sorted(self.basis | {extra})
        support = next((s for s in _dependencies(graph, ids, seed) if extra in s), None)
        if support is None:
            raise InternalConsistencyError("no sampled point puts the rejected edge on a circuit")
        subset = EdgeSubset.of(graph, support)
        rep = count_report(subset)
        if rep.m != rep.bound222 and (rep.m, rep.f) != (1, 0):
            raise InternalConsistencyError("extracted circuit misses m' = 2f")
        return CircuitReport(subset, rep)


def laman_analysis(graph: ColoredGraph) -> LamanAnalysis:
    """The id-order greedy basis and the first edge it rejects, if any."""
    basis = max_laman_sparse_subset(graph)
    rejected = min((eid for eid in graph.edge_ids() if eid not in basis), default=None)
    return LamanAnalysis(graph, basis, rejected)


@dataclass(frozen=True)
class RigidityVerdict:
    status: str
    rank: int
    dof: int
    n: int
    m: int
    witness: FaithfulRealization | None
    circuit: CircuitReport | None


def decide_rigidity(
    graph: ColoredGraph, seed: int = 0, attach_witness: bool = True
) -> RigidityVerdict:
    """Full rigidity decision with combinatorial/numeric cross-check.

    The maximal colored-Laman-sparse subset size must equal the generic
    rigidity rank (the matrix represents the same matroid); disagreement
    raises.  Rigid verdicts require that size to be 2n + 1, i.e. a spanning
    colored-Laman subgraph; minimally rigid additionally means m = 2n + 1.
    A faithful-realization witness is attached to minimally rigid verdicts
    and the circuit of LamanAnalysis.circuit to every non-sparse input;
    basis, sparsity verdict and circuit all come from one sparsity analysis.
    """
    n, m = graph.n, graph.m
    analysis = laman_analysis(graph)
    basis = analysis.basis
    report = generic_rigidity_rank(graph, trials=3, seed=seed)
    if report.rank != len(basis):
        raise InternalConsistencyError(
            f"combinatorial rank {len(basis)} != generic matrix rank {report.rank}"
        )
    rigid = len(basis) == 2 * n + 1
    if rigid:
        status = STATUS_MINIMAL if m == 2 * n + 1 else STATUS_OVER
    else:
        status = STATUS_FLEXIBLE
    dof = (2 * n + 4) - report.rank - 3
    witness = None
    if attach_witness and status == STATUS_MINIMAL:
        witness, _ = rigid_realization_certificate(graph, seed=seed)
    circuit = None if analysis.sparse else analysis.circuit(seed)
    return RigidityVerdict(status, report.rank, dof, n, m, witness, circuit)


def certify_circuit(report: CircuitReport, seed: int = 0) -> CircuitReport:
    """Certify over F_p that a sparsity circuit C is edge-minimal; return it.

    At one of three seeded integer points the rows of C must have rank
    |C| - 1 and a null vector supported on all of C.  Then every C - x is
    independent there, so generically independent and, by the main theorem,
    sparse: one elimination per point and no augmenting search.
    """
    circuit = report.circuit
    if any(s == circuit.ids for s in _dependencies(circuit.graph, circuit.sorted_ids(), seed)):
        return report
    raise InternalConsistencyError("circuit is not edge-minimal")


def find_laman_circuit(graph: ColoredGraph) -> CircuitReport:
    """The circuit LamanAnalysis.circuit reads off the graph's analysis."""
    return laman_analysis(graph).circuit()


def rigid_realization_certificate(
    graph: ColoredGraph, seed: int = 0
) -> tuple[FaithfulRealization, RankReport]:
    """Faithful realization whose rigidity matrix certifies minimal rigidity.

    Verifies rank 2n + 1 in floating point and, after rationalizing the
    realization, over F_p.  A faithful realization exists only for
    colored-Laman graphs (anything else raises DomainError), so the matrix
    has exactly 2n + 1 rows; full row rank then means that deleting any
    single row drops the rank to 2n, which is what makes the rigidity minimal.
    """
    n = graph.n
    fr = faithful_realization(graph, seed=seed)
    # unit rows: no edge collapses and no loop is (0,0), so the rank is unchanged
    mat = rigidity_matrix(graph, fr.realization).to_numpy()
    rank, _ = kernel_float(mat / np.linalg.norm(mat, axis=1, keepdims=True), FLOAT_TOL)
    if rank != 2 * n + 1:
        raise InternalConsistencyError(
            f"rigidity matrix rank {rank} at a faithful realization, expected {2 * n + 1}"
        )
    exact = rationalized_rigidity_rank(graph, fr.realization)
    if exact != 2 * n + 1:
        raise InternalConsistencyError("rationalized realization lost rank")
    return fr, RankReport("M232", rank, "float", 1, seed)


# ---------------------------------------------------------------------------
# Ross graphs: rigidity with the lattice held fixed.
# ---------------------------------------------------------------------------

ROSS_LOOPS = ((1, 0), (0, 1), (1, 1))


def is_ross(graph: ColoredGraph) -> bool:
    """Fixed-lattice rigidity counts, decided two ways and cross-checked.

    A Ross graph has m = 2n - 2, m' <= 2n' - 2 on every nonempty subset and
    m' <= 2n' - 3 on rank-zero subsets.  It is one exactly when adding the
    loops (1,0), (0,1), (1,1) at vertex 0 gives a colored-Laman graph, so
    that looped graph is decided along both routes of `decide_rigidity`:
    route (a) by colored-Laman sparsity, route (b) by an F_p rigidity rank of
    2n + 1, which certifies full rank over Q and so is never reached by a
    non-Ross graph.  Both run at every size; disagreement raises.
    """
    if graph.n == 0 or graph.m != 2 * graph.n - 2:
        return False
    looped = graph.with_extra_loops(0, ROSS_LOOPS)
    by_counts = is_colored_laman(looped)
    by_rank = generic_rigidity_rank(looped).rank == 2 * graph.n + 1
    if by_counts != by_rank:
        raise InternalConsistencyError(f"Ross routes disagree: counts={by_counts} rank={by_rank}")
    return by_counts


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
        _m112_row(graph.n, e, xs[e.head] + e.color.g1 * lat - xs[e.tail], "fp")
        for e in graph.edges
    ]


def is_1d_rigid(graph: ColoredGraph, trials: int = 3, seed: int = 0) -> OneDVerdict:
    """Generic rigidity of a Z-colored quotient (second color must be zero).

    Combinatorial route: a spanning connected subgraph with a cycle of
    nonzero image, i.e. a spanning (1,1,1)-subgraph.  Numeric route: the
    m x (n+1) matrix with entries from eta = x_j + g*L - x_i at random
    integer (x, L) has rank n.  Both must agree; minimal rigidity also
    needs m = n.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if any(e.color.g2 for e in graph.edges):
        raise DomainError("1d decision needs colors with zero second component")
    scan = scan_subset(EdgeSubset.full(graph))
    spans = len(scan.parent) == graph.n and graph.n > 0
    connected = spans and scan.component_count() == 1
    has_cycle = any(v.g1 for v in scan.images)
    combinatorial = connected and has_cycle

    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        xs = [rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(graph.n)]
        lat = rng.randint(-COORD_RANGE, COORD_RANGE)
        best = max(best, modp_rank(_oned_rows(graph, xs, lat)))
    numeric = best == graph.n
    if combinatorial != numeric:
        raise InternalConsistencyError(
            f"1d routes disagree: combinatorial={combinatorial} numeric={numeric}"
        )
    if not combinatorial:
        return OneDVerdict(STATUS_FLEXIBLE, best, graph.n, graph.m)
    status = STATUS_MINIMAL if graph.m == graph.n else STATUS_OVER
    return OneDVerdict(status, best, graph.n, graph.m)
