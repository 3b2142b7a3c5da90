"""Natural representation matrices and randomized rank decisions.

Two matrix families realize the sparsity matroids linearly:

* M112: one row per edge, one column per vertex plus two lattice columns.
  Row for edge ij: -a at i, +a at j, (g1*a, g2*a) in the lattice block.
  Its generic rank equals the count function f on every edge set.
* M222: two columns per vertex plus four lattice columns, the same pattern
  with an independent pair (a, b) per edge.  Generic rank m on exactly the
  2f-sparse edge sets.

The rigidity matrix (kind M232) shares the M222 filling pattern with
(a, b) replaced by the edge displacement of a concrete realization.  Every
row of these patterns, including the F_p rigidity rows and the 1d rows of
:mod:`perigid.rigidity` and the realization system of
:mod:`perigid.direction_network`, is built by `_m112_row` or `_m222_row` as
sparse {column: value} entries, at most eight per row; rows are densified
only for numpy and for dumps (`NaturalMatrix.rows`).

Generic rank is decided by sampling: entries are drawn uniformly from the
prime field F_p with p = 2^61 - 1 and eliminated exactly and sparsely, so a
full-rank sample certifies the generic rank while a deficient one is wrong
with probability at most m/p per trial; back-substitution gives a kernel
(`modp_kernel`).  Floating-point ranks, for float matrices, threshold
singular values relative to the largest one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .colored_graph import ColoredGraph, EdgeSubset, fundamental_cycles, rho_of_walk
from .errors import DomainError, StructuralError
from .sparsity import is_11k

PRIME = (1 << 61) - 1
DEFAULT_TRIALS = 3
FLOAT_TOL = 1e-9

KINDS = ("M112", "M222", "M232")


@dataclass(frozen=True)
class Realization:
    """Points p_i in the plane plus a 2x2 lattice matrix L.

    Flattened layout (length 2n + 4): x_1, y_1, ..., x_n, y_n followed by
    the first lattice column then the second.
    """

    p: np.ndarray  # (n, 2)
    L: np.ndarray  # (2, 2)

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(-1, 2))
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float).reshape(2, 2))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def to_flat(self) -> np.ndarray:
        return np.concatenate([self.p.reshape(-1), self.L.T.reshape(-1)])

    @classmethod
    def from_flat(cls, vec: Sequence[float], n: int) -> "Realization":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (2 * n + 4,):
            raise StructuralError(f"flat realization must have length {2 * n + 4}")
        return cls(vec[: 2 * n].reshape(n, 2), vec[2 * n :].reshape(2, 2).T)

    def eta(self, tail: int, head: int, color: Sequence[int]) -> np.ndarray:
        """Displacement p_head + L*color - p_tail."""
        g = np.asarray(color, dtype=float)
        return self.p[head] + self.L @ g - self.p[tail]

    def scale(self) -> float:
        """Size reference for relative thresholds: point spread and lattice norm."""
        spread = 0.0
        if self.n:
            spread = float(np.max(np.linalg.norm(self.p - self.p[0], axis=1)))
        return max(spread, float(np.linalg.norm(self.L)))


@dataclass(frozen=True)
class GenericAssignment:
    """Independent scalar(s) per edge id, in F_p or as floats."""

    a: dict[int, int | float]
    b: dict[int, int | float] | None
    mode: str  # "fp" | "float"
    seed: int | None = None

    def require_b(self):
        if self.b is None:
            raise StructuralError("this matrix kind needs (a, b) pairs per edge")


def sample_assignment(
    graph: ColoredGraph,
    *,
    pairs: bool,
    mode: str = "fp",
    rng: random.Random | None = None,
    seed: int | None = None,
) -> GenericAssignment:
    """Draw one (or a pair of) nonzero generic value(s) per edge."""
    if rng is None:
        rng = random.Random(seed)

    def draw():
        if mode == "fp":
            return rng.randrange(1, PRIME)
        return rng.choice((-1, 1)) * rng.uniform(0.25, 1.25)

    a = {e.id: draw() for e in graph.edges}
    b = {e.id: draw() for e in graph.edges} if pairs else None
    return GenericAssignment(a, b, mode, seed)


@dataclass(frozen=True)
class NaturalMatrix:
    """Row-per-edge matrix in one of the three filling patterns, kept sparse."""

    kind: str
    mode: str
    n: int
    entries: tuple[dict, ...]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return self.n + 2 if self.kind == "M112" else 2 * self.n + 4

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Dense rows; a column no entry names holds the int 0."""
        return tuple(_dense(row, self.ncols) for row in self.entries)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=float).reshape(self.nrows, self.ncols)


def _dense(entries: dict, width: int) -> tuple:
    row = [0] * width
    for j, x in entries.items():
        row[j] = x
    return tuple(row)


def _pattern_row(terms, mode):
    """Sum (column, term) pairs in order onto entries that start at the int 0,
    as on a dense row of zeros: a cancelled loop entry stays, -0.0 becomes 0.0."""
    row = {}
    for j, x in terms:
        row[j] = row.get(j, 0) + x
    return {j: x % PRIME for j, x in row.items()} if mode == "fp" else row


def _m112_row(n, e, a, mode):
    return _pattern_row(((e.tail, -a), (e.head, a), (n, e.color.g1 * a), (n + 1, e.color.g2 * a)), mode)


def _m222_row(n, e, a, b, mode):
    t, h, (g1, g2) = 2 * e.tail, 2 * e.head, e.color
    lattice = ((2 * n, g1 * a), (2 * n + 1, g1 * b), (2 * n + 2, g2 * a), (2 * n + 3, g2 * b))
    return _pattern_row(((t, -a), (t + 1, -b), (h, a), (h + 1, b)) + lattice, mode)


def build_natural_matrix(
    graph: ColoredGraph,
    kind: str,
    assignment: GenericAssignment | None = None,
    realization: Realization | None = None,
) -> NaturalMatrix:
    """Assemble the matrix of the requested kind.

    M112/M222 need a generic assignment; M232 substitutes the displacements
    of a realization for the (a, b) pairs.  Loop rows cancel in the vertex
    block and keep only lattice entries.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown matrix kind {kind!r}")
    n = graph.n
    if kind == "M232":
        if realization is None:
            raise StructuralError("M232 needs a realization")
        rows = []
        for e in graph.edges:
            ax, bx = realization.eta(e.tail, e.head, tuple(e.color))
            rows.append(_m222_row(n, e, float(ax), float(bx), "float"))
        return NaturalMatrix("M232", "float", n, tuple(rows))

    if assignment is None:
        raise StructuralError(f"{kind} needs a generic assignment")
    missing = [e.id for e in graph.edges if e.id not in assignment.a]
    if missing:
        raise StructuralError(f"assignment misses edges {missing}")
    if kind == "M112":
        rows = tuple(
            _m112_row(n, e, assignment.a[e.id], assignment.mode) for e in graph.edges
        )
        return NaturalMatrix("M112", assignment.mode, n, rows)
    assignment.require_b()
    rows = tuple(
        _m222_row(n, e, assignment.a[e.id], assignment.b[e.id], assignment.mode)
        for e in graph.edges
    )
    return NaturalMatrix("M222", assignment.mode, n, rows)


# ---------------------------------------------------------------------------
# Exact linear algebra over F_p.
# ---------------------------------------------------------------------------


def _subtract(row: dict, f: int, prow: dict, p: int) -> None:
    """row -= f * prow over F_p, in place, dropping entries that vanish."""
    for j, v in prow.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def _eliminate(rows, p: int, track: bool = False):
    """Insert rows in order into a sparse echelon form over F_p.

    A row ({column: value} entries or a dense sequence) is reduced by the
    pivot row stored at its lowest nonzero column until it vanishes or leads
    at a new column, where it is stored scaled to a leading 1.  Returns the
    pivot rows by leading column, in insertion order, the product of the
    leading values (the determinant up to the sign of that column order:
    only earlier rows are subtracted) and, with track, the input-row
    combination (as entries) behind each row that vanished.
    """
    pivots, combos, lead_prod, nulls = {}, {}, 1, []
    for i, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: x % p for j, x in items if x % p}
        combo = {i: 1}
        while row:
            col = min(row)
            if col not in pivots:
                break
            f = row[col]
            _subtract(row, f, pivots[col], p)
            if track:
                _subtract(combo, f, combos[col], p)
        if row:
            inv = pow(row[col], -1, p)
            lead_prod = lead_prod * row[col] % p
            pivots[col] = {j: x * inv % p for j, x in row.items()}
            if track:
                combos[col] = {j: x * inv % p for j, x in combo.items()}
        elif track:
            nulls.append(combo)
    return pivots, lead_prod, nulls


def modp_rank(rows: Sequence, p: int = PRIME) -> int:
    """Row rank over F_p of entry-dict or dense rows."""
    return len(_eliminate(rows, p)[0])


def modp_det(rows: Sequence[Sequence[int]], p: int = PRIME) -> int:
    """Determinant of a square matrix of dense rows over F_p."""
    if any(len(r) != len(rows) for r in rows):
        raise StructuralError("determinant needs a square matrix")
    pivots, det, _ = _eliminate(rows, p)
    leads = list(pivots)
    if len(leads) < len(rows):
        return 0
    if sum(a > b for i, a in enumerate(leads) for b in leads[i + 1 :]) % 2:
        det = -det % p
    return det


def modp_kernel(rows: Sequence, width: int, p: int = PRIME) -> list[list[int]]:
    """A basis of the x of length width with row . x = 0 mod p for every row:
    one per column no pivot row leads, by back-substitution from the last pivot.
    """
    pivots = _eliminate(rows, p)[0]
    basis = []
    for free in (j for j in range(width) if j not in pivots):
        x = [0] * width
        x[free] = 1
        for col in sorted(pivots, reverse=True):  # x[col] is still 0: its leading 1 adds nothing
            x[col] = -sum(v * x[j] for j, v in pivots[col].items()) % p
        basis.append(x)
    return basis


def _modp_rigidity_rows(graph: ColoredGraph, xy: Sequence[tuple[int, int]]) -> list[dict[int, int]]:
    """Entry rows mod p at the integer points xy[:n], with lattice rows xy[n], xy[n + 1]."""
    (a, b), (c, d) = xy[-2:]
    rows = []
    for e in graph.edges:
        g1, g2 = e.color.g1, e.color.g2
        ex = xy[e.head][0] + a * g1 + b * g2 - xy[e.tail][0]
        ey = xy[e.head][1] + c * g1 + d * g2 - xy[e.tail][1]
        rows.append(_m222_row(graph.n, e, ex, ey, "fp"))
    return rows


@dataclass(frozen=True)
class RankReport:
    kind: str
    rank: int
    mode: str
    trials: int
    seed: int


def rank_mod_p(
    graph: ColoredGraph,
    kind: str = "M222",
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RankReport:
    """Generic rank of M112/M222 via random F_p samples; max over trials.

    A trial underestimates the generic rank with probability at most m/p,
    so the reported maximum is exact except with negligible probability;
    deterministic for a fixed seed.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if kind not in ("M112", "M222"):
        raise DomainError("rank_mod_p samples M112 or M222")
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        asn = sample_assignment(graph, pairs=(kind == "M222"), mode="fp", rng=rng)
        mat = build_natural_matrix(graph, kind, asn)
        best = max(best, modp_rank(mat.entries))
    return RankReport(kind, best, "fp", trials, seed)


# ---------------------------------------------------------------------------
# Floating-point rank / kernel.
# ---------------------------------------------------------------------------


def kernel_float(
    matrix: NaturalMatrix | np.ndarray, tolerance: float = FLOAT_TOL
) -> tuple[int, np.ndarray]:
    """Numerical rank and orthonormal kernel basis (columns) of a real matrix.

    Orthogonal elimination via SVD; singular values below
    tolerance * (largest singular value) count as zero.
    """
    if not 0 < tolerance < 1:  # also refuses NaN
        raise DomainError(f"tolerance must lie in (0, 1), got {tolerance}")
    a = matrix.to_numpy() if isinstance(matrix, NaturalMatrix) else np.asarray(matrix, float)
    if a.ndim != 2:
        raise StructuralError("kernel_float needs a 2d matrix")
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0, np.eye(cols)
    _, svals, vt = np.linalg.svd(a)
    cutoff = tolerance * svals[0]
    rank = int(np.sum(svals > cutoff))
    return rank, vt[rank:].T


# ---------------------------------------------------------------------------
# Determinant formulas for the M112 minors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinorCheck:
    label: str
    determinant: int | float
    formula: int | float
    ok: bool


@dataclass(frozen=True)
class DetFormulaReport:
    instance: bool  # graph is a (1,1,k)-graph of the size-matching k
    k: int
    checks: tuple[MinorCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _det(rows, mode):
    if mode == "fp":
        return modp_det(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


def _matches(det, formula, mode, scale):
    if mode == "fp":
        return det == formula % PRIME or det == -formula % PRIME
    return min(abs(det - formula), abs(det + formula)) <= 1e-10 * max(scale, 1e-30)


def verify_determinant_formulas(
    graph: ColoredGraph, kind: str = "M112", assignment: GenericAssignment | None = None
) -> DetFormulaReport:
    """Compare designated square M112 minors against their closed forms.

    With m = n - 1 + k and k the cycle-image rank, the minor dropping one
    vertex column and 2 - k lattice columns has determinant
    +-(image factor) * product(a_e): the factor is 1 for trees, a component
    t_q of the single cycle image for k = 1 (q the kept lattice column), and
    the 2x2 determinant of the two cycle images for k = 2.  Graphs that are
    not (1,1,k) give identically zero determinants.
    """
    if kind != "M112":
        raise DomainError("determinant formulas are stated for M112")
    subset = EdgeSubset.full(graph)
    ok, k = is_11k(subset)
    n, m = graph.n, graph.m
    if m != n - 1 + k:
        raise DomainError(f"need m = n - 1 + k, got n={n} m={m} k={k}")
    if assignment is None:
        assignment = sample_assignment(graph, pairs=False, mode="fp", seed=0)
    mat = build_natural_matrix(graph, "M112", assignment)
    mode = assignment.mode

    prod_a = 1
    for e in graph.edges:
        prod_a = prod_a * assignment.a[e.id] % PRIME if mode == "fp" else prod_a * assignment.a[e.id]
    scale = abs(prod_a) if mode == "float" else 0

    images = [rho_of_walk(w) for _, w in fundamental_cycles(subset)]
    cols_all = list(range(n + 2))
    drop_vertex = 0  # any vertex column works; fixed for determinism

    checks = []
    if k == 0:
        cols = [c for c in cols_all if c not in (drop_vertex, n, n + 1)]
        det = _det([tuple(r[c] for c in cols) for r in mat.rows], mode)
        formula = prod_a if ok else 0
        checks.append(MinorCheck("drop L1 L2", det, formula, _matches(det, formula, mode, scale)))
    elif k == 1:
        t = images[0] if ok else None
        for q, dropped in ((1, n + 1), (2, n)):
            cols = [c for c in cols_all if c not in (drop_vertex, dropped)]
            det = _det([tuple(r[c] for c in cols) for r in mat.rows], mode)
            tq = (t.g1 if q == 1 else t.g2) if ok else 0
            formula = tq * prod_a
            qscale = scale * max(1, abs(tq)) if mode == "float" else 0
            checks.append(
                MinorCheck(f"keep L{q}", det, formula, _matches(det, formula, mode, qscale))
            )
    else:
        cols = [c for c in cols_all if c != drop_vertex]
        det = _det([tuple(r[c] for c in cols) for r in mat.rows], mode)
        if ok:
            t1, t2 = images
            cross = t1.g1 * t2.g2 - t1.g2 * t2.g1
        else:
            cross = 0
        formula = cross * prod_a
        fscale = scale * max(1, abs(cross)) if mode == "float" else 0
        checks.append(
            MinorCheck("full L block", det, formula, _matches(det, formula, mode, fscale))
        )
    return DetFormulaReport(ok, k, tuple(checks))


def dump_matrix(matrix: NaturalMatrix) -> str:
    """Plain text dump: header line then one space-separated row per line."""
    out = [f"mat {matrix.nrows} {matrix.ncols} {matrix.mode}"]
    for row in matrix.rows:
        out.append(" ".join(repr(x) if matrix.mode == "float" else str(x) for x in row))
    return "\n".join(out) + "\n"
