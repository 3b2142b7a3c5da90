"""Natural representation matrices and randomized rank decisions.

Two matrix families realize the sparsity matroids linearly:

* M112: one row per edge, one column per vertex plus two lattice columns.
  Row for edge ij: -a at i, +a at j, (g1*a, g2*a) in the lattice block.
  Its generic rank equals the count function f on every edge set.
* M222: two columns per vertex plus four lattice columns, the same pattern
  with an independent pair (a, b) per edge.  Generic rank m on exactly the
  2f-sparse edge sets.

The rigidity matrix (kind M232) shares the M222 filling pattern with
(a, b) replaced by the edge displacement of a concrete realization: an
integer point, n points and then the two rows of L, drawn by
`_integer_point`.  Every row of these patterns, including the F_p rigidity
rows and the 1d rows of :mod:`perigid.rigidity` and the realization system
of :mod:`perigid.direction_network`, is built by `_m112_row` or `_m222_row`
as sparse {column: value} entries mod p, at most eight per row; rows are
densified (`_dense`) only for dumps.

Generic rank is decided by sampling.  `sample_rows` draws one sample of
any of the three kinds, a plain list of entry rows in edge order, with
entries uniform in the prime field F_p, p = 2^61 - 1 (M112, M222, by
`natural_rows`), or at a uniform integer point (M232), and `rank_mod_p`
is the one sampled rank of all three.  A sample is eliminated
exactly and sparsely, rows in input order and columns sparsest first
(`_eliminate`), so a full-rank sample certifies the generic rank while a
deficient one is wrong with probability at most m/p per trial;
back-substitution in reverse elimination order gives a kernel
(`modp_kernel`).  Every rank and kernel here is exact over F_p, and the
module defines no float type: a realization is an integer point, and
:mod:`perigid.direction_network` draws the witness in floats only to print it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from .colored_graph import ColoredGraph
from .errors import DomainError, StructuralError

PRIME = (1 << 61) - 1
DEFAULT_TRIALS = 3
MAX_TRIALS = 64  # most samples one rank may draw
COORD_RANGE = 1 << 20  # integer sampling window for exact realizations


def _dense(entries: dict, width: int) -> tuple:
    row = [0] * width
    for j, x in entries.items():
        row[j] = x
    return tuple(row)


def _pattern_row(terms):
    """Sum (column, term) pairs in order, mod p: a cancelled loop entry stays as 0."""
    row = {}
    for j, x in terms:
        row[j] = row.get(j, 0) + x
    return {j: x % PRIME for j, x in row.items()}


def _m112_row(n, e, a):
    return _pattern_row(((e.tail, -a), (e.head, a), (n, e.color.g1 * a), (n + 1, e.color.g2 * a)))


def _m222_row(n, e, a, b):
    t, h, (g1, g2) = 2 * e.tail, 2 * e.head, e.color
    lattice = ((2 * n, g1 * a), (2 * n + 1, g1 * b), (2 * n + 2, g2 * a), (2 * n + 3, g2 * b))
    return _pattern_row(((t, -a), (t + 1, -b), (h, a), (h + 1, b)) + lattice)


def natural_rows(graph: ColoredGraph, a: dict[int, int], b: dict[int, int] | None = None) -> list[dict[int, int]]:
    """The M112 rows of the values a per edge id, or with b the M222 rows of the pairs (a, b).

    Loop rows cancel in the vertex block and keep only lattice entries.  The
    rigidity rows (M232) come from `_modp_rigidity_rows` at an integer point.
    """
    missing = [e.id for e in graph.edges if e.id not in a or b is not None and e.id not in b]
    if missing:
        raise StructuralError(f"values miss edges {missing}")
    if b is None:
        return [_m112_row(graph.n, e, a[e.id]) for e in graph.edges]
    return [_m222_row(graph.n, e, a[e.id], b[e.id]) for e in graph.edges]


def _nonzero_values(graph: ColoredGraph, rng: random.Random) -> dict[int, int]:
    """One nonzero value of F_p per edge id, drawn in edge order."""
    return {e.id: rng.randrange(1, PRIME) for e in graph.edges}


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


def _eliminate(rows, track: bool = False):
    """Insert rows in order into a sparse echelon form over F_p, sparsest column first.

    Before the first row, every column is placed by how many rows name it
    (nonzero mod p), ties by index: a static minimum-degree order, so the
    lattice columns that almost every row names come last and dense rows,
    where every count is equal, keep the index order.  A row, an entry row
    of {column: value}, is reduced by the pivot row stored at its first
    nonzero place until it vanishes or leads at a new place, where it is
    stored scaled to a leading 1.  Returns the pivot rows by leading place,
    in insertion order, with entries keyed by place; with track, the
    input-row combination (as entries) behind each row that vanished; and
    the column at each place.

    With track, each row's reduction steps (place, factor) are recorded,
    not applied to a combination as they happen.  Only when a row vanished
    are combinations built: first those of the pivots the vanished rows'
    steps reach, directly or through other pivots' steps, in the order the
    pivots were made, then each vanished row's.  The arithmetic is the one
    an eager update would do, so the combinations are the same, and a
    full-rank sample builds none.
    """
    p = PRIME
    rows = [{j: x % p for j, x in r.items() if x % p} for r in rows]
    count = Counter(chain.from_iterable(rows))
    order = sorted(sorted(count), key=count.__getitem__)
    place = {j: k for k, j in enumerate(order)}
    pivots, made, vanished = {}, {}, []
    for i, row in enumerate(rows):
        row = {place[j]: x for j, x in row.items()}
        steps = []
        while row:
            col = min(row)
            if col not in pivots:
                break
            f = row[col]
            _subtract(row, f, pivots[col], p)
            if track:
                steps.append((col, f))
        if row:
            inv = pow(row[col], -1, p)
            pivots[col] = {j: x * inv % p for j, x in row.items()}
            if track:
                made[col] = (i, steps, inv)
        elif track:
            vanished.append((i, steps))
    return pivots, _null_combinations(made, vanished) if track else [], order


def _null_combinations(made: dict, vanished: list) -> list[dict[int, int]]:
    """The input-row combination behind each vanished row, from the recorded
    steps: made maps a pivot's place to (row, steps, inverse of its leading
    value), in the order the pivots were made."""
    reached = {col for _, steps in vanished for col, _ in steps}
    for col in reversed(made):  # a pivot's steps reach only pivots made before it
        if col in reached:
            reached.update(c for c, _ in made[col][1])
    combos = {}

    def combination(i, steps):
        combo = {i: 1}
        for col, f in steps:
            _subtract(combo, f, combos[col], PRIME)
        return combo

    for col, (i, steps, inv) in made.items():
        if col in reached:
            combos[col] = {j: x * inv % PRIME for j, x in combination(i, steps).items()}
    return [combination(i, steps) for i, steps in vanished]


def modp_rank(rows: Sequence) -> int:
    """Row rank over F_p of entry rows ({column: value})."""
    return len(_eliminate(rows)[0])


def modp_kernel(rows: Sequence, width: int) -> list[list[int]]:
    """A basis of the x of length width with row . x = 0 mod p for every row:
    one per column no pivot row leads, by back-substitution from the last
    place to the first, each pivot row mapped back to its columns.
    """
    pivots, _, order = _eliminate(rows)
    back = [(order[k], [(order[j], v) for j, v in pivots[k].items()]) for k in sorted(pivots, reverse=True)]
    leads = {col for col, _ in back}
    basis = []
    for free in (j for j in range(width) if j not in leads):
        x = [0] * width
        x[free] = 1
        for col, row in back:  # x[col] is still 0: its leading 1 adds nothing
            x[col] = -sum(v * x[j] for j, v in row) % PRIME
        basis.append(x)
    return basis


def _integer_point(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """n points, then the two rows of L: integer pairs drawn uniformly from
    [-COORD_RANGE, COORD_RANGE]."""
    r = COORD_RANGE
    return [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(n + 2)]


def _integer_eta(xy: Sequence[tuple[int, int]], e) -> tuple[int, int]:
    """The displacement p_head + L*color - p_tail at the point xy, exactly."""
    (a, b), (c, d) = xy[-2:]
    g1, g2 = e.color.g1, e.color.g2
    return (xy[e.head][0] + a * g1 + b * g2 - xy[e.tail][0], xy[e.head][1] + c * g1 + d * g2 - xy[e.tail][1])


def _modp_rigidity_rows(graph: ColoredGraph, xy: Sequence[tuple[int, int]]) -> list[dict[int, int]]:
    """Entry rows mod p at the integer points xy[:n], with lattice rows xy[n], xy[n + 1]."""
    return [_m222_row(graph.n, e, *_integer_eta(xy, e)) for e in graph.edges]


@dataclass(frozen=True)
class RankReport:
    """A sampled generic rank; trials is the most samples drawn, as requested."""

    kind: str
    rank: int
    trials: int
    seed: int


def _check_trials(trials: int) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise DomainError("trials must be >= 1" if trials < 1 else f"trials must be <= {MAX_TRIALS}, got {trials}")


def _best_sampled_rank(draw_rows: Callable[[], Sequence], trials: int, ceiling: int) -> int:
    """Max F_p rank over at most trials samples, stopping at one that reaches ceiling.

    ceiling is min(m, columns - exact trivial kernel), a rank no sample can
    exceed, so later samples (whose draws nobody reads) could change nothing:
    * M112: min(m, n + 1); the all-ones vertex vector is in the kernel of
      every row, loops included.
    * M222: min(m, 2n + 2); both translations are in the kernel.
    * M232, F_p rows at integer points: min(m, 2n + 1); the kernel holds both
      translations and the rotation (Jp_1, ..., Jp_n; JL), which lies in
      their span only if L = 0 and all p_i are equal mod p: every row is 0.
    * 1d rows: min(m, n); the translation is in the kernel and column n + 1
      is always 0 (g2 = 0).
    """
    _check_trials(trials)
    best = 0
    for _ in range(trials):
        best = max(best, modp_rank(draw_rows()))
        if best == ceiling:
            break
    return best


def sample_rows(graph: ColoredGraph, kind: str, rng: random.Random) -> list[dict[int, int]]:
    """One F_p sample of the M112, M222 or M232 rows, in edge order, drawn from rng.

    M112 and M222 draw a nonzero a per edge and, for M222, then a b per edge
    (`natural_rows`); M232 is the rigidity rows at the integer point
    `_integer_point` draws.
    """
    if kind == "M232":
        return _modp_rigidity_rows(graph, _integer_point(graph.n, rng))
    a = _nonzero_values(graph, rng)
    return natural_rows(graph, a, _nonzero_values(graph, rng) if kind == "M222" else None)


def rank_mod_p(
    graph: ColoredGraph,
    kind: str = "M222",
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RankReport:
    """Generic rank of M112, M222 or M232 via random F_p samples; max over trials.

    A trial underestimates the generic rank with probability at most m/p,
    so the reported maximum is exact except with negligible probability;
    deterministic for a fixed seed.  The first sample that reaches
    min(m, n + 1) (M112), min(m, 2n + 2) (M222) or min(m, 2n + 1) (M232)
    ends the trials.
    """
    ceilings = {"M112": graph.n + 1, "M222": 2 * graph.n + 2, "M232": 2 * graph.n + 1}
    if kind not in ceilings:
        raise DomainError("rank_mod_p samples M112, M222 or M232")
    rng = random.Random(seed)
    best = _best_sampled_rank(lambda: sample_rows(graph, kind, rng), trials, min(graph.m, ceilings[kind]))
    return RankReport(kind, best, trials, seed)


def dump_matrix(graph: ColoredGraph, kind: str, rows: Sequence[dict[int, int]]) -> str:
    """Plain text dump of a M112, M222 or M232 sample: header line, then one dense row per line."""
    width = graph.n + 2 if kind == "M112" else 2 * graph.n + 4
    out = [f"mat {len(rows)} {width} fp"]
    out.extend(" ".join(map(str, _dense(row, width))) for row in rows)
    return "\n".join(out) + "\n"
