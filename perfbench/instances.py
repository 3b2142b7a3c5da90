"""Seeded instance families whose verdicts are known by construction.

Colored-Laman quotients grow from one vertex carrying the loops (1,0),
(0,1), (1,1) by Henneberg moves, which keep the colored-Laman property
(Nixon-Ross, "Periodic rigidity on a variable torus using inductive
constructions", EJC 2015).  An edge (t, h, g) has displacement
p_h + L g - p_t, as in the `.cg` format.

* 0-extension: a new vertex v with edges v->u (color x) and v->w (color y);
  when u == w the two colors differ.
* 1-extension: remove an edge a->b of color g and add v with v->a (x) and
  v->b (x + g), so the path a <- v -> b keeps the image g, plus v->c (y).
  y != x when c == a and y != x + g when c == b, so that no two edges
  between the same vertices carry the same color.

The other families are derived from these graphs.  Every expected rank is
confirmed with an exact F_p rank of the rigidity matrix at a random integer
realization, which never touches the sparsity code being measured.
"""

from __future__ import annotations

import random
from math import gcd

PRIME = (1 << 61) - 1
BASE_LOOPS = ((0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)))
COLOR_RANGE = 2
COORD_RANGE = 1 << 20


def _color(rng: random.Random) -> tuple[int, int]:
    return (rng.randint(-COLOR_RANGE, COLOR_RANGE), rng.randint(-COLOR_RANGE, COLOR_RANGE))


def _color_other_than(rng: random.Random, banned) -> tuple[int, int]:
    while True:
        c = _color(rng)
        if c not in banned:
            return c


def laman_edges(rng: random.Random, n: int, keep_base: bool = False) -> list:
    """Edge list of a colored-Laman graph on n vertices (m = 2n + 1).

    With keep_base the three base loops at vertex 0 are never split, so
    dropping them afterwards leaves a Ross graph.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    edges = list(BASE_LOOPS)
    for v in range(1, n):
        splittable = range(3 if keep_base else 0, len(edges))
        if not splittable or rng.random() < 0.5:
            u, w = rng.randrange(v), rng.randrange(v)
            x = _color(rng)
            y = _color_other_than(rng, {x} if u == w else set())
            edges += [(v, u, x), (v, w, y)]
        else:
            a, b, g = edges.pop(rng.choice(splittable))
            c = rng.randrange(v)
            x = _color(rng)
            xg = (x[0] + g[0], x[1] + g[1])
            banned = ({x} if c == a else set()) | ({xg} if c == b else set())
            edges += [(v, a, x), (v, b, xg), (v, c, _color_other_than(rng, banned))]
    return _shuffled(rng, n, edges, pinned=0 if keep_base else None)


def _shuffled(rng: random.Random, n: int, edges: list, pinned: int | None) -> list:
    """Relabel vertices, reverse some edges and permute the edge order.

    Reversing an edge negates its color, so every count is unchanged.  With
    `pinned` set, that vertex keeps its label and the first three edges stay
    first (the base loops of a Ross construction).
    """
    perm = list(range(n))
    movable = [v for v in perm if v != pinned]
    rng.shuffle(movable)
    it = iter(movable)
    perm = [v if v == pinned else next(it) for v in range(n)]
    out = []
    for t, h, (g1, g2) in edges:
        t, h = perm[t], perm[h]
        if rng.random() < 0.5:
            t, h, g1, g2 = h, t, -g1, -g2
        out.append((t, h, (g1, g2)))
    head, tail = (out[:3], out[3:]) if pinned is not None else ([], out)
    rng.shuffle(tail)
    return head + tail


def random_edge(rng: random.Random, n: int):
    """A random edge that is not a (0,0)-loop."""
    while True:
        t, h, c = rng.randrange(n), rng.randrange(n), _color(rng)
        if t != h or c != (0, 0):
            return (t, h, c)


# ---------------------------------------------------------------------------
# Exact ranks over F_p, independent of perigid.
# ---------------------------------------------------------------------------


def _eliminate(mat: list[list[int]], pivot_cols: int) -> int:
    """Row-reduce mat in place over F_p, pivoting in its first columns; returns the rank."""
    rank = 0
    for col in range(pivot_cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = pow(prow[col], PRIME - 2, PRIME)
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] * inv % PRIME
            if f:
                row = mat[i]
                for j in range(col, len(row)):
                    row[j] = (row[j] - f * prow[j]) % PRIME
        rank += 1
        if rank == len(mat):
            break
    return rank


def fp_rank(rows) -> int:
    mat = [list(r) for r in rows]
    return _eliminate(mat, len(mat[0]) if mat else 0)


def dependencies(rows) -> tuple[int, list[frozenset[int]]]:
    """Rank of the rows over F_p and the supports of a basis of their dependencies.

    Eliminates [rows | identity]; each row whose left part vanishes records,
    in its right part, a linear combination of the input rows equal to zero.
    """
    m = len(rows)
    width = len(rows[0]) if rows else 0
    aug = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    rank = _eliminate(aug, width)
    return rank, [frozenset(j for j in range(m) if r[width + j]) for r in aug[rank:]]


def rigidity_rows(n: int, edges, rng: random.Random) -> list:
    """Rows of the m x (2n+4) rigidity matrix at a random integer realization."""
    pts = [(rng.randint(-COORD_RANGE, COORD_RANGE), rng.randint(-COORD_RANGE, COORD_RANGE)) for _ in range(n)]
    lat = [rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(4)]  # L = [[l0, l1], [l2, l3]]
    rows = []
    for t, h, (g1, g2) in edges:
        ex = pts[h][0] + lat[0] * g1 + lat[1] * g2 - pts[t][0]
        ey = pts[h][1] + lat[2] * g1 + lat[3] * g2 - pts[t][1]
        row = [0] * (2 * n + 4)
        row[2 * t] -= ex
        row[2 * t + 1] -= ey
        row[2 * h] += ex
        row[2 * h + 1] += ey
        row[2 * n] += g1 * ex
        row[2 * n + 1] += g1 * ey
        row[2 * n + 2] += g2 * ex
        row[2 * n + 3] += g2 * ey
        rows.append([x % PRIME for x in row])
    return rows


def rigidity_rank(n: int, edges, rng: random.Random) -> int:
    return fp_rank(rigidity_rows(n, edges, rng))


def oned_rank(n: int, edges, rng: random.Random) -> int:
    """Rank of the m x (n+1) rigidity matrix of a Z-colored graph."""
    xs = [rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(n)]
    lat = rng.randint(-COORD_RANGE, COORD_RANGE)
    rows = []
    for t, h, (g1, _) in edges:
        eta = xs[h] + g1 * lat - xs[t]
        row = [0] * (n + 1)
        row[t] -= eta
        row[h] += eta
        row[n] += g1 * eta
        rows.append([x % PRIME for x in row])
    return fp_rank(rows)


def circuit_of(n: int, edges, rng: random.Random) -> frozenset[int]:
    """Edge indices of the unique circuit of a graph with exactly one dependency."""
    rank, deps = dependencies(rigidity_rows(n, edges, rng))
    if len(deps) != 1:
        raise ValueError(f"expected exactly one dependency, rank {rank} of {len(edges)}")
    return deps[0]


def is_circuit(n: int, edges, rng: random.Random) -> bool:
    """Is the edge set minimally dependent in the generic rigidity matroid?"""
    if not edges:
        return False
    _, deps = dependencies(rigidity_rows(n, edges, rng))
    return len(deps) == 1 and deps[0] == frozenset(range(len(edges)))


# ---------------------------------------------------------------------------
# Counts by a gain union-find, independent of perigid.
# ---------------------------------------------------------------------------


def counts(edges) -> dict:
    """n', m', c', rk' of an edge set and the index of its image lattice."""
    parent: dict[int, int] = {}
    pot: dict[int, tuple[int, int]] = {}

    def find(v):
        if v not in parent:
            parent[v], pot[v] = v, (0, 0)
        px = py = 0
        while parent[v] != v:
            px, py = px + pot[v][0], py + pot[v][1]
            v = parent[v]
        return v, px, py

    images = []
    for t, h, (g1, g2) in edges:
        rt, tx, ty = find(t)
        rh, hx, hy = find(h)
        if rt == rh:
            images.append((g1 + tx - hx, g2 + ty - hy))
        else:
            parent[rh], pot[rh] = rt, (g1 + tx - hx, g2 + ty - hy)
    minors = [x1 * y2 - y1 * x2 for i, (x1, y1) in enumerate(images) for x2, y2 in images[i + 1 :]]
    index = 0
    for d in minors:
        index = gcd(index, abs(d))
    if index:
        rk = 2
    else:
        rk = 1 if any(x or y for x, y in images) else 0
    c = sum(1 for v in parent if parent[v] == v)
    return {"n": len(parent), "m": len(edges), "c": c, "rk": rk, "index": index or None}


# ---------------------------------------------------------------------------
# Families.  Each returns (n, edges, expectation).
# ---------------------------------------------------------------------------


def minimal(rng: random.Random, n: int):
    edges = laman_edges(rng, n)
    return n, edges, {"status": "generically_minimally_rigid", "rank": 2 * n + 1, "dof": 0, "code": 0}


def overbraced(rng: random.Random, n: int):
    """Tight graph plus three edges; the greedy basis is the tight graph."""
    edges = laman_edges(rng, n)
    extra = [random_edge(rng, n) for _ in range(3)]
    first_circuit = circuit_of(n, edges + extra[:1], rng)
    expect = {
        "status": "generically_rigid_overconstrained",
        "rank": 2 * n + 1,
        "dof": 0,
        "code": 0,
        "circuit": sorted(first_circuit),
    }
    return n, edges + extra, expect


def flexible_nonsparse(rng: random.Random, n: int):
    """Tight graph plus one edge, minus two edges off its unique circuit.

    The two deleted edges are coloops, so the rank drops to 2n - 1 while the
    circuit survives: flexible with 2 degrees of freedom, and not sparse.
    """
    while True:
        edges = laman_edges(rng, n) + [random_edge(rng, n)]
        circuit = circuit_of(n, edges, rng)
        off = [i for i in range(len(edges)) if i not in circuit]
        if len(off) >= 2:
            break
    drop = set(rng.sample(off, 2))
    keep = [i for i in range(len(edges)) if i not in drop]
    renumber = {old: new for new, old in enumerate(keep)}
    expect = {
        "status": "generically_flexible",
        "rank": 2 * n - 1,
        "dof": 2,
        "code": 1,
        "circuit": sorted(renumber[i] for i in circuit),
    }
    return n, [edges[i] for i in keep], expect


def ross(rng: random.Random, n: int, genuine: bool):
    """Graph with m = 2n - 2 that is a Ross graph or, if not genuine, is not.

    The non-Ross variant deletes one edge and appends a same-colored twin of
    another non-loop edge, as the last two edges: any violating subset holds
    both twins, and the exhaustive check meets them first.
    """
    edges = laman_edges(rng, n, keep_base=True)[3:]
    if not genuine:
        edges.pop(rng.randrange(len(edges)))
        twin = rng.choice([e for e in edges if e[0] != e[1]])
        edges.remove(twin)
        edges += [twin, twin]
    return n, edges, {"ross": genuine, "code": 0 if genuine else 1}


def numeric(rng: random.Random, n: int):
    """Tight graph for the rank, develop and cover commands."""
    edges = laman_edges(rng, n)
    c = counts(edges)
    expect = {"rank": 2 * n + 1, "index": c["index"]}
    return n, edges, expect


def z_colored(rng: random.Random, n: int):
    """Tight graph with colors projected to (g1, 0); rigid on the line."""
    while True:
        edges = [(t, h, (g1, 0)) for t, h, (g1, _) in laman_edges(rng, n)]
        c = counts(edges)
        if c["c"] == 1 and c["rk"] >= 1:
            return n, edges, {"status": "generically_rigid_overconstrained", "rank": n, "code": 0}


def to_cg(n: int, edges) -> str:
    lines = [f"cg 2 {n} {len(edges)}"]
    lines += [f"{t} {h} {g1} {g2}" for t, h, (g1, g2) in edges]
    return "\n".join(lines) + "\n"
