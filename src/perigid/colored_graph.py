"""Z^2-colored multigraphs and their cycle-space invariants.

A colored graph is a finite directed multigraph with an element of Z^2 (the
"color") on every edge.  It is the finite quotient description of an infinite
plane-periodic graph: vertices stand for translation orbits, and the color of
an edge records which translate of the head representative the edge reaches.
Everything downstream (sparsity counts, matroids, direction networks,
rigidity) operates on these quotient objects.

The key invariant is the map sending a closed walk to the signed sum of its
edge colors.  Its image generates a subgroup of Z^2 whose rank (0, 1 or 2)
drives all the counting formulas in :mod:`perigid.sparsity`; the gain forest
`GainScan` reads a generating set off its non-tree edges, one image each.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import count, product, repeat
from math import gcd
from operator import add, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetError, MultiplicityWarning, StructuralError

MAX_PARALLEL = 6  # copies of an edge any sparse graph can use
MAX_LOOPS = 4  # self-loops per vertex, same reasoning
MAX_VERTICES = 1 << 16  # vertex budget of a parsed graph, a development or a cover
MAX_EDGES = 1 << 18  # edge budget of the same
MAX_COLOR = 1 << 53  # largest |color entry| of a parsed graph: the last one exact as a float


def _check_budget(what: str, graph: ColoredGraph, copies: int) -> None:
    """Refuse, before allocating, max(n, 1) * copies vertices or m * copies edges over
    the budget; max(n, 1) since the per-copy lists are built even when n = 0."""
    if max(graph.n, 1) * copies > MAX_VERTICES:
        raise BudgetError(
            f"{what} of {copies} x {graph.n} vertices exceeds the vertex budget {MAX_VERTICES}"
        )
    if graph.m * copies > MAX_EDGES:
        raise BudgetError(f"{what} of {copies} x {graph.m} edges exceeds the edge budget {MAX_EDGES}")


class ColorVector(NamedTuple):
    """Element of Z^2: an edge color, a cycle image, or a vertex potential."""

    g1: int
    g2: int


class ColoredEdge(NamedTuple):
    """Directed edge with a stable id; parallel copies carry distinct ids."""

    id: int
    tail: int
    head: int
    color: ColorVector


@dataclass(frozen=True)
class ColoredGraph:
    """Finite directed multigraph with Z^2 colors; immutable after build."""

    n: int
    edges: tuple[ColoredEdge, ...]

    def __post_init__(self):
        n, edges = self.n, self.edges
        ids, tails, heads, _ = zip(*edges) if edges else ((),) * 4
        by_id, ends = dict(zip(ids, edges)), tails + heads
        if min(ends, default=0) < 0 or max(ends, default=-1) >= n or len(by_id) < len(edges):
            seen: set[int] = set()  # name the first edge at fault
            for e in edges:
                if not (0 <= e.tail < n and 0 <= e.head < n):
                    raise StructuralError(f"edge {e.id}: endpoint out of range [0, {n})")
                if e.id in seen:
                    raise StructuralError(f"duplicate edge id {e.id}")
                seen.add(e.id)
        self._warn_multiplicity(tails, heads)
        object.__setattr__(self, "_by_id", by_id)

    @staticmethod
    def _warn_multiplicity(tails, heads):
        """Warn of the vertex pairs and loop vertices over the ground set, by first copy;
        a pair {t, h} is keyed by t + h and |t - h|, which determine it."""
        pairs = Counter(zip(map(add, tails, heads), map(abs, map(sub, tails, heads))))
        if max(pairs.values(), default=0) <= MAX_LOOPS:
            return
        bad_pairs = [((s - d) // 2, (s + d) // 2) for (s, d), c in pairs.items() if c > MAX_PARALLEL and d]
        bad_loops = [s // 2 for (s, d), c in pairs.items() if c > MAX_LOOPS and not d]
        if bad_pairs or bad_loops:
            warnings.warn(
                "multiplicity exceeds the 6-parallel/4-loop ground set; "
                "excess copies are always dependent "
                f"(pairs={bad_pairs}, loop vertices={bad_loops})",
                MultiplicityWarning,
                stacklevel=3,
            )

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int, Sequence[int]]]) -> "ColoredGraph":
        """Construct from (tail, head, (g1, g2)) triples; ids run 0..m-1.  Every
        field goes through int(), so bools and other integer types become plain ints."""
        triples = tuple(edges)
        tails, heads, colors = zip(*triples, strict=True) if triples else ((),) * 3
        g1, g2 = zip(*colors, strict=True) if triples else ((),) * 2
        return cls._of_columns(n, *(map(int, column) for column in (tails, heads, g1, g2)))

    @classmethod
    def _of_columns(cls, n: int, tails, heads, g1, g2) -> "ColoredGraph":
        """Edge i runs tails[i] -> heads[i] colored (g1[i], g2[i]), all plain ints;
        every edge and color is made by C-level map and zip."""
        colors = map(tuple.__new__, repeat(ColorVector), zip(g1, g2))
        return cls(n, tuple(map(tuple.__new__, repeat(ColoredEdge), zip(count(), tails, heads, colors))))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> ColoredEdge:
        return self._by_id[eid]

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(self._by_id)

    # -- the loops `perigid.rigidity.is_ross` adds -------------------------

    def with_extra_loops(self, vertex: int, colors: Iterable[Sequence[int]]) -> "ColoredGraph":
        base = max(self._by_id, default=-1) + 1
        extra = tuple(ColoredEdge(base + i, vertex, vertex, ColorVector(*map(int, c))) for i, c in enumerate(colors))
        return ColoredGraph(self.n, self.edges + extra)


@dataclass(frozen=True)
class EdgeSubset:
    """A set of edge ids of a host graph; subgraphs here are edge-induced."""

    graph: ColoredGraph
    ids: frozenset[int]

    def __post_init__(self):
        ids = frozenset(self.ids)
        if not self.graph._by_id.keys() >= ids:
            raise StructuralError("subset references unknown edge ids")
        object.__setattr__(self, "ids", ids)

    @classmethod
    def full(cls, graph: ColoredGraph) -> "EdgeSubset":
        return cls(graph, frozenset(graph.edge_ids()))

    @classmethod
    def of(cls, graph: ColoredGraph, ids: Iterable[int]) -> "EdgeSubset":
        return cls(graph, frozenset(ids))

    def sorted_ids(self) -> list[int]:
        return sorted(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


# ---------------------------------------------------------------------------
# Gain forest: the workhorse for counts, rank, potentials and cycle walks.
# ---------------------------------------------------------------------------


class GainScan:
    """Rooted spanning forest with Z^2 potentials over a list of colored edges.

    Built in one breadth-first pass over `edges`, (id, tail, head, (g1, g2))
    tuples with adjacency in the order given; each of `vertices` the edges
    miss becomes a tree of its own.  Everything is plain ints:

    * `up[v] = (u, y, g1, g2)`: v hangs under u by tree edge y, and
      sigma(v) - sigma(u) = (g1, g2); a root has no entry;
    * `root[v] = (r, p1, p2)` for every spanned vertex: v's tree has root r,
      and sigma(v) - sigma(r) = (p1, p2);
    * `trees[r]`: the vertices of the tree rooted at r;
    * `extras`: the non-tree edges, and `images` their cycle images
      color + sigma(tail) - sigma(head).

    :meth:`add` grows the forest by one edge and is its only change.
    """

    __slots__ = ("up", "root", "trees", "extras", "images")

    def __init__(
        self, edges: Iterable[tuple[int, int, int, Sequence[int]]], vertices: Iterable[int] = ()
    ):
        edges = list(edges)
        adj: dict[int, list[tuple[int, int, int, int]]] = {}
        for y, t, h, (g1, g2) in edges:
            adj.setdefault(t, []).append((h, y, g1, g2))
            adj.setdefault(h, []).append((t, y, -g1, -g2))
        for v in vertices:
            adj.setdefault(v, [])
        up: dict[int, tuple[int, int, int, int]] = {}
        root: dict[int, tuple[int, int, int]] = {}
        trees: dict[int, list[int]] = {}
        for r in adj:
            if r in root:
                continue
            root[r] = (r, 0, 0)
            bfs = trees[r] = [r]
            for u in bfs:
                _, p1, p2 = root[u]
                for v, y, g1, g2 in adj[u]:
                    if v not in root:
                        root[v] = (r, p1 + g1, p2 + g2)
                        up[v] = (u, y, g1, g2)
                        bfs.append(v)
        tree = {y for _, y, _, _ in up.values()}
        self.up, self.root, self.trees = up, root, trees
        self.extras: list[int] = []
        self.images: list[tuple[int, int]] = []
        for y, t, h, (g1, g2) in edges:
            if y not in tree:
                _, t1, t2 = root[t]
                _, h1, h2 = root[h]
                self.extras.append(y)
                self.images.append((g1 + t1 - h1, g2 + t2 - h2))

    def add(self, eid: int, tail: int, head: int, color: Sequence[int]):
        """Grow the forest by one edge.

        A new end starts as a tree of its own.  An edge inside one tree
        becomes a non-tree edge with its image; an edge between two trees
        hangs the smaller one under the other's end, re-rooted at its own end,
        and shifts that tree's roots and potentials.
        """
        g1, g2 = color
        root, trees = self.root, self.trees
        for v in (tail, head):
            if v not in root:
                root[v] = (v, 0, 0)
                trees[v] = [v]
        rt, t1, t2 = root[tail]
        rh, h1, h2 = root[head]
        if rt == rh:
            self.extras.append(eid)
            self.images.append((g1 + t1 - h1, g2 + t2 - h2))
            return
        if len(trees[rt]) > len(trees[rh]):  # hang head's tree under tail
            rt, t1, t2, rh, h1, h2 = rh, h1, h2, rt, t1, t2
            tail, head, g1, g2 = head, tail, -g1, -g2
        # now tail's tree is the smaller: re-root it at tail, hang it under head
        up = self.up
        v, link = tail, (head, eid, -g1, -g2)
        while v != rt:
            u, y, c1, c2 = up[v]
            up[v] = link
            v, link = u, (v, y, -c1, -c2)
        up[rt] = link
        # sigma(w) - sigma(rh) = (sigma(w) - sigma(tail)) + (sigma(head) - sigma(rh)) - color
        s1, s2 = h1 - g1 - t1, h2 - g2 - t2
        moved = trees.pop(rt)
        for w in moved:
            _, p1, p2 = root[w]
            root[w] = (rh, p1 + s1, p2 + s2)
        trees[rh].extend(moved)


def image_rank(images: Iterable[Sequence[int]]) -> int:
    """Rank over Q of a family of Z^2 vectors: 0, 1 or 2."""
    ax = ay = 0
    seen = False
    for x, y in images:
        if x == 0 and y == 0:
            continue
        if not seen:
            ax, ay, seen = x, y, True
        elif ax * y - ay * x != 0:
            return 2
    return 1 if seen else 0


def _triangular(vectors: Iterable[Sequence[int]]) -> tuple[int, int, int]:
    """A triangular basis (a, b), (0, d) of the subgroup the vectors generate.

    Euclid's unimodular row steps reduce each vector (x, y) against (a, b)
    to (0, y'), which joins d >= 0; b is kept reduced mod d once d > 0.
    """
    a = b = d = 0
    for x, y in vectors:
        while x:
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        d = gcd(d, y)
        if d:
            b %= d
    return a, b, d


def lattice_index(images: Iterable[Sequence[int]]) -> int | None:
    """Index in Z^2 of the subgroup generated by the images; None if infinite.

    The index |a|*d of the `_triangular` basis is the gcd of all 2x2 minors
    of the images (the product of the Smith normal form diagonal).
    """
    a, _, d = _triangular(images)
    return abs(a) * d or None


def scan_subset(subset: EdgeSubset, vertices: Iterable[int] = ()) -> GainScan:
    """The gain forest of the subset's edges in id order, plus `vertices`."""
    graph = subset.graph
    return GainScan(map(graph.edge, subset.sorted_ids()), vertices)


def z2_rank(subset: EdgeSubset) -> int:
    """Rank of the subgroup of Z^2 generated by the subset's cycle images."""
    return image_rank(scan_subset(subset).images)


# ---------------------------------------------------------------------------
# Developments: finite windows of the infinite periodic graph.
# ---------------------------------------------------------------------------

Window = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ComponentClassification:
    """Development prediction for one connected component of the quotient."""

    vertices: tuple[int, ...]
    k: int
    index: int | None  # finite only when k == 2
    prediction: str


@dataclass(frozen=True)
class DevelopmentReport:
    """A window of the development; vertex (i, cell c) is the int c * n + i,
    the cells numbered row-major (x outer) from the window's corner.  `edges`
    are (edge id, tail, head) by edge id, then cell; `component[v]` numbers
    the components in the order of their first vertex by (i, cell)."""

    window: Window
    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    k: int
    index: int | None
    per_component: tuple[ComponentClassification, ...]
    predicted_infinite_components: float  # int count or math.inf
    predicted_finite_components: float  # 0 or math.inf
    observed_components: int
    observed_core_components: int
    component: list[int]


def _predict(k: int, index: int | None) -> str:
    if k == 2:
        return f"{index} infinite components"
    if k == 1:
        return "infinitely many infinite components"
    return "infinitely many finite components"


def develop_window(graph: ColoredGraph, window: Window) -> DevelopmentReport:
    """Develop the quotient graph over a finite rectangle of translates.

    The development has vertex set V x Z^2; this materializes the cells in
    `window` (inclusive bounds), keeps the edges with both endpoints inside,
    and compares the observed connectivity with the prediction derived from
    the cycle-image rank k and, for k = 2, the index of the image lattice.
    Component counting uses the window core (a 1-cell margin is dropped) so
    that truncation artifacts at the boundary do not split components.
    The union-find is one list over the integer vertex ids; the cells whose
    translate by an edge's color stays inside are one clamped range per axis.
    """
    (x0, x1), (y0, y1) = window
    if x1 < x0 or y1 < y0:
        raise StructuralError("empty development window")
    _check_budget("development window", graph, (x1 - x0 + 1) * (y1 - y0 + 1))

    # classification of the quotient graph, component by component: the
    # images of a component's non-tree edges generate its image subgroup
    scan = scan_subset(EdgeSubset.full(graph), range(graph.n))
    images_of: dict[int, list[tuple[int, int]]] = {r: [] for r in scan.trees}
    for y, image in zip(scan.extras, scan.images):
        images_of[scan.root[graph.edge(y).tail][0]].append(image)
    per_component = []
    pred_inf: float = 0
    pred_fin: float = 0
    for r, tree in sorted(scan.trees.items(), key=lambda item: min(item[1])):
        imgs = images_of[r]
        k_c = image_rank(imgs)
        idx_c = lattice_index(imgs) if k_c == 2 else None
        per_component.append(
            ComponentClassification(tuple(sorted(tree)), k_c, idx_c, _predict(k_c, idx_c))
        )
        if k_c == 2:
            pred_inf += idx_c
        elif k_c == 1:
            pred_inf = math.inf
        else:
            pred_fin = math.inf
    k = image_rank(scan.images)
    index = lattice_index(scan.images) if k == 2 else None

    n = graph.n
    width, height = x1 - x0 + 1, y1 - y0 + 1
    count = width * height * n
    parent = list(range(count))
    dev_edges = []
    for eid, tail, head, (g1, g2) in graph.edges:
        shift = (g1 * height + g2) * n + head - tail
        gys = range(max(0, -g2), min(height, height - g2))
        for gx in range(max(0, -g1), min(width, width - g1)):
            for gy in gys:
                a = (gx * height + gy) * n + tail
                b = a + shift
                dev_edges.append((eid, a, b))
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    parent[a] = b

    # number the components by their first vertex in (i, cell) order
    component = [0] * count
    number: dict[int, int] = {}
    for i in range(n):
        for v in range(i, count, n):
            r = v
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            component[v] = number.setdefault(r, len(number))
    core = set()  # a row's cells inside the 1-cell margin have consecutive ids
    for gx in range(1, width - 1):
        core.update(component[(gx * height + 1) * n : (gx * height + height - 1) * n])

    return DevelopmentReport(
        window=window,
        vertex_count=count,
        edges=tuple(dev_edges),
        k=k,
        index=index,
        per_component=tuple(per_component),
        predicted_infinite_components=pred_inf,
        predicted_finite_components=pred_fin,
        observed_components=len(number),
        observed_core_components=len(core),
        component=component,
    )


# ---------------------------------------------------------------------------
# Sub-lattice covers.
# ---------------------------------------------------------------------------


def sublattice_cover(
    graph: ColoredGraph, basis: Sequence[Sequence[int]]
) -> ColoredGraph:
    """Pass to the finite cover determined by a sub-lattice of Z^2.

    `basis` is a 2x2 integer matrix (rows) whose columns generate the
    sub-lattice.  The cover has one vertex (i, r) per original vertex and
    residue class r, an edge (i, r) -> (j, r + color mod Lambda) for every
    original edge, and colors rewritten in sub-lattice coordinates.  Vertex
    (i, r) gets index i * l + rank(r) with residues ordered lexicographically.
    """
    a, b = int(basis[0][0]), int(basis[0][1])
    c, d = int(basis[1][0]), int(basis[1][1])
    det = a * d - b * c
    if det == 0:
        raise StructuralError("sub-lattice basis must have nonzero determinant")
    _check_budget("sub-lattice cover", graph, abs(det))
    # lower-triangular column Hermite form of the basis
    h11, h21, h22 = _triangular(((a, c), (b, d)))
    if h11 < 0:
        h11, h21 = -h11, -h21 % h22
    sheets = h11 * h22

    def lift(g1: int, g2: int) -> tuple[tuple[int, ...], ...]:
        """Per residue r in order: the rank of the residue r' of r + color, and
        the sub-lattice coordinates of r + color - r'."""
        out = []
        for rx, ry in product(range(h11), range(h22)):
            x, y = rx + g1, ry + g2
            sx = x % h11
            sy = (y - (x - sx) // h11 * h21) % h22
            tx, ty = d * (x - sx) - b * (y - sy), a * (y - sy) - c * (x - sx)  # basis * t = (x, y) - r'
            if tx % det or ty % det:
                raise StructuralError("vector is not in the sub-lattice")
            out.append((sx * h22 + sy, tx // det, ty // det))
        return tuple(zip(*out))

    lifts: dict[ColorVector, tuple[tuple[int, ...], ...]] = {}
    tails, heads, g1, g2 = [], [], [], []
    for _, t, h, color in graph.edges:
        to, s1, s2 = lifts.get(color) or lifts.setdefault(color, lift(*color))
        tails.extend(range(t * sheets, (t + 1) * sheets))
        heads.extend(map((h * sheets).__add__, to))
        g1.extend(s1)
        g2.extend(s2)
    return ColoredGraph._of_columns(graph.n * sheets, tails, heads, g1, g2)
