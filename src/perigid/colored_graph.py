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
from dataclasses import dataclass
from math import gcd
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

    def plus(self, other: Sequence[int]) -> "ColorVector":
        return ColorVector(self.g1 + other[0], self.g2 + other[1])


def _color(value: Sequence[int]) -> ColorVector:
    g1, g2 = value
    return ColorVector(int(g1), int(g2))


@dataclass(frozen=True)
class ColoredEdge:
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
        seen: set[int] = set()
        for e in self.edges:
            if not (0 <= e.tail < self.n and 0 <= e.head < self.n):
                raise StructuralError(
                    f"edge {e.id}: endpoint out of range [0, {self.n})"
                )
            if e.id in seen:
                raise StructuralError(f"duplicate edge id {e.id}")
            seen.add(e.id)
        self._warn_multiplicity()
        object.__setattr__(self, "_by_id", {e.id: e for e in self.edges})

    def _warn_multiplicity(self):
        pairs: dict[tuple[int, int], int] = {}
        loops: dict[int, int] = {}
        for e in self.edges:
            if e.tail == e.head:
                loops[e.tail] = loops.get(e.tail, 0) + 1
            else:
                key = (min(e.tail, e.head), max(e.tail, e.head))
                pairs[key] = pairs.get(key, 0) + 1
        bad_pairs = [k for k, v in pairs.items() if v > MAX_PARALLEL]
        bad_loops = [v for v, c in loops.items() if c > MAX_LOOPS]
        if bad_pairs or bad_loops:
            warnings.warn(
                "multiplicity exceeds the 6-parallel/4-loop ground set; "
                "excess copies are always dependent "
                f"(pairs={bad_pairs}, loop vertices={bad_loops})",
                MultiplicityWarning,
                stacklevel=3,
            )

    @classmethod
    def build(
        cls, n: int, edges: Iterable[tuple[int, int, Sequence[int]]]
    ) -> "ColoredGraph":
        """Construct from (tail, head, (g1, g2)) triples; ids run 0..m-1."""
        built = tuple(
            ColoredEdge(i, int(t), int(h), _color(c))
            for i, (t, h, c) in enumerate(edges)
        )
        return cls(n, built)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> ColoredEdge:
        return self._by_id[eid]

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.edges)

    # -- the loops `perigid.rigidity.is_ross` adds -------------------------

    def with_extra_loops(
        self, vertex: int, colors: Iterable[Sequence[int]]
    ) -> "ColoredGraph":
        base = max((x.id for x in self.edges), default=-1) + 1
        extra = tuple(
            ColoredEdge(base + i, vertex, vertex, _color(c))
            for i, c in enumerate(colors)
        )
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
    chosen = map(graph.edge, subset.sorted_ids())
    return GainScan(((e.id, e.tail, e.head, e.color) for e in chosen), vertices)


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
    window: Window
    vertices: tuple[tuple[int, ColorVector], ...]
    edges: tuple[tuple[int, ColorVector, tuple[int, ColorVector], tuple[int, ColorVector]], ...]
    k: int
    index: int | None
    per_component: tuple[ComponentClassification, ...]
    predicted_infinite_components: float  # int count or math.inf
    predicted_finite_components: float  # 0 or math.inf
    observed_components: int
    observed_core_components: int
    component_of: dict[tuple[int, ColorVector], int]


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

    cells = [
        ColorVector(gx, gy) for gx in range(x0, x1 + 1) for gy in range(y0, y1 + 1)
    ]
    verts = tuple((i, cell) for cell in cells for i in range(graph.n))

    def in_window(c: ColorVector) -> bool:
        return x0 <= c.g1 <= x1 and y0 <= c.g2 <= y1

    dev_edges = []
    uf: dict[tuple[int, ColorVector], tuple[int, ColorVector]] = {v: v for v in verts}

    def find(v):
        while uf[v] != v:
            uf[v] = uf[uf[v]]
            v = uf[v]
        return v

    for e in graph.edges:
        for cell in cells:
            target = cell.plus(e.color)
            if in_window(target):
                a, b = (e.tail, cell), (e.head, target)
                dev_edges.append((e.id, cell, a, b))
                ra, rb = find(a), find(b)
                if ra != rb:
                    uf[ra] = rb

    roots: dict[tuple[int, ColorVector], list] = {}
    for v in verts:
        roots.setdefault(find(v), []).append(v)
    ordered = sorted(roots.values(), key=lambda comp: min(comp))
    component_of = {v: i for i, comp in enumerate(ordered) for v in comp}

    core = [
        v
        for v in verts
        if x0 + 1 <= v[1].g1 <= x1 - 1 and y0 + 1 <= v[1].g2 <= y1 - 1
    ]
    core_components = len({component_of[v] for v in core})

    return DevelopmentReport(
        window=window,
        vertices=verts,
        edges=tuple(dev_edges),
        k=k,
        index=index,
        per_component=tuple(per_component),
        predicted_infinite_components=pred_inf,
        predicted_finite_components=pred_fin,
        observed_components=len(ordered),
        observed_core_components=core_components,
        component_of=component_of,
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

    def residue(x: int, y: int) -> tuple[int, int]:
        r1 = x % h11
        y -= ((x - r1) // h11) * h21
        return r1, y % h22

    residues = [(rx, ry) for rx in range(h11) for ry in range(h22)]
    res_index = {r: i for i, r in enumerate(residues)}

    def lattice_coords(x: int, y: int) -> ColorVector:
        # solve basis * t = (x, y) exactly
        tx = d * x - b * y
        ty = -c * x + a * y
        if tx % det or ty % det:
            raise StructuralError("vector is not in the sub-lattice")
        return ColorVector(tx // det, ty // det)

    new_edges = []
    for e in graph.edges:
        for r in residues:
            sx, sy = r
            tx, ty = sx + e.color.g1, sy + e.color.g2
            rx, ry = residue(tx, ty)
            shift = lattice_coords(tx - rx, ty - ry)
            new_edges.append(
                (
                    e.tail * sheets + res_index[r],
                    e.head * sheets + res_index[(rx, ry)],
                    shift,
                )
            )
    return ColoredGraph.build(graph.n * sheets, new_edges)
