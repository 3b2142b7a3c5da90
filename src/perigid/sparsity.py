"""Graded-sparsity counts and matroids for colored graphs.

The count function f(E') = n' + rk' - c' (vertices spanned, cycle-image rank,
components of the edge-induced subgraph) is the rank function of a matroid on
the edges of a colored graph.  Everything in this module is built from it:

* independence under f (the "(1,1,k)" family: spanning trees plus k extra
  edges realizing k independent cycle images),
* independence under 2f via matroid union (the "(2,2,k)" family, equivalently
  edge-disjoint unions of two spanning (1,1,k)-graphs),
* independence under 2f - 1 on nonempty subsets (the "colored-Laman" family
  characterizing generic minimal rigidity), decided through edge doubling
  (Streinu-Theran): a set grown one edge at a time stays colored-Laman-sparse
  iff doubling the edge just added leaves it (2,2,2)-sparse.  Each doubling
  probe inserts the copy into the one live partition and takes it out again,
  since a part minus an element stays f-independent,
* the id-order greedy basis of that colored-Laman matroid, and a certified
  exhaustive checker.  The checker is exponential, so no library or CLI path
  calls it: it is the reference the tests compare against.

Matroid union never probes a circuit one element at a time: each exchange
step reads the fundamental circuit of a part plus one edge off the two root
paths of its ends in the part's gain forest (:class:`GainScan`,
:meth:`PartitionState._circuit`).  A direct insertion grows the forest by
that edge; a removal or an exchange chain drops it, and the next read
builds it again in one breadth-first pass.
`perigid.rigidity.laman_analysis` finds the greedy basis by an F_p
elimination this module cannot import and certifies it with the counts
here; the greedy search is its test reference.

Empty subsets have n' = m' = c' = rk' = 0 by convention; the Laman-style
count 2f - 1 is only ever tested on nonempty subsets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .colored_graph import (
    ClosedWalk,
    ColoredGraph,
    EdgeSubset,
    GainScan,
    fundamental_cycles,
    image_rank,
    rho_of_walk,
    scan_subset,
    z2_rank,
)
from .errors import BudgetError, DomainError, InternalConsistencyError

BRUTE_FORCE_LIMIT = 22  # 2^m subsets is the enumeration budget


@dataclass(frozen=True)
class CountReport:
    """Subset counts and the bounds every sparsity family is defined by."""

    n: int
    m: int
    c: int
    rk: int

    @property
    def f(self) -> int:
        return self.n + self.rk - self.c

    @property
    def bound222(self) -> int:
        return 2 * self.f


def count_report(subset: EdgeSubset) -> CountReport:
    scan = scan_subset(subset)
    return CountReport(
        n=len(scan.root), m=len(subset), c=len(scan.trees), rk=image_rank(scan.images)
    )


def f_value(subset: EdgeSubset) -> int:
    """Matroid rank bound n' + rk' - c' of an edge subset."""
    return count_report(subset).f


def is_f_independent(subset: EdgeSubset) -> bool:
    """Exact independence test: f has unit increments, so f(E') = |E'| decides."""
    return f_value(subset) == len(subset)


def is_11k(subset: EdgeSubset) -> tuple[bool, int]:
    """Is the subset a spanning tree plus k extra edges with k independent images?

    Returns (verdict, k).  The subset must span every vertex of the host graph
    and be connected; a one-vertex graph admits the empty spanning tree.
    """
    graph = subset.graph
    if not subset.ids:
        return (graph.n == 1, 0)
    rep = count_report(subset)
    if rep.n != graph.n or rep.c != 1:
        return (False, rep.rk)
    return (rep.m == rep.n - 1 + rep.rk, rep.rk)


@dataclass(frozen=True)
class Shape11kReport:
    """Topological shape of a rank-2 (1,1,2)-graph after leaf stripping.

    shape 1: two cycles sharing a single vertex (subdivided two-loop vertex);
    shape 2: two cycles joined by a path (loop at each end of an edge);
    shape 3: three internally disjoint paths between two vertices.
    """

    shape: int
    core_edges: frozenset[int]
    cycle1: ClosedWalk
    cycle2: ClosedWalk


def classify_11k_shape(subset: EdgeSubset) -> Shape11kReport:
    ok, k = is_11k(subset)
    if not ok or k != 2:
        raise DomainError("classify_11k_shape needs a (1,1,2)-graph")
    graph = subset.graph

    # leaf removal down to the 2-core, from a worklist of degree-1 vertices
    ids = set(subset.ids)
    incident: dict[int, list[int]] = {}
    for eid in ids:
        e = graph.edge(eid)
        incident.setdefault(e.tail, []).append(eid)
        incident.setdefault(e.head, []).append(eid)
    deg = {v: len(eids) for v, eids in incident.items()}  # a loop counts twice
    leaves = [v for v, d in deg.items() if d == 1]
    while leaves:
        v = leaves.pop()
        if deg[v] == 1:  # so v's one edge left is not a loop
            e = graph.edge(next(eid for eid in incident[v] if eid in ids))
            ids.discard(e.id)
            deg[e.tail] -= 1
            deg[e.head] -= 1
            leaves += (e.tail, e.head)

    cdeg: dict[int, int] = {}
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in sorted(ids):
        e = graph.edge(eid)
        cdeg[e.tail] = cdeg.get(e.tail, 0) + 1
        cdeg[e.head] = cdeg.get(e.head, 0) + 1
        if e.tail == e.head:
            cdeg[e.tail] += 1  # loops count twice
        adj.setdefault(e.tail, []).append((e.head, eid))
        if e.tail != e.head:
            adj.setdefault(e.head, []).append((e.tail, eid))
    branch = sorted(v for v, d in cdeg.items() if d >= 3)

    if len(branch) == 1:
        shape = 1
    elif len(branch) == 2:
        # walk the degree-2 chains leaving one branch vertex; a chain coming
        # back to its start means a private cycle (dumbbell), otherwise all
        # three chains join the two branch vertices (theta).
        b = branch[0]
        self_returns = 0
        crossings = 0
        used: set[int] = set()
        for w, eid in sorted(adj[b]):
            if eid in used:
                continue
            used.add(eid)
            prev, cur = b, w
            while cur not in branch:
                nxt = [(x, f) for x, f in adj[cur] if f not in used]
                (cur_next, feid) = sorted(nxt)[0]
                used.add(feid)
                prev, cur = cur, cur_next
            if cur == b:
                self_returns += 1
            else:
                crossings += 1
        shape = 2 if self_returns else 3
        if shape == 3 and crossings != 3:
            raise InternalConsistencyError("theta core without three chains")
    else:
        raise InternalConsistencyError("2-core of a (1,1,2)-graph lost its shape")

    cycles = fundamental_cycles(subset)
    extras = [(eid, walk) for eid, walk in cycles]
    if len(extras) != 2:
        raise InternalConsistencyError("(1,1,2)-graph without two extra edges")
    (e1, c1), (e2, c2) = extras
    r1, r2 = rho_of_walk(c1), rho_of_walk(c2)
    if r1.g1 * r2.g2 - r1.g2 * r2.g1 == 0:
        raise InternalConsistencyError("fundamental images of a rank-2 graph collinear")
    return Shape11kReport(shape, frozenset(ids), c1, c2)


# ---------------------------------------------------------------------------
# Matroid union: independence under 2f via two-part augmenting paths.
# ---------------------------------------------------------------------------


class PartitionState:
    """Working partition of an independent set of the doubled matroid.

    Elements live in two parts, each independent under f.  Insertion follows
    Edmonds' matroid-partition scheme: try both parts directly, otherwise
    search breadth-first through single-element exchanges until some part can
    absorb a displaced element.  Every step reads the fundamental circuit of
    part + x off the part's spanning forest (:meth:`_circuit`); its elements
    other than x are exactly the y for which part + x - y is independent, the
    exchanges the search follows.  Each part keeps its gain forest in
    `kept`: a direct insertion grows it by the new edge, while
    :meth:`discard` and an exchange chain drop it, and the next read builds
    it again from `parts`; code that assigns or edits `parts` itself must
    reset `kept`.  Doubling probes run on the live partition: a
    virtual copy registered via :meth:`register_edge` is inserted and, if it
    lands, taken out of its part again (:meth:`discard`), which leaves both
    parts independent.
    """

    __slots__ = ("edata", "parts", "part_of", "kept")

    def __init__(self, graph: ColoredGraph):
        self.edata = {e.id: (e.tail, e.head, e.color) for e in graph.edges}
        self.parts: tuple[set[int], set[int]] = (set(), set())
        self.part_of: dict[int, int] = {}
        self.kept: list[GainScan | None] = [GainScan(()), GainScan(())]

    def register_edge(self, eid: int, tail: int, head: int, color: tuple[int, int]):
        self.edata[eid] = (tail, head, color)

    def _forest(self, r: int) -> GainScan:
        forest = self.kept[r]
        if forest is None:
            edata = self.edata
            forest = self.kept[r] = GainScan((y, *edata[y]) for y in sorted(self.parts[r]))
        return forest

    def _circuit(self, r: int, x: int) -> set[int] | None:
        """The unique circuit of part r + x, or None when part r + x is independent.

        f is the rank of the vectors (e_head - e_tail, g_e) over Q, and the
        part is independent: a forest plus k <= 2 non-tree edges with
        independent cycle images.  x is dependent iff its ends share a root
        and its image lies in their span.  The dependency puts a coefficient
        mu_z on x and each non-tree edge z (a zero image, a parallel pair or
        Cramer's rule on three images); on the forest it is the flow that
        cancels the vertex part of those edges.  Each z adds +mu_z to every
        tree edge on head(z)'s root path and -mu_z on tail(z)'s; a tree edge
        is in the circuit, the dependency's support, iff its sum is nonzero.
        A vertex the part does not touch is a root of its own.
        """
        edata = self.edata
        forest = self._forest(r)
        t, h, (c1, c2) = edata[x]
        rt, t1, t2 = forest.root.get(t, (t, 0, 0))
        rh, h1, h2 = forest.root.get(h, (h, 0, 0))
        if rt != rh:
            return None  # x joins two trees or reaches a new vertex
        x1, x2 = c1 + t1 - h1, c2 + t2 - h2
        imgs, extras = forest.images, forest.extras
        if len(extras) > 2 or image_rank(imgs) != len(extras):
            raise InternalConsistencyError("a matroid-union part is not f-independent")
        if not extras:
            if x1 or x2:
                return None
            mu = {x: 1}
        elif len(extras) == 1:
            (a1, a2), (z,) = imgs[0], extras
            if a1 * x2 - a2 * x1:
                return None
            i = 0 if a1 else 1
            mu = {x: (a1, a2)[i], z: -(x1, x2)[i]}
        else:
            (a1, a2), (b1, b2) = imgs
            mu = {
                x: a1 * b2 - a2 * b1,
                extras[0]: x2 * b1 - x1 * b2,
                extras[1]: a2 * x1 - a1 * x2,
            }
        up = forest.up
        flow: dict[int, int] = {}
        for z, c in mu.items():
            if c:
                t, h, _ = edata[z]
                for v, s in ((h, c), (t, -c)):
                    while v in up:
                        v, y, _, _ = up[v]
                        flow[y] = flow.get(y, 0) + s
        circuit = {z for z, c in mu.items() if c}
        circuit.update(y for y, s in flow.items() if s)
        return circuit

    def try_insert(self, eid: int) -> bool:
        """Insert eid if the parts can absorb it, possibly after exchanges.

        A node (x, r) of the search is a request to put x into part r.  If
        part r + x has a circuit C, each y of C - x not yet visited becomes the
        node (y, 1 - r), in id order; otherwise the chain of requests that led
        to (x, r) is applied.  Returns False, leaving the parts as they were,
        when no chain exists.
        """
        queue: deque[tuple[int, int, set[int] | None]] = deque()
        for r in (0, 1):
            circuit = self._circuit(r, eid)
            if circuit is None:
                self.kept[r].add(eid, *self.edata[eid])
                self.parts[r].add(eid)
                self.part_of[eid] = r
                return True
            queue.append((eid, r, circuit))
        # breadth-first search for an augmenting exchange chain
        parent: dict[int, tuple[int, int]] = {}
        visited = {eid}
        while queue:
            x, r, circuit = queue.popleft()
            if circuit is None:
                circuit = self._circuit(r, x)
                if circuit is None:
                    self._apply(x, r, parent)
                    return True
            for y in sorted(circuit - visited):
                visited.add(y)
                parent[y] = (x, r)
                queue.append((y, 1 - r, None))
        return False

    def discard(self, eid: int):
        """Take eid out of its part and drop the part's forest: it is rebuilt
        when next read."""
        r = self.part_of.pop(eid)
        self.parts[r].discard(eid)
        self.kept[r] = None

    def _apply(self, x: int, r: int, parent: dict[int, tuple[int, int]]):
        while True:
            if x in self.part_of:
                self.parts[self.part_of[x]].discard(x)
            self.parts[r].add(x)
            self.part_of[x] = r
            if x not in parent:
                break
            x, r = parent[x]
        # rebuilding both forests is the self-check: f == |part| iff rk == #images
        self.kept = [None, None]
        for side in (0, 1):
            images = self._forest(side).images
            if image_rank(images) != len(images):
                raise InternalConsistencyError("matroid-union augmentation broke a part")


def union_independent(
    subset: EdgeSubset,
) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """Independence in the doubled matroid, with a partition witness.

    Inserts the edges in ascending id order; a set is independent exactly
    when every insertion lands, and the final parts are each f-independent.
    """
    state = PartitionState(subset.graph)
    for eid in subset.sorted_ids():
        if not state.try_insert(eid):
            return False, None
    return True, (frozenset(state.parts[0]), frozenset(state.parts[1]))


def is_222_sparse(graph: ColoredGraph) -> bool:
    """Does every nonempty subset satisfy m' <= 2 f(E')?"""
    return union_independent(EdgeSubset.full(graph))[0]


def is_222_graph(graph: ColoredGraph) -> bool:
    """(2,2,k)-graph: (2,2,.)-sparse with the full count m = 2n - 2 + 2k."""
    k = z2_rank(EdgeSubset.full(graph))
    if graph.m != 2 * graph.n - 2 + 2 * k:
        return False
    return is_222_sparse(graph)


@dataclass(frozen=True)
class Decomposition:
    part1: EdgeSubset
    part2: EdgeSubset


def decompose_two_11k(graph: ColoredGraph) -> Decomposition:
    """Split a (2,2,k)-graph into two edge-disjoint spanning (1,1,k)-graphs."""
    k = z2_rank(EdgeSubset.full(graph))
    tight = graph.m == 2 * graph.n - 2 + 2 * k
    parts = union_independent(EdgeSubset.full(graph))[1] if tight else None
    if parts is None:
        raise DomainError("decompose_two_11k needs a (2,2,k)-graph")
    subsets = (EdgeSubset.of(graph, parts[0]), EdgeSubset.of(graph, parts[1]))
    for part in subsets:
        good, kk = is_11k(part)
        if not good or kk != k:
            raise InternalConsistencyError(
                "matroid-union parts failed the (1,1,k) certificate"
            )
    return Decomposition(*subsets)


# ---------------------------------------------------------------------------
# Colored-Laman sparsity via edge doubling.
# ---------------------------------------------------------------------------

_VIRTUAL = -1  # id reserved for the doubled copy in oracle queries


def _grow(state: PartitionState, graph: ColoredGraph, eid: int) -> bool:
    """Add eid to the live partition if it and then a parallel copy of it fit.

    The copy is taken out again once it lands; when either insertion fails,
    the parts are left as they were (a failed `try_insert` touches nothing,
    and a part minus an element stays f-independent).
    """
    if not state.try_insert(eid):
        return False
    e = graph.edge(eid)
    state.register_edge(_VIRTUAL, e.tail, e.head, (e.color.g1, e.color.g2))
    landed = state.try_insert(_VIRTUAL)
    state.discard(_VIRTUAL if landed else eid)
    return landed


def laman_sparse_subset(graph: ColoredGraph, ids: Iterable[int]) -> bool:
    """Is the edge subset colored-Laman-sparse (m' <= 2f - 1 on nonempty sets)?

    Grown in id order with one doubling probe per edge.  When S - e is
    sparse, S is sparse iff S plus a parallel copy e' of e is 2f-independent:
    a violating T in S contains e, so |T + e'| = |T| + 1 > 2f(T) = 2f(T + e').
    """
    state = PartitionState(graph)
    return all(_grow(state, graph, eid) for eid in sorted(ids))


def is_colored_laman_sparse(graph: ColoredGraph) -> bool:
    return laman_sparse_subset(graph, graph.edge_ids())


def is_colored_laman(graph: ColoredGraph) -> bool:
    """Colored-Laman graph: m = 2n + 1 and colored-Laman-sparse."""
    if graph.m != 2 * graph.n + 1:
        return False
    return is_colored_laman_sparse(graph)


@dataclass(frozen=True)
class CircuitReport:
    """A minimal violation of colored-Laman sparsity and its counts."""

    circuit: EdgeSubset
    counts: CountReport


def max_laman_sparse_subset(graph: ColoredGraph) -> frozenset[int]:
    """Greedy basis of the colored-Laman matroid, edges tried in id order.

    An edge joins when it passes the one doubling probe of
    `laman_sparse_subset`: the basis is sparse, so the basis plus it is
    sparse iff a parallel copy of it still fits.  All maximal sparse subsets
    share this size (matroid property); only the witness depends on the
    order.
    """
    state = PartitionState(graph)
    return frozenset(eid for eid in sorted(graph.edge_ids()) if _grow(state, graph, eid))


# ---------------------------------------------------------------------------
# Exhaustive oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceReport:
    family: str
    sparse: bool
    violation: frozenset[int] | None
    counts: CountReport | None


def _violates(family: str, n: int, m: int, c: int, rk: int) -> bool:
    if family == "laman":
        return m > 2 * (n + rk - c) - 1
    if family == "222":
        return m > 2 * (n + rk - c)
    if family == "ross":
        return m > 2 * n - 2 or (rk == 0 and m > 2 * n - 3)
    raise DomainError(f"unknown sparsity family {family!r}")


def brute_force_sparsity(graph: ColoredGraph, family: str) -> BruteForceReport:
    """Check the family's count on every nonempty edge subset by enumeration.

    Runs a depth-first include/exclude search with an undoable gain
    union-find, stopping at the first violating subset.  Certified but
    exponential; refuses graphs beyond the 2^22-subset budget.
    """
    if family not in ("laman", "222", "ross"):
        raise DomainError(f"unknown sparsity family {family!r}")
    m = graph.m
    if m > BRUTE_FORCE_LIMIT:
        raise BudgetError(f"brute force limited to m <= {BRUTE_FORCE_LIMIT}, got {m}")

    edges = [(e.tail, e.head, e.color.g1, e.color.g2) for e in graph.edges]
    ids = [e.id for e in graph.edges]

    parent = list(range(graph.n))
    size = [1] * graph.n
    potx = [0] * graph.n
    poty = [0] * graph.n
    touched = [0] * graph.n  # how many chosen edges touch this vertex
    basis: list[tuple[int, int]] = []

    state = {"n": 0, "c": 0, "m": 0}
    chosen: list[int] = []
    found: list[frozenset[int]] = []

    def find(v: int) -> tuple[int, int, int]:
        px = py = 0
        while parent[v] != v:
            px += potx[v]
            py += poty[v]
            v = parent[v]
        return v, px, py

    def add_edge(idx: int) -> list:
        """Apply edge idx; returns an undo record."""
        t, h, g1, g2 = edges[idx]
        undo: list = []
        for v in (t, h) if t != h else (t,):
            touched[v] += 1
            if touched[v] == 1:
                state["n"] += 1
                state["c"] += 1
                undo.append(("vertex", v))
        state["m"] += 1
        rt, ptx, pty = find(t)
        rh, phx, phy = find(h)
        if rt == rh:
            ix, iy = g1 + ptx - phx, g2 + pty - phy
            if ix or iy:
                r = image_rank(basis)
                if r == 0 or (r == 1 and basis[0][0] * iy - basis[0][1] * ix != 0):
                    basis.append((ix, iy))
                    undo.append(("basis",))
        else:
            if size[rt] < size[rh]:
                rt, rh = rh, rt
                ptx, pty, phx, phy = phx, phy, ptx, pty
                t, h, g1, g2 = h, t, -g1, -g2
            # attach rh under rt with sigma(h) = sigma(t) + (g1, g2)
            parent[rh] = rt
            potx[rh] = g1 + ptx - phx
            poty[rh] = g2 + pty - phy
            size[rt] += size[rh]
            state["c"] -= 1
            undo.append(("union", rh, rt))
        return undo

    def undo_edge(idx: int, undo: list):
        t, h, _, _ = edges[idx]
        state["m"] -= 1
        for rec in reversed(undo):
            if rec[0] == "vertex":
                state["n"] -= 1
                state["c"] -= 1
            elif rec[0] == "basis":
                basis.pop()
            else:
                _, rh, rt = rec
                parent[rh] = rh
                potx[rh] = poty[rh] = 0
                size[rt] -= size[rh]
                state["c"] += 1
        for v in (t, h) if t != h else (t,):
            touched[v] -= 1

    def search(idx: int) -> bool:
        if idx == m:
            return False
        if search(idx + 1):  # exclude first: finds low-id violations early
            return True
        undo = add_edge(idx)
        chosen.append(idx)
        hit = _violates(family, state["n"], state["m"], state["c"], len(basis))
        if hit:
            found.append(frozenset(ids[i] for i in chosen))
        else:
            hit = search(idx + 1)
        chosen.pop()
        undo_edge(idx, undo)
        return hit

    if m and search(0):
        violation = found[0]
        rep = count_report(EdgeSubset.of(graph, violation))
        return BruteForceReport(family, False, violation, rep)
    return BruteForceReport(family, True, None, None)
