"""Reading and writing colored graphs, plus the JSON report shapes.

The `.cg` text format, one graph per file, UTF-8, '#' starts a comment:

    cg 2 <n> <m>
    <tail> <head> <g1> <g2>     (m lines, 0-indexed vertices)

Loops repeat the vertex; parallel edges repeat lines.  Serialization is
canonical, so parse(serialize(g)) round-trips exactly.  Integers are ASCII
decimal with an optional sign, and a byte that is not UTF-8 is refused at
its line.  A header with more than MAX_VERTICES vertices or MAX_EDGES edges
is refused before any edge line is parsed, and an edge line with a color
entry beyond MAX_COLOR in magnitude is refused too.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

from .colored_graph import MAX_COLOR, MAX_EDGES, MAX_VERTICES, ColoredGraph, DevelopmentReport
from .direction_network import FaithfulRealization, drawing
from .errors import BudgetError, ParseError
from .linear_rep import RankReport
from .rigidity import OneDVerdict, RigidityVerdict
from .sparsity import CircuitReport

_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_colored_graph(data: str | bytes) -> ColoredGraph:
    """Parse the .cg format; errors carry 1-based line (and column) positions."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
            raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", line) from None
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped.split()))
    if not rows:
        raise ParseError("empty file: expected a 'cg' header", 1)

    lineno, header = rows[0]
    if header[0] != "cg":
        raise ParseError(f"bad magic {header[0]!r}, expected 'cg'", lineno, 1)
    if len(header) != 4:
        raise ParseError("header must be 'cg 2 <n> <m>'", lineno)
    if header[1] != "2":
        raise ParseError(f"unsupported dimension {header[1]}", lineno, 2)

    def integer(token: str, line: int, col: int) -> int:
        try:
            if _INTEGER.fullmatch(token):
                return int(token)
        except ValueError:  # more digits than int() converts
            pass
        raise ParseError(f"expected an integer, got {token!r}", line, col)

    n = integer(header[2], lineno, 3)
    m = integer(header[3], lineno, 4)
    if n < 0 or m < 0:
        raise ParseError("counts must be nonnegative", lineno)
    if n > MAX_VERTICES:
        raise BudgetError(f"line {lineno}: n = {n} exceeds the vertex budget {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise BudgetError(f"line {lineno}: m = {m} exceeds the edge budget {MAX_EDGES}")
    if len(rows) - 1 != m:
        raise ParseError(
            f"header promises {m} edges, file has {len(rows) - 1} edge lines", lineno
        )

    edges = []
    for lineno, tokens in rows[1:]:
        if len(tokens) != 4:
            raise ParseError("edge line must be '<tail> <head> <g1> <g2>'", lineno)
        t, h, g1, g2 = (integer(tok, lineno, i + 1) for i, tok in enumerate(tokens))
        if not 0 <= t < n:
            raise ParseError(f"tail {t} out of range [0, {n})", lineno, 1)
        if not 0 <= h < n:
            raise ParseError(f"head {h} out of range [0, {n})", lineno, 2)
        if max(abs(g1), abs(g2)) > MAX_COLOR:
            raise BudgetError(f"line {lineno}: a color entry exceeds the color budget {MAX_COLOR}")
        edges.append((t, h, (g1, g2)))
    return ColoredGraph.build(n, edges)


def serialize_colored_graph(graph: ColoredGraph) -> str:
    lines = [f"cg 2 {graph.n} {graph.m}"]
    for e in graph.edges:
        lines.append(f"{e.tail} {e.head} {e.color.g1} {e.color.g2}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON report shapes (insertion order is the documented field order).
# ---------------------------------------------------------------------------


def faithful_json(graph: ColoredGraph, result: FaithfulRealization) -> dict[str, Any]:
    points, lattice, etas = drawing(graph, result)
    return {
        "n": graph.n,
        "p": [list(xy) for xy in points],
        "L": [list(row) for row in lattice],
        "edges": [{"id": e.id, "alpha": math.hypot(*eta), "collapsed": False} for e, eta in zip(graph.edges, etas)],
        "seed": result.seed,
    }


def circuit_json(report: CircuitReport) -> dict[str, Any]:
    c = report.counts
    return {
        "edges": sorted(report.circuit.ids),
        "counts": {"n": c.n, "m": c.m, "c": c.c, "rk": c.rk, "f": c.f},
    }


def verdict_json(graph: ColoredGraph, verdict: RigidityVerdict) -> dict[str, Any]:
    return {
        "status": verdict.status,
        "rank": verdict.rank,
        "dof": verdict.dof,
        "n": verdict.n,
        "m": verdict.m,
        "witness": faithful_json(graph, verdict.witness) if verdict.witness else None,
        "circuit": circuit_json(verdict.circuit) if verdict.circuit else None,
    }


def oned_json(verdict: OneDVerdict) -> dict[str, Any]:
    return {
        "status": verdict.status,
        "rank": verdict.rank,
        "n": verdict.n,
        "m": verdict.m,
    }


def rank_json(report: RankReport) -> dict[str, Any]:
    return {
        "kind": report.kind,
        "rank": report.rank,
        "mode": "fp",
        "trials": report.trials,
        "seed": report.seed,
    }


def development_json(report: DevelopmentReport) -> dict[str, Any]:
    return {
        "window": [list(report.window[0]), list(report.window[1])],
        "k": report.k,
        "index": report.index,
        "per_component": [
            {
                "vertices": list(c.vertices),
                "k": c.k,
                "index": c.index,
                "prediction": c.prediction,
            }
            for c in report.per_component
        ],
        "predicted_infinite_components": (
            "infinite"
            if report.predicted_infinite_components == float("inf")
            else int(report.predicted_infinite_components)
        ),
        "predicted_finite_components": (
            "infinite" if report.predicted_finite_components == float("inf") else 0
        ),
        "observed_components": report.observed_components,
        "observed_core_components": report.observed_core_components,
        "vertex_count": len(report.vertices),
        "edge_count": len(report.edges),
    }


def to_json_bytes(obj: dict[str, Any]) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
