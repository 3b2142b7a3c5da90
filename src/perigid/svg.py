"""Deterministic SVG renderings of developments and realizations.

Byte-identical output for identical inputs: coordinates are emitted with a
fixed format, components are colored from a fixed palette keyed on component
index, and nothing depends on ambient state.  Developments use 100 SVG units
per lattice cell; realizations are fitted to a fixed frame.  The y axis is
flipped for the screen convention.
"""

from __future__ import annotations

import math

from .colored_graph import ColoredGraph, DevelopmentReport
from .direction_network import FaithfulRealization, drawing

CELL = 100.0
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
)


def _fmt(x: float) -> str:
    out = f"{x:.3f}".rstrip("0").rstrip(".")
    return "0" if out == "-0" else out


def _doc(width: float, height: float, body: list[str]) -> bytes:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    return (head + "\n".join(body) + "\n</svg>\n").encode("utf-8")


def _line(x1, y1, x2, y2, color, width=1.5) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{_fmt(width)}"/>'
    )


def _circle(cx, cy, r, fill) -> str:
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>'


def _vertex_offset(i: int, n: int) -> tuple[float, float]:
    if n <= 1:
        return (0.5 * CELL, 0.5 * CELL)
    angle = 2.0 * math.pi * i / n
    return (
        0.5 * CELL + 0.28 * CELL * math.cos(angle),
        0.5 * CELL + 0.28 * CELL * math.sin(angle),
    )


def development_svg(graph: ColoredGraph, report: DevelopmentReport) -> bytes:
    """Window of the development: cell grid, vertices and edges by component."""
    (x0, x1), (y0, y1) = report.window
    w = (x1 - x0 + 1) * CELL + 2 * CELL
    h = (y1 - y0 + 1) * CELL + 2 * CELL

    def place(vertex: tuple[int, object]) -> tuple[float, float]:
        i, cell = vertex
        ox, oy = _vertex_offset(i, graph.n)
        px = (cell.g1 - x0) * CELL + CELL + ox
        py = h - ((cell.g2 - y0) * CELL + CELL + oy)  # flip y
        return px, py

    body = [f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff"/>']
    for gx in range(x0, x1 + 2):
        px = (gx - x0) * CELL + CELL
        body.append(_line(px, CELL, px, h - CELL, "#dddddd", 1.0))
    for gy in range(y0, y1 + 2):
        py = h - ((gy - y0) * CELL + CELL)
        body.append(_line(CELL, py, w - CELL, py, "#dddddd", 1.0))

    for _, _, a, b in report.edges:
        color = PALETTE[report.component_of[a] % len(PALETTE)]
        xa, ya = place(a)
        xb, yb = place(b)
        body.append(_line(xa, ya, xb, yb, color))
    for v in report.vertices:
        color = PALETTE[report.component_of[v] % len(PALETTE)]
        px, py = place(v)
        body.append(_circle(px, py, 4.0, color))
    return _doc(w, h, body)


def realization_svg(graph: ColoredGraph, result: FaithfulRealization) -> bytes:
    """Realized quotient: unit cell, lattice arrows, points, edge segments."""
    pts, ((a, b), (c, d)), etas = drawing(graph, result)
    margin = 40.0
    frame = 300.0
    l1, l2 = (a, c), (b, d)
    corners = [(0.0, 0.0), l1, l2, (l1[0] + l2[0], l1[1] + l2[1])]
    allx = [p[0] for p in pts + corners] or [0.0]
    ally = [p[1] for p in pts + corners] or [0.0]
    for e, eta in zip(graph.edges, etas):
        hx = pts[e.tail][0] + eta[0]
        hy = pts[e.tail][1] + eta[1]
        allx.append(hx)
        ally.append(hy)
    span = max(max(allx) - min(allx), max(ally) - min(ally), 1e-9)
    scale = frame / span
    ox, oy = min(allx), min(ally)
    w = h = frame + 2 * margin

    def place(x: float, y: float) -> tuple[float, float]:
        return margin + (x - ox) * scale, h - (margin + (y - oy) * scale)

    body = [f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff"/>']
    # fundamental domain
    quad = [place(*corners[0]), place(*corners[1]), place(*corners[3]), place(*corners[2])]
    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in quad)
    body.append(f'<polygon points="{path}" fill="#f0f0f8" stroke="#bbbbcc"/>')
    # lattice vectors as arrows from the origin
    o = place(0.0, 0.0)
    for vec in (l1, l2):
        tip = place(*vec)
        body.append(_line(o[0], o[1], tip[0], tip[1], "#888888", 2.0))
        body.append(_circle(tip[0], tip[1], 3.0, "#888888"))
    # edges: segment from tail point along eta (a faithful realization collapses none)
    for e, eta in zip(graph.edges, etas):
        x1, y1 = place(*pts[e.tail])
        x2, y2 = place(pts[e.tail][0] + eta[0], pts[e.tail][1] + eta[1])
        body.append(_line(x1, y1, x2, y2, "#1f77b4", 2.0))
    for x, y in pts:
        px, py = place(x, y)
        body.append(_circle(px, py, 5.0, "#000000"))
    return _doc(w, h, body)
