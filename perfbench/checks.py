"""Per-job output checks, computed independently of perigid.

`check_job` returns None when a job's exit code and stdout match what its
instance was built to produce, else a one-line reason.  A reason marks the
job's answer wrong: it counts in `failed` and `ok_ratio`, and makes the run
incorrect.
"""

from __future__ import annotations

import json
import math
import random

import instances as inst

STATUS_MINIMAL = "generically_minimally_rigid"
COLLAPSE_TOL = 1e-6  # relative to the realization's size, as perigid uses


def check_job(job, code: int, out: bytes) -> str | None:
    want_code = job.expect.get("code", 0)
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {out[:200]!r}"
    try:
        if job.command == "cover":
            return _check_cover(job, out.decode())
        doc = json.loads(out)
        return CHECKS[job.command](job, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({exc!r}): {out[:200]!r}"


def _mismatch(doc: dict, want: dict, keys) -> str | None:
    for key in keys:
        if doc[key] != want[key]:
            return f"{key} = {doc[key]!r}, expected {want[key]!r}"
    return None


def _check_verdict(job, doc) -> str | None:
    want = dict(job.expect, n=job.n, m=len(job.edges))
    bad = _mismatch(doc, want, ("status", "rank", "dof", "n", "m"))
    if bad:
        return bad
    if doc["status"] == STATUS_MINIMAL:
        if doc["circuit"] is not None:
            return "minimal graph reported a circuit"
        return _check_witness(job, doc["witness"])
    if doc["witness"] is not None:
        return "non-minimal graph reported a witness"
    return _check_circuit(job, doc["circuit"])


def _check_witness(job, witness) -> str | None:
    """Every edge of the realization has a displacement well away from zero."""
    if witness is None:
        return "minimal graph without a witness"
    p, lat = witness["p"], witness["L"]
    if len(p) != job.n or len(witness["edges"]) != len(job.edges):
        return "witness has the wrong shape"
    spread = max(math.dist(q, p[0]) for q in p)
    size = max(spread, math.hypot(*lat[0], *lat[1]))
    for eid, (t, h, (g1, g2)) in enumerate(job.edges):
        ex = p[h][0] + lat[0][0] * g1 + lat[0][1] * g2 - p[t][0]
        ey = p[h][1] + lat[1][0] * g1 + lat[1][1] * g2 - p[t][1]
        if witness["edges"][eid]["collapsed"] or math.hypot(ex, ey) <= COLLAPSE_TOL * size:
            return f"witness collapses edge {eid}"
    return None


def _check_circuit(job, circuit) -> str | None:
    """The reported edges are a circuit with the reported counts and m' = 2f."""
    if circuit is None:
        return "non-sparse graph without a circuit"
    ids = circuit["edges"]
    edges = [job.edges[i] for i in ids]
    got = inst.counts(edges)
    printed = circuit["counts"]
    bad = _mismatch(printed, got, ("n", "m", "c", "rk"))
    if bad:
        return "circuit counts: " + bad
    if printed["f"] != got["n"] + got["rk"] - got["c"]:
        return "circuit f is not n' + rk' - c'"
    if len(edges) == 1 and edges[0][0] == edges[0][1] and edges[0][2] == (0, 0):
        return None  # a (0,0)-loop is a circuit on its own, with m' = 2f + 1
    if got["m"] != 2 * printed["f"]:
        return f"circuit has m' = {got['m']}, not 2f = {2 * printed['f']}"
    vmap = {v: i for i, v in enumerate(sorted({v for t, h, _ in edges for v in (t, h)}))}
    local = [(vmap[t], vmap[h], c) for t, h, c in edges]
    if not inst.is_circuit(len(vmap), local, random.Random(len(edges))):
        return f"edges {ids} are not minimally dependent"
    return None


def _check_ross(job, doc) -> str | None:
    return _mismatch(doc, job.expect, ("ross",))


def _check_rank(job, doc) -> str | None:
    matrix = job.extra[job.extra.index("--matrix") + 1]
    want = {"M232": 2 * job.n + 1, "M222": 2 * job.n + 1, "M112": job.n + 1}[matrix]
    return _mismatch(doc, {"kind": matrix, "rank": want}, ("kind", "rank"))


def _check_oned(job, doc) -> str | None:
    want = dict(job.expect, n=job.n, m=len(job.edges))
    return _mismatch(doc, want, ("status", "rank", "n", "m"))


def _check_develop(job, doc) -> str | None:
    """Cycle-image rank 2, the image lattice's index, and the window's size."""
    (x0, x1), (y0, y1) = doc["window"]
    w, h = x1 - x0 + 1, y1 - y0 + 1
    edge_count = sum(max(w - abs(g1), 0) * max(h - abs(g2), 0) for _, _, (g1, g2) in job.edges)
    want = {"k": 2, "index": job.expect["index"], "vertex_count": w * h * job.n, "edge_count": edge_count}
    return _mismatch(doc, want, ("k", "index", "vertex_count", "edge_count"))


def _check_cover(job, text: str) -> str | None:
    """A 4-sheeted cover has 4n vertices and 4m edges, all in range."""
    lines = text.splitlines()
    n, m = 4 * job.n, 4 * len(job.edges)
    if lines[0] != f"cg 2 {n} {m}" or len(lines) != m + 1:
        return f"cover header {lines[0]!r} with {len(lines) - 1} edges, expected n'={n} m'={m}"
    for line in lines[1:]:
        t, h, _, _ = map(int, line.split())
        if not (0 <= t < n and 0 <= h < n):
            return f"cover edge {line!r} out of range"
    return None


CHECKS = {
    "check": _check_verdict,
    "ross": _check_ross,
    "rank": _check_rank,
    "oned": _check_oned,
    "develop": _check_develop,
}
