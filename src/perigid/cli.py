"""Command-line interface.

Exit codes: 0 for rigid/sparse/success verdicts, 1 for flexible/not-sparse
verdicts, 2 for input errors, 3 for internal consistency failures.  Output is
byte-identical for identical (command, input, seed).
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from pathlib import Path

from . import sparsity
from .colored_graph import EdgeSubset, develop_window, sublattice_cover, z2_rank
from .direction_network import drawing, faithful_realization
from .errors import (
    BudgetError,
    DomainError,
    GenericitySamplingError,
    InternalConsistencyError,
    ParseError,
    StructuralError,
)
from .fileio import (
    circuit_json,
    development_json,
    faithful_json,
    oned_json,
    parse_colored_graph,
    rank_json,
    serialize_colored_graph,
    to_json_bytes,
    verdict_json,
)
from .linear_rep import DEFAULT_TRIALS, MAX_TRIALS, dump_matrix, rank_mod_p, sample_rows
from .rigidity import STATUS_FLEXIBLE, decide_rigidity, is_1d_rigid, is_ross, laman_analysis
from .svg import development_svg, realization_svg

OK, NEGATIVE, INPUT_ERROR, INTERNAL = 0, 1, 2, 3


def _window(spec: str):
    try:
        xs, ys = spec.split(",")
        x0, x1 = (int(v) for v in xs.split(":"))
        y0, y1 = (int(v) for v in ys.split(":"))
    except ValueError:
        raise DomainError(f"bad window {spec!r}, expected x0:x1,y0:y1") from None
    return ((x0, x1), (y0, y1))


def _basis(spec: str):
    try:
        a, b, c, d = (int(v) for v in spec.split(","))
    except ValueError:
        raise DomainError(f"bad basis {spec!r}, expected a,b,c,d row-major") from None
    return ((a, b), (c, d))


def _text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def cmd_check(graph, args):
    verdict = decide_rigidity(graph, seed=args.seed)
    code = OK if verdict.status != STATUS_FLEXIBLE else NEGATIVE
    if args.format == "json":
        return to_json_bytes(verdict_json(graph, verdict)), code
    lines = [
        verdict.status.replace("_", " "),
        f"n={verdict.n} m={verdict.m} rank={verdict.rank} dof={verdict.dof}",
    ]
    if verdict.circuit:
        lines.append("violating circuit: " + " ".join(map(str, sorted(verdict.circuit.circuit.ids))))
    return _text(lines), code


def cmd_sparsity(graph, args):
    family = args.family
    if family == "laman":
        verdict = laman_analysis(graph, args.seed).sparse  # an F_p basis certified by counts
        tight = verdict and graph.m == 2 * graph.n + 1
        extra = f"colored-Laman graph: {tight}"
    elif family == "222":
        verdict = sparsity.is_222_sparse(graph)
        tight = verdict and graph.m == 2 * graph.n - 2 + 2 * z2_rank(EdgeSubset.full(graph))
        extra = f"(2,2,k)-graph: {tight}"
        # sparse iff the rows are generically independent, which full rank mod p certifies
        if (rank_mod_p(graph, "M222", seed=args.seed).rank == graph.m) != verdict:
            raise InternalConsistencyError("222 sparsity disagrees with the F_p rank")
    else:
        verdict = is_ross(graph)
        extra = None
    code = OK if verdict else NEGATIVE
    if args.format == "json":
        payload = {"family": family, "sparse": verdict}
        if extra is not None:
            payload["tight"] = tight
        return to_json_bytes(payload), code
    lines = [f"{family} sparse: {verdict}"]
    if extra:
        lines.append(extra)
    return _text(lines), code


def cmd_decompose(graph, args):
    dec = sparsity.decompose_two_11k(graph)
    p1, p2 = sorted(dec.part1.ids), sorted(dec.part2.ids)
    if args.format == "json":
        return to_json_bytes({"part1": p1, "part2": p2}), OK
    return _text(["part1: " + " ".join(map(str, p1)), "part2: " + " ".join(map(str, p2))]), OK


def cmd_circuit(graph, args):
    analysis = laman_analysis(graph, args.seed)
    if analysis.sparse:
        if args.format == "json":
            return to_json_bytes({"sparse": True, "circuit": None}), OK
        return _text(["colored-Laman-sparse: no circuit"]), OK
    report = analysis.circuit()
    if args.format == "json":
        return to_json_bytes({"sparse": False, "circuit": circuit_json(report)}), NEGATIVE
    ids = " ".join(map(str, sorted(report.circuit.ids)))
    c = report.counts
    return _text([f"circuit: {ids}", f"counts: n'={c.n} m'={c.m} c'={c.c} rk'={c.rk}"]), NEGATIVE


def cmd_realize(graph, args):
    result = faithful_realization(graph, seed=args.seed)
    if args.format == "svg":
        return realization_svg(graph, result), OK
    if args.format == "json":
        return to_json_bytes(faithful_json(graph, result)), OK
    points, ((a, b), (c, d)), etas = drawing(graph, result)
    lines = [f"faithful realization (seed={args.seed}, attempts={result.attempts})"]
    for i, (x, y) in enumerate(points):
        lines.append(f"p{i} = ({x:.9f}, {y:.9f})")
    lines.append(f"L = [[{a:.9f}, {b:.9f}], [{c:.9f}, {d:.9f}]]")
    for e, eta in zip(graph.edges, etas):
        lines.append(f"edge {e.id}: alpha={math.hypot(*eta):.9f} collapsed=False")
    return _text(lines), OK


def cmd_develop(graph, args):
    report = develop_window(graph, _window(args.window))
    if args.format == "svg":
        return development_svg(graph, report), OK
    if args.format == "json":
        return to_json_bytes(development_json(report)), OK
    idx = "infinite" if report.index is None else str(report.index)
    lines = [
        f"window {args.window}: {report.vertex_count} vertices, {len(report.edges)} edges",
        f"k={report.k} index={idx}",
        f"observed components: {report.observed_components} (core: {report.observed_core_components})",
    ]
    for c in report.per_component:
        lines.append(f"component {list(c.vertices)}: {c.prediction}")
    return _text(lines), OK


def cmd_cover(graph, args):
    cover = sublattice_cover(graph, _basis(args.basis))
    return serialize_colored_graph(cover).encode("utf-8"), OK


def cmd_ross(graph, args):
    verdict = is_ross(graph)
    code = OK if verdict else NEGATIVE
    if args.format == "json":
        return to_json_bytes({"ross": verdict}), code
    return _text([f"Ross graph: {verdict}"]), code


def cmd_oned(graph, args):
    verdict = is_1d_rigid(graph, trials=args.trials, seed=args.seed)
    code = OK if verdict.rigid else NEGATIVE
    if args.format == "json":
        return to_json_bytes(oned_json(verdict)), code
    return _text([verdict.status.replace("_", " "), f"rank={verdict.rank} n={verdict.n} m={verdict.m}"]), code


def cmd_rank(graph, args):
    report = rank_mod_p(graph, args.matrix, trials=args.trials, seed=args.seed)
    if args.dump:  # the first F_p sample of the rank
        rows = sample_rows(graph, args.matrix, random.Random(args.seed))
        Path(args.dump).write_text(dump_matrix(graph, args.matrix, rows))
    if args.format == "json":
        return to_json_bytes(rank_json(report)), OK
    line = f"{report.kind} generic rank: {report.rank} (mode=fp, trials={report.trials}, seed={report.seed})"
    return _text([line]), OK


COMMANDS = {
    "check": cmd_check,
    "sparsity": cmd_sparsity,
    "decompose": cmd_decompose,
    "circuit": cmd_circuit,
    "realize": cmd_realize,
    "develop": cmd_develop,
    "cover": cmd_cover,
    "ross": cmd_ross,
    "oned": cmd_oned,
    "rank": cmd_rank,
}


@functools.cache  # parsing never changes the parser; in-process callers reuse it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perigid",
        description="Generic rigidity of planar periodic frameworks from Z^2-colored quotient graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("inputs", nargs="+", help="colored-graph (.cg) files")
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--format", choices=formats, default="text")

    def trials(p):
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                       help=f"most F_p samples per rank (1..{MAX_TRIALS}); a rank stops at the first sample "
                            "that reaches its ceiling")

    common(sub.add_parser("check", help="decide generic rigidity"))
    p = sub.add_parser("sparsity", help="decide a sparsity family membership")
    common(p)
    p.add_argument("--family", choices=("laman", "222", "ross"), default="laman")
    common(sub.add_parser("decompose", help="split a (2,2,k)-graph into two (1,1,k)-graphs"))
    common(sub.add_parser("circuit", help="extract a minimal sparsity violation"))
    common(sub.add_parser("realize", help="faithful direction-network realization"), ("text", "json", "svg"))
    p = sub.add_parser("develop", help="develop a finite window of the periodic graph")
    common(p, ("text", "json", "svg"))
    p.add_argument("--window", default="-2:2,-2:2", help="x0:x1,y0:y1 inclusive cells")
    p = sub.add_parser("cover", help="pass to a sub-lattice cover")
    common(p)
    p.add_argument("--basis", required=True, help="2x2 integer matrix a,b,c,d (row-major)")
    common(sub.add_parser("ross", help="decide the fixed-lattice counts"))
    p = sub.add_parser("oned", help="decide 1d periodic rigidity (g2 must be 0)")
    common(p)
    trials(p)
    p = sub.add_parser("rank", help="randomized generic rank of a representation matrix")
    common(p)
    trials(p)
    p.add_argument("--matrix", choices=("M112", "M222", "M232"), default="M222")
    p.add_argument("--dump", default=None, help="write the sampled matrix to this path")
    return parser


def _run_one(path: str, args) -> tuple[bytes, int]:
    try:
        return COMMANDS[args.command](parse_colored_graph(Path(path).read_bytes()), args)
    except (ParseError, StructuralError, DomainError, BudgetError, FileNotFoundError, OSError) as exc:
        return f"error: {exc}\n".encode(), INPUT_ERROR
    except (InternalConsistencyError, GenericitySamplingError) as exc:
        return f"internal error: {exc}\n".encode(), INTERNAL


def _normalize_argv(argv):
    """Glue values onto --window/--basis so leading '-' survives argparse."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--window", "--basis") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(list(argv)))
    inputs = args.inputs
    code = OK
    out = sys.stdout.buffer
    if args.command == "rank" and args.dump and len(inputs) > 1:  # each input would overwrite the dump
        out.write(f"error: --dump takes one input, got {len(inputs)}\n".encode())
        out.flush()
        return INPUT_ERROR
    for path in inputs:
        payload, rc = _run_one(path, args)
        if len(inputs) > 1:
            out.write(f"== {path}\n".encode())
        out.write(payload)
        code = max(code, rc)
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
