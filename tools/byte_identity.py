"""Byte-identity check of the perigid CLI between two checkouts.

    python3 tools/byte_identity.py --parent DIR --change DIR [--seed K] [--show N]

Each DIR is the root of a checkout.  The graphs are built once, from the
instance families of the change's `perfbench/instances.py` (imported, never
written) at n = 3..12, plus random graphs on at most five vertices with
loops, parallel edges and (0, 0) loops, and (2,2,k)-graphs for k = 0, 1, 2
at n = 3..12, so that `decompose` succeeds on more than a handful.
Over-braced graphs with their extra edges shuffled in, and dense graphs (a
colored-Laman graph plus 4n - 1 random edges, m = 6n, shuffled) at n = 3..12
make the greedy basis reject edges all along the id order, so that circuits
come from many rejected edges.  Every graph goes through all ten
subcommands, in text and in JSON where a command has both (and SVG for
`realize` and `develop`), with the `rank --dump` file read back, and
`check`, `circuit`, `sparsity --family laman` and `realize` again at
`--seed 3`.  Tight graphs at n = 32 and 64 (two each) go through `check`
and `realize` in JSON, so that faithful realizations are compared beyond
n = 12.  The numeric and Z-colored families at n = 64, 128 and 256 (the
benchmark's numeric sizes) go through `rank` for all three matrices with
`--dump`, and `oned`, `develop` and `cover`.  Triangle strips at n = 16, 32
and 64, alone and with one random edge more, have path-like spanning forests
about n / 2 deep; they go through `check`, `circuit`, `ross` and `sparsity`
with all three families, and so do multigraphs on n = 2 and 3 vertices with
m = 500 and 2,000 random edges (loops, parallel edges and (0, 0) loops among
them), whose greedy basis rejects hundreds of edges, each with its own
circuit.  Each checkout runs the whole
list in its own subprocess, calling `perigid.cli.main` in-process on its own
`src/`.  The tool prints the invocation count and the first differences in
stdout, exit code or dump bytes, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import importlib
import io
import json
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

SIZES = range(3, 13)
LARGE_SIZES = (64, 128, 256)
TIGHT_SIZES = (32, 64)
DEEP_SIZES = (16, 32, 64)
MULTI_SIZES = ((2, 500), (2, 2000), (3, 500), (3, 2000))
RANDOM_GRAPHS = 80


def build_graphs(perfbench: Path, rng: random.Random) -> list[tuple[str, str]]:
    """(label, .cg text) for every graph of the check; large ones are labelled so."""
    sys.path.insert(0, str(perfbench))
    inst = importlib.import_module("instances")
    graphs = []

    def add(label, family, *args):
        n, edges, _ = family(rng, *args)
        graphs.append((label, inst.to_cg(n, edges)))

    for n in SIZES:
        for i in range(4):
            add(f"minimal n={n} #{i}", inst.minimal, n)
        for i in range(2):
            add(f"overbraced n={n} #{i}", inst.overbraced, n)
            add(f"flexible n={n} #{i}", inst.flexible_nonsparse, n)
        add(f"ross n={n}", inst.ross, n, True)
        add(f"non-ross n={n}", inst.ross, n, False)
        add(f"z-colored n={n}", inst.z_colored, n)
    for i in range(RANDOM_GRAPHS):
        n = rng.randint(1, 5)
        edges = []
        for _ in range(rng.randint(0, 2 * n + 3)):
            t = rng.randrange(n)
            h = t if rng.random() < 0.3 else rng.randrange(n)
            color = (0, 0) if rng.random() < 0.1 else (rng.randint(-1, 1), rng.randint(-1, 1))
            edges.append((t, h, color))
            if rng.random() < 0.15:
                edges.append((t, h, color))  # parallel copy
        graphs.append((f"random #{i}", inst.to_cg(n, edges)))
    for n in TIGHT_SIZES:
        for i in range(2):
            add(f"tight n={n} #{i}", inst.minimal, n)
    for n in LARGE_SIZES:
        add(f"large numeric n={n}", inst.numeric, n)
        add(f"large z-colored n={n}", inst.z_colored, n)
    for n in SIZES:
        for k in (0, 1, 2):
            graphs.append((f"(2,2,{k}) n={n}", inst.to_cg(n, two_11k_edges(rng, n, k))))
    for n in SIZES:
        for label, edges in (
            ("shuffled overbraced", inst.overbraced(rng, n)[1]),
            ("dense", inst.laman_edges(rng, n) + [inst.random_edge(rng, n) for _ in range(4 * n - 1)]),
        ):
            rng.shuffle(edges)
            graphs.append((f"{label} n={n}", inst.to_cg(n, edges)))
    for n in DEEP_SIZES:
        edges = strip_edges(rng, n)
        graphs.append((f"deep strip n={n}", inst.to_cg(n, edges)))
        graphs.append((f"deep strip+1 n={n}", inst.to_cg(n, edges + [inst.random_edge(rng, n)])))
    for n, m in MULTI_SIZES:
        graphs.append((f"multigraph n={n} m={m}", inst.to_cg(n, multigraph_edges(rng, n, m))))
    return graphs


def multigraph_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int, tuple[int, int]]]:
    """m random edges on n vertices: about a third loops, one in ten colored
    (0, 0), and one in five a parallel copy of the edge before it."""
    edges = []
    while len(edges) < m:
        if edges and rng.random() < 0.2:
            edges.append(edges[-1])
            continue
        t = rng.randrange(n)
        h = t if rng.random() < 0.3 else rng.randrange(n)
        color = (0, 0) if rng.random() < 0.1 else (rng.randint(-2, 2), rng.randint(-2, 2))
        edges.append((t, h, color))
    return edges


def strip_edges(rng: random.Random, n: int) -> list[tuple[int, int, tuple[int, int]]]:
    """A colored-Laman triangle strip: three loops at vertex 0, two edges from
    1 to 0, then each v >= 2 joined to v - 1 and v - 2 with random colors."""
    edges = [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)), (1, 0, (0, 0)), (1, 0, (1, -1))]
    for v in range(2, n):
        for u in (v - 1, v - 2):
            edges.append((v, u, (rng.randint(-2, 2), rng.randint(-2, 2))))
    return edges


def two_11k_edges(rng: random.Random, n: int, k: int) -> list[tuple[int, int, tuple[int, int]]]:
    """A (2,2,k)-graph: two spanning trees plus k edges each, shuffled.

    Tree colors are potential differences sigma(h) - sigma(t), so their
    cycles have image 0; each part's k extra edges (loops allowed) add
    nonzero multiples of independent vectors, which lie on one line when
    k = 1.  Each part is then a spanning (1,1,k)-graph and the whole graph
    has image rank k and m = 2n - 2 + 2k.
    """
    sigma = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
    line = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1)])
    shifts = [line, (-line[1], line[0])][:k]
    edges = []
    for _ in range(2):
        order = rng.sample(range(n), n)
        part = [(order[rng.randrange(i)], order[i], (0, 0)) for i in range(1, n)]
        for w1, w2 in shifts:
            c = rng.choice((-2, -1, 1, 2))
            part.append((rng.randrange(n), rng.randrange(n), (c * w1, c * w2)))
        for t, h, (w1, w2) in part:
            edges.append((t, h, (sigma[h][0] - sigma[t][0] + w1, sigma[h][1] - sigma[t][1] + w2)))
    rng.shuffle(edges)
    return edges


def invocations(path: str, kind: str = "") -> list[list[str]]:
    """Every subcommand on one graph file; the dump path is filled in per side.

    A large graph runs only the numeric commands: rank with every matrix and
    a dump, oned, develop and cover.  A deep one and a multigraph run only
    the sparsity commands: check, circuit, ross and sparsity with every
    family.  A tight one runs check and realize in JSON.
    """
    both = (["--format", "text"], ["--format", "json"])
    out = []
    if kind == "tight":
        return [["check", path, "--format", "json"], ["realize", path, "--format", "json"]]
    if kind in ("deep", "multigraph"):
        for fmt in both:
            for cmd in ("check", "circuit", "ross"):
                out.append([cmd, path, *fmt])
            for family in ("laman", "222", "ross"):
                out.append(["sparsity", path, "--family", family, *fmt])
        return out
    if kind == "large":
        for fmt in both:
            for matrix in ("M112", "M222", "M232"):
                out.append(["rank", path, "--matrix", matrix, "--dump", "{dump}", *fmt])
            out.append(["oned", path, *fmt])
            out.append(["develop", path, *fmt])
        out.append(["cover", path, "--basis", "2,1,0,2"])
        return out
    for fmt in both:
        out.append(["check", path, *fmt])
        for family in ("laman", "222", "ross"):
            out.append(["sparsity", path, "--family", family, *fmt])
        for cmd in ("decompose", "circuit", "ross", "oned"):
            out.append([cmd, path, *fmt])
        for matrix in ("M112", "M222", "M232"):
            out.append(["rank", path, "--matrix", matrix, "--dump", "{dump}", *fmt])
    for fmt in (*both, ["--format", "svg"]):
        out.append(["realize", path, *fmt])
        out.append(["develop", path, *fmt])
    # certified outputs do not depend on the sampled points
    for argv in (["check"], ["circuit"], ["sparsity", "--family", "laman"], ["realize"]):
        out.append([argv[0], path, *argv[1:], "--seed", "3", "--format", "json"])
    out.append(["cover", path, "--basis", "2,1,0,2"])
    return out


def run_side(src: str, jobs_file: str, out_file: str) -> None:
    """Run every invocation in this process against the perigid under src."""
    sys.path.insert(0, src)
    perigid = importlib.import_module("perigid.cli")
    if Path(src).resolve() not in Path(perigid.__file__).resolve().parents:
        raise SystemExit(f"error: imported perigid from {perigid.__file__}, not from {src}")
    warnings.simplefilter("ignore")
    dump = Path(out_file).with_suffix(".dump")
    results = []
    for argv in json.loads(Path(jobs_file).read_text()):
        argv = [str(dump) if a == "{dump}" else a for a in argv]
        dump.unlink(missing_ok=True)
        buf = io.BytesIO()
        wrapper = io.TextIOWrapper(buf, encoding="utf-8")
        code, error = None, None
        try:
            with contextlib.redirect_stdout(wrapper):
                code = perigid.main(argv)
                wrapper.flush()
        except (Exception, SystemExit) as exc:
            error = repr(exc)
        wrapper.detach()
        results.append({
            "out": base64.b64encode(buf.getvalue()).decode(),
            "code": code,
            "error": error,
            "dump": base64.b64encode(dump.read_bytes()).decode() if dump.exists() else None,
        })
    Path(out_file).write_text(json.dumps(results))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["side"]:  # the child process of one checkout
        run_side(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the graph builder")
    parser.add_argument("--show", type=int, default=10, help="differences to print")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        work = Path(tmp)
        jobs = []
        labels = []
        for i, (label, text) in enumerate(build_graphs(args.change / "perfbench", random.Random(args.seed))):
            path = work / f"{i:04d}.cg"
            path.write_text(text)
            for inv in invocations(str(path), label.split()[0]):
                jobs.append(inv)
                labels.append(label)
        (work / "jobs.json").write_text(json.dumps(jobs))
        procs = {}
        for side in ("parent", "change"):
            (work / side).mkdir()
            cmd = [sys.executable, __file__, "side", str(getattr(args, side).resolve() / "src"),
                   str(work / "jobs.json"), str(work / side / "results.json")]
            procs[side] = subprocess.Popen(cmd, cwd=work / side)
        for side, proc in procs.items():
            if proc.wait() != 0:
                print(f"error: the {side} side exited with {proc.returncode}", file=sys.stderr)
                return 2
        results = {side: json.loads((work / side / "results.json").read_text()) for side in procs}

    diffs = []
    for inv, label, old, new in zip(jobs, labels, results["parent"], results["change"]):
        for key in ("code", "error", "out", "dump"):
            if old[key] != new[key]:
                diffs.append((label, inv, key, old[key], new[key]))
    print(f"{len(jobs)} invocations on {len(set(labels))} graphs, {len(diffs)} differences")
    for label, inv, key, old, new in diffs[: args.show]:
        if key in ("out", "dump") and old is not None and new is not None:
            old, new = base64.b64decode(old)[:200], base64.b64decode(new)[:200]
        print(f"{label}: {' '.join(inv[:1] + inv[2:])}: {key}\n  parent: {old!r}\n  change: {new!r}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
