"""In-process times of the stages of a perigid job, one or more checkouts side by side.

    python3 tools/stage_times.py --root DIR [--root DIR ...] --n N --graphs K \
        --repeats R [--seed S] [--family minimal|numeric]

Each DIR is the root of a checkout.  The K graphs are drawn one after
another from `random.Random(S)` by the family's builder in the first root's
`perfbench/instances.py` (imported, never written) and handed to every root
as `.cg` text.  The stages, each timed on its own over all K graphs:

* `--family minimal` (the default): the stages of a tight `check` on the
  colored-Laman graphs of `instances.minimal`:
  * parse: `fileio.parse_colored_graph` of the text;
  * laman_analysis: `rigidity.laman_analysis`, counts included;
  * counts: `sparsity.laman_sparse_subset` on the analysis's basis;
  * witness: `direction_network.faithful_realization` with the arguments
    `decide_rigidity` passes it, read off one spied call;
  * decide_rigidity: the whole decision, witness included;
  * verdict_json: `fileio.to_json_bytes(fileio.verdict_json(...))`.
* `--family numeric`: the stages of the `numeric_large` benchmark commands
  on the tight graphs of `instances.numeric`:
  * parse: as above;
  * sample_rows: `linear_rep.sample_rows` of one M112, one M222 and one
    M232 sample, each from `random.Random(0)`;
  * modp_rank: `linear_rep.modp_rank` of those three samples;
  * develop_window: `colored_graph.develop_window` at the benchmark's
    window, (-2, 2) by (-2, 2);
  * sublattice_cover: `colored_graph.sublattice_cover` by the benchmark's
    basis, 2 * identity.

Each root runs in its own process, once per repeat, with the roots'
order reversed in odd repeats so that a drift of the host's speed favours
none.  A process first runs every stage's inputs, untimed, so every stage
but the writer has run once before it is timed.  The tool prints, per
stage, each root's best of R in microseconds per graph.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("parse", "laman_analysis", "counts", "witness", "decide_rigidity", "verdict_json")
NUMERIC_STAGES = ("parse", "sample_rows", "modp_rank", "develop_window", "sublattice_cover")
FAMILIES = {"minimal": STAGES, "numeric": NUMERIC_STAGES}
SEED = 0  # the --seed of `perigid check`
WINDOW = ((-2, 2), (-2, 2))  # the `develop --window` of the numeric_large workload
BASIS = ((2, 0), (0, 2))  # its `cover --basis`
KINDS = ("M112", "M222", "M232")


def build_graphs(perfbench: Path, family: str, n: int, count: int, seed: int) -> list[str]:
    """The .cg text of count graphs from the family's builder, one rng for all."""
    sys.path.insert(0, str(perfbench))
    inst = importlib.import_module("instances")
    rng = random.Random(seed)
    return [inst.to_cg(*getattr(inst, family)(rng, n)[:2]) for _ in range(count)]


def numeric_stages(texts: list[str]) -> dict:
    """The stages of the numeric_large commands, in the perigid already on sys.path."""
    from perigid import colored_graph, fileio, linear_rep

    graphs = [fileio.parse_colored_graph(t) for t in texts]

    def samples():
        return [linear_rep.sample_rows(g, kind, random.Random(0)) for g in graphs for kind in KINDS]

    drawn = samples()
    return {
        "parse": lambda: [fileio.parse_colored_graph(t) for t in texts],
        "sample_rows": samples,
        "modp_rank": lambda: [linear_rep.modp_rank(rows) for rows in drawn],
        "develop_window": lambda: [colored_graph.develop_window(g, WINDOW) for g in graphs],
        "sublattice_cover": lambda: [colored_graph.sublattice_cover(g, BASIS) for g in graphs],
    }


def check_stages(texts: list[str]) -> dict:
    """The stages of a tight `check`, in the perigid already on sys.path."""
    from perigid import fileio, rigidity, sparsity

    graphs = [fileio.parse_colored_graph(t) for t in texts]
    analyses = [rigidity.laman_analysis(g, SEED) for g in graphs]
    real, calls = rigidity.faithful_realization, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    rigidity.faithful_realization = spy
    try:
        verdicts = [rigidity.decide_rigidity(g, SEED) for g in graphs]
    finally:
        rigidity.faithful_realization = real
    if len(calls) != len(graphs):
        raise SystemExit(f"error: decide_rigidity built {len(calls)} witnesses for {len(graphs)} graphs")
    return {
        "parse": lambda: [fileio.parse_colored_graph(t) for t in texts],
        "laman_analysis": lambda: [rigidity.laman_analysis(g, SEED) for g in graphs],
        "counts": lambda: [sparsity.laman_sparse_subset(g, a.basis) for g, a in zip(graphs, analyses)],
        "witness": lambda: [real(*args, **kwargs) for args, kwargs in calls],
        "decide_rigidity": lambda: [rigidity.decide_rigidity(g, SEED) for g in graphs],
        "verdict_json": lambda: [fileio.to_json_bytes(fileio.verdict_json(g, v)) for g, v in zip(graphs, verdicts)],
    }


def time_stages(texts: list[str], family: str = "minimal") -> dict[str, float]:
    """Microseconds per graph of each stage of the family."""
    stages = (check_stages if family == "minimal" else numeric_stages)(texts)
    times = {}
    for name in FAMILIES[family]:
        start = time.perf_counter()
        stages[name]()
        times[name] = (time.perf_counter() - start) / len(texts) * 1e6
    return times


def run_side(src: str, graphs_file: str, family: str) -> None:
    """The child process of one root: print its stage times as one JSON line."""
    sys.path.insert(0, src)
    perigid = importlib.import_module("perigid")
    if Path(src).resolve() not in Path(perigid.__file__).resolve().parents:
        raise SystemExit(f"error: imported perigid from {perigid.__file__}, not from {src}")
    print(json.dumps(time_stages(json.loads(Path(graphs_file).read_text()), family)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["side"]:
        run_side(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--graphs", type=int, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7, help="seed of the graph builder")
    parser.add_argument("--family", choices=sorted(FAMILIES), default="minimal")
    args = parser.parse_args(argv)
    if args.n < 1 or args.graphs < 1 or args.repeats < 1:
        parser.error("--n, --graphs and --repeats must be positive")

    roots = [root.resolve() for root in args.root]
    stages = FAMILIES[args.family]
    best = [dict.fromkeys(stages, float("inf")) for _ in roots]
    with tempfile.TemporaryDirectory(prefix="stage_times_") as tmp:
        graphs_file = Path(tmp) / "graphs.json"
        texts = build_graphs(roots[0] / "perfbench", args.family, args.n, args.graphs, args.seed)
        graphs_file.write_text(json.dumps(texts))
        for repeat in range(args.repeats):
            order = range(len(roots)) if repeat % 2 == 0 else reversed(range(len(roots)))
            for i in order:
                cmd = [sys.executable, __file__, "side", str(roots[i] / "src"), str(graphs_file), args.family]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
                if proc.returncode != 0:
                    print(f"error: {roots[i]} exited with {proc.returncode}", file=sys.stderr)
                    return 2
                times = json.loads(proc.stdout.strip().splitlines()[-1])
                best[i] = {name: min(best[i][name], times[name]) for name in stages}

    print(f"{args.family} n = {args.n}, {args.graphs} graphs (seed {args.seed}), best of {args.repeats}, us per graph")
    print("stage".ljust(16) + "".join(f"  root {i}".rjust(12) for i in range(len(roots))))
    for name in stages:
        print(name.ljust(16) + "".join(f"{b[name]:12.1f}" for b in best))
    for i, root in enumerate(roots):
        print(f"root {i}: {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
