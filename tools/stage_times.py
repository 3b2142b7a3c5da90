"""In-process times of the stages of a tight `check`, one or more checkouts side by side.

    python3 tools/stage_times.py --root DIR [--root DIR ...] --n N --graphs K \
        --repeats R [--seed S]

Each DIR is the root of a checkout.  The K graphs are colored-Laman graphs
on N vertices, drawn one after another from `random.Random(S)` by
`instances.minimal` of the first root's `perfbench/instances.py` (imported,
never written) and handed to every root as `.cg` text.  The stages, each
timed on its own over all K graphs:

* parse: `fileio.parse_colored_graph` of the text;
* laman_analysis: `rigidity.laman_analysis`, counts included;
* counts: `sparsity.laman_sparse_subset` on the analysis's basis;
* witness: `direction_network.faithful_realization` with the arguments
  `decide_rigidity` passes it, read off one spied call;
* decide_rigidity: the whole decision, witness included;
* verdict_json: `fileio.to_json_bytes(fileio.verdict_json(...))`.

Each root runs in its own process, once per repeat, with the roots'
order reversed in odd repeats so that a drift of the host's speed favours
none.  A process first parses, analyses and decides every graph, untimed,
to gather each stage's inputs, so every stage but the writer has run once
before it is timed.  The tool prints, per stage, each root's best of R in
microseconds per graph.
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
SEED = 0  # the --seed of `perigid check`


def build_graphs(perfbench: Path, n: int, count: int, seed: int) -> list[str]:
    """The .cg text of count graphs from instances.minimal, one rng for all."""
    sys.path.insert(0, str(perfbench))
    inst = importlib.import_module("instances")
    rng = random.Random(seed)
    return [inst.to_cg(*inst.minimal(rng, n)[:2]) for _ in range(count)]


def time_stages(texts: list[str]) -> dict[str, float]:
    """Microseconds per graph of each stage, in the perigid already on sys.path."""
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
    stages = {
        "parse": lambda: [fileio.parse_colored_graph(t) for t in texts],
        "laman_analysis": lambda: [rigidity.laman_analysis(g, SEED) for g in graphs],
        "counts": lambda: [sparsity.laman_sparse_subset(g, a.basis) for g, a in zip(graphs, analyses)],
        "witness": lambda: [real(*args, **kwargs) for args, kwargs in calls],
        "decide_rigidity": lambda: [rigidity.decide_rigidity(g, SEED) for g in graphs],
        "verdict_json": lambda: [fileio.to_json_bytes(fileio.verdict_json(g, v)) for g, v in zip(graphs, verdicts)],
    }
    times = {}
    for name in STAGES:
        start = time.perf_counter()
        stages[name]()
        times[name] = (time.perf_counter() - start) / len(texts) * 1e6
    return times


def run_side(src: str, graphs_file: str) -> None:
    """The child process of one root: print its stage times as one JSON line."""
    sys.path.insert(0, src)
    perigid = importlib.import_module("perigid")
    if Path(src).resolve() not in Path(perigid.__file__).resolve().parents:
        raise SystemExit(f"error: imported perigid from {perigid.__file__}, not from {src}")
    print(json.dumps(time_stages(json.loads(Path(graphs_file).read_text()))))


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
    args = parser.parse_args(argv)
    if args.n < 1 or args.graphs < 1 or args.repeats < 1:
        parser.error("--n, --graphs and --repeats must be positive")

    roots = [root.resolve() for root in args.root]
    best = [dict.fromkeys(STAGES, float("inf")) for _ in roots]
    with tempfile.TemporaryDirectory(prefix="stage_times_") as tmp:
        graphs_file = Path(tmp) / "graphs.json"
        graphs_file.write_text(json.dumps(build_graphs(roots[0] / "perfbench", args.n, args.graphs, args.seed)))
        for repeat in range(args.repeats):
            order = range(len(roots)) if repeat % 2 == 0 else reversed(range(len(roots)))
            for i in order:
                cmd = [sys.executable, __file__, "side", str(roots[i] / "src"), str(graphs_file)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
                if proc.returncode != 0:
                    print(f"error: {roots[i]} exited with {proc.returncode}", file=sys.stderr)
                    return 2
                times = json.loads(proc.stdout.strip().splitlines()[-1])
                best[i] = {name: min(best[i][name], times[name]) for name in STAGES}

    print(f"n = {args.n}, {args.graphs} graphs (seed {args.seed}), best of {args.repeats}, us per graph")
    print("stage".ljust(16) + "".join(f"  root {i}".rjust(12) for i in range(len(roots))))
    for name in STAGES:
        print(name.ljust(16) + "".join(f"{b[name]:12.1f}" for b in best))
    for i, root in enumerate(roots):
        print(f"root {i}: {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
