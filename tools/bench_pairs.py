"""Alternating parent/change runs of the benchmark, summarised metric by metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --pairs N --seconds S [--first-seed K] [--out BENCH.json]
    python3 tools/bench_pairs.py --parent-rev REV --change-rev REV --workdir DIR \
        --workload NAME --pairs N --seconds S [--first-seed K] [--out BENCH.json]

Each DIR is the root of a checkout.  With `--parent-rev` and `--change-rev`
the tool builds both checkouts itself, the same way: `git archive` of each
revision of the repository the tool sits in, unpacked into the sibling
directories `parent` and `change` of the workdir, which must not exist yet.
Giving both sides one revision makes a same-code control pair, whose
verdicts show what the placement of two checkouts alone reads as; its entry
is stored under `controls`, not `workloads`.  Pair i runs

    python3 perfbench/run.py --workload NAME --seed K+i --seconds S --trace 0

once in each checkout, each run in its own process; the parent runs first
in even pairs and the change first in odd ones, so that a drift of the
host's speed does not favour one side.  For every end-to-end metric of the
change's BENCHMARK.json the summary gives each side's runs, median and
quartiles, the number of pairs the change won (ties count for neither),
the change's median relative to the parent's and a verdict (`improved`,
`worse`, `unresolved` or `level`, see `verdict`), which it also prints to
stderr.  Each side's share of failed jobs over all jobs attempted is stored
as `failed_share`; a larger share in the change's runs makes every verdict
`worse`.  Next to `peak_rss_mb` it gives each side's median `attempted` job
count, since the harness keeps every job's stdout and its peak RSS follows
the job count.  `--out` merges the workload's entry into an existing file,
so one file holds every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def archive(rev: str, into: Path) -> str:
    """Unpack `git archive` of rev into the new directory into; returns the commit id."""
    repo = Path(__file__).resolve().parents[1]
    commit = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    into.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(repo), "archive", commit], stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return commit


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a checkout; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: no output from {workload} seed {seed} in {root.name}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Quartiles by linear interpolation between the runs, never beyond them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(summary: dict, more_failures: bool = False) -> str:
    """`worse` when a larger share of the change's jobs failed, or when its
    median is worse than the parent's by more than the bound, relative to the
    parent's median; `improved` when the change wins at least 9 of 10 pairs
    and its median beats the parent's by more than the parent's quartile
    spread; `unresolved` when the parent's quartile spread over its median
    exceeds the bound, unless every run of the change beats every run of the
    parent; `level` otherwise."""
    sign = 1 if summary["better"] == "higher" else -1
    parent, change = summary["parent"], summary["change"]
    gain = sign * (change["median"] - parent["median"])
    pairs = len(parent["runs"])
    if more_failures or -gain > summary["bound"] * abs(parent["median"]):
        return "worse"
    if 10 * summary["change_wins"] >= 9 * pairs > 0 and gain > parent["q3"] - parent["q1"]:
        return "improved"
    every_run_better = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if parent["q3"] - parent["q1"] > summary["bound"] * abs(parent["median"]) and not every_run_better:
        return "unresolved"
    return "level"


def summarise(metric: dict, parent: list[float], change: list[float], more_failures: bool = False) -> dict:
    higher = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    losses = sum(1 for p, c in zip(parent, change) if (c < p if higher else c > p))
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side, values in (("parent", parent), ("change", change)):
        q1, q2, q3 = quartiles(values)
        out[side] = {"median": q2, "q1": q1, "q3": q3, "runs": values}
    p_med, c_med = out["parent"]["median"], out["change"]["median"]
    out["change_wins"] = wins
    out["change_losses"] = losses
    out["change_over_parent"] = c_med / p_med if p_med else None
    out["verdict"] = verdict(out, more_failures)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--parent-rev")
    parser.add_argument("--change-rev")
    parser.add_argument("--workdir", type=Path, help="where --parent-rev and --change-rev are unpacked")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    revs = {"parent": args.parent_rev, "change": args.change_rev}
    if any(revs.values()):
        if not all(revs.values()) or args.workdir is None or args.parent or args.change:
            parser.error("--parent-rev and --change-rev go together, with --workdir and without --parent or --change")
        for side, rev in revs.items():
            revs[side] = archive(rev, args.workdir / side)
            setattr(args, side, args.workdir / side)
    elif args.parent is None or args.change is None:
        parser.error("give --parent and --change, or --parent-rev and --change-rev")
    control = revs["parent"] is not None and revs["parent"] == revs["change"]

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"pair {i} seed {seed} {side}: " + json.dumps(result["metrics"]), file=sys.stderr)

    failed_share = {side: sum(r["failed"] for r in runs[side]) / max(1, sum(r["attempted"] for r in runs[side]))
                    for side in runs}
    print(f"failed share: parent {failed_share['parent']:.4g} change {failed_share['change']:.4g}", file=sys.stderr)
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        metrics[name] = summarise(metric, values["parent"], values["change"],
                                  failed_share["change"] > failed_share["parent"])
        m = metrics[name]
        print(f"{name}: parent median {m['parent']['median']:.4g} change median {m['change']['median']:.4g}, "
              f"change won {m['change_wins']} of {args.pairs}: {m['verdict']}", file=sys.stderr)
    # the harness keeps every job's stdout, so peak RSS grows with the job count
    for side in runs:
        attempted = statistics.median(r["attempted"] for r in runs[side])
        metrics["peak_rss_mb"][side]["attempted_median"] = attempted
        print(f"{side}: peak_rss_mb median {metrics['peak_rss_mb'][side]['median']:.2f} "
              f"at median attempted {attempted:g}", file=sys.stderr)
    entry = {
        "revisions": revs if revs["parent"] else None,
        "seeds": seeds,
        "seconds": args.seconds,
        "first_in_pair": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
        "failed_share": failed_share,
        "runs": {
            side: [{k: r[k] for k in ("correct", "attempted", "failed", "exit_code")} for r in runs[side]]
            for side in runs
        },
        "metrics": metrics,
    }
    report = {"host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()}, "workloads": {}}
    if args.out and args.out.is_file():
        report = json.loads(args.out.read_text())
    report.setdefault("controls" if control else "workloads", {})[args.workload] = entry
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
