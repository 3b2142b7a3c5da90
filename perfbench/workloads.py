"""The three workloads: which CLI jobs run, on which seeded instances.

A job is one `perigid` CLI invocation on one `.cg` file.  A workload is a
list of rounds; a round is a fixed mix of jobs, and the run loop only runs
whole rounds, so every run holds the same mix.  The mix is weighted so that
the median and the 75th percentile of job latency fall inside a group of
similar jobs, not in a gap between two groups.

* check_minimal: `check --format json` on colored-Laman graphs, n = 6..12,
  six in ten of them at n = 10.  Each round uses new graphs: the sparsity cost
  of two graphs of one size differs by up to 3x, so a run needs dozens of
  distinct graphs for steady quantiles.  Larger n costs ~m^4 per job and
  would leave too few jobs in a run.
* combinatorial: `check` on over-braced and flexible non-sparse graphs, and
  `ross` on m = 2n - 2 graphs (Ross and not) on both sides of the m = 22
  enumeration cutoff.  No witness is built.
* numeric_large: `rank`, `oned`, `develop` and `cover` on n = 64..256.  No
  sparsity call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import instances as inst

NAMES = ("check_minimal", "combinatorial", "numeric_large")


@dataclass
class Job:
    label: str  # family and size, e.g. "minimal n=8"
    command: str
    extra: tuple[str, ...]
    n: int
    edges: list
    expect: dict
    path: str = field(default="")

    def argv(self) -> list[str]:
        return [self.command, self.path, "--seed", "0", *self.extra]


JSON = ("--format", "json")

MINIMAL_ROUND = (6, 8, 10, 10, 8, 10, 10, 12, 10, 10)  # both quantiles fall among the n = 10 jobs
MINIMAL_ROUNDS = 12

COMBINATORIAL_ROUNDS = 6
# (family, size, copies per round).  Sizes are n for check jobs and the edge
# count m = 2n - 2 for ross jobs.  The copies put both quantiles inside the
# group of over-braced n = 6 checks and m = 16, 24 ross jobs, of similar cost.
COMBINATORIAL_ROUND = (
    ("non-ross", 16, 1),
    ("non-ross", 18, 1),
    ("non-ross", 20, 1),
    ("non-ross", 24, 1),
    ("flexible", 6, 4),
    ("overbraced", 6, 5),
    ("ross", 16, 5),
    ("ross", 24, 2),
    ("flexible", 8, 1),
    ("overbraced", 8, 1),
    ("ross", 18, 1),
    ("ross", 20, 1),
)

NUMERIC_SIZES = (64, 128, 256)
NUMERIC_ROUNDS = 3  # distinct graphs per size
RANK_MATRICES = ("M232", "M222", "M112")
WINDOW = "-2:2,-2:2"
COVER_BASIS = "2,0,0,2"


def build(name: str, seed: int) -> list[list[Job]]:
    """Rounds of one workload; the same (name, seed) gives the same jobs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "check_minimal":
        return [_minimal_round(rng) for _ in range(MINIMAL_ROUNDS)]
    if name == "combinatorial":
        return [_combinatorial_round(rng) for _ in range(COMBINATORIAL_ROUNDS)]
    if name == "numeric_large":
        return [_numeric_round(rng) for _ in range(NUMERIC_ROUNDS)]
    raise ValueError(f"unknown workload {name!r}")


def _minimal_round(rng):
    return [Job(f"minimal n={n}", "check", JSON, *inst.minimal(rng, n)) for n in MINIMAL_ROUND]


def _combinatorial_job(rng, family, size):
    if family == "overbraced":
        return Job(f"overbraced n={size}", "check", JSON, *inst.overbraced(rng, size))
    if family == "flexible":
        return Job(f"flexible n={size}", "check", JSON, *inst.flexible_nonsparse(rng, size))
    genuine = family == "ross"
    return Job(f"{family} m={size}", "ross", JSON, *inst.ross(rng, (size + 2) // 2, genuine))


def _combinatorial_round(rng):
    queues = [[_combinatorial_job(rng, family, size) for _ in range(copies)]
              for family, size, copies in COMBINATORIAL_ROUND]
    jobs = []
    while any(queues):  # interleave the families
        jobs += [q.pop() for q in queues if q]
    return jobs


def _numeric_round(rng):
    jobs = []
    for n in NUMERIC_SIZES:
        plain, oned = inst.numeric(rng, n), inst.z_colored(rng, n)
        # The largest oned and M112 rank jobs run twice per round, so that the
        # 75th percentile falls among them rather than in the gap below them.
        copies = 2 if n == NUMERIC_SIZES[-1] else 1
        for matrix in RANK_MATRICES:
            rank = Job(f"rank {matrix} n={n}", "rank", ("--matrix", matrix, *JSON), *plain)
            jobs += [rank] * (copies if matrix == "M112" else 1)
        jobs += [Job(f"oned n={n}", "oned", JSON, *oned)] * copies
        jobs.append(Job(f"develop n={n}", "develop", ("--window", WINDOW, *JSON), *plain))
        jobs.append(Job(f"cover n={n}", "cover", ("--basis", COVER_BASIS), *plain))
    return jobs


def validate(jobs: list[Job], perigid) -> None:
    """Confirm every expected rank with perigid's exact F_p rigidity rank.

    That route shares no code with the sparsity layer.  Z-colored graphs are
    confirmed with the benchmark's own exact 1d rank.  Raises on a mismatch.
    """
    seen: set[int] = set()
    for job in jobs:
        if id(job.edges) in seen:
            continue
        seen.add(id(job.edges))
        n, edges, expect = job.n, job.edges, job.expect
        if job.command == "oned":
            got, want = inst.oned_rank(n, edges, random.Random(0)), expect["rank"]
        elif job.command == "ross":
            looped = perigid.ColoredGraph.build(n, list(edges) + list(inst.BASE_LOOPS))
            got = perigid.generic_rigidity_rank(looped, trials=1).rank == 2 * n + 1
            want = expect["ross"]
        else:
            graph = perigid.ColoredGraph.build(n, edges)
            got, want = perigid.generic_rigidity_rank(graph, trials=1).rank, expect["rank"]
        if got != want:
            raise RuntimeError(f"generated {job.label} fails its construction: {got} != {want}")
