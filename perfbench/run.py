"""perigid benchmark: closed-loop CLI jobs on seeded instance families.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports perigid from the
checkout's `src/` and calls `perigid.cli.main` in-process, one job at a
time, with stdout captured: one client, and the next job starts when the
previous one returns.  Only whole rounds of a workload run (see
workloads.py); a new round starts while it is expected to end within
`--seconds`, and until at least MIN_JOBS jobs ran.  `--workload all` runs
each workload in its own process, one after another.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics.  With `--trace 1` the run spends UNTRACED_SHARE of `--seconds` on
untraced rounds, replays the same rounds with the layers wrapped (see
tracer.py), reports the per-layer metrics and writes the spans to
`.perfbench_out/`.

Shared virtual machines change speed by 30-40% in phases lasting seconds to
minutes (measured on a 2-vCPU VM, where the IQR over median of ten runs of
a wall-clock metric reached 0.35).  So every end-to-end time is reported at
a fixed reference speed: a short pure-Python calibration loop runs before
and after each job, and the job's wall time is scaled by REFERENCE_S over
the loop's mean time.  Where the loop takes REFERENCE_S, that is the wall
time itself.  The raw wall-clock metrics go to stderr.  Per-layer times
stay raw.

A job fails when it raises, or exits with code 2 or 3 instead of answering.
A job is wrong when it answers but its output contradicts the verdict its
instance was built with, or differs between runs of the same input.  Both
count in `failed`; only a wrong answer makes the run incorrect and the exit
code 1.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout; every run imports alike

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

MIN_JOBS = 40  # so that at least 10 jobs lie beyond the 75th percentile
SETUP_REPEATS = 3
UNTRACED_SHARE = 0.45  # of --seconds, in a traced run; the traced replay takes about the rest
NO_ANSWER = (2, 3)  # input error and internal consistency failure
CALIBRATION_LOOPS = 20_000
REFERENCE_S = 2.0e-3  # the calibration loop's time at reference speed


def calibration() -> float:
    """Seconds the fixed calibration loop takes now: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float) -> float:
    """Scale a wall time to the reference speed, from calibrations around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def import_perigid():
    """Import perigid from this checkout's src/ and nowhere else."""
    if not (SRC / "perigid" / "__init__.py").is_file():
        raise SystemExit(f"error: no perigid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    perigid = importlib.import_module("perigid")
    importlib.import_module("perigid.cli")
    if SRC.resolve() not in Path(perigid.__file__).resolve().parents:
        raise SystemExit(f"error: imported perigid from {perigid.__file__}, not from {SRC}")
    return perigid


def set_up(name: str, seed: int, perigid, directory: Path) -> list[list]:
    """Generate, validate and write one workload's instances; returns its rounds."""
    rounds = workloads.build(name, seed)
    workloads.validate([job for r in rounds for job in r], perigid)
    directory.mkdir(parents=True)
    written: dict[int, str] = {}
    for job in (job for r in rounds for job in r):
        key = id(job.edges)
        if key not in written:
            path = directory / f"{len(written):04d}.cg"
            path.write_text(workloads.inst.to_cg(job.n, job.edges))
            written[key] = str(path)
        job.path = written[key]
    return rounds


def run_job(perigid, job) -> tuple[float, int | None, bytes, str | None]:
    """One CLI invocation; returns (latency, exit code, stdout, exception)."""
    buf = io.BytesIO()
    wrapper = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = wrapper
    code, error = None, None
    start = time.perf_counter()
    try:
        code = perigid.cli.main(job.argv())
        wrapper.flush()
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed benchmark
        error = repr(exc)
    finally:
        latency = time.perf_counter() - start
        sys.stdout = saved
        wrapper.detach()
    return latency, code, buf.getvalue(), error


def closed_loop(perigid, rounds, seconds=None, min_jobs=MIN_JOBS, count=None, on_job=None):
    """Run whole rounds in order, cycling; returns (records, wall seconds).

    Stops after `count` jobs if given, else before the first round that the
    previous round's duration says would end after `seconds`, once at least
    `min_jobs` ran.  A record is (job, latency, exit code, stdout, error,
    latency at reference speed).
    """
    records = []
    start = time.perf_counter()
    last_round = 0.0
    before = calibration()
    for jobs in itertools.cycle(rounds):
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(records) >= count:
                break
        elif len(records) >= min_jobs and elapsed + last_round > seconds:
            break
        for job in jobs:
            if on_job:
                on_job(len(records))
            latency, code, out, error = run_job(perigid, job)
            after = calibration()
            records.append((job, latency, code, out, error, at_reference(latency, before, after)))
            before = after
        last_round = time.perf_counter() - start - elapsed
    return records, time.perf_counter() - start


def judge(records) -> tuple[list[str], list[str]]:
    """Failed and wrong jobs, one line each; equal outputs of a job are checked once."""
    verdicts: dict[tuple[int, bytes], str | None] = {}
    first_output: dict[int, bytes] = {}
    failed, wrong = [], []
    for job, _, code, out, error, _ in records:
        if error is not None:
            failed.append(f"{job.label}: raised {error}")
        elif code in NO_ANSWER:
            failed.append(f"{job.label}: exit code {code}: {out.decode(errors='replace').strip()}")
        elif first_output.setdefault(id(job), out) != out:
            wrong.append(f"{job.label}: output differs between runs of the same input")
        else:
            key = (id(job), out)
            if key not in verdicts:
                verdicts[key] = checks.check_job(job, code, out)
            if verdicts[key] is not None:
                wrong.append(f"{job.label}: {verdicts[key]}")
    return failed, wrong


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(records, setup_s: float, failed: int, column: int = 5) -> dict:
    """The end-to-end metrics from one latency column of the records.

    Column 5 holds latencies at reference speed, column 1 raw wall times.
    Throughput is over the summed job latencies, so the calibration loops
    between jobs do not count.  Failed jobs count against throughput, not
    latency.
    """
    answered = [r[column] for r in records if r[4] is None and r[2] not in NO_ANSWER]
    _, p50, p75 = statistics.quantiles(answered, n=4)
    ok = len(records) - failed
    return {
        "jobs_per_s": (ok / sum(r[column] for r in records), "jobs/s"),
        "job_p50_s": (p50, "s"),
        "job_p75_s": (p75, "s"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": (ok / len(records), "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_run(perigid, rounds, seconds: float, dump: Path) -> tuple[list, dict]:
    """Untraced rounds, then the same rounds traced; spans are dumped as JSON."""
    plain, untraced_wall = closed_loop(perigid, rounds, seconds=seconds * UNTRACED_SHARE, min_jobs=1)
    tracer = tracing.Tracer()
    tracer.install(perigid)
    try:
        traced, traced_wall = closed_loop(
            perigid, rounds, count=len(plain), on_job=lambda i: setattr(tracer, "job", i)
        )
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer, len(traced), traced_wall, untraced_wall)
    metrics["process.peak_rss_mb"] = (peak_rss_mb(), "MB")
    dump.parent.mkdir(exist_ok=True)
    dump.write_text(
        json.dumps(
            {
                "fields": ["name", "layer", "start", "end", "parent", "job"],
                "jobs": [r[0].label for r in traced],
                "spans": tracer.spans,
                "counters": tracer.counters,
            }
        )
    )
    return plain + traced, metrics


def timed(fn, *args):
    """(result, wall seconds, seconds at reference speed) of one call."""
    before = calibration()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, at_reference(wall, before, calibration())


def run_workload(args) -> int:
    perigid, raw_import, import_s = timed(import_perigid)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        raw_setups, setups = [], []
        for rep in range(SETUP_REPEATS):
            rounds, raw, scaled = timed(set_up, args.workload, args.seed, perigid, workdir / f"setup{rep}")
            raw_setups.append(raw)
            setups.append(scaled)
        setup_s = import_s + statistics.median(setups)
        raw_setup_s = raw_import + statistics.median(raw_setups)

        if args.trace:
            dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            records, metrics = traced_run(perigid, rounds, args.seconds, dump)
            failed, wrong = judge(records)
        else:
            records, _ = closed_loop(perigid, rounds, seconds=args.seconds)
            failed, wrong = judge(records)
            metrics = end_to_end(records, setup_s, len(failed) + len(wrong))
            raw = end_to_end(records, raw_setup_s, len(failed) + len(wrong), column=1)
            print("wall clock: " + json.dumps({k: v for k, (v, _) in raw.items()}), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for line in (failed + wrong)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed) + len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def run_all(args) -> int:
    """Each workload in its own process; prints one labelled line per workload."""
    worst = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        worst = max(worst, proc.returncode)
        for last in proc.stdout.strip().splitlines()[-1:]:
            print(json.dumps({"workload": name, **json.loads(last)}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
