"""The benchmark summary of tools/bench_pairs.py on hand-made run lists, its
argument checks, and a smoke run of tools/stage_times.py for each family."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
stage_times = _tool("stage_times")

JOBS = {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


def test_quartiles_stay_inside_the_runs():
    assert bench_pairs.quartiles([1, 2]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([3]) == (3, 3, 3)
    assert bench_pairs.quartiles([4, 1, 3, 2, 5]) == (2, 3, 4)


def test_verdicts_on_hand_made_runs():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [112, 111, 113, 110, 112, 111, 99, 112, 113, 111]  # 9 of 10 pairs won
    assert bench_pairs.summarise(JOBS, parent, faster)["verdict"] == "improved"
    one_more_loss = faster[:5] + [97] + faster[6:]  # 8 of 10 won
    assert bench_pairs.summarise(JOBS, parent, one_more_loss)["verdict"] == "level"
    # every pair won, but by less than the parent's own quartile spread
    spread = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
    assert bench_pairs.summarise(JOBS, spread, [x + 1 for x in spread])["verdict"] == "level"
    assert bench_pairs.summarise(JOBS, parent, [x * 0.7 for x in parent])["verdict"] == "worse"
    assert bench_pairs.summarise(JOBS, parent, [x * 0.8 for x in parent])["verdict"] == "level"
    # lower is better: 12 % more memory is past the 10 % bound, 8 % is not
    rss = [30.0, 30.5, 29.5, 30.0]
    assert bench_pairs.summarise(RSS, rss, [x * 1.12 for x in rss])["verdict"] == "worse"
    assert bench_pairs.summarise(RSS, rss, [x * 1.08 for x in rss])["verdict"] == "level"
    assert bench_pairs.summarise(RSS, rss, [x * 0.8 for x in rss])["verdict"] == "improved"
    # the parent's quartiles are 20 to 40 around a median of 30: too wide for a 10 % bound
    wide = [10, 20, 30, 40, 50]
    summary = bench_pairs.summarise(RSS, wide, [31, 21, 29, 41, 49])
    assert summary["verdict"] == "unresolved"
    assert (summary["parent"]["q1"], summary["parent"]["q3"]) == (20, 40)
    # every run of the change beats every run of the parent, by less than the
    # parent's quartile spread of 38: level, not unresolved
    split = [10, 11, 30, 49, 50]
    assert bench_pairs.summarise(RSS, split, [9.5] * 5)["verdict"] == "level"
    assert bench_pairs.summarise(RSS, split, [9.5] * 4 + [10.5])["verdict"] == "unresolved"


def test_more_failures_make_every_metric_worse():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [x * 1.2 for x in parent]
    assert bench_pairs.summarise(JOBS, parent, faster)["verdict"] == "improved"
    assert bench_pairs.summarise(JOBS, parent, faster, more_failures=True)["verdict"] == "worse"
    assert bench_pairs.summarise(JOBS, parent, parent, more_failures=True)["verdict"] == "worse"


def test_stage_times_smoke(capsys):
    for family, stages in stage_times.FAMILIES.items():
        argv = ["--root", str(ROOT), "--n", "6", "--graphs", "2", "--repeats", "1", "--family", family]
        assert stage_times.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        times = {line.split()[0]: float(line.split()[1]) for line in lines[2:2 + len(stages)]}
        assert list(times) == list(stages) and all(t > 0 for t in times.values())


def test_bench_pairs_takes_two_directories_or_two_revisions(tmp_path, capsys):
    for argv in (
        [],  # neither
        ["--parent", str(ROOT)],  # one directory
        ["--parent-rev", "HEAD", "--workdir", str(tmp_path)],  # one revision
        ["--parent-rev", "HEAD", "--change-rev", "HEAD"],  # no workdir
        ["--parent-rev", "HEAD", "--change-rev", "HEAD", "--workdir", str(tmp_path), "--change", str(ROOT)],
    ):
        with pytest.raises(SystemExit) as exit_:
            bench_pairs.main(argv + ["--workload", "check_minimal", "--pairs", "1", "--seconds", "1"])
        assert exit_.value.code == 2
    assert not list(tmp_path.iterdir())  # refused before anything was unpacked
