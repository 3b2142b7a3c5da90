"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import instances as inst
import run
import tracer as tracing
import workloads
import perigid
import perigid.cli  # noqa: F401  (run_job calls perigid.cli.main)
from perigid import ColoredGraph, brute_force_sparsity

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEEDS = range(6)


# -- generator verdicts against the exhaustive checker (m <= 16) ------------


def _graph(n, edges):
    return ColoredGraph.build(n, edges)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_minimal_graphs_are_colored_laman(seed, n):
    n, edges, expect = inst.minimal(random.Random(seed), n)
    assert len(edges) == 2 * n + 1 == expect["rank"]
    assert brute_force_sparsity(_graph(n, edges), "laman").sparse


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [4, 6])
def test_overbraced_graphs_are_not_sparse(seed, n):
    n, edges, expect = inst.overbraced(random.Random(seed), n)
    assert len(edges) == 2 * n + 4 <= 16
    assert not brute_force_sparsity(_graph(n, edges), "laman").sparse
    tight = _graph(n, edges[: 2 * n + 1])
    assert brute_force_sparsity(tight, "laman").sparse
    circuit = [edges[i] for i in expect["circuit"]]
    assert not brute_force_sparsity(_graph(n, circuit), "laman").sparse
    for drop in range(len(circuit)):
        rest = circuit[:drop] + circuit[drop + 1 :]
        assert brute_force_sparsity(_graph(n, rest), "laman").sparse


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [4, 6, 8])
def test_flexible_graphs_are_not_sparse(seed, n):
    n, edges, expect = inst.flexible_nonsparse(random.Random(seed), n)
    assert len(edges) == 2 * n <= 16
    assert not brute_force_sparsity(_graph(n, edges), "laman").sparse
    assert inst.rigidity_rank(n, edges, random.Random(0)) == expect["rank"] == 2 * n - 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("genuine", [True, False])
@pytest.mark.parametrize("n", [5, 7, 9])
def test_ross_graphs_match_the_fixed_lattice_counts(seed, genuine, n):
    n, edges, expect = inst.ross(random.Random(seed), n, genuine)
    assert len(edges) == 2 * n - 2 <= 16
    assert brute_force_sparsity(_graph(n, edges), "ross").sparse is expect["ross"] is genuine


@pytest.mark.parametrize("seed", SEEDS)
def test_z_colored_graphs_are_rigid_on_the_line(seed):
    n, edges, expect = inst.z_colored(random.Random(seed), 12)
    assert all(g2 == 0 for _, _, (_, g2) in edges)
    assert inst.oned_rank(n, edges, random.Random(1)) == expect["rank"] == n


def _flat(name, seed):
    return [(j.label, j.command, j.extra, j.edges) for r in workloads.build(name, seed) for j in r]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_jobs(name):
    assert _flat(name, 3) == _flat(name, 3)
    assert _flat(name, 3) != _flat(name, 4)


def test_every_round_has_the_same_mix():
    for name in workloads.NAMES:
        mixes = {tuple(sorted(j.label for j in r)) for r in workloads.build(name, 0)}
        assert len(mixes) == 1, name


# -- output checks catch wrong answers ---------------------------------------


def _run(job, tmp_path):
    path = tmp_path / "g.cg"
    path.write_text(inst.to_cg(job.n, job.edges))
    job.path = str(path)
    _, code, out, error = run.run_job(perigid, job)
    assert error is None
    return code, out


def _job(factory, command, extra, *args):
    return workloads.Job("test", command, extra, *factory(random.Random(5), *args))


def _tampered(out: bytes, edit) -> bytes:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc).encode()


def test_checks_accept_right_and_reject_wrong_verdicts(tmp_path):
    job = _job(inst.minimal, "check", workloads.JSON, 4)
    code, out = _run(job, tmp_path)
    assert checks.check_job(job, code, out) is None
    assert checks.check_job(job, 1, out) is not None
    assert checks.check_job(job, code, _tampered(out, lambda d: d.update(rank=d["rank"] - 1))) is not None
    assert checks.check_job(job, code, _tampered(out, lambda d: d.update(witness=None))) is not None

    def collapse(doc):
        doc["witness"]["p"] = [[0.0, 0.0]] * len(doc["witness"]["p"])
        doc["witness"]["L"] = [[0.0, 0.0], [0.0, 0.0]]

    assert checks.check_job(job, code, _tampered(out, collapse)) is not None


def test_checks_reject_a_non_circuit(tmp_path):
    job = _job(inst.overbraced, "check", workloads.JSON, 5)
    code, out = _run(job, tmp_path)
    assert checks.check_job(job, code, out) is None

    def grow(doc):
        doc["circuit"]["edges"] = sorted(set(doc["circuit"]["edges"]) | {len(job.edges) - 1})

    assert checks.check_job(job, code, _tampered(out, grow)) is not None


def test_checks_numeric_commands(tmp_path):
    def shift(key):
        return lambda out: _tampered(out, lambda d: d.update({key: d[key] + 1}))

    for command, extra, tamper in [
        ("rank", ("--matrix", "M112", *workloads.JSON), shift("rank")),
        ("develop", ("--window", workloads.WINDOW, *workloads.JSON), shift("vertex_count")),
        ("cover", ("--basis", workloads.COVER_BASIS), lambda out: out.rsplit(b"\n", 2)[0] + b"\n"),
    ]:
        job = _job(inst.numeric, command, extra, 9)
        code, out = _run(job, tmp_path)
        assert checks.check_job(job, code, out) is None, command
        assert checks.check_job(job, code, tamper(out)) is not None, command


# -- span arithmetic ---------------------------------------------------------


def _synthetic_spans():
    # name, layer, start, end, parent, job
    return [
        ["cli.main", "cli", 0.0, 10.0, None, 0],
        ["fileio.parse_colored_graph", "fileio", 1.0, 2.0, 0, 0],
        ["rigidity.decide_rigidity", "rigidity", 2.0, 9.0, 0, 0],
        ["sparsity.max_laman_sparse_subset", "sparsity", 2.5, 6.0, 2, 0],
        ["sparsity.laman_sparse_subset", "sparsity", 3.0, 5.0, 3, 0],
        ["linear_rep.modp_rank", "linear_rep", 6.0, 8.0, 2, 0],
        ["sparsity.is_colored_laman", "sparsity", 8.2, 8.7, 2, 0],
    ]


def test_self_time_subtracts_child_spans_of_other_layers():
    spans = _synthetic_spans()
    selfs = tracing.self_times(spans)
    assert selfs["cli"] == pytest.approx(2.0)
    assert selfs["fileio"] == pytest.approx(1.0)
    assert selfs["rigidity"] == pytest.approx(1.0)
    assert selfs["sparsity"] == pytest.approx(4.0)
    assert selfs["linear_rep"] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(tracing.root_time(spans)) == pytest.approx(10.0)
    assert tracing.inclusive(spans, "sparsity.max_laman_sparse_subset") == pytest.approx(3.5)
    assert tracing.entry_calls(spans, "sparsity") == 2


def test_harness_time_closes_the_account():
    tracer = tracing.Tracer()
    tracer.spans = _synthetic_spans()
    metrics = tracing.per_layer_metrics(tracer, jobs=1, traced_wall=12.0, untraced_wall=10.0)
    assert metrics["trace.harness_s"][0] == pytest.approx(2.0)
    assert metrics["trace.accounted_ratio"][0] == pytest.approx(1.0)
    assert metrics["trace.overhead_ratio"][0] == pytest.approx(0.2)
    assert metrics["sparsity.self_s"][0] == pytest.approx(4.0)


def test_tracer_nests_spans_and_restores_bindings(tmp_path):
    before = (perigid.cli.main, perigid.rigidity.max_laman_sparse_subset, perigid.colored_graph.GainScan.add)
    tracer = tracing.Tracer()
    tracer.install(perigid)
    try:
        job = _job(inst.minimal, "check", workloads.JSON, 3)
        _run(job, tmp_path)
    finally:
        tracer.uninstall()
    assert (perigid.cli.main, perigid.rigidity.max_laman_sparse_subset, perigid.colored_graph.GainScan.add) == before
    spans = tracer.spans
    assert spans[0][tracing.NAME] == "cli.main" and spans[0][tracing.PARENT] is None
    for span in spans[1:]:
        parent = spans[span[tracing.PARENT]]
        assert parent[tracing.START] <= span[tracing.START] <= span[tracing.END] <= parent[tracing.END]
    assert tracing.entry_calls(spans, "sparsity") == 4
    assert tracer.counters["colored_graph.gainscan_adds"] > 0
    assert tracer.counters["direction_network.realizations"] == 1


# -- metric names match BENCHMARK.json ---------------------------------------


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_end_to_end_metrics_match_the_spec():
    records = [(None, 0.1 * (i + 1), 0, b"", None, 0.05 * (i + 1)) for i in range(8)]
    printed = run.end_to_end(records, setup_s=0.5, failed=0)
    assert {k: u for k, (_, u) in printed.items()} == _declared("end_to_end")
    assert printed["jobs_per_s"][0] == pytest.approx(8 / 1.8)
    assert run.end_to_end(records, setup_s=0.5, failed=0, column=1)["jobs_per_s"][0] == pytest.approx(8 / 3.6)


def test_reference_speed_scaling():
    assert run.at_reference(1.5, run.REFERENCE_S, run.REFERENCE_S) == pytest.approx(1.5)
    assert run.at_reference(1.5, 2 * run.REFERENCE_S, 2 * run.REFERENCE_S) == pytest.approx(0.75)


def test_per_layer_metrics_match_the_spec():
    tracer = tracing.Tracer()
    tracer.spans = _synthetic_spans()
    printed = tracing.per_layer_metrics(tracer, jobs=1, traced_wall=12.0, untraced_wall=10.0)
    printed["process.peak_rss_mb"] = (1.0, "MB")
    assert {k: u for k, (_, u) in printed.items()} == _declared("per_layer")


def test_predictions_name_declared_metrics():
    predictions = json.loads((BENCH / "predictions.json").read_text())
    names = set(_declared("per_layer")) | set(_declared("end_to_end"))
    workloads_named = {w["name"] for w in SPEC["workloads"]}
    assert workloads_named == set(workloads.NAMES)
    for row in predictions["predictions"]:
        assert set(row["per_layer"]) <= names, row
        assert set(row["moves"]) <= names, row
        assert set(row["workloads"]) <= workloads_named, row


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "numeric_large",
           "--seed", "0", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(section)
